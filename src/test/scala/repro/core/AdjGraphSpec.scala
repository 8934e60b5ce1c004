package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.bench.Datasets
import repro.graphgen.GraphGen

class AdjGraphSpec extends AnyFunSuite {

  test("fromEdges drops self-loops and duplicate edges") {
    val g = AdjGraph.fromEdges(4, Seq((0, 1), (1, 0), (1, 1), (2, 3), (2, 3)))
    assert(g.numEdges == 2)
    assert(g.adj(1).toSeq == Seq(0))
    assert(g.adj(2).toSeq == Seq(3))
  }

  test("fromEdges builds the rows a sorted set per vertex builds, on random edge lists") {
    // Duplicates, self-loops and both orientations of an edge, read from a
    // sequence (known size) and from an iterator (unknown size).
    val rnd = new scala.util.Random(17)
    for (trial <- 0 until 40) {
      val n = 1 + rnd.nextInt(40)
      val base = Seq.fill(rnd.nextInt(4 * n + 1))((rnd.nextInt(n), rnd.nextInt(n)))
      val edges = rnd.shuffle(base ++ base.take(n).map(_.swap) ++ base.takeRight(n) ++
                              Seq.fill(rnd.nextInt(3))(rnd.nextInt(n)).map(v => (v, v)))
      val sets = Array.fill(n)(scala.collection.mutable.SortedSet.empty[Int])
      for ((a, b) <- edges if a != b) { sets(a) += b; sets(b) += a }
      val expected = sets.map(_.toSeq).toSeq
      assert(AdjGraph.fromEdges(n, edges).adj.map(_.toSeq).toSeq == expected, s"trial $trial")
      assert(AdjGraph.fromEdges(n, edges.iterator).adj.map(_.toSeq).toSeq == expected, s"trial $trial")
    }
  }

  test("fromEdges rejects out-of-range vertices") {
    intercept[IllegalArgumentException] { AdjGraph.fromEdges(3, Seq((0, 3))) }
  }

  test("degree and numEdges on a clique") {
    val g = GraphGen.clique(6)
    assert((0 until 6).forall(g.degree(_) == 5))
    assert(g.numEdges == 15)
  }

  test("bfsDistances on a path") {
    val g = GraphGen.path(5)
    assert(g.bfsDistances(0).toSeq == Seq(0, 1, 2, 3, 4))
    assert(g.bfsDistances(2).toSeq == Seq(2, 1, 0, 1, 2))
  }

  test("bfsDistances marks unreachable as -1") {
    val g = AdjGraph.fromEdges(4, Seq((0, 1)))
    val d = g.bfsDistances(0)
    assert(d(2) == -1 && d(3) == -1)
  }

  /** All-pairs distances by Floyd–Warshall; -1 = unreachable. */
  private def floydWarshall(g: AdjGraph): Array[Array[Int]] = {
    val inf = Int.MaxValue / 2
    val d = Array.tabulate(g.n, g.n)((a, b) => if (a == b) 0 else inf)
    for (v <- 0 until g.n; u <- g.adj(v)) d(v)(u) = 1
    for (k <- 0 until g.n; a <- 0 until g.n; b <- 0 until g.n)
      if (d(a)(k) + d(k)(b) < d(a)(b)) d(a)(b) = d(a)(k) + d(k)(b)
    d.map(_.map(x => if (x == inf) -1 else x))
  }

  test("bfsDistances equals a Floyd–Warshall row on random graphs, disconnected included") {
    val rnd = new scala.util.Random(29)
    for (trial <- 0 until 40) {
      val n = 1 + rnd.nextInt(30)
      val g = GraphGen.er(n, math.min(rnd.nextInt(2 * n + 1), n * (n - 1) / 2), trial)
      val fw = floydWarshall(g)
      for (v <- 0 until n) assert(g.bfsDistances(v).toSeq == fw(v).toSeq, s"trial $trial, v=$v")
    }
  }

  test("diameterExact of a disconnected graph is its largest component diameter") {
    // Vertex 0 on a path of 3 (diameter 2), then a path of 6 (5), then an
    // isolated vertex.
    val g = AdjGraph.fromEdges(10, Seq((0, 1), (1, 2)) ++ (3 until 8).map(i => (i, i + 1)))
    assert(g.diameterExact() == 5)
    for (seed <- 1 to 10) {
      val r = GraphGen.er(30, 25, seed)
      val comp = r.components()
      val largest = comp.distinct.map(c => r.induced(comp.map(_ == c))._1.diameterExact()).max
      assert(r.diameterExact() == largest, s"seed=$seed")
      assert(r.diameterExact() == floydWarshall(r).flatten.max, s"seed=$seed")
    }
  }

  test("diameterLowerBound of the lj analog is 5, Table 1's lj bound") {
    assert(Datasets("lj").diameterLowerBound() == 5)
  }

  test("diameterLowerBound restarts from the lowest-id farthest vertex") {
    // From 0, vertices 2 and 3 are farthest (2), and 3 is reached last;
    // ecc(2) = 3 (to 4) but ecc(3) = 2.
    val g = AdjGraph.fromEdges(5, Seq((0, 1), (1, 2), (1, 3), (0, 4), (4, 3)))
    assert(g.diameterLowerBound(sweeps = 2) == 3)
    assert(g.diameterExact() == 3)
  }

  test("diameter bounds of the empty graph are 0") {
    val g = AdjGraph.empty(0)
    assert(g.diameterLowerBound() == 0)
    assert(g.diameterExact() == 0)
  }

  test("components on a disconnected graph") {
    val g = AdjGraph.fromEdges(6, Seq((0, 1), (1, 2), (3, 4)))
    val c = g.components()
    assert(c(0) == c(1) && c(1) == c(2))
    assert(c(3) == c(4) && c(3) != c(0))
    assert(c(5) != c(0) && c(5) != c(3))
  }

  test("components(mask) labels the components of the induced subgraph") {
    for (seed <- 1 to 20) {
      val g = GraphGen.er(40, 30 + seed, seed)
      val rnd = new scala.util.Random(seed)
      val mask = Array.fill(g.n)(rnd.nextDouble() < 0.7)
      val comp = g.components(mask)
      val (sub, ids) = g.induced(mask)
      assert(ids.indices.map(i => comp(ids(i))) == sub.components().toSeq, s"seed=$seed")
      assert((0 until g.n).forall(v => mask(v) || comp(v) == -1), s"seed=$seed")
    }
  }

  test("diameterExact of canned graphs") {
    assert(GraphGen.path(6).diameterExact() == 5)
    assert(GraphGen.cycle(8).diameterExact() == 4)
    assert(GraphGen.clique(5).diameterExact() == 1)
    assert(GraphGen.star(7).diameterExact() == 2)
    assert(GraphGen.petersen.diameterExact() == 2)
  }

  test("diameterLowerBound never exceeds the exact diameter") {
    for (seed <- 1 to 5) {
      val g = GraphGen.randomConnected(60, 3.0, seed)
      assert(g.diameterLowerBound() <= g.diameterExact())
    }
  }

  test("induced subgraph keeps only internal edges") {
    val g = GraphGen.cycle(6)
    val (sub, ids) = g.inducedOn(Seq(0, 1, 2, 4))
    assert(sub.n == 4)
    assert(ids.toSeq == Seq(0, 1, 2, 4))
    assert(sub.numEdges == 2) // 0-1, 1-2; vertex 4 isolated
  }

  test("induced and inducedOn equal a subgraph built by filtering the edges, on random ER graphs and masks") {
    val rnd = new scala.util.Random(23)
    for (trial <- 0 until 30) {
      val n = 1 + rnd.nextInt(40)
      val g = GraphGen.er(n, rnd.nextInt(math.min(2 * n, n * (n - 1) / 2) + 1), trial)
      val masks = Seq(Array.fill(n)(false), Array.fill(n)(true),
                      Array.fill(n)(rnd.nextBoolean()), Array.fill(n)(rnd.nextInt(4) == 0))
      for ((keep, m) <- masks.zipWithIndex) {
        val ids = (0 until n).filter(keep(_))
        val newId = ids.zipWithIndex.toMap
        val expected = AdjGraph.fromEdges(ids.length,
          g.edges.collect { case (a, b) if keep(a) && keep(b) => (newId(a), newId(b)) })
        for ((label, (sub, got)) <- Seq("induced" -> g.induced(keep), "inducedOn" -> g.inducedOn(ids))) {
          val where = s"$label trial $trial mask $m"
          assert(got.toSeq == ids, where)
          assert(sub.n == ids.length, where)
          assert(sub.adj.map(_.toSeq).toSeq == expected.adj.map(_.toSeq).toSeq, where)
          assert(sub.numEdges == expected.numEdges, where)
        }
      }
    }
  }

  test("largestComponent breaks a size tie to the lowest component id") {
    // Components by discovery: {0,1} = 0, {2} = 1, {3,4} = 2, {5} = 3.
    val (big, ids) = AdjGraph.fromEdges(6, Seq((3, 4), (0, 1))).largestComponent()
    assert(big.n == 2 && big.numEdges == 1)
    assert(ids.toSeq == Seq(0, 1))
  }

  test("largestComponent picks the bigger side") {
    val g = AdjGraph.fromEdges(7, Seq((0, 1), (1, 2), (2, 3), (4, 5)))
    val (big, ids) = g.largestComponent()
    assert(big.n == 4)
    assert(ids.toSeq == Seq(0, 1, 2, 3))
  }

  test("edges returns the sorted canonical edge list") {
    val g = AdjGraph.fromEdges(4, Seq((2, 1), (0, 3), (3, 0)))
    assert(g.edges.toSeq == Seq((0, 3), (1, 2)))
  }
}
