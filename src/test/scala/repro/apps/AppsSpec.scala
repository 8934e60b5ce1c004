package repro.apps

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Algo, Budget, KHCore, NaiveCore}
import repro.club.BnBClubSolver
import repro.graphgen.GraphGen

/** Applications of §5 / Appendix B: chromatic number (Thm 1–2), densest
  * subgraph (Thm 4), landmarks, cocktail party.
  */
class AppsSpec extends AnyFunSuite {

  // ---- §5.1 distance-h chromatic number ----------------------------------

  for (seed <- 1 to 6; h <- 2 to 3)
    test(s"greedy coloring is a valid distance-h coloring (seed $seed, h=$h)") {
      val g = GraphGen.randomConnected(25, 2.5, seed)
      val color = Chromatic.greedyColoring(g, h)
      assert(Chromatic.isValidColoring(g, h, color))
    }

  // Reference greedy colours and G^h edge counts: the colours pin the
  // colouring order and tie-breaking, not just the number of colours.
  private val pinnedColorings = Seq(
    ("figure1", 2, "4,3,1,0,0,1,1,2,3,4,4,5,5", 49),
    ("figure1", 3, "0,1,2,3,0,4,1,5,6,7,8,9,10", 74),
    ("rc40-1", 2, "0,0,0,3,0,0,2,1,2,0,0,0,2,0,4,1,4,1,2,4,3,1,2,4,1,1,3,2,0,1,5,4,4,1,5,6,3,6", 148),
    ("rc40-1", 3, "0,0,1,3,1,6,2,0,3,2,0,1,0,2,4,5,5,6,6,1,7,1,8,9,0,8,4,2,4,1,10,9,10,5,8,11,3,7", 304),
    ("rc40-2", 2, "0,0,1,0,3,1,2,3,1,2,0,2,3,0,0,1,4,1,1,2,3,0,2,4,3,5,4,4,1,6,5,2,1,7,8", 159),
    ("rc40-2", 3, "3,0,1,2,3,2,3,2,1,1,0,6,4,0,5,5,6,6,1,7,8,1,2,8,7,9,10,0,2,11,12,7,1,13,14", 313))

  for ((name, h, colors, powerEdges) <- pinnedColorings)
    test(s"pinned greedy colours and G^h edge count ($name, h=$h)") {
      val g = if (name == "figure1") GraphGen.figure1
              else GraphGen.randomConnected(40, 2.5, name.stripPrefix("rc40-").toLong)
      assert(Chromatic.greedyColoring(g, h).mkString(",") == colors)
      assert(GraphGen.powerGraph(g, h).numEdges == powerEdges)
    }

  for (seed <- 1 to 8; h <- 2 to 3)
    test(s"Theorem 1: exact chi_h <= 1 + h-degeneracy (seed $seed, h=$h)") {
      val g = GraphGen.randomConnected(11, 2.2, 10 + seed)
      val chi = Chromatic.chromaticExact(g, h)
      val degeneracy = NaiveCore.decompose(g, h).max
      assert(chi <= 1 + degeneracy, s"chi=$chi C=$degeneracy")
    }

  test("exact chi_h on canned graphs") {
    assert(Chromatic.chromaticExact(GraphGen.clique(4), 2) == 4)
    assert(Chromatic.chromaticExact(GraphGen.path(5), 4) == 5)   // all within 4 hops
    assert(Chromatic.chromaticExact(GraphGen.path(5), 1) == 2)   // plain bipartite
    assert(Chromatic.chromaticExact(GraphGen.cycle(5), 2) == 5)  // C5^2 = K5
    assert(Chromatic.chromaticExact(GraphGen.star(6), 2) == 6)   // star^2 = K6
  }

  test("greedy color count upper-bounds the exact chromatic number") {
    for (seed <- 1 to 5; h <- 2 to 3) {
      val g = GraphGen.randomConnected(10, 2.5, 30 + seed)
      val greedy = Chromatic.greedyColoring(g, h).max + 1
      val exact = Chromatic.chromaticExact(g, h)
      assert(greedy >= exact, s"seed=$seed h=$h")
    }
  }

  test("Theorem 2 chain: w <= club <= clique <= chi_h <= 1 + degeneracy (tiny graphs)") {
    for (seed <- 1 to 5) {
      val g = GraphGen.randomConnected(11, 2.5, 40 + seed)
      val h = 2
      val club = BnBClubSolver.solve(g, h, 0, Budget.unlimited()).length
      val chi = Chromatic.chromaticExact(g, h)
      val degeneracy = NaiveCore.decompose(g, h).max
      assert(club <= chi, s"seed=$seed")
      assert(chi <= 1 + degeneracy, s"seed=$seed")
    }
  }

  // ---- §5.3 distance-h densest subgraph -----------------------------------

  for (seed <- 1 to 8; h <- 2 to 3)
    test(s"Theorem 4: core approximation meets the sqrt guarantee (seed $seed, h=$h)") {
      val g = GraphGen.randomConnected(11, 2.2, 50 + seed)
      val (_, fStar) = Densest.exactBruteForce(g, h)
      val approx = Densest.coreApproximation(g, h)
      assert(approx.density >= Densest.guaranteeBound(fStar) - 1e-9,
             s"f*=$fStar got=${approx.density}")
      assert(approx.density <= fStar + 1e-9) // approximation never beats optimum
    }

  test("densest core of a clique is the clique itself") {
    val g = GraphGen.clique(6)
    val a = Densest.coreApproximation(g, 2)
    assert(a.vertices.length == 6 && math.abs(a.density - 5.0) < 1e-9)
  }

  test("avgHDegree computed on the induced subgraph, not the full graph") {
    val g = GraphGen.path(5)
    // {0, 2, 4} induces an empty graph: density 0 despite short G-distances
    assert(Densest.avgHDegree(g, Array(0, 2, 4), 4) == 0.0)
  }

  // ---- §6.6 landmarks ------------------------------------------------------

  test("closeness centrality on a path peaks in the middle") {
    val g = GraphGen.path(7)
    val cc = Landmarks.closeness(g)
    assert(cc(3) == cc.max)
    assert(cc(0) == cc.min)
  }

  test("betweenness centrality matches hand-computed values on a path and star") {
    val p = GraphGen.path(5)
    val bc = Landmarks.betweenness(p)
    // path betweenness (undirected, both directions counted): v1=3*2, v2=4*2
    assert(bc(2) == bc.max)
    assert(bc(0) == 0.0 && bc(4) == 0.0)
    val s = GraphGen.star(6)
    val bs = Landmarks.betweenness(s)
    assert(bs(0) == 5 * 4) // center mediates all 5*4 ordered leaf pairs
    assert((1 until 6).forall(bs(_) == 0.0))
  }

  test("betweenness equals a brute force from all-pairs shortest-path counts on random graphs") {
    val rnd = new scala.util.Random(41)
    for (trial <- 0 until 30) {
      val n = 1 + rnd.nextInt(20)
      val g = GraphGen.er(n, math.min(rnd.nextInt(2 * n + 1), n * (n - 1) / 2), trial)
      // d(s)(t) by Floyd–Warshall (-1 = unreachable), then sigma(s)(t), the
      // number of shortest s-t paths, by increasing d(s)(t).
      val inf = Int.MaxValue / 2
      val fw = Array.tabulate(n, n)((a, b) => if (a == b) 0 else if (g.adj(a).contains(b)) 1 else inf)
      for (k <- 0 until n; a <- 0 until n; b <- 0 until n)
        fw(a)(b) = math.min(fw(a)(b), fw(a)(k) + fw(k)(b))
      val d = fw.map(_.map(x => if (x == inf) -1 else x))
      val sigma = Array.ofDim[Double](n, n)
      for (s <- 0 until n) {
        sigma(s)(s) = 1.0
        for (t <- (0 until n).filter(d(s)(_) > 0).sortBy(d(s)(_)); u <- 0 until n
             if g.adj(t).contains(u) && d(s)(u) == d(s)(t) - 1)
          sigma(s)(t) += sigma(s)(u)
      }
      // Over ordered pairs (s, t), v lies on sigma(s)(v)·sigma(v)(t) of the
      // sigma(s)(t) shortest paths when d(s,v) + d(v,t) = d(s,t).
      val expected = Array.tabulate(n) { v =>
        (for (s <- 0 until n; t <- 0 until n
              if s != v && t != v && s != t && d(s)(t) > 0 && d(s)(v) > 0 && d(v)(t) > 0 &&
                 d(s)(v) + d(v)(t) == d(s)(t))
          yield sigma(s)(v) * sigma(v)(t) / sigma(s)(t)).sum
      }
      val bc = Landmarks.betweenness(g)
      for (v <- 0 until n) assert(math.abs(bc(v) - expected(v)) <= 1e-9, s"trial $trial, v=$v")
    }
  }

  test("landmark bounds are valid: LB <= d <= UB implies error < 1 for adjacent pairs") {
    val g = GraphGen.communities(3, 15, 0.3, 0.03, 7)
    val pairs = Landmarks.samplePairs(g, 100, 1)
    val lm = Landmarks.fromMaxCore(g, 2, 5, 2)
    val err = Landmarks.approximationError(g, lm, pairs, Landmarks.pairDistances(g, pairs))
    assert(err >= 0.0 && err.isFinite)
  }

  test("median estimator is exact on a clique (LB=0, UB=2, d=1 for every pair)") {
    val g = GraphGen.clique(10)
    val pairs = Landmarks.samplePairs(g, 50, 3)
    val err = Landmarks.approximationError(g, Array(0), pairs, Landmarks.pairDistances(g, pairs))
    assert(err == 0.0)
  }

  test("on a star the center landmark's UB is exact (median error 0.5 on leaf pairs)") {
    val g = GraphGen.star(10)
    val leafPairs = Seq((1, 2), (3, 4), (5, 6))
    val err = Landmarks.approximationError(g, Array(0), leafPairs, Seq(2, 2, 2))
    assert(math.abs(err - 0.5) < 1e-9) // median (0+2)/2 = 1 vs true d = 2
  }

  test("samplePairs only returns connected distinct pairs") {
    val g = repro.core.AdjGraph.fromEdges(6, Seq((0, 1), (1, 2), (3, 4)))
    val pairs = Landmarks.samplePairs(g, 30, 4)
    val comp = g.components()
    assert(pairs.nonEmpty)
    pairs.foreach { case (s, t) =>
      assert(s != t && comp(s) == comp(t))
    }
  }

  test("topBy returns the highest-scoring vertices") {
    assert(Landmarks.topBy(Array(0.1, 0.9, 0.5, 0.7), 2).toSeq == Seq(1, 3))
  }

  // ---- Appendix B cocktail party ------------------------------------------

  test("cocktail party: single query vertex returns its own innermost core component") {
    val g = GraphGen.figure1
    val Some((k, members)) = CocktailParty.solve(g, 2, Seq(5)): @unchecked
    assert(k == 6)
    assert(members.sorted.toSeq == (3 to 12).toSeq) // v4..v13 (0-based)
  }

  test("cocktail party: query spanning cores descends to the connecting level") {
    val g = GraphGen.figure1
    val Some((k, members)) = CocktailParty.solve(g, 2, Seq(0, 5)): @unchecked
    assert(k == 4) // v1 only joins at its own core level
    assert(members.length == 13)
  }

  test("cocktail party objective: solution's min h-degree equals its core level") {
    for (seed <- 1 to 5) {
      val g = GraphGen.randomConnected(30, 3.0, 60 + seed)
      val q = Seq(0, g.n / 2)
      CocktailParty.solve(g, 2, q).foreach { case (k, members) =>
        assert(CocktailParty.minHDegree(g, members, 2) >= k)
        assert(q.forall(members.contains(_)))
      }
    }
  }

  test("cocktail party: optimality vs exhaustive check over core levels") {
    for (seed <- 1 to 4) {
      val g = GraphGen.randomConnected(25, 3.0, 80 + seed)
      val decomp = KHCore.decompose(g, 2, Algo.HLB)
      val q = Seq(1, 2)
      CocktailParty.solve(g, 2, q).foreach { case (k, _) =>
        // no higher core level has q connected
        for (k2 <- k + 1 to decomp.maxCore) {
          val verts = decomp.coreVertices(k2)
          if (q.forall(verts.contains(_))) {
            val (sub, ids) = g.inducedOn(verts.toSeq)
            val comp = sub.components()
            val cs = q.map(x => comp(ids.indexOf(x))).distinct
            assert(cs.size > 1, s"seed=$seed k2=$k2 should not connect q")
          }
        }
      }
    }
  }
}
