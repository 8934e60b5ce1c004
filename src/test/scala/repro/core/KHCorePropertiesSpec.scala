package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graphgen.GraphGen
import scala.util.Random

/** Structural properties of the (k,h)-core decomposition itself (§3):
  * uniqueness (Property 1), containment (Property 2), the fixpoint
  * characterization, and the h=1 classic-core equivalence.
  */
class KHCorePropertiesSpec extends AnyFunSuite {

  private def randomGraphs: Seq[(String, AdjGraph)] =
    (1 to 6).map(s => s"er-$s" -> GraphGen.randomConnected(30, 3.0, 200 + s)) ++
    (1 to 3).map(s => s"ba-$s" -> GraphGen.ba(30, 3, 2, 210 + s))

  test("Property 2 (containment): the (k+1,h)-core is inside the (k,h)-core") {
    for ((name, g) <- randomGraphs; h <- 2 to 3) {
      val core = KHCore.decompose(g, h).core
      for (k <- 1 to core.max) {
        val ck = core.indices.filter(core(_) >= k).toSet
        val ck1 = core.indices.filter(core(_) >= k + 1).toSet
        assert(ck1.subsetOf(ck), s"$name h=$h k=$k")
      }
    }
  }

  test("fixpoint characterization: coreVertices(k) equals the iterative-deletion (k,h)-core") {
    for ((name, g) <- randomGraphs.take(4); h <- 2 to 3) {
      val res = KHCore.decompose(g, h)
      for (k <- 1 to res.maxCore) {
        val expected = NaiveCore.khCoreVertices(g, k, h).toSeq
        assert(res.coreVertices(k).toSeq == expected, s"$name h=$h k=$k")
      }
    }
  }

  test("every vertex of the (k,h)-core has h-degree >= k inside it") {
    for ((name, g) <- randomGraphs.take(4); h <- 2 to 3) {
      val res = KHCore.decompose(g, h)
      for (k <- 1 to res.maxCore) {
        val verts = res.coreVertices(k)
        if (verts.nonEmpty) {
          val (sub, _) = g.inducedOn(verts.toSeq)
          assert(Bounds.hDegUB(sub, h, new SequentialEngine(sub.n)).forall(_ >= k), s"$name h=$h k=$k")
        }
      }
    }
  }

  test("maximality: no vertex outside the (k,h)-core can be added back") {
    // adding any single excluded vertex (plus the core) must break the
    // min-h-degree >= k property after iterative deletion re-shrinks it
    for ((name, g) <- randomGraphs.take(3)) {
      val h = 2
      val res = KHCore.decompose(g, h)
      val k = res.maxCore
      val inCore = res.coreVertices(k).toSet
      for (v <- 0 until g.n if !inCore(v)) {
        val cand = (inCore + v).toSeq
        val (sub, ids) = g.inducedOn(cand)
        val degs = Bounds.hDegUB(sub, h, new SequentialEngine(sub.n))
        val vIdx = ids.indexOf(v)
        assert(degs(vIdx) < k || degs.exists(_ < k), s"$name vertex $v could extend the core")
      }
    }
  }

  test("uniqueness: decomposition is independent of peeling tie-breaking") {
    // relabeling the vertices randomly permutes all tie-breaks; the core
    // indices must map through the permutation
    val rnd = new Random(3)
    for ((name, g) <- randomGraphs.take(4); h <- 2 to 3) {
      val perm = rnd.shuffle((0 until g.n).toList).toArray
      val inv = new Array[Int](g.n)
      perm.zipWithIndex.foreach { case (p, i) => inv(p) = i }
      val g2 = AdjGraph.fromEdges(g.n, g.edges.toSeq.map { case (a, b) => (perm(a), perm(b)) })
      val c1 = KHCore.decompose(g, h).core
      val c2 = KHCore.decompose(g2, h).core
      assert((0 until g.n).forall(v => c1(v) == c2(perm(v))), s"$name h=$h")
    }
  }

  test("h >= diameter: every vertex of a connected graph lands in core n-1") {
    val g = GraphGen.randomConnected(25, 3.0, 99)
    val d = g.diameterExact()
    val core = KHCore.decompose(g, d + 1).core
    assert(core.toSeq == Seq.fill(g.n)(g.n - 1))
  }

  test("monotonicity in h: core indices never decrease as h grows") {
    for ((name, g) <- randomGraphs.take(4)) {
      val byH = (1 to 4).map(h => KHCore.decompose(g, h).core)
      for (i <- 0 until 3; v <- 0 until g.n)
        assert(byH(i)(v) <= byH(i + 1)(v), s"$name v=$v h=${i + 1}->${i + 2}")
    }
  }

  test("visits accounting is monotone in algorithm sophistication on a dense instance") {
    val g = GraphGen.communities(3, 25, 0.4, 0.02, 17)
    val h = 3
    val bz = KHCore.decompose(g, h, Algo.HBZ)
    val lb = KHCore.decompose(g, h, Algo.HLB)
    assert(lb.visits < bz.visits, s"h-LB (${lb.visits}) should save visits over h-BZ (${bz.visits})")
  }

  test("stats fields are populated") {
    val r = KHCore.decompose(GraphGen.petersen, 2)
    assert(r.visits > 0 && r.bfsCount > 0 && r.millis >= 0)
  }
}
