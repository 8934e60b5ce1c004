package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core._

/** The default h-LB+UB starts at the width ⌈(|U|−1)/12⌉ of Alg. 4 and
  * doubles it after every interval that assigns no vertex. Where UB
  * overshoots the top cores (the caAs analog at h=3) this skips the empty
  * intervals' work; where no interval is empty (hyves, rnTX) the run is
  * the fixed-width one, visit for visit.
  *
  * On these analogs the default's work and cores also do not depend on the
  * vertex ids: a copy relabelled by a cyclic shift, with or without a
  * reflection, costs the same visits and BFS and has the same cores under
  * the relabelling.
  */
class IntervalWidthSpec extends AnyFunSuite {

  /** h-LB+UB at the start width, kept for the whole run. */
  private def fixedWidth(g: AdjGraph, h: Int): CoreResult = {
    val s = HLBUB.plan(g, h, new SequentialEngine(g.n), Budget.unlimited(), None).s
    KHCore.decompose(g, h, Algo.HLBUB(Some(s)))
  }

  test("the default skips the empty top intervals of the caAs analog (h=3)") {
    val g = Datasets("caAs")
    val fixed = fixedWidth(g, 3)
    val default = KHCore.decompose(g, 3, Algo.HLBUB(None))
    assert(default.visits < fixed.visits)
    assert(default.core.toSeq == fixed.core.toSeq)
    Certify.check(g, 3, default.core, default.order).foreach(f => fail(f))
  }

  for ((name, h) <- Seq(("hyves", 3), ("rnTX", 4)))
    test(s"the default spends the fixed width's visits on the $name analog (h=$h)") {
      val g = Datasets(name)
      val fixed = fixedWidth(g, h)
      val default = KHCore.decompose(g, h, Algo.HLBUB(None))
      assert((default.visits, default.bfsCount) == (fixed.visits, fixed.bfsCount))
      assert(default.core.toSeq == fixed.core.toSeq)
    }

  /** `g` with vertex v renamed `id(v)`; returns the copy and `id`. */
  private def relabel(g: AdjGraph, off: Int, reflect: Boolean): (AdjGraph, Int => Int) = {
    val n = g.n
    val id = (v: Int) => { val s = (v + off) % n; if (reflect) n - 1 - s else s }
    (AdjGraph.fromEdges(n, g.edges.iterator.map { case (a, b) => (id(a), id(b)) }), id)
  }

  for ((name, h) <- Seq(("caAs", 3), ("hyves", 3), ("rnTX", 4)))
    test(s"the default's work and cores do not depend on the labelling of the $name analog (h=$h)") {
      val g = Datasets(name)
      val r = KHCore.decompose(g, h, Algo.HLBUB(None))
      for ((off, reflect) <- Seq((g.n / 3, false), (0, true), (g.n / 2 + 1, true))) {
        val (copy, id) = relabel(g, off, reflect)
        val rc = KHCore.decompose(copy, h, Algo.HLBUB(None))
        val label = s"shift $off, reflect $reflect"
        assert((rc.visits, rc.bfsCount) == (r.visits, r.bfsCount), label)
        assert((0 until g.n).forall(v => rc.core(id(v)) == r.core(v)), label)
      }
    }
}
