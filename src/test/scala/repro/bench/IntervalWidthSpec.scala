package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core._

/** The default h-LB+UB starts at the width ⌈(|U|−1)/12⌉ of Alg. 4 and
  * doubles it after every interval that assigns no vertex. Where UB
  * overshoots the top cores (the caAs analog at h=3) this skips the empty
  * intervals' work; where no interval is empty (hyves, rnTX) the run is
  * the fixed-width one, visit for visit.
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
}
