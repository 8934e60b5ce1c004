package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core._

/** Agreement of the algorithms with h-LB on dataset analogs, where
  * NaiveCore is too slow and h-LB+UB runs many UB intervals, so the work a
  * higher interval settles for a lower one is exercised at scale.
  *
  * h-LB's array must pass the lower-side check (no value too high); every
  * h-LB+UB variant and h-BZ must return exactly that array, and it must lie
  * between LB2 and UB.
  */
class DatasetAgreementSpec extends AnyFunSuite {

  /** Lower-side check: every v has at least core(v) h-neighbours inside
    * G[{u : core(u) ≥ core(v)}]. Vertices are taken by descending core, so
    * the alive set only grows.
    */
  private def lowerSideHolds(g: AdjGraph, h: Int, core: Array[Int]): Boolean = {
    val alive = new Array[Boolean](g.n)
    val bfs = new HBfs(g.n)
    val budget = Budget.unlimited()
    val byCore = (0 until g.n).groupBy(core(_)).toSeq.sortBy(-_._1)
    byCore.forall { case (c, vs) =>
      vs.foreach(alive(_) = true)
      vs.forall(v => bfs.run(g, alive, v, h, budget) >= c)
    }
  }

  private val analogs = Seq(("doub", 3), ("hyves", 3), ("rnTX", 4))

  /** h-LB's array on an analog, computed once and checked lower-side. */
  private val refs = scala.collection.mutable.Map.empty[(String, Int), Array[Int]]
  private def ref(name: String, h: Int): Array[Int] = refs.getOrElseUpdate((name, h), {
    val g = Datasets(name)
    val core = KHCore.decompose(g, h, Algo.HLB).core
    assert(lowerSideHolds(g, h, core), s"$name: h-LB fails the lower-side check")
    core
  })

  for ((name, h) <- analogs)
    test(s"h-LB+UB variants agree with h-LB on the $name analog (h=$h)") {
      val g = Datasets(name)
      val core = ref(name, h)
      val eng = new ThreadedEngine(g.n, threads = 4)
      try {
        val runs: Seq[(String, () => CoreResult)] = Seq(
          "h-LB+UB S=None"   -> (() => KHCore.decompose(g, h, Algo.HLBUB(None))),
          "h-LB+UB S=1"      -> (() => KHCore.decompose(g, h, Algo.HLBUB(Some(1)))),
          "h-LB+UB hDegUB"   -> (() => KHCore.decompose(g, h, Algo.HLBUBHDeg(None))),
          "h-LB+UB threaded" -> (() => KHCore.decompose(g, h, Algo.HLBUB(None), Some(eng))))
        for ((label, run) <- runs)
          assert(run().core.toSeq == core.toSeq, s"$name: $label differs from h-LB")
      } finally eng.shutdown()
    }

  for ((name, h) <- analogs)
    test(s"LB2 <= core <= UB on the $name analog (h=$h)") {
      val g = Datasets(name)
      val core = ref(name, h)
      val eng = new SequentialEngine(g.n)
      val (_, lb2) = Bounds.lowerBounds(g, h, eng)
      val ub = Bounds.upperBound(g, h, eng)
      for (v <- 0 until g.n)
        assert(lb2(v) <= core(v) && core(v) <= ub(v),
               s"$name: vertex $v has LB2 ${lb2(v)}, core ${core(v)}, UB ${ub(v)}")
    }

  for ((name, h) <- Seq(("doub", 3), ("rnTX", 4)))
    test(s"h-BZ agrees with h-LB on the $name analog (h=$h)") {
      val g = Datasets(name)
      assert(KHCore.decompose(g, h, Algo.HBZ).core.toSeq == ref(name, h).toSeq)
    }
}
