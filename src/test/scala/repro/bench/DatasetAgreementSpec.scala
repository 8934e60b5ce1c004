package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core._

/** Exactness and agreement of the algorithms on dataset analogs, where
  * NaiveCore is too slow and h-LB+UB runs many UB intervals, so the work a
  * higher interval settles for a lower one is exercised at scale.
  *
  * Every h-LB and h-LB+UB result, sequential and threaded, level-synchronous
  * and paper-literal, must pass [[Certify]] on all 13 analogs at h = 2, 3
  * (lj only at h = 2: h=3 takes 1.7·10⁹ visits), with the same core, order,
  * visits and BFS count on 1, 2, 3 and 4 threads. h-LB's certified array is
  * the reference: every other h-LB+UB variant and h-BZ must return exactly
  * it, and it must lie between LB2 and UB.
  */
class DatasetAgreementSpec extends AnyFunSuite {

  private val analogs = Seq(("doub", 3), ("hyves", 3), ("rnTX", 4))

  /** h-LB's array on an analog, computed once and certified. */
  private val refs = scala.collection.mutable.Map.empty[(String, Int), Array[Int]]
  private def ref(name: String, h: Int): Array[Int] = refs.getOrElseUpdate((name, h), {
    val g = Datasets(name)
    val r = KHCore.decompose(g, h, Algo.HLB)
    Certify.check(g, h, r.core, r.order).foreach(f => fail(s"$name: h-LB fails the certificate: $f"))
    r.core
  })

  for (e <- Datasets.all; h <- Seq(2, 3) if !(e.name == "lj" && h == 3))
    test(s"Certify accepts h-LB and h-LB+UB on the ${e.name} analog (h=$h)") {
      val g = Datasets(e.name)
      val engines = Seq(2, 3, 4).map(t => (t, new ThreadedEngine(g.n, threads = t)))
      try {
        for (algo <- Seq[Algo](Algo.HLB, Algo.HLBUB(None)); paperLiteral <- Seq(false, true)) {
          val label = s"${e.name}: $algo paperLiteral=$paperLiteral"
          val seq = KHCore.decompose(g, h, algo, None, paperLiteral = paperLiteral)
          Certify.check(g, h, seq.core, seq.order).foreach(f => fail(s"$label threads=1: $f"))
          for ((t, eng) <- engines) {
            val mt = KHCore.decompose(g, h, algo, Some(eng), paperLiteral = paperLiteral)
            Certify.check(g, h, mt.core, mt.order).foreach(f => fail(s"$label threads=$t: $f"))
            assert(seq.core.toSeq == mt.core.toSeq, s"$label threads=$t: core")
            assert(seq.order.toSeq == mt.order.toSeq, s"$label threads=$t: order")
            assert((seq.visits, seq.bfsCount) == ((mt.visits, mt.bfsCount)), s"$label threads=$t: visits, BFS")
          }
        }
      } finally engines.foreach(_._2.shutdown())
    }

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
