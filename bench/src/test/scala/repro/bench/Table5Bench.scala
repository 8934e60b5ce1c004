package repro.bench

import org.scalatest.funsuite.AnyFunSuite

/** Table 5: effect of the individual bounds on runtime — no-LB (h-BZ) vs
  * LB1 vs LB2, and h-degree-UB vs UB inside h-LB+UB. Shape claims (§6.3):
  *  - either lower bound beats no-LB by a wide margin on non-trivial
  *    instances (paper: one order of magnitude);
  *  - on road networks the LB2-over-LB1 overhead is not worth it (paper:
  *    rnPA LB1 3.00s vs LB2 3.18s at h=2) — we only require LB variants
  *    to stay close there;
  *  - the UB variant beats the h-degree variant on the harder instances.
  * Each finished cell is the median of 3 runs (see `TableRunners.table5`),
  * since one run spreads by about ±15% on a shared host.
  */
class Table5Bench extends AnyFunSuite {

  test("Table 5: effect of bounds on running time") {
    val rows = TableRunners.table5()

    // bounded variants always finish; no-LB may hit the budget (NT)
    for (r <- rows; v <- Seq("LB1", "LB2", "UB"))
      assert(r.times(v).isDefined, s"${r.name} h=${r.h} $v NT")

    // lower bounds beat no-LB wherever no-LB finished on non-trivial runs
    // (>= 1s). The paper reports ~10x on its 10-100x larger instances; on
    // these analogs the factor is 2-6x at h=3..4 (the >=10x regime shows up
    // on the doub/sytb/hyves analogs in Table 3 instead).
    val speedups = for {
      r <- rows
      noLb <- r.times("no LB").toSeq if noLb >= 1000
      lb2 <- r.times("LB2").toSeq
    } yield noLb.toDouble / math.max(lb2, 1)
    assert(speedups.nonEmpty, "no non-trivial finished no-LB runs — resize budget")
    assert(speedups.forall(_ >= 1.5), s"LB2 speedups too small: $speedups")
    assert(speedups.max >= 4.0, s"best LB2 speedup ${speedups.max} < 4x")

    // no-LB is never faster than the LB2 variant on non-trivial rows
    for (r <- rows; noLb <- r.times("no LB") if noLb >= 1000; lb2 <- r.times("LB2"))
      assert(lb2 <= noLb, s"${r.name} h=${r.h}: LB2 slower than no-LB")

    // UB vs h-degree UB on the hardest finished rows: UB no slower than
    // 1.5x anywhere it matters, and strictly faster somewhere non-trivial
    val ubWins = for {
      r <- rows
      hd <- r.times("h-degree UB").toSeq if hd >= 1000
      ub <- r.times("UB").toSeq
    } yield (s"${r.name} h=${r.h}", hd, ub)
    assert(ubWins.exists { case (_, hd, ub) => ub < hd },
           s"UB should beat h-degree UB on some hard instance: $ubWins")
  }
}
