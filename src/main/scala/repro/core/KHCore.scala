package repro.core

/** Algorithm selector for the distance-generalized core decomposition. */
sealed trait Algo
object Algo {
  /** Algorithm 1 — baseline distance-generalized Batagelj–Zaveršnik. */
  case object HBZ extends Algo
  /** Algorithm 2 — lower-bound peeling (LB2). */
  case object HLB extends Algo
  /** Table 5 ablation: h-LB with the weaker LB1 bound. */
  case object HLB1 extends Algo
  /** Algorithm 4 — top-down lower+upper bound peeling. */
  final case class HLBUB(s: Option[Int] = None) extends Algo
  /** Table 5 ablation: h-LB+UB with h-degree as the upper bound. */
  final case class HLBUBHDeg(s: Option[Int] = None) extends Algo
}

/** Facade over the three exact algorithms of §4.
  *
  * All of them return identical core indices (they are exact); they differ
  * in runtime and in the number of h-BFS visits they spend — the quantities
  * Tables 3 and 5 compare.
  *
  * h-LB and h-LB+UB (its CoreDecomp and its UpperBound) peel each bucket
  * in level-synchronous rounds by default; `paperLiteral` selects Alg. 3
  * and 5 as written, one vertex per round, whose visit counts are the ones
  * the paper's tables compare. h-BZ always runs as written.
  */
object KHCore {

  def decompose(g: AdjGraph, h: Int, algo: Algo = Algo.HLBUB(),
                engine: Option[HDegEngine] = None,
                budget: Budget = Budget.unlimited(),
                paperLiteral: Boolean = false): CoreResult = {
    val eng = engine.getOrElse(new SequentialEngine(g.n))
    try {
      algo match {
        case Algo.HBZ           => HBZ.decompose(g, h, eng, budget)
        case Algo.HLB           => HLB.decompose(g, h, eng, budget, useLB1Only = false, paperLiteral)
        case Algo.HLB1          => HLB.decompose(g, h, eng, budget, useLB1Only = true, paperLiteral)
        case Algo.HLBUB(s)      => HLBUB.decompose(g, h, eng, budget, s, useHDegAsUB = false, paperLiteral)
        case Algo.HLBUBHDeg(s)  => HLBUB.decompose(g, h, eng, budget, s, useHDegAsUB = true, paperLiteral)
      }
    } finally {
      if (engine.isEmpty) eng.shutdown()
    }
  }
}
