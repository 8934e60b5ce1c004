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

/** Facade over the three exact algorithms of §4, and the one shell that
  * runs them: it checks `h`, answers the empty graph, owns the default
  * sequential engine, times the run and builds the [[CoreResult]].
  *
  * All of them return identical core indices (they are exact); they differ
  * in runtime and in the number of h-BFS visits they spend — the quantities
  * Tables 3 and 5 compare. h-BZ (Alg. 1) and h-LB (Alg. 2) are one
  * [[CoreDecomp.peelAll]] each: h-BZ buckets every vertex at its h-degree
  * and re-measures every h-neighbour of a peeled vertex (one h-BFS each),
  * the cost the later algorithms attack; h-LB buckets every vertex at its
  * LB2 (LB1 for the Table 5 ablation) with `setLB` raised, so an h-degree
  * is materialized only when the vertex's bucket is reached. Outside
  * `paperLiteral`, h-LB also caps its re-measures (see [[CoreDecomp]]): a
  * flagged vertex's h-BFS stops once it proves the vertex survives the
  * level.
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
    require(h >= 1, "h must be >= 1")
    if (g.n == 0) return CoreResult(Array.empty, Array.empty, 0, 0, 0)
    val eng = engine.getOrElse(new SequentialEngine(g.n))
    val t0 = System.nanoTime()
    val st =
      try {
        algo match {
          case Algo.HBZ =>
            CoreDecomp.peelAll(g, h, Bounds.hDegUB(g, h, eng, budget), lowerBound = false,
                               remeasureBelow = h + 1, paperLiteral = true, eng, budget)
          case Algo.HLB | Algo.HLB1 =>
            val l1 = Bounds.lb1(g, h, eng, budget)
            val lb = if (algo == Algo.HLB1) l1 else Bounds.lb2(g, h, l1, eng, budget)
            CoreDecomp.peelAll(g, h, lb, lowerBound = true, remeasureBelow = h, paperLiteral, eng, budget)
          case Algo.HLBUB(s)     => HLBUB.decompose(g, h, eng, budget, s, useHDegAsUB = false, paperLiteral)
          case Algo.HLBUBHDeg(s) => HLBUB.decompose(g, h, eng, budget, s, useHDegAsUB = true, paperLiteral)
        }
      } finally {
        if (engine.isEmpty) eng.shutdown()
      }
    CoreResult(st.core, st.order, budget.visits, budget.bfsCount, (System.nanoTime() - t0) / 1000000L)
  }
}
