package repro.core

/** Algorithm 1 (h-BZ): the distance-generalized Batagelj–Zaveršnik baseline,
  * [[CoreDecomp.peelHDegrees]] with every h-neighbour of a peeled vertex
  * re-measured from scratch (one h-BFS each), the cost the later
  * algorithms attack.
  */
object HBZ {

  def decompose(g: AdjGraph, h: Int,
                engine: HDegEngine,
                budget: Budget = Budget.unlimited()): CoreResult = {
    require(h >= 1, "h must be >= 1")
    val t0 = System.nanoTime()
    val st = CoreDecomp.peelHDegrees(g, h, remeasureBelow = h + 1, paperLiteral = true, engine, budget)
    CoreResult(st.core, st.order, budget.visits, budget.bfsCount, (System.nanoTime() - t0) / 1000000L)
  }
}
