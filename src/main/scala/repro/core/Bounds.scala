package repro.core

/** Lower and upper bounds on the (k,h)-core index of a vertex (§4.2, §4.4).
  *
  *  - `LB1(v) = deg^{⌊h/2⌋}(v)`                       (Observation 1)
  *  - `LB2(v) = max{LB1(u) : d(u,v) ≤ ⌈h/2⌉} ∪ {LB1(v)}` (Observation 2)
  *  - `UB(v)`  = core index of v in a BZ-style peeling that decrements the
  *    (approximate) h-degree of each h-neighbor of a removed vertex by
  *    exactly 1 — i.e., the classic core decomposition of the *implicit*
  *    power graph, never materialized (Algorithm 5). An upper bound because
  *    a real removal can drop an h-degree by more than 1. The default peels
  *    a whole bucket per round and drops a vertex by the number of peeled
  *    vertices within h of it, which is still an upper bound.
  *  - `hDegUB(v) = deg^h(v)` — the trivial upper bound Table 4/5 compares
  *    UB against.
  */
object Bounds {

  /** LB1 of every vertex: the ⌊h/2⌋-degree (zero when h = 1). */
  def lb1(g: AdjGraph, h: Int, engine: HDegEngine,
          budget: Budget = Budget.unlimited()): Array[Int] = {
    val r = h / 2
    if (r == 0) return new Array[Int](g.n)
    engine.batchHDeg(g, g.all, Array.range(0, g.n), r, budget)
  }

  /** LB2 of every vertex given precomputed LB1 values: the engine's max
    * pass over closed neighbourhoods, which runs no h-BFS. */
  def lb2(g: AdjGraph, h: Int, lb1s: Array[Int], engine: HDegEngine,
          budget: Budget = Budget.unlimited()): Array[Int] =
    engine.batchNbrMax(g, g.all, Array.range(0, g.n), (h + 1) / 2, lb1s, budget)

  /** Both lower bounds in one call. */
  def lowerBounds(g: AdjGraph, h: Int, engine: HDegEngine,
                  budget: Budget = Budget.unlimited()): (Array[Int], Array[Int]) = {
    val l1 = lb1(g, h, engine, budget)
    (l1, lb2(g, h, l1, engine, budget))
  }

  /** Algorithm 5 (UpperBound): [[CoreDecomp.peelAll]] from the h-degrees,
    * with every h-neighbour of a peeled vertex dropping. By default it
    * peels whole buckets in level-synchronous rounds, and a vertex drops by
    * the number of the round's peeled vertices within distance h of it (the
    * proof that this is still an upper bound is in the [[CoreDecomp]]
    * scaladoc); `paperLiteral` peels one vertex per round, −1 per removal,
    * Alg. 5 as written. Charges the initial h-degrees and one h-BFS per
    * peeled vertex to `budget`.
    */
  def upperBound(g: AdjGraph, h: Int, engine: HDegEngine,
                 budget: Budget = Budget.unlimited(), paperLiteral: Boolean = false): Array[Int] =
    CoreDecomp.peelAll(g, h, hDegUB(g, h, engine, budget), lowerBound = false, remeasureBelow = 1,
                       paperLiteral, engine, budget).core

  /** The trivial upper bound: initial h-degree of every vertex. */
  def hDegUB(g: AdjGraph, h: Int, engine: HDegEngine,
             budget: Budget = Budget.unlimited()): Array[Int] =
    engine.batchHDeg(g, g.all, Array.range(0, g.n), h, budget)
}
