package repro.core

/** Algorithm 2 (h-LB): bucket every vertex at its LB2 lower bound (or LB1
  * when `useLB1Only` — the Table 5 ablation) with `setLB = true`, then run
  * the shared [[CoreDecomp]] loop over the whole core-index range.
  *
  * The lower bound defers h-degree materialization until a vertex's bucket
  * is actually reached, saving the bulk of h-BZ's recomputations.
  * `paperLiteral` peels one vertex per round, as Alg. 3 is written;
  * otherwise each round peels a whole bucket (see [[CoreDecomp]]).
  */
object HLB {

  def decompose(g: AdjGraph, h: Int,
                engine: HDegEngine,
                budget: Budget,
                useLB1Only: Boolean,
                paperLiteral: Boolean): CoreResult = {
    require(h >= 1, "h must be >= 1")
    val t0 = System.nanoTime()
    val n = g.n
    val st = new CoreDecomp.State(n)
    java.util.Arrays.fill(st.alive, true)
    java.util.Arrays.fill(st.setLB, true)

    val l1 = Bounds.lb1(g, h, engine, budget)
    val lb = if (useLB1Only) l1 else Bounds.lb2(g, h, l1, engine, budget)
    var v = 0
    while (v < n) { st.buckets.add(v, lb(v)); v += 1 }

    CoreDecomp.run(g, h, kmin = 0, kmax = math.max(0, n - 1), remeasureBelow = h,
                   paperLiteral, st, engine, budget)

    CoreResult(st.core, st.order, budget.visits, budget.bfsCount, (System.nanoTime() - t0) / 1000000L)
  }
}
