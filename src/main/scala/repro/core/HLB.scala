package repro.core

/** Algorithm 2 (h-LB): bucket every vertex at its LB2 lower bound (or LB1
  * when `useLB1Only` — the Table 5 ablation) with `setLB = true`, then run
  * the shared [[CoreDecomp]] loop over the whole core-index range.
  *
  * The lower bound defers h-degree materialization until a vertex's bucket
  * is actually reached, saving the bulk of h-BZ's recomputations.
  */
object HLB {

  def decompose(g: AdjGraph, h: Int,
                engine: HDegEngine,
                budget: Budget = Budget.unlimited(),
                useLB1Only: Boolean = false): CoreResult = {
    require(h >= 1, "h must be >= 1")
    val t0 = System.nanoTime()
    val n = g.n
    val alive = Array.fill(n)(true)
    val core = Array.fill(n)(-1)
    val assigned = new Array[Boolean](n)
    val setLB = Array.fill(n)(true)
    val deg = new Array[Int](n)
    val buckets = new Buckets(n, math.max(0, n - 1))

    val l1 = Bounds.lb1(g, h, engine, budget)
    val lb = if (useLB1Only) l1 else Bounds.lb2(g, h, l1, engine, budget)
    var v = 0
    while (v < n) { buckets.add(v, lb(v)); v += 1 }

    CoreDecomp.run(g, h, kmin = 0, kmax = math.max(0, n - 1),
                   alive, buckets, setLB, deg, core, assigned, engine, budget,
                   new HBfs(n), new Array[Int](n))

    CoreResult(core, budget.visits, budget.bfsCount, (System.nanoTime() - t0) / 1000000L)
  }
}
