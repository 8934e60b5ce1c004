package repro.core

/** Algorithm 4 (h-LB+UB) with Algorithm 6 (ImproveLB).
  *
  * The per-vertex upper bound UB (Alg. 5) splits the core-index range into
  * intervals covering `S` contiguous distinct UB values; by Observation 3,
  * all (k,h)-cores with k ≥ i live inside V[i] = {v : UB(v) ≥ i}, so each
  * interval [kmin,kmax] is a totally independent sub-computation on
  * G[V[kmin]], visited **top-down** so the expensive high-core vertices are
  * peeled early and never touched again. Any contiguous top-down tiling
  * keeps that argument, so by default the width doubles after an interval
  * that assigns no vertex (see [[decompose]]).
  *
  * Before peeling an interval, ImproveLB (Alg. 6) prunes V[kmin] of
  * vertices that provably cannot reach core kmin (UpperBound's rule on the
  * one level kmin−1 of the shared CoreDecomp peel) and tightens every
  * survivor's lower bound to LB3 via Property 3 (`min h-degree within any
  * V' lower-bounds every core index in V'`). Unlike Alg. 6 as written, it
  * measures only the *open* vertices of V[kmin], those no higher interval
  * has assigned; see [[runInterval]] for why the result is unchanged.
  */
object HLBUB {

  /** Partition the (descending, distinct) UB values into intervals covering
    * `S` contiguous values each, exactly as Alg. 4 line 11 / Example 4:
    * kmax_i = U(i·S), kmin_i = U(min((i+1)·S, |U|−1)) + 1, where U already
    * has `min LB2 − 1` appended as its last element.
    */
  def intervals(uDesc: Array[Int], s: Int): Seq[(Int, Int)] = {
    val out = Seq.newBuilder[(Int, Int)]
    tile(uDesc, s) { (kmin, kmax) => out += ((kmin, kmax)); false }
    out.result()
  }

  /** The one interval loop: tiles `uDesc` top-down into intervals of `s`
    * contiguous values, calling `step(kmin, kmax)` on each in turn, and
    * doubles the width for the rest of the tiling whenever `step` returns
    * true. Any contiguous top-down tiling keeps Obs. 3's argument, so the
    * cores do not depend on the widths.
    */
  private def tile(uDesc: Array[Int], s: Int)(step: (Int, Int) => Boolean): Unit = {
    require(s >= 1, "partition size S must be >= 1")
    var width = s
    var idx = 0
    while (idx < uDesc.length - 1) {
      val nextIdx = math.min(idx + width, uDesc.length - 1)
      if (step(uDesc(nextIdx) + 1, uDesc(idx)) && width < uDesc.length) width *= 2
      idx = nextIdx
    }
  }

  /** The distinct values of `ub` and `floor`, in descending order (the U of
    * Alg. 4 line 11): one mark per value between the least and the
    * greatest, so no boxing, no sort and no copy of `ub`. UB values are
    * h-degrees or less, so that range is at most n + 1 wide.
    */
  private[core] def descendingDistinct(ub: Array[Int], floor: Int): Array[Int] = {
    var lo = floor
    var hi = floor
    var i = 0
    while (i < ub.length) { if (ub(i) < lo) lo = ub(i); if (ub(i) > hi) hi = ub(i); i += 1 }
    val seen = new Array[Boolean](hi - lo + 1)
    seen(floor - lo) = true
    var distinct = 1
    i = 0
    while (i < ub.length) { if (!seen(ub(i) - lo)) { seen(ub(i) - lo) = true; distinct += 1 }; i += 1 }
    val out = new Array[Int](distinct)
    var m = 0
    var k = hi - lo
    while (k >= 0) { if (seen(k)) { out(m) = lo + k; m += 1 }; k -= 1 }
    out
  }

  /** Alg. 4 lines 3–11: the bounds, the descending distinct UB values
    * `uDesc` (with `min LB2 − 1` appended) and the interval width `s`.
    * `lb2` seeds LB3 in ImproveLB; `ub` defines each V[kmin].
    */
  final case class Plan(lb2: Array[Int], ub: Array[Int], uDesc: Array[Int], s: Int) {
    /** The intervals of exactly `s` values each (Alg. 4 as written). */
    def intervals: Seq[(Int, Int)] = HLBUB.intervals(uDesc, s)
  }

  /** LB1 → LB2 → UB (or the trivial h-degree bound), then the width: `s`
    * distinct UB values, None ⇒ ⌈(|U|−1)/12⌉ (≈ 12 intervals), where the
    * default run starts (see [[decompose]]). The engine sees these three
    * all-vertex batches in exactly this order.
    * UB peels in rounds unless `paperLiteral` (see [[Bounds.upperBound]]).
    */
  def plan(g: AdjGraph, h: Int, engine: HDegEngine, budget: Budget,
           s: Option[Int], useHDegAsUB: Boolean = false, paperLiteral: Boolean = false): Plan = {
    // Initial h-degrees are part of UB's computation.
    val l1 = Bounds.lb1(g, h, engine, budget)
    val lb2 = Bounds.lb2(g, h, l1, engine, budget)
    val ub =
      if (useHDegAsUB) Bounds.hDegUB(g, h, engine, budget)
      else Bounds.upperBound(g, h, engine, budget, paperLiteral)
    val uDesc = descendingDistinct(ub, lb2.min - 1)
    val sVal = s.getOrElse(math.max(1, math.ceil((uDesc.length - 1) / 12.0).toInt))
    Plan(lb2, ub, uDesc, sVal)
  }

  /** The peeling state plus LB3, for a whole run. Shared across intervals,
    * it carries assigned cores (never bucketed again, never re-peeled) and
    * the monotone LB3; a fresh one knows nothing of other intervals.
    * `alive` and `buckets` hold the interval's G[V[kmin]] and are empty
    * between intervals; `order` lists the assignments interval by
    * interval, top-down.
    */
  final class State(n: Int) extends CoreDecomp.State(n) {
    val lb3 = new Array[Int](n)
  }

  /** Alg. 4 lines 12–18 for one interval [kmin,kmax]: build V[kmin], clean
    * and tighten it with ImproveLB (Alg. 6), bucket the survivors at
    * max(LB3, kmin−1), and peel with CoreDecomp. Sets `st.core` for every
    * vertex whose core index lies in the interval, and `st.lb3` (monotone
    * max with the Property-3 bound) for every open vertex.
    *
    * ImproveLB measures the open vertices of V[kmin] in one batch, takes
    * LB3 from their minimum (Property 3: the min h-degree within any V'
    * lower-bounds every core index in V'), and then cleans V[kmin]: it
    * removes every vertex whose h-degree is below kmin and drops each of
    * its h-neighbours by 1, to a fixed point. That is UpperBound's rule
    * (Alg. 5) on the one level kmin−1, so it is the shared peel,
    * `CoreDecomp.run` with `remeasureBelow = 1` and kmax = kmin−1: it
    * removes in bucket order, in rounds unless `paperLiteral`, and assigns
    * nothing. By CoreDecomp's upper-bound argument every vertex it removes
    * has core < kmin.
    *
    * Alg. 6 as written measures every vertex of V[kmin]. Measuring only the
    * open ones, those no higher interval has assigned, leaves the cleaned
    * set, LB3 and so every later CoreDecomp step unchanged:
    *  - every open vertex has core ≤ kmax, because the higher intervals
    *    assigned every larger core;
    *  - an assigned vertex u has h-degree ≥ core(u) > kmax in G[V[kmin]],
    *    since its (core(u),h)-core lies in V[core(u)] ⊆ V[kmin]. Alg. 6
    *    as written would keep an upper bound of that h-degree, which stays
    *    ≥ core(u) as only vertices of core < kmin are removed, so u would
    *    never be removed. Here it stays alive and unbucketed with `setLB`
    *    raised, so discovery skips it;
    *  - if an open vertex exists, Property 3's minimum over V[kmin] is ≤ its
    *    core ≤ kmax < every assigned h-degree, so an open vertex attains it
    *    and LB3 is the same;
    *  - CoreDecomp never reads an assigned vertex's `deg`.
    * Only the assigned vertices' h-BFS disappear. A fresh [[State]] (the
    * Spark path) has nothing assigned and measures every vertex of V[kmin],
    * as Alg. 6 is written.
    *
    * In rounds, a survivor the clean-up never decremented and whose LB3 is
    * at most kmin−1 goes into bucket `deg` with `setLB` down. Its `deg` is
    * its exact h-degree on the cleaned set: were a removed vertex within
    * distance h of it, the first removed vertex on a shortest path from it
    * would reach it in that vertex's own round, as the rest of the path
    * stays alive, and decrement it. CoreDecomp's first round pops all of
    * bucket kmin−1 and measures it on that same alive set, so it would
    * measure the same value again; every later round is unchanged and only
    * those h-BFS disappear. One vertex per round (`paperLiteral`) may peel
    * between two of those measures, so there every survivor waits at its
    * lower bound. Survivors are re-bucketed in id order, with a remove and
    * an add, so the order within a bucket does not depend on the clean-up.
    */
  def runInterval(g: AdjGraph, h: Int, kmin: Int, kmax: Int, plan: Plan, st: State,
                  engine: HDegEngine, budget: Budget, paperLiteral: Boolean): Unit = {
    val n = g.n
    val alive = st.alive
    val buckets = st.buckets
    val deg = st.deg
    val lb3 = st.lb3
    // Line 12: V[kmin] = {v : UB(v) >= kmin}; `open` holds its unassigned
    // vertices, in two passes: an exact-size array, no boxing and no
    // growth copies. Assigned ones stay alive and unbucketed, with `setLB`
    // raised.
    var size = 0
    var v = 0
    while (v < n) {
      if (plan.ub(v) >= kmin) {
        alive(v) = true
        if (st.core(v) < 0) size += 1 else st.setLB(v) = true
      }
      v += 1
    }
    val open = new Array[Int](size)
    size = 0
    v = 0
    while (v < n) { if (alive(v) && st.core(v) < 0) { open(size) = v; size += 1 }; v += 1 }
    // Lines 13–14 (Alg. 6): measure, tighten LB3, then clean level kmin−1.
    val floor = math.max(0, kmin - 1)
    val degs = if (open.isEmpty) open else engine.batchHDeg(g, alive, open, h, budget)
    var minDeg = Int.MaxValue
    var i = 0
    while (i < open.length) { if (degs(i) < minDeg) minDeg = degs(i); i += 1 }
    i = 0
    while (i < open.length) {
      val u = open(i)
      lb3(u) = math.max(lb3(u), math.max(plan.lb2(u), minDeg))
      deg(u) = degs(i)
      st.setLB(u) = false
      buckets.add(u, math.max(degs(i), floor))
      i += 1
    }
    CoreDecomp.run(g, h, kmin, kmin - 1, remeasureBelow = 1, paperLiteral, st, engine, budget)
    // Lines 15–17: re-bucket the survivors at their best-known floor, or
    // at their h-degree where it is still exact.
    i = 0
    while (i < open.length) {
      val u = open(i)
      if (alive(u)) {
        buckets.remove(u)
        if (paperLiteral || deg(u) != degs(i) || lb3(u) > floor) {
          buckets.add(u, math.max(lb3(u), floor))
          st.setLB(u) = true
        } else buckets.add(u, deg(u))
      }
      i += 1
    }
    // Line 18.
    CoreDecomp.run(g, h, kmin, kmax, remeasureBelow = h, paperLiteral, st, engine, budget)
    // Only assigned vertices are left alive.
    java.util.Arrays.fill(alive, false)
  }

  /** Full h-LB+UB decomposition of a non-empty graph, for
    * [[KHCore.decompose]]: one [[State]] for the whole run, intervals
    * visited top-down. Returns the state, whose `order` lists the intervals
    * from lowest to highest, each in its own assignment order.
    *
    * @param s       interval width in distinct UB values; None ⇒ start at
    *                ⌈(|U|−1)/12⌉ and double after every interval that
    *                assigns no vertex (the default used by the benches;
    *                `paperLiteral` keeps the start width throughout)
    * @param useHDegAsUB Table 5 ablation: replace Alg. 5's UB with the
    *                trivial h-degree upper bound
    * @param paperLiteral peel one vertex per UpperBound and CoreDecomp
    *                round (Alg. 5 and 3 as written) instead of a whole
    *                bucket
    */
  private[core] def decompose(g: AdjGraph, h: Int, engine: HDegEngine, budget: Budget,
                              s: Option[Int], useHDegAsUB: Boolean, paperLiteral: Boolean): State = {
    val p = plan(g, h, engine, budget, s, useHDegAsUB, paperLiteral)
    val st = new State(g.n)
    // An interval that assigns no vertex shows that every open vertex of
    // its V[kmin] has core < kmin: UB overshoots the cores there. The
    // default then doubles the width for the rest of the run.
    val widen = s.isEmpty && !paperLiteral
    // ends(i): end of interval i's block in `st.order`. Widening only
    // lowers the count of intervals.
    val ends = new Array[Int]((p.uDesc.length - 2) / p.s + 1)
    var count = 0
    tile(p.uDesc, p.s) { (kmin, kmax) =>
      val before = st.assigned
      runInterval(g, h, kmin, kmax, p, st, engine, budget, paperLiteral)
      ends(count) = st.assigned
      count += 1
      widen && st.assigned == before
    }
    // Reverse the block sequence in place: reverse the whole order, then
    // each block back into its own order.
    val order = st.order
    val n = st.assigned
    reverse(order, 0, n)
    var start = 0
    var i = 0
    while (i < count) { reverse(order, n - ends(i), n - start); start = ends(i); i += 1 }
    st
  }

  private def reverse(a: Array[Int], from: Int, until: Int): Unit = {
    var i = from
    var j = until - 1
    while (i < j) { val t = a(i); a(i) = a(j); a(j) = t; i += 1; j -= 1 }
  }
}
