package repro.core

/** The one Batagelj–Zaveršnik bucket-peeling loop (Batagelj & Zaveršnik,
  * "An O(m) algorithm for cores decomposition of networks", 2003) behind
  * h-BZ (Alg. 1), CoreDecomp (Alg. 3, for h-LB and each h-LB+UB interval),
  * UpperBound (Alg. 5) and ImproveLB's clean-up (Alg. 6).
  *
  * The loop drains the buckets in increasing order, in rounds. A round pops
  * a set P from bucket k: the whole bucket (level-synchronous, the
  * bulk-synchronous k-core peel of ParK, Dasari et al., IEEE BigData 2014,
  * and PKC, Kabir & Madduri, IPDPSW 2017), or only its first vertex
  * (`paperLiteral`, Alg. 1 / 3 as written).
  *  - If a vertex of P has its `setLB` flag raised, it sits at a lower
  *    bound: all such vertices, and the `capped` ones (see below), are
  *    measured in one engine batch, P is re-bucketed and the level is
  *    popped again (Alg. 3 lines 4–7).
  *  - Otherwise every f ∈ P is peeled at level k. Discovery runs an h-BFS
  *    from each f, with all of P still alive, and reads for each vertex u
  *    it reaches (skipping P and vertices at a lower bound) its distance
  *    d(u,P) = min over f of d(u,f), and cnt(u), the number of f ∈ P that
  *    reach u:
  *    - `d(u,P) < remeasureBelow`: u is flagged; once P is removed, every
  *      flagged vertex is re-measured by one h-BFS, in one batch the engine
  *      may parallelize (§4.6);
  *    - otherwise: u's h-degree drops by cnt(u) right away, with one
  *      bucket move.
  *    The engine runs the discovery ([[HDegEngine.discoverRound]]): a
  *    round of at least 8 vertices in blocks of up to 64 sources through
  *    the 64-lane kernel ([[MultiHBfs.discover]]), as the engines measure
  *    (a tail under 8, and every one-vertex round, through per-vertex
  *    [[HBfs.run]]); visits and BFS counts are those of one h-BFS per f
  *    either way. The state is the round's sink: it applies `reach` to the
  *    output on the calling thread, block by block, in block order. A
  *    block's output depends only on the graph, the alive mask and its
  *    sources, and `reach` writes none of them (it appends to `list` past
  *    P), so the blocks may run anywhere and at once: a threaded engine
  *    runs a round of two or more blocks through its one pool dispatch
  *    ([[LocalEngine.onPool]]), which hands the workers' copied output to
  *    the sink in block order, so the sink sees the same entries in the
  *    same order as on one thread.
  *    So `deg`, the buckets, the flagged list and with them core, `order`,
  *    visits and BFS count are the same on every thread count.
  *
  * The four callers differ only in `remeasureBelow`, the levels peeled and
  * whether h-LB's re-measures are capped:
  *  - h + 1 (h-BZ): every h-neighbour is re-measured (Alg. 1 line 9);
  *  - h (CoreDecomp): neighbours at distance h drop (Alg. 3 lines 14–17);
  *  - 1 (UpperBound): every h-neighbour drops, the core decomposition of
  *    the implicit power graph, an upper bound (see below);
  *  - 1 at the one level kmin−1, with kmax = kmin−1 (ImproveLB's clean-up
  *    in [[HLBUB.runInterval]]): every vertex whose upper bound falls
  *    below kmin is removed, and none is assigned.
  * h-BZ always peels one vertex per round. h-BZ, h-LB and UpperBound
  * bucket every vertex and peel [0, n−1] through [[peelAll]]; h-LB+UB
  * calls [[run]] once per interval.
  *
  * Why a level-synchronous round is exact. Let A be the alive set when the
  * round starts; by induction, A contains the (k+1,h)-core C_{k+1}.
  *  - Each f ∈ P has h-degree ≤ k in A. h-degree is monotone under vertex
  *    deletion, so f would have h-degree ≤ k in C_{k+1} too: f ∉ C_{k+1}.
  *    The usual Batagelj–Zaveršnik argument gives core(f) ≥ k, so
  *    core(f) = k, and A \ P still contains C_{k+1}.
  *  - The −cnt(u) update is exact when every f ∈ P that reaches u does so
  *    at distance h. A shortest path of length ≤ h from u in A that passed
  *    through some f ∈ P would reach f at distance < h, so it must end at f:
  *    removing P loses u exactly the vertices of P within distance h, the
  *    cnt(u) sources that reach u. A flagged vertex's `deg` is overwritten
  *    by its re-measure.
  *
  * Capped re-measures (h-LB only, not paper-literal). Until a vertex's own
  * level comes, the peel only needs to know that its h-degree is above the
  * current level: this is §4.3's lazy materialisation, carried from the
  * initial bounds to the re-measures. At level k, a flagged vertex may be
  * re-measured by an h-BFS that stops after `cap` h-neighbours, with
  * `cap = k + 1 + max(4, ⌊k/4⌋)`. If it stops, u keeps the count as
  * `deg(u)`, is marked `capped`, and sits in bucket max(deg(u), k).
  * Unlike a `setLB` vertex, it still takes the −cnt drops and the flags;
  * when a round pops it, it is measured exactly in that round's `setLB`
  * batch, before anything is peeled. Why the result stays exact:
  *  - a capped count is at most u's h-degree in the alive set;
  *  - a −cnt drop is u's exact loss of h-degree (see above), so after it
  *    `deg(u)` is still at most u's h-degree; a nearer peeled vertex flags u
  *    for a new capped or exact measure instead;
  *  - so every alive vertex sits in a bucket ≤ max(its h-degree, k), as an
  *    exactly measured one does, and no vertex is peeled without an exact
  *    h-degree at its own level.
  * This is the `setLB` contract with a lower bound of the h-degree that the
  * peel keeps up to date, instead of a frozen lower bound of the core index.
  * A flagged vertex is capped only if it is already capped or has
  * `deg(u) ≥ 2·cap`: an uncapped `deg(u)` bounds its new h-degree from
  * above, and below 2·cap counting in lanes costs more than the cap saves.
  * The flagged vertices are partitioned in place into a capped and an exact
  * batch. The h-LB+UB interval peels stay exact: capped, their visits
  * moved by ≤ 0.002% (hub h=3: 16 275 873 → 16 276 126–16 276 170) and
  * came to depend on vertex ids.
  *
  * Why UpperBound in rounds is still an upper bound. Invariant: `deg(u)` is
  * at least u's h-degree in the alive set. Removing P from A costs u at
  * least the vertices |{f ∈ P : d_A(u,f) ≤ h}| = cnt(u), which are
  * h-neighbours of u in A and are gone from A \ P (other h-neighbours may
  * be lost too, which only widens the gap), so `deg(u) − cnt(u)` is still
  * at least u's h-degree in A \ P. Now let u ∈ C_c, c = core(u), and look
  * at the first round that peels a vertex w of C_c: when it starts, A ⊇ C_c,
  * so `deg(w)` ≥ h-degree of w in C_c ≥ c, and w sits in bucket
  * max(deg(w), k') ≥ c for the level k' it was last moved at; it is popped
  * at a level ≥ c. So every vertex of C_c, u included, is peeled at a level
  * ≥ core(u): the level is an upper bound. Alg. 5 as written (one vertex
  * per round, −1 per removal) is the same argument with |P| = 1.
  *
  * Caller contract:
  *  - `st.alive` masks the subgraph to peel (it is mutated);
  *  - every alive vertex is bucketed, at ≥ max(0, kmin−1), either at its
  *    h-degree (in `st.deg`) with `setLB = false`, or at a *valid lower
  *    bound* of its core index with `setLB = true` (`deg` is ignored
  *    while the flag is set); or it is left out of the buckets with
  *    `setLB = true`, so it is never popped and discovery skips it (h-LB+UB
  *    leaves the vertices assigned by a higher interval so);
  *  - on return, every alive vertex whose core index lies in [kmin, kmax]
  *    has `core` set and is appended to `order`; vertices peeled below kmin
  *    are removed without assignment.
  */
object CoreDecomp {

  /** Peeling state over n vertices: the alive mask, bucket queue, current
    * h-degrees, core indices (−1 = unassigned), lower-bound flags and the
    * assigned vertices in assignment order (`order(0 until assigned)`).
    *
    * `list` and `listed` are a vertex list and its membership marks, empty
    * between rounds: a round's P followed by the vertices it flags for
    * re-measure (the two are disjoint). The state is the sink of its
    * rounds' discovery ([[reached]]).
    */
  class State(n: Int) extends DiscoverySink {
    val alive = new Array[Boolean](n)
    val buckets = new Buckets(n, math.max(0, n - 1))
    val deg = new Array[Int](n)
    val core = Array.fill(n)(-1)
    val setLB = new Array[Boolean](n)
    val order = new Array[Int](n)
    var assigned = 0
    val list = new Array[Int](n)
    val listed = new Array[Boolean](n)
    // The round being discovered: its level, the caller's `remeasureBelow`
    // and the end of `list`.
    private[CoreDecomp] var level = 0
    private[CoreDecomp] var remeasureBelow = 0
    private[CoreDecomp] var listEnd = 0

    /** The round's discovery output: each reached vertex, in order, flagged
      * (appended to `list`) or dropped by its count (see the object doc). */
    final def reached(found: Array[Int], dist: Array[Int], lanes: Array[Int], from: Int, until: Int): Unit = {
      var nl = listEnd
      var j = from
      if (lanes == null) while (j < until) { nl = reach(found(j), dist(j), 1, nl); j += 1 }
      else while (j < until) { nl = reach(found(j), dist(j), lanes(j), nl); j += 1 }
      listEnd = nl
    }

    /** Discovery reached `u` at distance `d` from `cnt` peeled vertices:
      * flags u (appended at `list(nl)`) or drops its h-degree by `cnt`.
      * Returns the new end of the list. Skips peeled, flagged and
      * lower-bounded vertices.
      */
    private def reach(u: Int, d: Int, cnt: Int, nl: Int): Int =
      if (setLB(u) || listed(u)) nl
      else if (d < remeasureBelow) { list(nl) = u; listed(u) = true; nl + 1 }
      else {
        deg(u) -= cnt
        buckets.move(u, math.max(deg(u), level))
        nl
      }
  }

  /** The cap of a re-measure at level k (see the object doc). */
  private def capAt(k: Int): Int = k + 1 + math.max(4, k / 4)

  /** h-BZ, h-LB and UpperBound: bucket every vertex at `init(v)` and peel
    * [0, n−1]. `init` is every vertex's h-degree (`lowerBound` false: h-BZ
    * with `remeasureBelow = h + 1`, UpperBound with 1) or a lower bound of
    * its core index, with `setLB` raised (`lowerBound`: h-LB, at LB2 or
    * LB1, with `remeasureBelow = h`). h-LB caps its re-measures unless
    * `paperLiteral`. Returns the state, whose `core` holds the core index
    * (or UB) of every vertex.
    */
  private[core] def peelAll(g: AdjGraph, h: Int, init: Array[Int], lowerBound: Boolean,
                            remeasureBelow: Int, paperLiteral: Boolean,
                            engine: HDegEngine, budget: Budget): State = {
    val n = g.n
    val st = new State(n)
    java.util.Arrays.fill(st.alive, true)
    var v = 0
    while (v < n) { st.deg(v) = init(v); st.setLB(v) = lowerBound; st.buckets.add(v, init(v)); v += 1 }
    val capped = if (lowerBound && !paperLiteral) new Array[Boolean](n) else null
    run(g, h, 0, math.max(0, n - 1), remeasureBelow, paperLiteral, st, engine, budget, capped)
    st
  }

  /** Peels the levels [kmin, kmax] of `st` (see the object doc). `capped`
    * is given only by h-LB's [[peelAll]]: it then caps the re-measures and
    * marks the vertices whose `deg` is a capped count, a lower bound of
    * their h-degree; null re-measures exactly and allocates no flags.
    */
  def run(g: AdjGraph, h: Int, kmin: Int, kmax: Int, remeasureBelow: Int,
          paperLiteral: Boolean, st: State, engine: HDegEngine, budget: Budget,
          capped: Array[Boolean] = null): Unit = {
    val alive = st.alive
    val buckets = st.buckets
    val deg = st.deg
    val setLB = st.setLB
    val list = st.list
    val listed = st.listed
    st.remeasureBelow = remeasureBelow
    val roundMax = if (paperLiteral) 1 else Int.MaxValue
    var k = math.max(0, kmin - 1)
    while (k <= kmax) {
      // P = list(0 until np).
      var np = 0
      var v = buckets.pop(k)
      while (v >= 0) {
        list(np) = v
        np += 1
        v = if (np < roundMax) buckets.pop(k) else -1
      }
      def bounded(u: Int): Boolean = setLB(u) || (capped != null && capped(u))
      var nLB = 0
      var i = 0
      while (i < np) { if (bounded(list(i))) nLB += 1; i += 1 }
      if (np == 0) k += 1
      else if (nLB > 0) {
        // Lines 4–7: first touch at this level — materialize the real
        // h-degrees of the lower-bounded and capped vertices and re-bucket P
        // (clamped to the current level).
        val batch = new Array[Int](nLB)
        var j = 0
        i = 0
        while (i < np) { val u = list(i); if (bounded(u)) { batch(j) = u; j += 1 }; i += 1 }
        val d = engine.batchHDeg(g, alive, batch, h, budget)
        j = 0
        while (j < nLB) {
          val u = batch(j)
          deg(u) = d(j); setLB(u) = false
          if (capped != null) capped(u) = false
          j += 1
        }
        i = 0
        while (i < np) { val u = list(i); buckets.add(u, math.max(deg(u), k)); i += 1 }
      } else {
        // Lines 8–19: peel P.
        i = 0
        while (i < np) {
          val f = list(i)
          listed(f) = true
          if (k >= kmin) { st.core(f) = k; st.order(st.assigned) = f; st.assigned += 1 }
          i += 1
        }
        // Discovery, with P alive; flagged vertices go to list(np until nl).
        st.level = k
        st.listEnd = np
        engine.discoverRound(g, alive, list, np, h, budget, st)
        val nl = st.listEnd
        i = 0
        while (i < np) { alive(list(i)) = false; i += 1 }
        // Re-measure the flagged vertices: list(np until nc) with a cap,
        // list(nc until nl) exactly.
        var nc = np
        if (capped != null) {
          val cap = capAt(k)
          i = np
          while (i < nl) {
            val u = list(i)
            if (capped(u) || deg(u) >= 2 * cap) { list(i) = list(nc); list(nc) = u; nc += 1 }
            i += 1
          }
          if (nc > np) {
            val batch = java.util.Arrays.copyOfRange(list, np, nc)
            val newDegs = engine.batchHDegCapped(g, alive, batch, h, cap, budget)
            var j = 0
            while (j < batch.length) {
              val u = batch(j)
              val d = newDegs(j)
              capped(u) = d < 0
              deg(u) = if (d < 0) ~d else d
              buckets.move(u, math.max(deg(u), k))
              j += 1
            }
          }
        }
        if (nl > nc) {
          val batch = java.util.Arrays.copyOfRange(list, nc, nl)
          val newDegs = engine.batchHDeg(g, alive, batch, h, budget)
          var j = 0
          while (j < batch.length) {
            val u = batch(j)
            deg(u) = newDegs(j)
            if (capped != null) capped(u) = false
            buckets.move(u, math.max(deg(u), k))
            j += 1
          }
        }
        i = 0
        while (i < nl) { listed(list(i)) = false; i += 1 }
      }
    }
  }
}
