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
  *  - If a vertex of P sits at a lower bound (its `setLB` or `lowerDeg`
  *    flag is raised, see below), all such vertices are measured in one
  *    engine batch, P is re-bucketed and the level is popped again (Alg. 3
  *    lines 4–7).
  *  - Otherwise every f ∈ P is peeled at level k. Discovery runs an h-BFS
  *    from each f, with all of P still alive, and reads for each vertex u
  *    it reaches (skipping P and `setLB` vertices) its distance
  *    d(u,P) = min over f of d(u,f), and either cnt(u), the number of
  *    f ∈ P that reach u, or its loss bound L(u) (below):
  *    - `d(u,P) < remeasureBelow`: u is flagged; once P is removed, every
  *      flagged vertex is re-measured by one h-BFS, in one batch the engine
  *      may parallelize (§4.6);
  *    - otherwise: u's `deg` drops by cnt(u), or by L(u), with one bucket
  *      move.
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
  *    So `deg`, the buckets, the flags and with them core, `order`,
  *    visits and BFS count are the same on every thread count.
  *
  * The callers differ only in `remeasureBelow` and the levels peeled:
  *  - h + 1 (h-BZ): every h-neighbour is re-measured (Alg. 1 line 9);
  *  - h (CoreDecomp, h-LB and the h-LB+UB intervals): paper-literal,
  *    neighbours nearer than h are re-measured and those at distance h
  *    drop by cnt (Alg. 3 lines 14–17); by default (h ≥ 2) every reached
  *    vertex drops by L(u) and nothing is re-measured;
  *  - 1 (UpperBound): every h-neighbour drops by cnt, the core
  *    decomposition of the implicit power graph, an upper bound (see
  *    below);
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
  * Loss bounds (default CoreDecomp, h ≥ 2). Removing P costs an alive
  * u ∉ P at most L(u) = Σ over f ∈ P with d(u,f) ≤ h of |B̄(f, h − d(u,f))|
  * h-neighbours, where B̄(f, r) is f's closed r-ball in A (P still alive).
  * Proof: let w be an h-neighbour of u in A that is not one in A \ P. A
  * shortest u–w path in A has length ≤ h and passes through some f ∈ P
  * (else it would survive), so d(u,f) + d(f,w) ≤ h, and w ∈ B̄(f, h − d(u,f)).
  * At d(u,f) = h the term is 1, Alg. 3's −1, so L(u) = cnt(u) when every
  * f reaches u at distance h, and the drop is exact as above. Discovery
  * computes L with exact per-source distances ([[MultiHBfs]],
  * [[HBfs.losses]]), u's `deg` drops by L(u) and u moves to bucket
  * max(deg(u), k). If some f reached u at distance < h, `deg(u)` is from
  * then on only a lower bound of u's h-degree, and `lowerDeg(u)` is
  * raised: this is §4.3's lazy materialisation, carried from the initial
  * bounds to the peel. Such a vertex keeps taking drops, and when a round
  * pops it, it is measured exactly in that round's lower-bound batch,
  * before anything is peeled. Why the result stays exact:
  *  - a drop by L(u) keeps `deg(u)` at most u's h-degree, by the bound;
  *    when every f reached u at distance h the drop is exact, so an exact
  *    `deg(u)` stays exact;
  *  - so every alive vertex sits in a bucket ≤ max(its h-degree, k), as an
  *    exactly measured one does, and no vertex is peeled without an exact
  *    h-degree at its own level.
  * This is the `setLB` contract with a lower bound of the h-degree that the
  * peel keeps up to date, instead of a frozen lower bound of the core
  * index. A complete peel pops every vertex, so none is left lower-bounded;
  * at h = 1 none ever is. A `setLB` vertex is skipped as before: its `deg`
  * is ignored until it is measured.
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
  *  - every alive vertex is bucketed, at ≥ max(0, kmin−1), either at
  *    max(`st.deg`, the level it was last moved at) with `setLB` down,
  *    where `deg` is its h-degree or, with `lowerDeg` raised, a lower bound
  *    of it; or at a *valid lower bound* of its core index with
  *    `setLB = true` (`deg` is ignored while the flag is set); or it is
  *    left out of the buckets with
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
    * `lowerDeg(u)` marks a vertex whose `deg` is a lower bound of its
    * h-degree that the peel keeps up to date (see the object doc).
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
    val lowerDeg = new Array[Boolean](n)
    val order = new Array[Int](n)
    var assigned = 0
    val list = new Array[Int](n)
    val listed = new Array[Boolean](n)
    // The round being discovered: its level, the distance below which a
    // reached vertex is flagged, the distance below which a drop leaves
    // its `deg` a lower bound, and the end of `list`.
    private[CoreDecomp] var level = 0
    private[CoreDecomp] var remeasureBelow = 0
    private[CoreDecomp] var lowerBelow = 0
    private[CoreDecomp] var listEnd = 0

    /** The round's discovery output: each reached vertex, in order, flagged
      * (appended to `list`) or dropped by its loss (see the object doc). */
    final def reached(found: Array[Int], dist: Array[Int], loss: Array[Int], from: Int, until: Int): Unit = {
      var nl = listEnd
      var j = from
      if (loss == null) while (j < until) { nl = reach(found(j), dist(j), 1, nl); j += 1 }
      else while (j < until) { nl = reach(found(j), dist(j), loss(j), nl); j += 1 }
      listEnd = nl
    }

    /** Discovery reached `u` at distance `d` from the round, which costs it
      * at most `loss` h-neighbours: flags u (appended at `list(nl)`) or
      * drops its `deg` by `loss`, not below 0 (a lower bound of any
      * h-degree). Returns the new end of the list. Skips peeled, flagged
      * and `setLB` vertices.
      */
    private def reach(u: Int, d: Int, loss: Int, nl: Int): Int =
      if (setLB(u) || listed(u)) nl
      else if (d < remeasureBelow) { list(nl) = u; listed(u) = true; nl + 1 }
      else {
        deg(u) = math.max(0, deg(u) - loss)
        if (d < lowerBelow) lowerDeg(u) = true
        buckets.move(u, math.max(deg(u), level))
        nl
      }
  }

  /** h-BZ, h-LB and UpperBound: bucket every vertex at `init(v)` and peel
    * [0, n−1]. `init` is every vertex's h-degree (`lowerBound` false: h-BZ
    * with `remeasureBelow = h + 1`, UpperBound with 1) or a lower bound of
    * its core index, with `setLB` raised (`lowerBound`: h-LB, at LB2 or
    * LB1, with `remeasureBelow = h`). Returns the state, whose `core` holds
    * the core index (or UB) of every vertex.
    */
  private[core] def peelAll(g: AdjGraph, h: Int, init: Array[Int], lowerBound: Boolean,
                            remeasureBelow: Int, paperLiteral: Boolean,
                            engine: HDegEngine, budget: Budget): State = {
    val n = g.n
    val st = new State(n)
    java.util.Arrays.fill(st.alive, true)
    var v = 0
    while (v < n) { st.deg(v) = init(v); st.setLB(v) = lowerBound; st.buckets.add(v, init(v)); v += 1 }
    run(g, h, 0, math.max(0, n - 1), remeasureBelow, paperLiteral, st, engine, budget)
    st
  }

  /** Peels the levels [kmin, kmax] of `st` (see the object doc). With
    * `remeasureBelow = h` and h ≥ 2 outside `paperLiteral`, discovery
    * bounds each reached vertex's loss and nothing is re-measured.
    */
  def run(g: AdjGraph, h: Int, kmin: Int, kmax: Int, remeasureBelow: Int,
          paperLiteral: Boolean, st: State, engine: HDegEngine, budget: Budget): Unit = {
    val alive = st.alive
    val buckets = st.buckets
    val deg = st.deg
    val setLB = st.setLB
    val lowerDeg = st.lowerDeg
    val list = st.list
    val listed = st.listed
    // At h = 1 every reached vertex is at distance h: L is the count.
    val loss = remeasureBelow == h && h > 1 && !paperLiteral
    st.remeasureBelow = if (loss) 0 else remeasureBelow
    st.lowerBelow = if (loss) h else 0
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
      var nLB = 0
      var i = 0
      while (i < np) { val u = list(i); if (setLB(u) || lowerDeg(u)) nLB += 1; i += 1 }
      if (np == 0) k += 1
      else if (nLB > 0) {
        // Lines 4–7: first touch at this level — materialize the real
        // h-degrees of the vertices at a lower bound and re-bucket P
        // (clamped to the current level).
        val batch = new Array[Int](nLB)
        var j = 0
        i = 0
        while (i < np) { val u = list(i); if (setLB(u) || lowerDeg(u)) { batch(j) = u; j += 1 }; i += 1 }
        val d = engine.batchHDeg(g, alive, batch, h, budget)
        j = 0
        while (j < nLB) { val u = batch(j); deg(u) = d(j); setLB(u) = false; lowerDeg(u) = false; j += 1 }
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
        engine.discoverRound(g, alive, list, np, h, loss, budget, st)
        val nl = st.listEnd
        i = 0
        while (i < np) { alive(list(i)) = false; i += 1 }
        // Re-measure the flagged vertices.
        if (nl > np) {
          val batch = java.util.Arrays.copyOfRange(list, np, nl)
          val newDegs = engine.batchHDeg(g, alive, batch, h, budget)
          var j = 0
          while (j < batch.length) {
            val u = batch(j)
            deg(u) = newDegs(j)
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
