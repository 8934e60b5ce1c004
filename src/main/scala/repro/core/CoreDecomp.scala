package repro.core

/** The one Batagelj–Zaveršnik bucket-peeling loop (Batagelj & Zaveršnik,
  * "An O(m) algorithm for cores decomposition of networks", 2003) behind
  * h-BZ (Alg. 1), CoreDecomp (Alg. 3, for h-LB and each h-LB+UB interval)
  * and UpperBound (Alg. 5).
  *
  * The loop drains the buckets in increasing order. A popped vertex whose
  * `setLB` flag is raised sits at a lower bound: its h-degree is measured
  * and it is re-bucketed (Alg. 3 lines 4–7). Any other popped vertex is
  * peeled at level k, and each h-neighbour u (not itself at a lower bound)
  * at distance `d(u,v)` is updated:
  *  - `d < remeasureBelow`: its h-degree is re-measured by one h-BFS, in a
  *    batch the engine may parallelize (§4.6);
  *  - otherwise: its h-degree drops by 1.
  * The three callers differ only in `remeasureBelow`:
  *  - h + 1 (h-BZ): every h-neighbour is re-measured (Alg. 1 line 9);
  *  - h (CoreDecomp): neighbours at distance h drop by 1, since no
  *    surviving shortest path through the removed vertex can stay within
  *    distance h (Alg. 3 lines 14–17);
  *  - 1 (UpperBound): every h-neighbour drops by 1, the core decomposition
  *    of the implicit power graph, an upper bound.
  *
  * Caller contract:
  *  - `st.alive` masks the subgraph to peel (it is mutated);
  *  - every alive vertex is bucketed either at its h-degree (in `st.deg`)
  *    with `setLB = false`, or at a *valid lower bound* of its core index,
  *    clamped to ≥ max(0, kmin−1), with `setLB = true` (`deg` is ignored
  *    while the flag is set);
  *  - alive vertices whose core index was assigned by an earlier interval
  *    must be bucketed at `core(v)` (> kmax), so they are never popped;
  *  - on return, every alive vertex whose core index lies in [kmin, kmax]
  *    has `core` set; vertices peeled below kmin are removed without
  *    assignment (their `setLB` is re-raised for later intervals).
  */
object CoreDecomp {

  /** Peeling state over n vertices: the alive mask, bucket queue, current
    * h-degrees, core indices (−1 = unassigned), lower-bound flags and the
    * h-BFS that discovers a peeled vertex's h-neighbourhood. The engine
    * never uses `bfs`, so the loop reads its neighbourhood in place.
    */
  class State(n: Int) {
    val alive = new Array[Boolean](n)
    val buckets = new Buckets(n, math.max(0, n - 1))
    val deg = new Array[Int](n)
    val core = Array.fill(n)(-1)
    val setLB = new Array[Boolean](n)
    val bfs = new HBfs(n)
  }

  /** h-BZ (`remeasureBelow = h + 1`) and UpperBound (`remeasureBelow = 1`):
    * bucket every vertex at its h-degree, from one all-vertex batch, and
    * peel [0, n−1]. Returns the core index (or UB) of every vertex.
    */
  private[core] def peelHDegrees(g: AdjGraph, h: Int, remeasureBelow: Int,
                                 engine: HDegEngine, budget: Budget): Array[Int] = {
    val n = g.n
    val st = new State(n)
    java.util.Arrays.fill(st.alive, true)
    val init = engine.batchHDeg(g, st.alive, Array.range(0, n), h, budget)
    var v = 0
    while (v < n) { st.deg(v) = init(v); st.buckets.add(v, init(v)); v += 1 }
    run(g, h, 0, math.max(0, n - 1), remeasureBelow, st, engine, budget)
    st.core
  }

  def run(g: AdjGraph, h: Int, kmin: Int, kmax: Int, remeasureBelow: Int,
          st: State, engine: HDegEngine, budget: Budget): Unit = {
    val alive = st.alive
    val buckets = st.buckets
    val deg = st.deg
    val setLB = st.setLB
    val bfs = st.bfs
    var k = math.max(0, kmin - 1)
    while (k <= kmax) {
      var v = buckets.pop(k)
      while (v >= 0) {
        if (setLB(v)) {
          // Lines 4–7: first touch at this level — materialize the real
          // h-degree and re-bucket (clamped to the current level).
          val d = bfs.run(g, alive, v, h, budget)
          deg(v) = d
          buckets.add(v, math.max(d, k))
          setLB(v) = false
        } else {
          // Lines 8–19: peel v.
          if (k >= kmin) st.core(v) = k
          else setLB(v) = true // core < kmin: assigned by a later interval
          val cnt = bfs.run(g, alive, v, h, budget)
          val nbrs = bfs.nbrs
          val dists = bfs.nbrDist
          alive(v) = false
          // Near neighbours are compacted into the front of `nbrs`, behind
          // the read position, for one re-measure batch; far ones drop by 1.
          var nRec = 0
          var i = 0
          while (i < cnt) {
            val u = nbrs(i)
            if (!setLB(u)) {
              if (dists(i) < remeasureBelow) { nbrs(nRec) = u; nRec += 1 }
              else {
                deg(u) -= 1
                buckets.move(u, math.max(deg(u), k))
              }
            }
            i += 1
          }
          if (nRec > 0) {
            val batch = java.util.Arrays.copyOf(nbrs, nRec)
            val newDegs = engine.batchHDeg(g, alive, batch, h, budget)
            var j = 0
            while (j < nRec) {
              val u = batch(j)
              deg(u) = newDegs(j)
              buckets.move(u, math.max(deg(u), k))
              j += 1
            }
          }
        }
        v = buckets.pop(k)
      }
      k += 1
    }
  }
}
