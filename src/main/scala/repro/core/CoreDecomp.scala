package repro.core

/** Algorithm 3 (CoreDecomp): the lazy, lower-bound-driven peeling loop
  * shared by h-LB (whole graph, kmin = 0) and h-LB+UB (per UB-interval).
  *
  * Caller contract:
  *  - `alive` masks the subgraph to peel (it is mutated);
  *  - every alive vertex is already bucketed at a *valid lower bound* of its
  *    core index, clamped to ≥ max(0, kmin-1), with `setLB = true`
  *    (`deg` is ignored while the flag is set);
  *  - alive vertices whose core index was assigned by an earlier interval
  *    must be bucketed at `core(v)` (> kmax), so they are never popped;
  *  - on return, every alive vertex whose core index lies in [kmin, kmax]
  *    has `core`/`assigned` set; vertices peeled below kmin are removed
  *    without assignment (their `setLB` is re-raised for later intervals).
  *
  * `bfs` and `recompute` (length ≥ n) are the caller's scratch; the engine
  * never uses `bfs`, so its neighbourhood arrays are read in place.
  *
  * The `d(u,v) = h ⇒ decrement by 1` optimization (Alg. 3 lines 14–17)
  * avoids a BFS for neighbors at exactly distance h: no surviving shortest
  * path through the removed vertex can stay within distance h.
  */
object CoreDecomp {

  def run(g: AdjGraph, h: Int, kmin: Int, kmax: Int,
          alive: Array[Boolean], buckets: Buckets,
          setLB: Array[Boolean], deg: Array[Int],
          core: Array[Int], assigned: Array[Boolean],
          engine: HDegEngine, budget: Budget,
          bfs: HBfs, recompute: Array[Int]): Unit = {
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
          if (k >= kmin) { core(v) = k; assigned(v) = true }
          else setLB(v) = true // core < kmin: assigned by a later interval
          val cnt = bfs.run(g, alive, v, h, budget)
          val nbrs = bfs.nbrs
          val dists = bfs.nbrDist
          alive(v) = false
          // Neighbors at distance < h need a real recomputation (batched so
          // the §4.6 engine can parallelize); distance-h ones just drop by 1.
          var nRec = 0
          var i = 0
          while (i < cnt) {
            val u = nbrs(i)
            if (!setLB(u)) {
              if (dists(i) < h) { recompute(nRec) = u; nRec += 1 }
              else {
                deg(u) -= 1
                buckets.move(u, math.max(deg(u), k))
              }
            }
            i += 1
          }
          if (nRec > 0) {
            val batch = java.util.Arrays.copyOf(recompute, nRec)
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
