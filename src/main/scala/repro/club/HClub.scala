package repro.club

import repro.core.{AdjGraph, Budget, HBfs}

/** h-club primitives (Definition 5): S ⊆ V is an h-club iff the subgraph
  * *induced by S* has diameter ≤ h. Includes the classic DROP heuristic
  * (Bourjolly et al.) used as the branch-and-bound incumbent.
  *
  * Induced h-balls are [[HBfs.run]] with the member mask as the alive mask:
  * its h-degree is the number of other members within induced distance h.
  */
object HClub {

  /** Is `inSet` an h-club of g? BFS within the induced subgraph from every
    * member; any member pair farther than h (or disconnected) fails.
    */
  def isHClub(g: AdjGraph, inSet: Array[Boolean], h: Int): Boolean = {
    val members = (0 until g.n).filter(inSet)
    val bfs = new HBfs(g.n)
    val budget = Budget.unlimited()
    members.forall(s => bfs.run(g, inSet, s, h, budget) == members.size - 1)
  }

  /** A violating pair in the induced subgraph (members at distance > h),
    * or None if `inSet` is an h-club. Scans from the member with the fewest
    * reachable peers so branching splits on the most-constrained vertex.
    */
  def violatingPair(g: AdjGraph, inSet: Array[Boolean], h: Int): Option[(Int, Int)] =
    violatingPair(g, inSet, h, new HBfs(g.n), Budget.unlimited())

  /** [[violatingPair]] on the caller's scratch `bfs`, its h-BFS charged to
    * `budget`. */
  def violatingPair(g: AdjGraph, inSet: Array[Boolean], h: Int, bfs: HBfs,
                    budget: Budget): Option[(Int, Int)] = {
    val members = (0 until g.n).filter(inSet)
    if (members.size <= 1) return None
    var worst = -1
    var worstCnt = Int.MaxValue
    members.foreach { s =>
      val c = bfs.run(g, inSet, s, h, budget)
      if (c < worstCnt) { worstCnt = c; worst = s }
    }
    if (worstCnt == members.size - 1) return None
    // the first member outside `worst`'s induced h-ball
    val ball = ballOf(g, inSet, worst, h, bfs, budget)
    java.util.Arrays.sort(ball)
    members.find(t => t != worst && java.util.Arrays.binarySearch(ball, t) < 0).map(t => (worst, t))
  }

  /** Members within induced distance 1..h of `s`, copied out of `bfs`. */
  private def ballOf(g: AdjGraph, inSet: Array[Boolean], s: Int, h: Int,
                     bfs: HBfs, budget: Budget): Array[Int] =
    java.util.Arrays.copyOf(bfs.nbrs, bfs.run(g, inSet, s, h, budget))

  /** DROP heuristic: repeatedly delete the member that reaches the fewest
    * others within induced distance h, until an h-club remains.
    *
    * Incremental: removing w only changes the reach of members inside w's
    * induced h-ball (induced distance is symmetric), so only those are
    * recomputed — O(ball²·BFS) per deletion instead of O(n·BFS). Every
    * h-BFS is charged to `budget`.
    */
  def dropHeuristic(g: AdjGraph, h: Int, budget: Budget = Budget.unlimited()): Array[Int] = {
    val inSet = Array.fill(g.n)(true)
    var size = g.n
    val bfs = new HBfs(g.n)
    val reach = Array.tabulate(g.n)(v => bfs.run(g, inSet, v, h, budget))
    var continue = true
    while (size > 1 && continue) {
      var worst = -1; var worstCnt = Int.MaxValue
      var v = 0
      while (v < g.n) {
        if (inSet(v) && reach(v) < worstCnt) { worstCnt = reach(v); worst = v }
        v += 1
      }
      if (worstCnt == size - 1) continue = false // already an h-club
      else {
        // members whose reach can change: exactly w's induced h-ball
        val ball = ballOf(g, inSet, worst, h, bfs, budget)
        inSet(worst) = false
        size -= 1
        ball.foreach(u => reach(u) = bfs.run(g, inSet, u, h, budget))
      }
    }
    (0 until g.n).filter(inSet).toArray
  }
}
