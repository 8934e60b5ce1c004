package repro.club

import repro.core.{AdjGraph, Bounds, Budget, HBfs, SequentialEngine}

/** A maximum h-club solver: the "black-box algorithm A(G,h)" of Alg. 7. */
trait ClubSolver {
  /** Maximum h-club of g (vertex ids of g), given a known feasible lower
    * bound `incumbentSize` (only clubs strictly larger are searched for;
    * if none exists the returned set may be empty). Every h-BFS is charged
    * to `budget`; past its visit limit or deadline the solver raises
    * [[repro.core.BudgetExceeded]].
    */
  def solve(g: AdjGraph, h: Int, incumbentSize: Int, budget: Budget): Array[Int]
  def name: String
}

/** Exact combinatorial branch-and-bound — our substitute for the paper's
  * Gurobi-based DBC baseline [45] (see DESIGN.md §3). Classic h-club B&B:
  * start from S = V; if the induced diameter is ≤ h we have a club; else
  * pick a violating pair (u,w) — no h-club inside S contains both — and
  * branch on S∖{u} and S∖{w}. Prune when |S| can no longer beat the
  * incumbent. The DROP heuristic seeds the incumbent.
  */
object BnBClubSolver extends ClubSolver {
  override val name = "DBC*"

  /** A search node not yet expanded: `size` members, built by `members`
    * when the node is popped. A component node is skipped, without a
    * budget check, if it no longer beats the incumbent by then.
    */
  private final class Node(val size: Int, val component: Boolean, val members: () => Array[Boolean])

  override def solve(g: AdjGraph, h: Int, incumbentSize: Int, budget: Budget): Array[Int] = {
    var best: Array[Int] = Array.empty
    var bestSize = incumbentSize
    val drop = HClub.dropHeuristic(g, h, budget)
    if (drop.length > bestSize) { best = drop; bestSize = drop.length }
    val bfs = new HBfs(g.n)

    // Cascading bound prune: a member of a club of size > bestSize must
    // reach ≥ bestSize others within induced distance h of the *current*
    // candidate set (distances only shrink in supersets), so anything below
    // that reach can be deleted. Returns the surviving size, or -1 when the
    // node can no longer beat the incumbent.
    def prune(inSet: Array[Boolean], size0: Int): Int = {
      var size = size0
      var changed = true
      while (changed) {
        changed = false
        if (size <= bestSize) return -1
        var v = 0
        while (v < g.n) {
          if (inSet(v)) {
            if (bfs.run(g, inSet, v, h, budget) < bestSize) {
              inSet(v) = false; size -= 1; changed = true
            }
          }
          v += 1
        }
      }
      if (size <= bestSize) -1 else size
    }

    // Depth-first search on an explicit stack: road graphs branch once per
    // vertex, deeper than a thread's call stack allows.
    val stack = new java.util.ArrayDeque[Node]
    stack.push(new Node(g.n, component = true, () => Array.fill(g.n)(true)))
    while (!stack.isEmpty) {
      val node = stack.pop()
      if (!node.component || node.size > bestSize) {
        budget.check()
        val inSet = node.members()
        val size = prune(inSet, node.size)
        if (size >= 0) {
          // Connected components of the candidate set: a club's induced
          // subgraph has diameter <= h, so it is connected and lives inside
          // one component. Splitting prunes whole components below the
          // incumbent and lets sparse instances (roads) splinter into
          // trivial pieces. Largest first, ties in reverse discovery order.
          val comp = g.components(inSet)
          val sizes = new Array[Int](comp.max + 1)
          comp.foreach(c => if (c >= 0) sizes(c) += 1)
          if (sizes.length > 1)
            sizes.indices.sortBy(c => (sizes(c), c)).foreach { c =>
              stack.push(new Node(sizes(c), component = true, () => comp.map(_ == c)))
            }
          else HClub.violatingPair(g, inSet, h, bfs, budget) match {
            case None =>
              best = (0 until g.n).filter(inSet).toArray
              bestSize = size
            case Some((u, w)) => // branch on S∖{u}, then S∖{w}
              for (x <- Seq(w, u))
                stack.push(new Node(size - 1, component = false,
                                    () => { val s = inSet.clone(); s(x) = false; s }))
          }
        }
      }
    }
    best
  }
}

/** Exact iterative solver — our substitute for the paper's ITDBC [45]: any
  * h-club containing v lies inside {v} ∪ N_G(v,h) (induced distances are
  * never shorter than graph distances), so iterate vertices and solve the
  * branch-and-bound restricted to that neighborhood, then discard v. The
  * per-iteration instances are much smaller than the whole graph.
  */
object IterativeClubSolver extends ClubSolver {
  override val name = "ITDBC*"

  override def solve(g: AdjGraph, h: Int, incumbentSize: Int, budget: Budget): Array[Int] = {
    var best: Array[Int] = Array.empty
    var bestSize = incumbentSize
    val alive = Array.fill(g.n)(true)
    // process high-h-degree vertices first: they anchor the largest clubs,
    // raising the incumbent early
    val hdegs = Bounds.hDegUB(g, h, new SequentialEngine(g.n), budget)
    val order = (0 until g.n).sortBy(v => -hdegs(v))
    val bfs = new HBfs(g.n)
    for (v <- order if alive(v)) {
      if (hdegs(v) + 1 > bestSize) {
        val ball = bfs.nbrs.take(bfs.run(g, alive, v, h, budget)) :+ v
        if (ball.length > bestSize) {
          val (sub, ids) = g.inducedOn(ball.toSeq)
          val found = BnBClubSolver.solve(sub, h, bestSize, budget)
          if (found.length > bestSize) {
            best = found.map(ids)
            bestSize = found.length
          }
        }
      }
      alive(v) = false
    }
    best
  }
}
