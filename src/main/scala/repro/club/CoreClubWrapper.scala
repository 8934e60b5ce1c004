package repro.club

import repro.core.{AdjGraph, Budget, KHCore}

/** Algorithm 7: use the (k,h)-core decomposition as a wrapper around any
  * black-box maximum h-club solver (Theorem 3: every h-club of size k+1 is
  * inside the (k,h)-core). Start from the innermost core — a far smaller
  * instance — and descend only while the club found is not certified
  * maximum by its size exceeding the current core index.
  *
  * The decomposition and every solver call are charged to one `budget`:
  * past it, [[repro.core.BudgetExceeded]] is raised wherever the run is.
  */
object CoreClubWrapper {

  /** The maximum h-club of g (vertex ids of g). */
  def solve(g: AdjGraph, h: Int, solver: ClubSolver,
            budget: Budget = Budget.unlimited()): Array[Int] = {
    val decomp = KHCore.decompose(g, h, budget = budget)
    val core = decomp.core
    var kCur = decomp.maxCore
    var best: Array[Int] = Array.empty
    var done = false
    while (!done && kCur >= 0) {
      // Certification can already hold from the previous level: a larger
      // club (size >= best+1 > kCur+1) would live in the (best,h)-core,
      // which was solved exactly in the previous iteration (Theorem 3).
      if (best.length > kCur) done = true
      else {
        val keep = (0 until g.n).filter(core(_) >= kCur)
        val (sub, ids) = g.inducedOn(keep)
        val found = solver.solve(sub, h, incumbentSize = best.length, budget)
        if (found.length > best.length) best = found.map(ids)
        if (best.length > kCur) done = true // Theorem 3: certified maximum
        else if (best.length > 0) kCur = math.min(kCur - 1, best.length)
        else kCur -= 1
      }
    }
    best
  }
}
