package repro.core

/** Reusable scratchpad for h-bounded BFS over the alive-masked graph.
  *
  * One instance per thread (the arrays are mutable state); allocation-free
  * across calls via the token-stamped `seen` array. After [[run]]:
  *   - `nbrCount` is the h-degree of the source,
  *   - `nbrs(0 until nbrCount)` are the h-neighbors,
  *   - `nbrDist(i)` is the shortest-path distance of `nbrs(i)` (≤ h).
  *
  * Every vertex enqueued (including the source) counts as one "visit" for
  * the Table 3 point-to-point distance metric.
  */
final class HBfs(n: Int) {
  private val seen = new Array[Int](n)
  private val dist = new Array[Int](n)
  private val queue = new Array[Int](n)
  private var token = 0

  val nbrs = new Array[Int](n)
  val nbrDist = new Array[Int](n)
  var nbrCount = 0

  /** h-BFS from `src` restricted to `alive` vertices; `src` is traversed
    * regardless of its own alive flag (callers peel the source after
    * collecting its neighborhood). Returns the h-degree. Accounts visits
    * against `budget` and honors its limits.
    */
  def run(g: AdjGraph, alive: Array[Boolean], src: Int, h: Int, budget: Budget): Int = {
    token += 1
    val tk = token
    var head = 0; var tail = 0
    seen(src) = tk; dist(src) = 0
    queue(tail) = src; tail += 1
    nbrCount = 0
    var visits = 1L
    while (head < tail) {
      val u = queue(head); head += 1
      val du = dist(u)
      if (du < h) {
        val a = g.adj(u)
        var i = 0
        while (i < a.length) {
          val w = a(i)
          if (alive(w) && seen(w) != tk) {
            seen(w) = tk
            val dw = du + 1
            dist(w) = dw
            nbrs(nbrCount) = w; nbrDist(nbrCount) = dw; nbrCount += 1
            queue(tail) = w; tail += 1
            visits += 1
          }
          i += 1
        }
      }
    }
    budget.addVisits(visits)
    budget.check()
    nbrCount
  }
}

object HBfs {
  /** Convenience: one-shot h-degree of every vertex of `g` (all alive). */
  def allHDegrees(g: AdjGraph, h: Int): Array[Int] = {
    val alive = Array.fill(g.n)(true)
    val bfs = new HBfs(g.n)
    val budget = Budget.unlimited()
    Array.tabulate(g.n)(v => bfs.run(g, alive, v, h, budget))
  }

  /** Convenience: h-neighborhood (vertex ids) of `src` among `alive`. */
  def hNeighborhood(g: AdjGraph, alive: Array[Boolean], src: Int, h: Int): Array[Int] = {
    val bfs = new HBfs(g.n)
    val cnt = bfs.run(g, alive, src, h, Budget.unlimited())
    bfs.nbrs.take(cnt)
  }
}
