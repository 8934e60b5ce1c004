package repro.apps

import repro.core.{AdjGraph, Algo, KHCore}

/** Distance-h coloring (§5.1, Definition 3): a partition of V where any two
  * same-colored vertices are more than h hops apart in G — equivalently a
  * proper coloring of the power graph G^h. Theorem 1: χ_h(G) ≤ 1 + Ĉ_h(G),
  * the h-degeneracy.
  */
object Chromatic {

  /** Greedy distance-h coloring in reverse peeling order of the (k,h)-core
    * decomposition (the order of Theorem 1's constructive proof): each
    * vertex takes the smallest color free among already-colored vertices
    * within distance h *in G*. Always a valid distance-h coloring; the
    * number of colors upper-bounds χ_h.
    */
  def greedyColoring(g: AdjGraph, h: Int): Array[Int] = {
    val decomp = KHCore.decompose(g, h, Algo.HLB)
    // reverse peeling order ≈ descending core index (ties arbitrary)
    val order = (0 until g.n).sortBy(v => -decomp.core(v))
    val color = Array.fill(g.n)(-1)
    val ball = g.hBalls(h)
    for (v <- order) {
      val used = ball(v).map(color).filter(_ >= 0).toSet
      color(v) = Iterator.from(0).find(!used(_)).get
    }
    color
  }

  /** Is `color` a valid distance-h coloring of g? */
  def isValidColoring(g: AdjGraph, h: Int, color: Array[Int]): Boolean = {
    val ball = g.hBalls(h)
    (0 until g.n).forall(v => ball(v).forall(color(_) != color(v)))
  }

  /** Exact distance-h chromatic number via backtracking on G^h — NP-hard,
    * only for the tiny graphs used to validate Theorem 1.
    */
  def chromaticExact(g: AdjGraph, h: Int): Int = {
    if (g.n == 0) return 0
    val ball = Array.tabulate(g.n)(g.hBalls(h)) // the rows of G^h
    val order = (0 until g.n).sortBy(v => -ball(v).length)
    def colorable(k: Int): Boolean = {
      val color = Array.fill(g.n)(-1)
      def rec(i: Int): Boolean = {
        if (i == g.n) return true
        val v = order(i)
        val used = ball(v).collect { case u if color(u) >= 0 => color(u) }.toSet
        // cap first-vertex choices at 1 (color symmetry)
        val cap = if (i == 0) 1 else k
        (0 until cap).exists { c =>
          if (used(c)) false
          else {
            color(v) = c
            val ok = rec(i + 1)
            color(v) = -1
            ok
          }
        }
      }
      rec(0)
    }
    Iterator.from(1).find(colorable).get
  }
}
