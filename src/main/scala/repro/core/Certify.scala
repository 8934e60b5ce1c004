package repro.core

/** Certificate check for a (k,h)-core decomposition (McConnell, Mehlhorn,
  * Näher & Schweitzer, "Certifying algorithms", Comput. Sci. Rev. 2011):
  * a claimed core array plus the order in which the algorithm assigned it
  * can be checked at any scale in 2n h-BFS, with no reference algorithm.
  *
  * The check accepts iff both hold:
  *  - (a) every v has h-degree ≥ core(v) inside {u : core(u) ≥ core(v)};
  *  - (b) `order` is a permutation along which core is non-decreasing, and
  *    every v has h-degree ≤ core(v) inside {v} ∪ later(v).
  *
  * Soundness (κ = true core index):
  *  - (a) makes {u : core(u) ≥ c} a subgraph of minimum h-degree ≥ c, so it
  *    lies in the (c,h)-core: κ ≥ core.
  *  - For κ ≤ core, suppose some v has κ(v) > core(v), and take the first
  *    vertex u of `order` inside the (core(u)+1,h)-core. That core lies in
  *    {u} ∪ later(u), and h-degree is monotone under vertex deletion, so u
  *    would have more than core(u) h-neighbours there, which (b) rules out.
  * Completeness: every peeling algorithm here removes v only when its exact
  * h-degree in the alive set is ≤ its level, and everything alive then
  * comes later; a level-synchronous round passes with its peeled set listed
  * in any order.
  */
object Certify {

  /** None when `core` and `order` pass both checks; otherwise the first
    * violation found, as a message. */
  def check(g: AdjGraph, h: Int, core: Array[Int], order: Array[Int]): Option[String] = {
    val n = g.n
    if (core.length != n) return Some(s"core array has ${core.length} entries for $n vertices")
    if (order.length != n) return Some(s"order has ${order.length} entries for $n vertices")
    val alive = new Array[Boolean](n)
    var i = 0
    while (i < n) {
      val v = order(i)
      if (v < 0 || v >= n || alive(v)) return Some(s"order is not a permutation at position $i")
      alive(v) = true
      if (core(v) < 0) return Some(s"vertex $v has core ${core(v)}")
      if (i > 0 && core(v) < core(order(i - 1)))
        return Some(s"core decreases along the order at position $i: vertex $v has core ${core(v)} " +
                    s"after core ${core(order(i - 1))}")
      i += 1
    }
    val budget = Budget.unlimited()
    // (b): replay the order; `alive` is {v} ∪ later(v) when v is measured.
    val bfs = new HBfs(n)
    i = 0
    while (i < n) {
      val v = order(i)
      val d = bfs.run(g, alive, v, h, budget)
      if (d > core(v)) return Some(s"vertex $v has $d h-neighbours among itself and later vertices, " +
                                   s"above its core ${core(v)}")
      alive(v) = false
      i += 1
    }
    // (a): the vertices of one core value are contiguous in `order`; taking
    // the blocks from the end grows the alive set to {u : core(u) ≥ c}.
    val engine = new SequentialEngine(n)
    var end = n
    while (end > 0) {
      val c = core(order(end - 1))
      var start = end
      while (start > 0 && core(order(start - 1)) == c) start -= 1
      val block = java.util.Arrays.copyOfRange(order, start, end)
      block.foreach(alive(_) = true)
      val degs = engine.batchHDeg(g, alive, block, h, budget)
      var j = 0
      while (j < block.length) {
        if (degs(j) < c)
          return Some(s"vertex ${block(j)} has ${degs(j)} h-neighbours inside its claimed $c-core")
        j += 1
      }
      end = start
    }
    None
  }
}
