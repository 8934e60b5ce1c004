package repro.apps

import repro.core.{AdjGraph, Budget, KHCore, SequentialEngine}

/** Distance-generalized cocktail party (Appendix B, Problem 2): given query
  * vertices Q, find a connected S ⊇ Q maximizing the minimum h-degree of
  * G[S]. The optimum is the connected component, inside the (k,h)-core with
  * the largest k, that contains all of Q — found by descending k.
  */
object CocktailParty {

  /** Returns (k, community vertices), or None if Q is not connected even in
    * the (0,h)-core (i.e., Q spans several components of G).
    */
  def solve(g: AdjGraph, h: Int, query: Seq[Int]): Option[(Int, Array[Int])] = {
    require(query.nonEmpty && query.forall(q => q >= 0 && q < g.n))
    val decomp = KHCore.decompose(g, h)
    val kTop = query.map(decomp.core).min // Q must survive in the core
    var k = kTop
    while (k >= 0) {
      val comp = g.components(decomp.core.map(_ >= k))
      val c = comp(query.head)
      if (query.forall(comp(_) == c))
        return Some((k, comp.indices.filter(comp(_) == c).toArray))
      k -= 1
    }
    None
  }

  /** Objective value: min h-degree of the subgraph induced by `vertices`
    * (distinct). */
  def minHDegree(g: AdjGraph, vertices: Array[Int], h: Int): Int = {
    if (vertices.isEmpty) return 0
    val mask = new Array[Boolean](g.n)
    vertices.foreach(mask(_) = true)
    new SequentialEngine(g.n).batchHDeg(g, mask, vertices, h, Budget.unlimited()).min
  }
}
