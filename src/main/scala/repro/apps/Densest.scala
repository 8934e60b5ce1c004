package repro.apps

import repro.core.{AdjGraph, Budget, KHCore, SequentialEngine}

/** Distance-h densest subgraph (Problem 1, §5.3): maximize the average
  * h-degree over induced subgraphs. Theorem 4: among all (k,h)-cores, the
  * one with the largest average h-degree is a
  * (√(f*+0.25) − 0.5)-approximation of the optimum f*.
  */
object Densest {

  /** Average h-degree f_h(S) of the subgraph induced by `vertices`
    * (distinct). */
  def avgHDegree(g: AdjGraph, vertices: Array[Int], h: Int): Double = {
    if (vertices.isEmpty) return 0.0
    val mask = new Array[Boolean](g.n)
    vertices.foreach(mask(_) = true)
    new SequentialEngine(g.n).batchHDeg(g, mask, vertices, h, Budget.unlimited()).sum.toDouble /
      vertices.length
  }

  final case class Approx(vertices: Array[Int], k: Int, density: Double)

  /** Core-based approximation: evaluate f_h on every distinct (k,h)-core and
    * return the densest one.
    */
  def coreApproximation(g: AdjGraph, h: Int): Approx = {
    val decomp = KHCore.decompose(g, h)
    val ks = decomp.core.distinct.filter(_ >= 1).sorted
    var best = Approx(Array.range(0, g.n), 0, avgHDegree(g, Array.range(0, g.n), h))
    for (k <- ks) {
      val verts = decomp.coreVertices(k)
      val d = avgHDegree(g, verts, h)
      if (d > best.density) best = Approx(verts, k, d)
    }
    best
  }

  /** Exact optimum by subset enumeration — only for n ≤ ~15 (Theorem 4
    * validation on tiny graphs).
    */
  def exactBruteForce(g: AdjGraph, h: Int): (Array[Int], Double) = {
    require(g.n <= 16, "brute force limited to tiny graphs")
    var bestSet = Array.empty[Int]
    var bestD = 0.0
    val n = g.n
    var mask = 1
    while (mask < (1 << n)) {
      val verts = (0 until n).filter(v => (mask & (1 << v)) != 0).toArray
      val d = avgHDegree(g, verts, h)
      if (d > bestD) { bestD = d; bestSet = verts }
      mask += 1
    }
    (bestSet, bestD)
  }

  /** Theorem 4's guaranteed lower bound for a given optimal density. */
  def guaranteeBound(fStar: Double): Double = math.sqrt(fStar + 0.25) - 0.5
}
