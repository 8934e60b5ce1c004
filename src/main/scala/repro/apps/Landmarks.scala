package repro.apps

import repro.core.{AdjGraph, Algo, KHCore}
import scala.util.Random

/** Landmark selection for shortest-path estimation (§6.6): pick ℓ landmarks,
  * precompute their BFS distance vectors, and estimate d(s,t) as the median
  * of the triangle-inequality bounds
  *   LB = max_u |d(s,u) − d(u,t)|,  UB = min_u d(s,u) + d(u,t).
  * The paper's hypothesis: random vertices from the innermost (k,h)-core
  * beat closeness/betweenness/h-degree top-ℓ selections, improving with h.
  */
object Landmarks {

  /** Closeness centrality (n−1)/Σd over each vertex's component. */
  def closeness(g: AdjGraph): Array[Double] =
    Array.tabulate(g.n) { v =>
      val dist = g.bfsDistances(v)
      var sum = 0L; var reach = 0
      dist.foreach(d => if (d > 0) { sum += d; reach += 1 })
      if (sum == 0) 0.0 else reach.toDouble / sum
    }

  /** Exact betweenness centrality (Brandes' algorithm, unweighted). */
  def betweenness(g: AdjGraph): Array[Double] = {
    val n = g.n
    val bc = new Array[Double](n)
    val dist = new Array[Int](n)
    val sigma = new Array[Double](n)
    val delta = new Array[Double](n)
    val queue = new Array[Int](n)
    var s = 0
    while (s < n) {
      java.util.Arrays.fill(dist, -1)
      java.util.Arrays.fill(sigma, 0.0)
      java.util.Arrays.fill(delta, 0.0)
      var head = 0; var tail = 0
      dist(s) = 0; sigma(s) = 1.0; queue(tail) = s; tail += 1
      while (head < tail) {
        val u = queue(head); head += 1
        var i = 0
        while (i < g.degree(u)) {
          val w = g.neighbor(u, i)
          if (dist(w) < 0) { dist(w) = dist(u) + 1; queue(tail) = w; tail += 1 }
          if (dist(w) == dist(u) + 1) sigma(w) += sigma(u)
          i += 1
        }
      }
      // Farthest first; w's predecessors are its neighbours one step closer to s.
      while (tail > 0) {
        tail -= 1
        val w = queue(tail)
        var i = 0
        while (i < g.degree(w)) {
          val u = g.neighbor(w, i)
          if (dist(u) == dist(w) - 1) delta(u) += sigma(u) / sigma(w) * (1.0 + delta(w))
          i += 1
        }
        if (w != s) bc(w) += delta(w)
      }
      s += 1
    }
    bc
  }

  /** ℓ random vertices from the innermost (k,h)-core. */
  def fromMaxCore(g: AdjGraph, h: Int, l: Int, seed: Long): Array[Int] = {
    val decomp = KHCore.decompose(g, h, Algo.HLBUB(None))
    val top = decomp.coreVertices(decomp.maxCore)
    new Random(seed).shuffle(top.toSeq).take(math.min(l, top.length)).toArray
  }

  /** Top-ℓ vertices by an arbitrary score. */
  def topBy(score: Array[Double], l: Int): Array[Int] =
    score.zipWithIndex.sortBy(-_._1).take(l).map(_._2)

  /** True distance of each pair, computed once and shared by every
    * landmark set evaluated on the same pairs. */
  def pairDistances(g: AdjGraph, pairs: Seq[(Int, Int)]): Seq[Int] =
    pairs.map { case (s, t) => g.bfsDistances(s)(t) }

  /** Mean relative error of the median estimator over sampled connected
    * (s,t) `pairs` with true distances `dist` (see [[pairDistances]]), for a
    * given landmark set.
    */
  def approximationError(g: AdjGraph, landmarks: Array[Int],
                         pairs: Seq[(Int, Int)], dist: Seq[Int]): Double = {
    val vecs = landmarks.map(g.bfsDistances)
    val errs = pairs.zip(dist).flatMap { case ((s, t), d) =>
      if (d <= 0) None
      else {
        var lb = 0; var ub = Int.MaxValue
        vecs.foreach { vec =>
          val ds = vec(s); val dt = vec(t)
          if (ds >= 0 && dt >= 0) {
            lb = math.max(lb, math.abs(ds - dt))
            ub = math.min(ub, ds + dt)
          }
        }
        if (ub == Int.MaxValue) None
        else Some(math.abs((lb + ub) / 2.0 - d) / d)
      }
    }
    if (errs.isEmpty) 0.0 else errs.sum / errs.size
  }

  /** Sample `count` distinct connected vertex pairs. */
  def samplePairs(g: AdjGraph, count: Int, seed: Long): Seq[(Int, Int)] = {
    val rnd = new Random(seed)
    val comp = g.components()
    val out = Seq.newBuilder[(Int, Int)]
    var tries = 0
    var found = 0
    while (found < count && tries < count * 100) {
      val s = rnd.nextInt(g.n); val t = rnd.nextInt(g.n)
      if (s != t && comp(s) == comp(t)) { out += ((s, t)); found += 1 }
      tries += 1
    }
    out.result()
  }
}
