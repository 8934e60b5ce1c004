package perfbench

import repro.core.{AdjGraph, Budget, HBfs}

/** Correctness gate, run outside all timing.
  *
  * A run's reference is one sequential h-LB decomposition per instance.
  * The gate accepts it only if
  *  - it passes the lower-side check: every v has at least core(v)
  *    h-neighbours inside G[{u : core(u) >= core(v)}] (n `HBfs.run` calls),
  *    so no value is too high;
  *  - every other decomposition of the instance returns the same array, so
  *    an h-LB error that the others do not share shows as a mismatch;
  *  - at the workload's default graph seed, its max core index and number
  *    of distinct cores equal the recorded values (both label-invariant).
  */
object Gate {

  /** First vertex whose h-degree inside its own core is below its core
    * index, as an error message; None when the array passes. */
  def lowerSide(g: AdjGraph, h: Int, core: Array[Int]): Option[String] = {
    val n = g.n
    if (core.length != n) return Some(s"core array has ${core.length} entries for $n vertices")
    val neg = core.indexWhere(_ < 0)
    if (neg >= 0) return Some(s"vertex $neg has core ${core(neg)}")
    val order = Array.range(0, n).sortBy(v => -core(v))
    val alive = new Array[Boolean](n)
    val bfs = new HBfs(n)
    val budget = Budget.unlimited()
    var i = 0
    while (i < n) {
      val k = core(order(i))
      var j = i
      while (j < n && core(order(j)) == k) { alive(order(j)) = true; j += 1 }
      while (i < j) {
        val v = order(i)
        val d = bfs.run(g, alive, v, h, budget)
        if (d < k) return Some(s"vertex $v has $d h-neighbours inside its claimed $k-core")
        i += 1
      }
    }
    None
  }

  /** Failures of the reference itself: the lower-side check and, when
    * given, the recorded label-invariant facts. */
  def reference(g: AdjGraph, h: Int, core: Array[Int], recorded: Option[Recorded]): Seq[String] =
    lowerSide(g, h, core).toSeq ++ recorded.flatMap { r =>
      val maxCore = if (core.isEmpty) 0 else core.max
      val distinct = core.filter(_ >= 1).distinct.length
      if (maxCore == r.maxCore && distinct == r.distinctCores) None
      else Some(s"max core $maxCore / distinct $distinct, recorded ${r.maxCore} / ${r.distinctCores}")
    }

  /** A failure when `core`, computed by `name`, differs from `reference`. */
  def agrees(name: String, core: Array[Int], reference: Array[Int]): Option[String] =
    if (java.util.Arrays.equals(core, reference)) None
    else {
      val v = core.indices.find(i => i >= reference.length || core(i) != reference(i))
      Some(s"$name differs from the h-LB reference" + v.fold("")(i => s" at vertex $i"))
    }
}

/** Label-invariant facts of a workload's default-seed graph. */
final case class Recorded(maxCore: Int, distinctCores: Int)
