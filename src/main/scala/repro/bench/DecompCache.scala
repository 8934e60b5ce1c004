package repro.bench

import repro.core._

/** Memoized decompositions shared across table runners within one JVM (the
  * bench suites and jobs re-use each other's results; a timed run is never
  * served from cache — only correctness-side uses are).
  */
object DecompCache {
  private val cache = scala.collection.mutable.Map.empty[(String, Int), Array[Int]]

  /** Core indices of dataset `name` at distance `h` (h-LB+UB, unbudgeted). */
  def cores(name: String, h: Int): Array[Int] = synchronized {
    cache.getOrElseUpdate((name, h), TableRunners.decompose(name, Datasets(name), h, Algo.HLBUB()).core)
  }
}
