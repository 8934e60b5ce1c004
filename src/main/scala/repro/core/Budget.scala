package repro.core

import java.util.concurrent.atomic.LongAdder

/** Thrown when a decomposition or a club solver exceeds its visit or
  * wall-clock budget — the bench harness reports such runs as "NT" (did
  * not terminate), the same convention the paper uses for its 20/24-hour
  * timeouts.
  */
final class BudgetExceeded(msg: String) extends RuntimeException(msg)

/** Shared accounting for the "number of computed point-to-point distances"
  * metric of Table 3: the total number of (possibly repeated) vertices
  * visited across all h-bounded BFS traversals. Thread-safe (the
  * multithreaded engine of §4.6 updates it from worker threads).
  *
  * Kernels charge work, then [[check]]: a per-vertex [[HBfs]] run once per
  * BFS, a [[MultiHBfs]] block once per block of up to 64 BFS. A visit
  * budget is therefore exceeded by at most one block's visits per thread
  * before [[BudgetExceeded]] is raised; on one thread the raising block,
  * and so the point of failure, is deterministic.
  *
  * @param maxVisits   visit budget; exceeded ⇒ [[BudgetExceeded]]
  * @param deadlineNanos wall-clock deadline (System.nanoTime scale)
  */
final class Budget(val maxVisits: Long = Long.MaxValue,
                   val deadlineNanos: Long = Long.MaxValue) extends Serializable {
  private val visitsAdder = new LongAdder
  private val bfsAdder = new LongAdder

  /** Charge `visits` over `bfs` traversals: the kernels charge their own
    * work, and a Spark driver merges a detached per-task budget. */
  def merge(visits: Long, bfs: Long): Unit = {
    visitsAdder.add(visits)
    bfsAdder.add(bfs)
  }

  def visits: Long = visitsAdder.sum()
  def bfsCount: Long = bfsAdder.sum()

  /** Cheap check, called once per BFS or 64-lane block (not per vertex). */
  def check(): Unit = {
    if (visitsAdder.sum() > maxVisits)
      throw new BudgetExceeded(s"visit budget $maxVisits exceeded")
    if (deadlineNanos != Long.MaxValue && System.nanoTime() > deadlineNanos)
      throw new BudgetExceeded("wall-clock budget exceeded")
  }
}

object Budget {
  def unlimited(): Budget = new Budget()
  def withTimeLimit(millis: Long): Budget =
    new Budget(deadlineNanos = System.nanoTime() + millis * 1000000L)
}

/** Result of one decomposition run.
  *
  * @param core   per-vertex core index
  * @param order  every vertex, in the order its core index was assigned:
  *               core is non-decreasing along it, and each v has h-degree
  *               ≤ core(v) among v and the vertices after it (the peel-order
  *               half of the [[Certify]] certificate)
  * @param visits total vertices visited over all h-BFS (Table 3 metric)
  * @param bfsCount number of h-BFS traversals executed
  * @param millis wall-clock runtime
  */
final case class CoreResult(core: Array[Int], order: Array[Int], visits: Long, bfsCount: Long,
                            millis: Long) {
  def maxCore: Int = if (core.isEmpty) 0 else core.max

  /** Number of distinct non-empty core-index values ≥ 1 (Table 2 metric:
    * "how many of the cores are distinct"). */
  def distinctCores: Int = core.filter(_ >= 1).distinct.length

  /** Vertices of the (k,h)-core: all v with core(v) ≥ k. */
  def coreVertices(k: Int): Array[Int] =
    core.indices.filter(core(_) >= k).toArray
}
