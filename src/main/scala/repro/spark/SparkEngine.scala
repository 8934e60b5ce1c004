package repro.spark

import org.apache.spark.sql.SparkSession
import repro.core.{AdjGraph, Budget, BudgetExceeded, EngineKernels, EngineScratch, LocalEngine}

/** [[repro.core.HDegEngine]] that distributes batch h-degree computations
  * over Spark executors — the cluster-scale version of the §4.6
  * parallelization ("give different h-BFS traversals to different
  * processors").
  *
  * It is the one-thread local engine, except that an h-degree batch of at
  * least `minDistributedBatch` vertices runs as Spark tasks: `vertices` is
  * cut into contiguous slices, each task runs the engines' kernel on its
  * slice with its thread's scratch, and the driver copies each slice's
  * degrees back into place. Shorter batches stay local.
  *
  * Each task runs under a budget with the caller's deadline and the visits
  * the caller has left, so it stops at most one block past either. A
  * stopped task returns its [[BudgetExceeded]] with its counters; the
  * driver merges every task's visits and BFS into the caller's budget and
  * then rethrows that exception itself. The deadline is on the
  * `System.nanoTime` scale of the driver, which executors in local mode
  * share.
  *
  * The graph is broadcast once per engine instance, and the engine serves
  * only that graph; the (mutable) alive mask is shipped per batch.
  */
final class SparkEngine(spark: SparkSession, g: AdjGraph,
                        minDistributedBatch: Int = 512) extends LocalEngine(1) {
  private val sc = spark.sparkContext
  private val graphBc = sc.broadcast(g)

  override def batchHDeg(g2: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                         h: Int, budget: Budget): Array[Int] = {
    require(g2 eq g, "SparkEngine is bound to the graph it was built for")
    val len = vertices.length
    if (len < minDistributedBatch) return super.batchHDeg(g2, alive, vertices, h, budget)
    val aliveBc = sc.broadcast(alive)
    val graphB = graphBc
    val visitsLeft = math.max(0L, budget.maxVisits - budget.visits)
    val deadline = budget.deadlineNanos
    val p = sc.defaultParallelism
    def cut(i: Int) = (len.toLong * i / p).toInt
    val slices = Seq.tabulate(p)(i => java.util.Arrays.copyOfRange(vertices, cut(i), cut(i + 1)))
    try {
      val rows = sc.parallelize(slices, p)
        .map { slice =>
          val graph = graphB.value
          val b = new Budget(maxVisits = visitsLeft, deadlineNanos = deadline)
          val out = new Array[Int](slice.length)
          val stop =
            try {
              EngineKernels.hDegRange(graph, aliveBc.value, slice, h, b, EngineScratch.get(graph.n), out, 0, slice.length)
              null
            } catch { case e: BudgetExceeded => e }
          (out, b.visits, b.bfsCount, stop)
        }
        .collect()
      rows.foreach { case (_, visits, bfsCount, _) => budget.merge(visits, bfsCount) }
      rows.iterator.map(_._4).find(_ != null).foreach(e => throw e)
      budget.check()
      val degs = new Array[Int](len)
      var at = 0
      rows.foreach { case (part, _, _, _) =>
        System.arraycopy(part, 0, degs, at, part.length)
        at += part.length
      }
      degs
    } finally aliveBc.destroy()
  }

  override def shutdown(): Unit = graphBc.destroy()
}
