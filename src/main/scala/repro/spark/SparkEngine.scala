package repro.spark

import org.apache.spark.sql.SparkSession
import repro.core.{AdjGraph, Budget, HDegEngine, SequentialEngine}

/** [[HDegEngine]] that distributes batch h-degree computations over Spark
  * executors — the cluster-scale version of the §4.6 parallelization
  * ("give different h-BFS traversals to different processors").
  *
  * The graph is broadcast once per engine instance, and the engine serves
  * only that graph; the (mutable) alive mask is shipped per batch. Only
  * large batches go through Spark — single-vertex updates during peeling
  * stay local, where they belong.
  */
final class SparkEngine(spark: SparkSession, g: AdjGraph,
                        minDistributedBatch: Int = 512) extends HDegEngine {
  private val sc = spark.sparkContext
  private val graphBc = sc.broadcast(g)
  private val local = new SequentialEngine(g.n)

  override def batchHDeg(g2: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                         h: Int, budget: Budget): Array[Int] = {
    require(g2 eq g, "SparkEngine is bound to the graph it was built for")
    if (vertices.length < minDistributedBatch)
      return local.batchHDeg(g2, alive, vertices, h, budget)
    val aliveBc = sc.broadcast(alive)
    val graphB = graphBc
    try {
      val rows = sc.parallelize(vertices.zipWithIndex.toSeq, sc.defaultParallelism)
        .mapPartitions { it =>
          val (slice, idx) = it.toArray.unzip
          val graph = graphB.value
          val b = Budget.unlimited() // per-task accounting, merged below
          // The engines' own kernel: 64-lane blocks, per-vertex tail.
          val out = new SequentialEngine(graph.n).batchHDeg(graph, aliveBc.value, slice, h, b)
          Iterator((idx, out, b.visits, b.bfsCount))
        }
        .collect()
      val degs = new Array[Int](vertices.length)
      rows.foreach { case (idx, part, visits, bfsCount) =>
        var j = 0
        while (j < idx.length) { degs(idx(j)) = part(j); j += 1 }
        budget.merge(visits, bfsCount)
      }
      budget.check()
      degs
    } finally aliveBc.destroy()
  }

  override def batchNbrMax(g2: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                           r: Int, value: Array[Int], budget: Budget): Array[Int] =
    // LB2 batches are one-shot and cheap relative to peeling; keep local.
    local.batchNbrMax(g2, alive, vertices, r, value, budget)

  override def shutdown(): Unit = graphBc.destroy()
}
