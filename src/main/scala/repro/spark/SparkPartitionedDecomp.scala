package repro.spark

import org.apache.spark.sql.SparkSession
import repro.core._

/** Distributed h-LB+UB: the UB-interval sub-computations of Algorithm 4 are
  * *totally independent* (Observation 3), so each interval [kmin,kmax] can
  * run as its own Spark task over the broadcast graph — the first
  * parallelization option discussed in §4.6.
  *
  * Each task runs the interval routine of [[HLBUB]] (build V[kmin], clean it
  * with ImproveLB, peel it with CoreDecomp) on a fresh state, and emits
  * (vertex, core) pairs for core indices inside its interval; the driver
  * merges them. The paper's noted trade-off applies: tasks lose the
  * knowledge of already-assigned higher cores (those vertices are re-peeled
  * as ordinary members), buying parallelism with some repeated work.
  */
object SparkPartitionedDecomp {

  def decompose(spark: SparkSession, g: AdjGraph, h: Int,
                s: Option[Int] = None): CoreResult = {
    require(h >= 1)
    val t0 = System.nanoTime()
    val n = g.n
    if (n == 0) return CoreResult(Array.empty, 0, 0, 0)
    val sc = spark.sparkContext
    val budget = Budget.unlimited()

    // Bounds on the driver (one-shot; these are the partition keys).
    val plan = HLBUB.plan(g, h, new SequentialEngine(n), budget, s)

    val graphBc = sc.broadcast(g)
    val planBc = sc.broadcast(plan)
    try {
      val results = sc.parallelize(plan.intervals, math.min(plan.intervals.size, sc.defaultParallelism))
        .map { case (kmin, kmax) =>
          val graph = graphBc.value
          val taskBudget = Budget.unlimited()
          // A fresh state: no knowledge of other intervals' assignments.
          val st = new HLBUB.State(n)
          HLBUB.runInterval(graph, h, kmin, kmax, planBc.value, st,
                            new SequentialEngine(n), taskBudget)
          val pairs = (0 until n).collect { case v if st.core(v) >= 0 => (v, st.core(v)) }.toArray
          (pairs, taskBudget.visits, taskBudget.bfsCount)
        }
        .collect()

      val core = Array.fill(n)(-1)
      results.foreach { case (pairs, visits, bfs) =>
        pairs.foreach { case (v, c) =>
          require(core(v) == -1, s"vertex $v assigned twice")
          core(v) = c
        }
        budget.merge(visits, bfs)
      }
      require(core.forall(_ >= 0), "some vertex left unassigned")
      CoreResult(core, budget.visits, budget.bfsCount, (System.nanoTime() - t0) / 1000000L)
    } finally {
      graphBc.destroy(); planBc.destroy()
    }
  }
}
