package repro.spark

import org.apache.spark.sql.SparkSession
import repro.core._

/** Distributed h-LB+UB: the UB-interval sub-computations of Algorithm 4 are
  * *totally independent* (Observation 3), so each interval [kmin,kmax] can
  * run as its own Spark task over the broadcast graph — the first
  * parallelization option discussed in §4.6.
  *
  * The driver computes the plan with UpperBound as Alg. 5 is written. Each
  * task runs the interval routine of [[HLBUB]] (build V[kmin], clean it
  * with ImproveLB, peel it with CoreDecomp as Alg. 3 is written; the
  * clean-up is the same CoreDecomp peel, one vertex per round, on the one
  * level kmin−1) on a fresh state, and emits the vertices whose core index lies inside its interval,
  * in assignment order, with their cores; the driver merges them, and
  * concatenates the orders from the lowest interval to the highest. The
  * paper's noted trade-off applies: tasks lose the knowledge of
  * already-assigned higher cores (those vertices are re-peeled as ordinary
  * members), buying parallelism with some repeated work.
  */
object SparkPartitionedDecomp {

  def decompose(spark: SparkSession, g: AdjGraph, h: Int,
                s: Option[Int] = None): CoreResult = {
    require(h >= 1)
    val t0 = System.nanoTime()
    val n = g.n
    if (n == 0) return CoreResult(Array.empty, Array.empty, 0, 0, 0)
    val sc = spark.sparkContext
    val budget = Budget.unlimited()

    // Bounds on the driver (one-shot; these are the partition keys).
    val plan = HLBUB.plan(g, h, new SequentialEngine(n), budget, s, paperLiteral = true)

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
                            new SequentialEngine(n), taskBudget, paperLiteral = true)
          val vs = java.util.Arrays.copyOf(st.order, st.assigned)
          (vs, vs.map(st.core(_)), taskBudget.visits, taskBudget.bfsCount)
        }
        .collect()

      // Tasks come back in interval order, top-down.
      val core = Array.fill(n)(-1)
      val order = new Array[Int](n)
      var len = 0
      results.reverseIterator.foreach { case (vs, cs, visits, bfs) =>
        var i = 0
        while (i < vs.length) {
          val v = vs(i)
          require(core(v) == -1, s"vertex $v assigned twice")
          core(v) = cs(i)
          order(len) = v
          len += 1
          i += 1
        }
        budget.merge(visits, bfs)
      }
      require(len == n, "some vertex left unassigned")
      CoreResult(core, order, budget.visits, budget.bfsCount, (System.nanoTime() - t0) / 1000000L)
    } finally {
      graphBc.destroy(); planBc.destroy()
    }
  }
}
