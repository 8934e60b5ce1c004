package repro

import repro.core._
import repro.graphgen.GraphGen
import repro.spark.SparkPartitionedDecomp

/** Pins the exact h-BFS work (Table 3 visits and BFS count) of the
  * h-LB+UB interval paths, sequential and Spark. The core indices are
  * checked elsewhere; these counters catch a change that keeps the result
  * but silently moves work between bounds, ImproveLB and peeling.
  */
class WorkCountersSpec extends SparkSpec {

  private val graphs = Seq(
    ("figure1", 2, GraphGen.figure1),
    ("ba-120", 3, GraphGen.ba(120, 4, 2, 11)))

  /** (graph, path) -> (visits, bfsCount), recorded before the sequential
    * and Spark paths were merged onto one interval routine. */
  private val expected: Map[(String, String), (Long, Long)] = Map(
    ("figure1", "h-LB+UB S=None") -> (720L, 120L),
    ("figure1", "h-LB+UB S=1")    -> (720L, 120L),
    ("figure1", "h-LB+UB hDegUB") -> (847L, 149L),
    ("figure1", "Spark S=None")   -> (735L, 122L),
    ("figure1", "Spark S=1")      -> (735L, 122L),
    ("ba-120", "h-LB+UB S=None")  -> (152459L, 2501L),
    ("ba-120", "h-LB+UB S=1")     -> (212211L, 3243L),
    ("ba-120", "h-LB+UB hDegUB")  -> (148007L, 2848L),
    ("ba-120", "Spark S=None")    -> (230815L, 3437L),
    ("ba-120", "Spark S=1")       -> (352398L, 4949L))

  for ((name, h, g) <- graphs) {
    val paths: Seq[(String, () => CoreResult)] = Seq(
      "h-LB+UB S=None" -> (() => KHCore.decompose(g, h, Algo.HLBUB(None))),
      "h-LB+UB S=1"    -> (() => KHCore.decompose(g, h, Algo.HLBUB(Some(1)))),
      "h-LB+UB hDegUB" -> (() => KHCore.decompose(g, h, Algo.HLBUBHDeg(None))),
      "Spark S=None"   -> (() => SparkPartitionedDecomp.decompose(spark, g, h)),
      "Spark S=1"      -> (() => SparkPartitionedDecomp.decompose(spark, g, h, Some(1))))
    for ((path, run) <- paths)
      test(s"work counters of $path on $name (h=$h)") {
        val r = run()
        assert(r.core.toSeq == NaiveCore.decompose(g, h).toSeq)
        assert((r.visits, r.bfsCount) == expected((name, path)))
      }
  }
}
