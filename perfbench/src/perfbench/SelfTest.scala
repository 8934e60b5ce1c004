package perfbench

import repro.bench.Datasets
import repro.core._
import repro.graphgen.GraphGen
import scala.collection.mutable.ArrayBuffer

/** Checks of the benchmark's own machinery, run untimed at the start of
  * every run; a failed check is a failure of the run. (That the printed
  * metric names are those of BENCHMARK.json is checked by run.py.)
  */
object SelfTest {

  /** Returns the number of checks made and the failures among them. */
  def run(wl: Workload, threads: Int): (Int, Seq[String]) = {
    val fails = ArrayBuffer.empty[String]
    var attempted = 0
    def expect(what: String)(ok: => Boolean): Unit = {
      attempted += 1
      try { if (!ok) fails += s"self-test: $what" }
      catch { case e: Exception => fails += s"self-test: $what: $e" }
    }

    val small = Seq("figure1" -> GraphGen.figure1, "ba(300,5,3)" -> GraphGen.ba(300, 5, 3, 1L))

    // The timing decorator is transparent: same cores, visits and BFS count
    // as the bare engine, for every algorithm and both local engines.
    for ((name, g) <- small) {
      val threaded = new ThreadedEngine(g.n, threads)
      val engines = Seq[(String, HDegEngine)]("seq" -> new SequentialEngine(g.n), "threaded" -> threaded)
      try {
        for (h <- 1 to 3; algo <- Seq(Algo.HBZ, Algo.HLB, Algo.HLBUB()); (en, eng) <- engines)
          expect(s"decorator transparent on $name h=$h $algo $en") {
            val bare = KHCore.decompose(g, h, algo, Some(eng))
            val wrapped = KHCore.decompose(g, h, algo, Some(new TimedEngine(eng, new Spans)))
            java.util.Arrays.equals(bare.core, wrapped.core) &&
              bare.visits == wrapped.visits && bare.bfsCount == wrapped.bfsCount
          }
      } finally threaded.shutdown()
    }

    // The gate accepts a true result and rejects any single core value
    // changed by +1 or -1.
    val (_, g) = small(1)
    val h = 2
    val ref = KHCore.decompose(g, h, Algo.HLB).core
    val other = KHCore.decompose(g, h, Algo.HLBUB()).core
    def gate(core: Array[Int]): Seq[String] =
      Gate.reference(g, h, core, None) ++ Gate.agrees("h-LB+UB", other, core)
    expect("gate accepts the true cores")(gate(ref).isEmpty)
    expect("gate rejects every single core value +-1") {
      ref.indices.forall { v =>
        Seq(1, -1).forall { d =>
          val bad = ref.clone(); bad(v) += d
          gate(bad).nonEmpty
        }
      }
    }
    // Even when every algorithm agrees, the lower-side check alone rejects
    // a raised top-core vertex.
    expect("lower-side check rejects a raised top-core vertex") {
      val bad = ref.clone(); bad(ref.indexOf(ref.max)) += 1
      Gate.lowerSide(g, h, bad).nonEmpty
    }

    // The workload's generator call is that of its Datasets entry.
    wl.dataset.foreach { d =>
      expect(s"${wl.name} generator matches Datasets($d)") {
        val entry = Datasets.all.find(_.name == d).get.build()
        val mine = wl.gen(wl.graphSeed)
        entry.n == mine.n && entry.edges.sameElements(mine.edges)
      }
    }
    (attempted, fails.toSeq)
  }
}
