package repro.core

import java.util.concurrent.atomic.AtomicLong
import org.scalatest.funsuite.AnyFunSuite
import repro.bench.Datasets
import repro.graphgen.GraphGen
import scala.collection.mutable
import scala.util.Random

/** Round discovery on the pool ([[LocalEngine.discoverPooled]]): a round of
  * two or more 64-lane blocks runs its blocks on the engine's threads, and
  * the caller hands their output to the round's sink in block order. The
  * sink must get the same entries in the same order as on the caller, so
  * that core, order, visits and BFS count are the same on every thread
  * count; a budget that trips inside such a round must raise
  * [[BudgetExceeded]] and leave the engine usable.
  */
class ParallelRoundSpec extends AnyFunSuite {

  /** A local engine that counts the discovery output that reached the sink
    * from a pool worker: a worker's share arrives in the arrays of its
    * copy, not in the kernel arrays of the caller's [[EngineScratch]].
    * `failedPooled` counts the rounds of at least
    * [[LocalEngine.MinPooledRound]] vertices that raised [[BudgetExceeded]].
    */
  private final class CountingEngine(threads: Int) extends LocalEngine(threads) {
    val fromWorkers = new AtomicLong
    val failedPooled = new AtomicLong
    override def discoverRound(g: AdjGraph, alive: Array[Boolean], sources: Array[Int], np: Int,
                               h: Int, budget: Budget, sink: DiscoverySink): Unit = {
      val s = EngineScratch.get(g.n)
      val counting = new DiscoverySink {
        def reached(found: Array[Int], dist: Array[Int], lanes: Array[Int], m: Int): Unit = {
          if ((found ne s.multi.found) && (found ne s.bfs.nbrs)) fromWorkers.incrementAndGet()
          sink.reached(found, dist, lanes, m)
        }
      }
      try super.discoverRound(g, alive, sources, np, h, budget, counting)
      catch {
        case e: BudgetExceeded =>
          if (np >= LocalEngine.MinPooledRound) failedPooled.incrementAndGet()
          throw e
      }
    }
  }

  /** Every entry a sink gets, in order. */
  private final class Recorder extends DiscoverySink {
    val entries = mutable.ArrayBuffer.empty[(Int, Int, Int)]
    def reached(found: Array[Int], dist: Array[Int], lanes: Array[Int], m: Int): Unit =
      for (j <- 0 until m) entries += ((found(j), dist(j), if (lanes == null) 1 else lanes(j)))
  }

  test("pooled discovery hands the sink the caller's entries in the caller's order, at any round size") {
    val seq = new SequentialEngine(0)
    val eng = new LocalEngine(4)
    try {
      val rnd = new Random(7)
      for (seed <- 1 to 4; np <- Seq(0, 1, 7, 8, 63, 64, 65, 71, 127, 128, 129, 135, 192, 200, 263, 400)) {
        val g = GraphGen.gridRoad(30, 30, 0.75, seed)
        val alive = Array.fill(g.n)(rnd.nextDouble() < 0.9)
        val sources = rnd.shuffle((0 until g.n).toVector).take(np).toArray
        val h = 2 + seed % 3
        val (a, b) = (new Recorder, new Recorder)
        val (ba, bb) = (Budget.unlimited(), Budget.unlimited())
        seq.discoverRound(g, alive, sources, np, h, ba, a)
        eng.discoverPooled(g, alive, sources, np, h, bb, b)
        assert(a.entries == b.entries, s"seed=$seed np=$np")
        assert((ba.visits, ba.bfsCount) == ((bb.visits, bb.bfsCount)), s"seed=$seed np=$np")
      }
    } finally eng.shutdown()
  }

  /** The road analogs at h = 2..4, caAs at h = 3 and a 120 × 120 grid road. */
  private val instances: Seq[(String, AdjGraph, Int)] =
    (for (name <- Seq("rnPA", "rnTX"); h <- 2 to 4) yield (name, Datasets(name), h)) ++
      Seq(("caAs", Datasets("caAs"), 3), ("grid120", GraphGen.gridRoad(120, 120, 0.75, 1), 3))

  private def same(label: String, a: CoreResult, b: CoreResult): Unit = {
    assert(a.core.toSeq == b.core.toSeq, s"$label: core")
    assert(a.order.toSeq == b.order.toSeq, s"$label: order")
    assert((a.visits, a.bfsCount) == ((b.visits, b.bfsCount)), s"$label: visits, BFS")
  }

  test("h-LB, h-LB+UB and UpperBound agree on 1 and 4 threads where rounds are large") {
    val one = new CountingEngine(1)
    val four = new CountingEngine(4)
    try {
      for ((name, g, h) <- instances) {
        for ((algo, literal) <- Seq((Algo.HLB, false), (Algo.HLBUB(), false), (Algo.HLBUB(), true))) {
          val label = s"$name h=$h $algo paperLiteral=$literal"
          val a = KHCore.decompose(g, h, algo, Some(one), paperLiteral = literal)
          val b = KHCore.decompose(g, h, algo, Some(four), paperLiteral = literal)
          same(label, a, b)
          Certify.check(g, h, b.core, b.order).foreach(f => fail(s"$label: $f"))
        }
        val (ba, bb) = (Budget.unlimited(), Budget.unlimited())
        val ua = Bounds.upperBound(g, h, one, ba)
        val ub = Bounds.upperBound(g, h, four, bb)
        assert(ua.toSeq == ub.toSeq, s"$name h=$h: UB")
        assert((ba.visits, ba.bfsCount) == ((bb.visits, bb.bfsCount)), s"$name h=$h: UB visits, BFS")
      }
    } finally four.shutdown()
    assert(one.fromWorkers.get == 0)
    assert(four.fromWorkers.get > 100, s"only ${four.fromWorkers.get} shares came from the pool")
  }

  test("a visit budget that trips in a pooled round raises BudgetExceeded; the engine stays usable") {
    val g = GraphGen.gridRoad(120, 120, 0.75, 1)
    val h = 3
    val seq = KHCore.decompose(g, h, Algo.HLB)
    val eng = new CountingEngine(4)
    try {
      // The budget spent when the first pooled round starts, found on one
      // thread: the run up to there is the same on every thread count.
      var before = -1L
      val probe = new LocalEngine(1) {
        override def discoverRound(g: AdjGraph, alive: Array[Boolean], sources: Array[Int], np: Int,
                                   h: Int, budget: Budget, sink: DiscoverySink): Unit = {
          if (before < 0 && np >= LocalEngine.MinPooledRound) before = budget.visits
          super.discoverRound(g, alive, sources, np, h, budget, sink)
        }
      }
      KHCore.decompose(g, h, Algo.HLB, Some(probe))
      assert(before >= 0, "no round of two blocks")
      intercept[BudgetExceeded] {
        KHCore.decompose(g, h, Algo.HLB, Some(eng), new Budget(maxVisits = before + 1))
      }
      assert(eng.failedPooled.get == 1, "the budget did not trip in a pooled round")
      same("after the failure", seq, KHCore.decompose(g, h, Algo.HLB, Some(eng)))
    } finally eng.shutdown()
  }
}
