package repro.core

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}
import org.scalatest.funsuite.AnyFunSuite
import repro.bench.Datasets
import repro.graphgen.GraphGen
import scala.collection.mutable
import scala.util.Random

/** The local engine's one pool dispatch ([[LocalEngine.onPool]]): an
  * h-degree batch or a round discovery, with loss bounds or without, of
  * two or more 64-lane blocks runs in chunks of whole blocks on the caller
  * and the engine's threads. A batch must get the caller's entries, and a round's
  * sink the caller's entries in the caller's order, so that core, order,
  * visits and BFS count are the same on every thread count; a budget that
  * trips inside a pooled batch or round must raise [[BudgetExceeded]] and
  * leave the engine usable.
  */
class ParallelRoundSpec extends AnyFunSuite {

  /** A local engine that counts the discovery output that reached the sink
    * from a [[FoundLog]], not from the kernel arrays of the caller's
    * [[EngineScratch]], and the batches and rounds of at least
    * [[LocalEngine.MinPooled]] vertices that raised [[BudgetExceeded]].
    */
  private final class CountingEngine(threads: Int) extends LocalEngine(threads) {
    val fromLogs = new AtomicLong
    val failedRounds = new AtomicLong
    val failedBatches = new AtomicLong
    override def discoverRound(g: AdjGraph, alive: Array[Boolean], sources: Array[Int], np: Int,
                               h: Int, loss: Boolean, budget: Budget, sink: DiscoverySink): Unit = {
      val s = EngineScratch.get(g.n)
      val counting = new DiscoverySink {
        def reached(found: Array[Int], dist: Array[Int], loss: Array[Int], from: Int, until: Int): Unit = {
          if ((found ne s.multi.found) && (found ne s.bfs.nbrs)) fromLogs.incrementAndGet()
          sink.reached(found, dist, loss, from, until)
        }
      }
      try super.discoverRound(g, alive, sources, np, h, loss, budget, counting)
      catch {
        case e: BudgetExceeded =>
          if (np >= LocalEngine.MinPooled) failedRounds.incrementAndGet()
          throw e
      }
    }
    override def batchHDeg(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                           h: Int, budget: Budget): Array[Int] =
      try super.batchHDeg(g, alive, vertices, h, budget)
      catch {
        case e: BudgetExceeded =>
          if (vertices.length >= LocalEngine.MinPooled) failedBatches.incrementAndGet()
          throw e
      }
  }

  /** Every entry a sink gets, in order. */
  private final class Recorder extends DiscoverySink {
    val entries = mutable.ArrayBuffer.empty[(Int, Int, Int)]
    def reached(found: Array[Int], dist: Array[Int], loss: Array[Int], from: Int, until: Int): Unit =
      for (j <- from until until) entries += ((found(j), dist(j), if (loss == null) 1 else loss(j)))
  }

  /** The forced-size cases: a random 90%-alive mask on an 80 × 80 grid
    * road at h = 2..4, and a batch or round of each size, from empty to many
    * chunks, on engines of 2, 3, 4 and 7 threads, whose chunk lengths
    * differ. `body` gets a label, the engine, the graph, the mask, the
    * vertices and h. */
  private def forcedCases(body: (String, LocalEngine, AdjGraph, Array[Boolean], Array[Int], Int) => Unit): Unit = {
    val engines = Seq(2, 3, 4, 7).map(t => (t, new LocalEngine(t)))
    try {
      val rnd = new Random(7)
      for (seed <- 1 to 3) {
        val g = GraphGen.gridRoad(80, 80, 0.75, seed)
        val alive = Array.fill(g.n)(rnd.nextDouble() < 0.9)
        for (len <- Seq(0, 1, 63, 64, 65, 127, 128, 129, 191, 192, 255, 256, 400, 1000, 4100);
             (threads, eng) <- engines) {
          val vertices = rnd.shuffle((0 until g.n).toVector).take(len).toArray
          assert(vertices.length == len)
          body(s"seed=$seed len=$len threads=$threads", eng, g, alive, vertices, 2 + seed % 3)
        }
      }
    } finally engines.foreach(_._2.shutdown())
  }

  private def counters(b: Budget): (Long, Long) = (b.visits, b.bfsCount)

  test("pooled discovery hands the sink the caller's entries in the caller's order, at any round size") {
    val seq = new SequentialEngine(0)
    forcedCases { (label, eng, g, alive, sources, h) =>
      for (loss <- Seq(false, true)) {
        val (a, b) = (new Recorder, new Recorder)
        val (ba, bb) = (Budget.unlimited(), Budget.unlimited())
        seq.discoverRound(g, alive, sources, sources.length, h, loss, ba, a)
        eng.onPool(sources.length, b) { (from, until, to) =>
          EngineKernels.discoverRange(g, alive, sources, from, until, h, loss, bb, EngineScratch.get(g.n), to)
        }
        assert(a.entries == b.entries, s"$label loss=$loss")
        assert(counters(ba) == counters(bb), s"$label loss=$loss: visits, BFS")
      }
    }
  }

  test("pooled h-degree batches give the caller's entries at any size") {
    val seq = new SequentialEngine(0)
    forcedCases { (label, eng, g, alive, vertices, h) =>
      val (ba, bb) = (Budget.unlimited(), Budget.unlimited())
      val a = seq.batchHDeg(g, alive, vertices, h, ba)
      val b = new Array[Int](vertices.length)
      eng.onPool(vertices.length, null) { (from, until, _) =>
        EngineKernels.hDegRange(g, alive, vertices, h, bb, EngineScratch.get(g.n), b, from, until)
      }
      assert(a.toSeq == b.toSeq, label)
      assert(counters(ba) == counters(bb), s"$label: visits, BFS")
    }
  }

  test("the pool dispatch rethrows a worker's failure as itself only after every chunk has ended") {
    val eng = new LocalEngine(4)
    try {
      // 4000 vertices on 4 threads: 16 chunks of 256. The caller holds
      // chunk 0 until chunk 1 has failed, and 20 ms more for the failure to
      // close the cursor, so a worker runs chunk 1; chunk 1 fails only once
      // the two other workers are inside chunks that outlast the caller's.
      val (started, ended) = (new AtomicInteger, new AtomicInteger)
      val (sleeping, failed) = (new CountDownLatch(2), new CountDownLatch(1))
      val caller = Thread.currentThread
      val e = intercept[BudgetExceeded] {
        eng.onPool(4000, null) { (from, _, _) =>
          started.incrementAndGet()
          try {
            if (from == 0) { assert(failed.await(10, TimeUnit.SECONDS)); Thread.sleep(20) }
            else if (from == 256) {
              assert(sleeping.await(10, TimeUnit.SECONDS))
              failed.countDown()
              throw new BudgetExceeded("chunk 1")
            } else if (Thread.currentThread ne caller) { sleeping.countDown(); Thread.sleep(50) }
          } finally ended.incrementAndGet()
        }
      }
      assert(e.getMessage == "chunk 1")
      assert(started.get == ended.get, "a chunk was still running")
      assert(started.get < 16, "the failure did not close the cursor")
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

  private val algos = Seq((Algo.HLB, false), (Algo.HLBUB(), false), (Algo.HLBUB(), true))

  /** Each instance's one-thread results: h-LB, default and paper-literal
    * h-LB+UB, and UpperBound with its visits and BFS count. */
  private lazy val oneThread = {
    val one = new CountingEngine(1)
    val refs = instances.map { case (_, g, h) =>
      val runs = algos.map { case (algo, literal) => KHCore.decompose(g, h, algo, Some(one), paperLiteral = literal) }
      val b = Budget.unlimited()
      (runs, Bounds.upperBound(g, h, one, b).toSeq, counters(b))
    }
    assert(one.fromLogs.get == 0)
    refs
  }

  for (t <- Seq(2, 3, 4))
    test(s"h-LB, h-LB+UB and UpperBound agree on 1 and $t threads where rounds are large") {
      val eng = new CountingEngine(t)
      try {
        for (((name, g, h), (runs, ub, ubCounters)) <- instances.zip(oneThread)) {
          for (((algo, literal), a) <- algos.zip(runs)) {
            val label = s"$name h=$h $algo paperLiteral=$literal"
            val b = KHCore.decompose(g, h, algo, Some(eng), paperLiteral = literal)
            same(label, a, b)
            Certify.check(g, h, b.core, b.order).foreach(f => fail(s"$label: $f"))
          }
          val b = Budget.unlimited()
          assert(Bounds.upperBound(g, h, eng, b).toSeq == ub, s"$name h=$h: UB")
          assert(counters(b) == ubCounters, s"$name h=$h: UB visits, BFS")
        }
      } finally eng.shutdown()
      assert(eng.fromLogs.get > 100, s"only ${eng.fromLogs.get} chunks came from logs")
    }

  /** The budget spent when `first(round, size, radius)` first holds for a
    * round discovery or h-degree batch of a one-thread run of `algo`: the
    * run up to there is the same on every thread count. */
  private def spentBefore(g: AdjGraph, h: Int, algo: Algo, first: (Boolean, Int, Int) => Boolean): Long = {
    var before = -1L
    val probe = new LocalEngine(1) {
      override def batchHDeg(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                             r: Int, budget: Budget): Array[Int] = {
        if (before < 0 && first(false, vertices.length, r)) before = budget.visits
        super.batchHDeg(g, alive, vertices, r, budget)
      }
      override def discoverRound(g: AdjGraph, alive: Array[Boolean], sources: Array[Int], np: Int,
                                 r: Int, loss: Boolean, budget: Budget, sink: DiscoverySink): Unit = {
        if (before < 0 && first(true, np, r)) before = budget.visits
        super.discoverRound(g, alive, sources, np, r, loss, budget, sink)
      }
    }
    KHCore.decompose(g, h, algo, Some(probe))
    assert(before >= 0, "no such batch or round")
    before
  }

  test("a visit budget that trips in a pooled round raises BudgetExceeded; the engine stays usable") {
    val g = GraphGen.gridRoad(120, 120, 0.75, 1)
    val h = 3
    val seq = KHCore.decompose(g, h, Algo.HLB)
    val eng = new CountingEngine(4)
    try {
      val before = spentBefore(g, h, Algo.HLB, (round, len, _) => round && len >= LocalEngine.MinPooled)
      intercept[BudgetExceeded] {
        KHCore.decompose(g, h, Algo.HLB, Some(eng), new Budget(maxVisits = before + 1))
      }
      assert(eng.failedRounds.get == 1, "the budget did not trip in a pooled round")
      same("after the failure", seq, KHCore.decompose(g, h, Algo.HLB, Some(eng)))
    } finally eng.shutdown()
  }

  test("a visit budget that trips in a pooled h-degree batch raises BudgetExceeded; the engine stays usable") {
    val g = GraphGen.gridRoad(120, 120, 0.75, 1)
    val h = 3
    val seq = KHCore.decompose(g, h, Algo.HLBUB())
    val eng = new CountingEngine(4)
    try {
      // hDegUB's all-vertex batch at radius h; LB1's, at radius 1, comes first.
      val before = spentBefore(g, h, Algo.HLBUB(), (round, len, r) => !round && len == g.n && r == h)
      intercept[BudgetExceeded] {
        KHCore.decompose(g, h, Algo.HLBUB(), Some(eng), new Budget(maxVisits = before + 1))
      }
      assert(eng.failedBatches.get == 1, "the budget did not trip in a pooled batch")
      assert(eng.failedRounds.get == 0)
      same("after the failure", seq, KHCore.decompose(g, h, Algo.HLBUB(), Some(eng)))
    } finally eng.shutdown()
  }
}
