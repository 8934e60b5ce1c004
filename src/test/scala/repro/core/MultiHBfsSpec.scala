package repro.core

import java.lang.management.ManagementFactory
import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.graphgen.GraphGen
import scala.jdk.CollectionConverters._

/** The 64-lane h-BFS kernel ([[MultiHBfs]]) and the engines that route
  * batches through it must be indistinguishable from one per-vertex
  * [[HBfs.run]] per source: same h-degrees, same visits, same BFS count,
  * on any graph, alive mask and batch (dead and repeated sources included);
  * its discovery output gives each reached vertex the minimum distance and
  * the number of sources that the per-source runs give. A capped run gives
  * each source its exact h-degree or a count in [cap, h-degree], for no
  * more visits, and the same answer on every thread count.
  * The engines keep their h-BFS scratch per thread, not per engine:
  * building one is free, a thread's scratch grows to the largest graph it
  * has served and is reused, and a one-thread engine starts no thread.
  */
class MultiHBfsSpec extends AnyFunSuite {

  private val batchSizes = Seq(1, 7, 8, 9, 15, 31, 32, 63, 64, 65, 200)

  /** A graph, an alive mask, h, and one batch per size in `batchSizes`. */
  private final case class Case(g: AdjGraph, alive: Array[Boolean], h: Int, batches: Seq[Array[Int]]) {
    override def toString: String = s"n=${g.n} m=${g.numEdges} h=$h dead=${alive.count(!_)}"
  }

  private val genCase: Gen[Case] = for {
    n <- Gen.choose(2, 120)
    extra <- Gen.choose(0, 3 * n)
    seed <- Gen.choose(0L, 100000L)
    hub <- Gen.oneOf(false, true)
    h <- Gen.choose(1, 4)
    deadFrac <- Gen.oneOf(0.0, 0.2, 0.5)
    alive <- Gen.listOfN(n, Gen.choose(0.0, 1.0).map(_ >= deadFrac))
    batches <- Gen.sequence[List[Array[Int]], Array[Int]](
      batchSizes.map(k => Gen.listOfN(k, Gen.choose(0, n - 1)).map(_.toArray)))
  } yield {
    val g =
      if (hub && n >= 4) GraphGen.ba(n, 3, 2, seed)
      else GraphGen.er(n, math.min(n - 1 + extra, n.toLong * (n - 1) / 2).toInt, seed)
    val mask = alive.toArray
    // Every batch of two or more holds a dead source and a repeated one.
    for (b <- batches if b.length >= 2) {
      mask(b(0)) = false
      b(b.length - 1) = b(0)
    }
    Case(g, mask, h, batches)
  }

  private def forAllSampled[A](gen: Gen[A], cases: Int = 40)(f: A => Unit): Unit = {
    var seed = Seed(20261017L)
    var i = 0
    while (i < cases) {
      gen.apply(Gen.Parameters.default, seed).foreach(f)
      seed = seed.next
      i += 1
    }
  }

  /** (h-degrees, visits, bfsCount) of one per-vertex h-BFS per source. */
  private def perVertex(g: AdjGraph, alive: Array[Boolean], batch: Array[Int], h: Int): (Seq[Int], Long, Long) = {
    val bfs = new HBfs(g.n)
    val b = Budget.unlimited()
    val degs = batch.map(v => bfs.run(g, alive, v, h, b))
    (degs.toSeq, b.visits, b.bfsCount)
  }

  private def viaEngine(e: HDegEngine, g: AdjGraph, alive: Array[Boolean], batch: Array[Int], h: Int): (Seq[Int], Long, Long) = {
    val b = Budget.unlimited()
    val degs = e.batchHDeg(g, alive, batch, h, b)
    (degs.toSeq, b.visits, b.bfsCount)
  }

  test("property: one 64-lane block equals per-vertex h-BFS of each source") {
    forAllSampled(genCase) { c =>
      val ms = new MultiHBfs(c.g.n)
      for (batch <- c.batches if batch.length <= 64) {
        // Twice on one scratchpad: the reset after a block must be complete.
        for (_ <- 1 to 2) {
          val out = Array.fill(batch.length)(-1)
          val b = Budget.unlimited()
          ms.run(c.g, c.alive, batch, 0, batch.length, c.h, b, out)
          assert((out.toSeq, b.visits, b.bfsCount) == perVertex(c.g, c.alive, batch, c.h),
                 s"$c batch=${batch.length}")
        }
      }
    }
  }

  test("property: a block at an offset writes only its own slots") {
    forAllSampled(genCase, cases = 10) { c =>
      val batch = c.batches.last // 200 vertices
      val out = Array.fill(batch.length)(-7)
      new MultiHBfs(c.g.n).run(c.g, c.alive, batch, 100, 40, c.h, Budget.unlimited(), out)
      val expected = perVertex(c.g, c.alive, batch.slice(100, 140), c.h)._1
      assert(out.slice(100, 140).toSeq == expected, c.toString)
      assert(out.take(100).forall(_ == -7) && out.drop(140).forall(_ == -7), c.toString)
    }
  }

  /** Per-vertex h-BFS from each source of `batch`, read per reached vertex
    * u (the sources at distance 0): (u -> (minimum distance, number of
    * sources reaching u)), u -> the first source (batch index) reaching u,
    * visits and BFS count. */
  private def perVertexReach(g: AdjGraph, alive: Array[Boolean], batch: Array[Int], h: Int)
      : (Map[Int, (Int, Int)], Map[Int, Int], Long, Long) = {
    val bfs = new HBfs(g.n)
    val b = Budget.unlimited()
    val reach = scala.collection.mutable.Map.empty[Int, (Int, Int)]
    val firstLane = scala.collection.mutable.Map.empty[Int, Int]
    for ((s, lane) <- batch.zipWithIndex) {
      val cnt = bfs.run(g, alive, s, h, b)
      for ((u, d) <- (s, 0) +: (0 until cnt).map(j => (bfs.nbrs(j), bfs.nbrDist(j)))) {
        reach(u) = reach.get(u).fold((d, 1)) { case (d0, c) => (math.min(d0, d), c + 1) }
        firstLane.getOrElseUpdate(u, lane)
      }
    }
    (reach.toMap, firstLane.toMap, b.visits, b.bfsCount)
  }

  test("property: a discovery block reports each vertex's distance and lane count as per-vertex h-BFS do") {
    forAllSampled(genCase) { c =>
      val ms = new MultiHBfs(c.g.n)
      val blocks = c.batches.filter(_.length <= 64).map(b => (b, 0, b.length)) :+ ((c.batches.last, 100, 40))
      for ((batch, from, lanes) <- blocks) {
        val sources = batch.slice(from, from + lanes)
        val (reach, firstLane, visits, bfsCount) = perVertexReach(c.g, c.alive, sources, c.h)
        // Twice, and then as h-degrees: the reset after a block must be complete.
        for (_ <- 1 to 2) {
          val b = Budget.unlimited()
          val m = ms.discover(c.g, c.alive, batch, from, lanes, c.h, b)
          val got = (0 until m).map(i => ms.found(i) -> ((ms.foundRound(i), ms.foundLanes(i))))
          assert(got.length == reach.size && got.toMap == reach, s"$c block=$lanes")
          assert((b.visits, b.bfsCount) == ((visits, bfsCount)), s"$c block=$lanes")
          val lanesInOrder = got.map { case (u, _) => firstLane(u) }
          assert(lanesInOrder == lanesInOrder.sorted, s"$c block=$lanes: not grouped by lowest lane")
        }
        val out = new Array[Int](batch.length)
        ms.run(c.g, c.alive, batch, from, lanes, c.h, Budget.unlimited(), out)
        assert(out.slice(from, from + lanes).toSeq == perVertex(c.g, c.alive, sources, c.h)._1, s"$c block=$lanes")
      }
    }
  }

  test("property: SequentialEngine batches equal per-vertex h-BFS (sizes 1 to 200)") {
    forAllSampled(genCase) { c =>
      val e = new SequentialEngine(c.g.n)
      for (batch <- c.batches)
        assert(viaEngine(e, c.g, c.alive, batch, c.h) == perVertex(c.g, c.alive, batch, c.h),
               s"$c batch=${batch.length}")
    }
  }

  test("property: ThreadedEngine batches equal SequentialEngine batches") {
    val threaded = new ThreadedEngine(120, threads = 4)
    try {
      forAllSampled(genCase) { c =>
        val seq = new SequentialEngine(c.g.n)
        val big = Array.tabulate(1000)(i => c.batches.last(i % 200))
        for (batch <- c.batches :+ big)
          assert(viaEngine(threaded, c.g, c.alive, batch, c.h) == viaEngine(seq, c.g, c.alive, batch, c.h),
                 s"$c batch=${batch.length}")
      }
    } finally threaded.shutdown()
  }

  /** Checks capped entries against the exact h-degrees: an entry ≥ 0 is
    * exact, a complemented one lies in [cap, exact]. */
  private def assertCapped(got: Seq[Int], exact: Seq[Int], cap: Int, clue: => String): Unit = {
    assert(got.length == exact.length, clue)
    for ((d, e) <- got.zip(exact))
      if (d >= 0) assert(d == e, clue)
      else assert(~d >= cap && ~d <= e, s"$clue: capped ${~d} not in [$cap, $e]")
  }

  test("property: a capped block's entries are exact or in [cap, exact], with no more visits") {
    forAllSampled(genCase, cases = 20) { c =>
      val ms = new MultiHBfs(c.g.n)
      for (batch <- c.batches if batch.length <= 64) {
        val (exact, exactVisits, exactBfs) = perVertex(c.g, c.alive, batch, c.h)
        for (cap <- 1 to c.g.n + 1) {
          val out = Array.fill(batch.length)(-1)
          val b = Budget.unlimited()
          ms.runCapped(c.g, c.alive, batch, 0, batch.length, c.h, cap, b, out)
          assertCapped(out.toSeq, exact, cap, s"$c batch=${batch.length} cap=$cap")
          assert(b.visits <= exactVisits && b.bfsCount == exactBfs, s"$c batch=${batch.length} cap=$cap")
        }
      }
      // The scratchpad is clean after capped blocks.
      for (batch <- c.batches if batch.length <= 64) {
        val out = new Array[Int](batch.length)
        ms.run(c.g, c.alive, batch, 0, batch.length, c.h, Budget.unlimited(), out)
        assert(out.toSeq == perVertex(c.g, c.alive, batch, c.h)._1, s"$c batch=${batch.length}")
      }
    }
  }

  test("property: capped batches are exact or in [cap, exact], and equal on 1 and 4 threads") {
    val threaded = new ThreadedEngine(120, threads = 4)
    try {
      forAllSampled(genCase, cases = 20) { c =>
        val seq = new SequentialEngine(c.g.n)
        val big = Array.tabulate(1000)(i => c.batches.last(i % 200))
        for (batch <- c.batches :+ big) {
          val (exact, exactVisits, exactBfs) = perVertex(c.g, c.alive, batch, c.h)
          for (cap <- 1 to c.g.n + 1 by (if (batch.length > 64) 7 else 1)) {
            val bs = Budget.unlimited()
            val s = seq.batchHDegCapped(c.g, c.alive, batch, c.h, cap, bs)
            val bt = Budget.unlimited()
            val t = threaded.batchHDegCapped(c.g, c.alive, batch, c.h, cap, bt)
            val clue = s"$c batch=${batch.length} cap=$cap"
            assertCapped(s.toSeq, exact, cap, clue)
            assert(s.toSeq == t.toSeq, clue)
            assert((bs.visits, bs.bfsCount) == ((bt.visits, bt.bfsCount)), clue)
            assert(bs.visits <= exactVisits && bs.bfsCount == exactBfs, clue)
          }
        }
      }
    } finally threaded.shutdown()
  }

  test("MultiHBfs rejects an empty or wider-than-64 block") {
    val g = GraphGen.path(100)
    val ms = new MultiHBfs(g.n)
    val all = Array.range(0, 100)
    val alive = Array.fill(100)(true)
    intercept[IllegalArgumentException](ms.run(g, alive, all, 0, 0, 2, Budget.unlimited(), new Array[Int](100)))
    intercept[IllegalArgumentException](ms.run(g, alive, all, 0, 65, 2, Budget.unlimited(), new Array[Int](100)))
    intercept[IllegalArgumentException](ms.runCapped(g, alive, all, 0, 0, 2, 3, Budget.unlimited(), new Array[Int](100)))
    intercept[IllegalArgumentException](ms.runCapped(g, alive, all, 0, 65, 2, 3, Budget.unlimited(), new Array[Int](100)))
  }

  test("a visit budget raises BudgetExceeded from the 64-lane path, at most one block late") {
    val g = GraphGen.communities(4, 30, 0.4, 0.01, 5)
    val alive = Array.fill(g.n)(true)
    val batch = Array.range(0, g.n)
    val full = viaEngine(new SequentialEngine(g.n), g, alive, batch, 3)
    // Visits of the heaviest 64-lane block bound the overshoot.
    val block = batch.grouped(64).map(b => perVertex(g, alive, b, 3)._2).max
    for (limit <- Seq(1L, 2000L, full._2 / 2, full._2 - 1)) {
      val b = new Budget(maxVisits = limit)
      intercept[BudgetExceeded](new SequentialEngine(g.n).batchHDeg(g, alive, batch, 3, b))
      assert(b.visits > limit && b.visits <= limit + block, s"limit=$limit visits=${b.visits}")
      // Deterministic: the same budget stops at the same block.
      val again = new Budget(maxVisits = limit)
      intercept[BudgetExceeded](new SequentialEngine(g.n).batchHDeg(g, alive, batch, 3, again))
      assert(again.visits == b.visits)
    }
    val exact = new Budget(maxVisits = full._2)
    new SequentialEngine(g.n).batchHDeg(g, alive, batch, 3, exact)
    assert(exact.visits == full._2)
  }

  test("a visit budget raises BudgetExceeded from the threaded 64-lane path") {
    val g = GraphGen.communities(4, 30, 0.4, 0.01, 5)
    val alive = Array.fill(g.n)(true)
    val batch = Array.tabulate(4 * g.n)(i => i % g.n)
    val full = viaEngine(new SequentialEngine(g.n), g, alive, batch, 3)._2
    val eng = new ThreadedEngine(g.n, threads = 4)
    try {
      for (limit <- Seq(1L, 2000L, full / 2, full - 1))
        intercept[BudgetExceeded](eng.batchHDeg(g, alive, batch, 3, new Budget(maxVisits = limit)))
    } finally eng.shutdown()
  }

  test("batchNbrMax equals the max over each source's per-vertex h-BFS ball") {
    forAllSampled(genCase) { c =>
      val rnd = new scala.util.Random(c.g.n)
      val value = Array.fill(c.g.n)(rnd.nextInt(50))
      val bfs = new HBfs(c.g.n)
      for (batch <- c.batches; r <- 0 to c.h + 1) {
        val expected = batch.map(v => (v +: bfs.nbrs.take(bfs.run(c.g, c.alive, v, r, Budget.unlimited()))).map(value).max)
        val b = Budget.unlimited()
        val got = new SequentialEngine(c.g.n).batchNbrMax(c.g, c.alive, batch, r, value, b)
        assert(got.toSeq == expected.toSeq, s"$c r=$r batch=${batch.length}")
        assert((b.visits, b.bfsCount) == (0L, 0L))
      }
    }
  }

  private val threadMx =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Runs `body` on a new thread, whose engine scratch starts empty. */
  private def onFreshThread(body: => Unit): Unit = {
    var failure: Throwable = null
    val t = new Thread(() => try body catch { case e: Throwable => failure = e })
    t.start(); t.join()
    if (failure != null) throw failure
  }

  test("building a SequentialEngine allocates no h-BFS scratch") {
    new SequentialEngine(10) // load the classes first
    val a0 = threadMx.getCurrentThreadAllocatedBytes
    new SequentialEngine(200000)
    val bytes = threadMx.getCurrentThreadAllocatedBytes - a0
    assert(bytes < (1L << 20), s"$bytes bytes")
  }

  test("one thread's scratch grows and is reused across graphs of n = 50, 2000, 50") {
    val small = GraphGen.randomConnected(50, 3.0, 3)
    val large = GraphGen.ba(2000, 4, 2, 9)
    onFreshThread {
      for ((g, round) <- Seq(small, large, small, large, small).zipWithIndex) {
        val alive = Array.tabulate(g.n)(_ % 7 != 3)
        val batch = Array.tabulate(g.n)(i => (i * 13) % g.n)
        for (h <- 2 to 3) {
          assert(viaEngine(new SequentialEngine(g.n), g, alive, batch, h) == perVertex(g, alive, batch, h),
                 s"n=${g.n} round=$round h=$h")
          val lb1 = perVertex(g, alive, Array.range(0, g.n), 1)._1.toArray
          val bfs = new HBfs(g.n)
          val expected = batch.map(v => (v +: bfs.nbrs.take(bfs.run(g, alive, v, h, Budget.unlimited()))).map(lb1).max)
          val got = new SequentialEngine(g.n).batchNbrMax(g, alive, batch, h, lb1, Budget.unlimited())
          assert(got.toSeq == expected.toSeq, s"nbrMax n=${g.n} round=$round h=$h")
        }
      }
    }
  }

  test("ThreadedEngine with one thread starts no thread and equals SequentialEngine") {
    val g = GraphGen.ba(1500, 4, 2, 21)
    val alive = Array.tabulate(g.n)(_ % 5 != 0)
    val batch = Array.tabulate(3000)(i => i % g.n)
    def pools = Thread.getAllStackTraces.keySet.asScala.filter(_.getName.startsWith("pool-")).toSet
    val before = pools
    val one = new ThreadedEngine(g.n, threads = 1)
    try {
      for (h <- 1 to 3)
        assert(viaEngine(one, g, alive, batch, h) == viaEngine(new SequentialEngine(g.n), g, alive, batch, h), s"h=$h")
      val lb1 = new SequentialEngine(g.n).batchHDeg(g, alive, Array.range(0, g.n), 1, Budget.unlimited())
      assert(one.batchNbrMax(g, alive, batch, 2, lb1, Budget.unlimited()).toSeq ==
             new SequentialEngine(g.n).batchNbrMax(g, alive, batch, 2, lb1, Budget.unlimited()).toSeq)
      assert((pools -- before).isEmpty, s"started ${(pools -- before).map(_.getName)}")
    } finally one.shutdown()
  }
}
