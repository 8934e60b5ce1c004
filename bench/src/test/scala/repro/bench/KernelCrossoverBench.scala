package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.graphgen.GraphGen
import scala.collection.mutable
import scala.util.Random

/** Where the 64-lane h-BFS kernel ([[MultiHBfs]]) beats one [[HBfs.run]]
  * per vertex, and where `LocalEngine`'s pool dispatch gains over the
  * caller. The engines send blocks of 8 or more vertices through the lanes,
  * and `LocalEngine` runs an h-degree batch or a round discovery of 128 or
  * more vertices on its pool; this suite makes both cutoffs reproducible.
  *
  * On each of the three benchmark graphs it records the radius-h batches
  * of a sequential h-LB run, each with the alive mask it was issued under
  * (a seeded sample of up to 40 per batch-size class): with loss-bounded
  * peeling these are all the batches a round measures when it pops
  * vertices at a lower bound, since nothing else is re-measured. It then times both kernels on the same batches and
  * prints the ratio per-vertex time ÷ 64-lane time per class, plus the
  * all-vertex radius-h batch of the full graph. A ratio above 1 means the
  * lanes are faster.
  *
  * The second test records a sequential default h-LB+UB run in the same
  * way, both of the kinds of work the pool serves: its radius-h h-degree
  * batches, and its peel rounds (the peeled vertices, the alive mask and
  * whether the discovery bounds the loss, for each round). Per kind and size class it times the work on
  * the caller against `LocalEngine.onPool` on 4 threads, forced at every
  * size. The discovery sink reads every entry, as CoreDecomp's does. A
  * ratio above 1 means the pool is faster.
  *
  * Only the agreement of the two sides is asserted; the ratios depend on
  * the machine.
  */
class KernelCrossoverBench extends AnyFunSuite {

  private val classes = Seq((1, 7), (8, 15), (16, 31), (32, 63), (64, Int.MaxValue))
  private val perClass = 40

  private def classLabel(c: (Int, Int)): String =
    if (c._2 == Int.MaxValue) s">= ${c._1}" else s"${c._1}-${c._2}"

  /** One recorded batch: the vertices and the alive mask at the time, and
    * for a round whether its discovery bounds the loss. */
  private final class Batch(val alive: Array[Boolean], val vertices: Array[Int], val loss: Boolean)

  /** A seeded reservoir sample of up to `perClass` batches per size class. */
  private final class Reservoir(classes: Seq[(Int, Int)]) {
    private val rnd = new Random(42)
    val sample: Map[(Int, Int), mutable.ArrayBuffer[Batch]] =
      classes.map(_ -> mutable.ArrayBuffer.empty[Batch]).toMap
    private val seenPerClass = mutable.Map.empty[(Int, Int), Long].withDefaultValue(0L)

    def offer(alive: Array[Boolean], vertices: Array[Int], len: Int, loss: Boolean = false): Unit =
      classes.find { case (lo, hi) => len >= lo && len <= hi }.foreach { c =>
        val seen = seenPerClass(c) + 1
        seenPerClass(c) = seen
        val buf = sample(c)
        def batch = new Batch(alive.clone(), java.util.Arrays.copyOf(vertices, len), loss)
        if (buf.length < perClass) buf += batch
        else {
          val slot = (rnd.nextDouble() * seen).toLong
          if (slot < perClass) buf(slot.toInt) = batch
        }
      }
  }

  /** Sequential engine that samples the radius-`h` batches and the round
    * discoveries it is asked for. */
  private final class Recorder(n: Int, h: Int) extends HDegEngine {
    private val inner = new SequentialEngine(n)
    val batches = new Reservoir(classes)
    val pooledBatches = new Reservoir(poolClasses)
    val rounds = new Reservoir(poolClasses)

    override def batchHDeg(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                           r: Int, budget: Budget): Array[Int] = {
      if (r == h && vertices.length < n) batches.offer(alive, vertices, vertices.length)
      if (r == h) pooledBatches.offer(alive, vertices, vertices.length)
      inner.batchHDeg(g, alive, vertices, r, budget)
    }

    override def discoverRound(g: AdjGraph, alive: Array[Boolean], sources: Array[Int], np: Int,
                               r: Int, loss: Boolean, budget: Budget, sink: DiscoverySink): Unit = {
      rounds.offer(alive, sources, np, loss)
      super.discoverRound(g, alive, sources, np, r, loss, budget, sink)
    }
  }

  /** Size classes of the pool test: one 64-lane block or less, one block
    * and a tail, then 2, 4 and 8 or more blocks. */
  private val poolClasses = Seq((8, 64), (65, 127), (128, 255), (256, 511), (512, Int.MaxValue))

  /** A sink that reads every entry into an order-dependent hash. */
  private final class HashSink extends DiscoverySink {
    var hash = 0L
    def reached(found: Array[Int], dist: Array[Int], loss: Array[Int], from: Int, until: Int): Unit = {
      var j = from
      while (j < until) {
        hash = hash * 31 + found(j) * 7L + dist(j) * 3L + (if (loss == null) 1 else loss(j))
        j += 1
      }
    }
  }

  /** h-degrees of every batch, concatenated into `out`: one HBfs.run each. */
  private def perVertex(g: AdjGraph, h: Int, bfs: HBfs, batches: Seq[Batch], out: Array[Int]): Unit = {
    var o = 0
    for (b <- batches) {
      var i = 0
      while (i < b.vertices.length) { out(o + i) = bfs.run(g, b.alive, b.vertices(i), h, Budget.unlimited()); i += 1 }
      o += b.vertices.length
    }
  }

  /** The same through the 64-lane kernel, block by block. */
  private def lanes(g: AdjGraph, h: Int, ms: MultiHBfs, batches: Seq[Batch], out: Array[Int]): Unit = {
    var o = 0
    for (b <- batches) {
      val degs = new Array[Int](b.vertices.length)
      var i = 0
      while (i < degs.length) {
        val k = math.min(MultiHBfs.Lanes, degs.length - i)
        ms.run(g, b.alive, b.vertices, i, k, h, Budget.unlimited(), degs)
        i += k
      }
      System.arraycopy(degs, 0, out, o, degs.length)
      o += degs.length
    }
  }

  /** Median seconds of one pass of `f` over 7 alternating repetitions,
    * each repeating `f` enough times to last about 20 ms. */
  private def timePair(a: () => Unit, b: () => Unit): (Double, Double) = {
    def once(f: () => Unit): Long = { val t0 = System.nanoTime(); f(); System.nanoTime() - t0 }
    val single = math.max(1L, math.max(once(a), once(b)))
    val passes = math.max(1L, 20000000L / single).toInt
    def timed(f: () => Unit): Double = {
      val t0 = System.nanoTime()
      var i = 0
      while (i < passes) { f(); i += 1 }
      (System.nanoTime() - t0) / 1e9 / passes
    }
    val (ta, tb) = (1 to 7).map(_ => (timed(a), timed(b))).unzip
    def median(xs: Seq[Double]) = xs.sorted.apply(xs.length / 2)
    (median(ta), median(tb))
  }

  test("crossover of the 64-lane kernel on the three benchmark graphs") {
    val graphs = Seq(
      ("comm-dense-h3", 3, Datasets("caAs")),
      ("hub-ba-h3", 3, Datasets("hyves")),
      ("road-grid-h4", 4, GraphGen.gridRoad(400, 400, 0.75, 10L)))
    val rows = mutable.ArrayBuffer.empty[Seq[String]]
    for ((name, h, g) <- graphs) {
      val rec = new Recorder(g.n, h)
      KHCore.decompose(g, h, Algo.HLB, Some(rec))
      val bfs = new HBfs(g.n)
      val ms = new MultiHBfs(g.n)
      val all = Seq(new Batch(Array.fill(g.n)(true), Array.range(0, g.n), loss = false))
      val groups = classes.map(c => (classLabel(c), h, rec.batches.sample(c).toSeq)) ++
        Seq((s"all vertices, r=$h", h, all), (s"all vertices, r=${h / 2}", h / 2, all))
      for ((label, r, batches) <- groups if batches.nonEmpty) {
        val verts = batches.map(_.vertices.length).sum
        val (dv, dl) = (new Array[Int](verts), new Array[Int](verts))
        perVertex(g, r, bfs, batches, dv)
        lanes(g, r, ms, batches, dl)
        assert(dv.sameElements(dl), s"$name $label")
        val (tv, tl) = timePair(() => perVertex(g, r, bfs, batches, dv), () => lanes(g, r, ms, batches, dl))
        rows += Seq(name, label, batches.length.toString, verts.toString,
                    f"${tv * 1e3}%.3f", f"${tl * 1e3}%.3f", f"${tv / tl}%.2f")
      }
    }
    Tables.emit("kernel-crossover", "h-degree kernels: per-vertex time / 64-lane time",
                Seq("graph", "batch size", "batches", "vertices", "per-vertex ms", "64-lane ms", "ratio"),
                rows.toSeq)
  }

  test("pooled h-degree batches and round discovery against the caller on the three benchmark graphs") {
    val graphs = Seq(
      ("comm-dense-h3", 3, Datasets("caAs")),
      ("hub-ba-h3", 3, Datasets("hyves")),
      ("road-grid-h4", 4, GraphGen.gridRoad(400, 400, 0.75, 10L)))
    val seq = new SequentialEngine(0)
    val pool = new LocalEngine(4)
    val rows = mutable.ArrayBuffer.empty[Seq[String]]
    try {
      for ((name, h, g) <- graphs) {
        val rec = new Recorder(g.n, h)
        KHCore.decompose(g, h, Algo.HLBUB(), Some(rec))
        // Each run returns an order-dependent hash of everything it computed.
        def batches(sample: Seq[Batch])(pooled: Boolean): Long = {
          var hash = 0L
          for (b <- sample) {
            val len = b.vertices.length
            val out =
              if (!pooled) seq.batchHDeg(g, b.alive, b.vertices, h, Budget.unlimited())
              else {
                val out = new Array[Int](len)
                pool.onPool(len, null) { (from, until, _) =>
                  EngineKernels.hDegRange(g, b.alive, b.vertices, h, Budget.unlimited(), EngineScratch.get(g.n),
                                          out, from, until)
                }
                out
              }
            hash = hash * 31 + java.util.Arrays.hashCode(out)
          }
          hash
        }
        def rounds(sample: Seq[Batch])(pooled: Boolean): Long = {
          val sink = new HashSink
          for (b <- sample) {
            val np = b.vertices.length
            if (!pooled) seq.discoverRound(g, b.alive, b.vertices, np, h, b.loss, Budget.unlimited(), sink)
            else pool.onPool(np, sink) { (from, until, to) =>
              EngineKernels.discoverRange(g, b.alive, b.vertices, from, until, h, b.loss, Budget.unlimited(),
                                          EngineScratch.get(g.n), to)
            }
            sink.hash = sink.hash * 17 + np
          }
          sink.hash
        }
        for ((kind, recorded, run) <- Seq[(String, Reservoir, Seq[Batch] => Boolean => Long)](
               ("h-degree", rec.pooledBatches, batches), ("discovery", rec.rounds, rounds));
             c <- poolClasses; sample = recorded.sample(c).toSeq if sample.nonEmpty) {
          assert(run(sample)(false) == run(sample)(true), s"$name $kind ${classLabel(c)}")
          val (tc, tp) = timePair(() => run(sample)(false), () => run(sample)(true))
          rows += Seq(name, kind, classLabel(c), sample.length.toString, sample.map(_.vertices.length).sum.toString,
                      f"${tc * 1e3}%.3f", f"${tp * 1e3}%.3f", f"${tc / tp}%.2f")
        }
      }
    } finally pool.shutdown()
    Tables.emit("pool-crossover", "h-degree batches and round discovery: caller time / pooled time (4 threads)",
                Seq("graph", "kind", "size", "count", "vertices", "caller ms", "pooled ms", "ratio"),
                rows.toSeq)
  }
}
