package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.graphgen.GraphGen
import scala.collection.mutable
import scala.util.Random

/** Where the 64-lane h-BFS kernel ([[MultiHBfs]]) beats one [[HBfs.run]]
  * per vertex. The engines send blocks of 8 or more vertices through the
  * lanes; this suite makes that cutoff reproducible.
  *
  * On each of the three benchmark graphs it records recompute-shaped
  * batches: the radius-h batches of a sequential h-LB run, each with the
  * alive mask it was issued under (a seeded sample of up to 40 per
  * batch-size class). It then times both kernels on the same batches and
  * prints the ratio per-vertex time ÷ 64-lane time per class, plus the
  * all-vertex radius-h batch of the full graph. A ratio above 1 means the
  * lanes are faster. Only the agreement of the two kernels is asserted;
  * the ratios depend on the machine.
  */
class KernelCrossoverBench extends AnyFunSuite {

  private val classes = Seq((1, 7), (8, 15), (16, 31), (32, 63), (64, Int.MaxValue))
  private val perClass = 40

  private def classLabel(c: (Int, Int)): String =
    if (c._2 == Int.MaxValue) s">= ${c._1}" else s"${c._1}-${c._2}"

  /** One recorded batch: the vertices and the alive mask at the time. */
  private final case class Batch(alive: Array[Boolean], vertices: Array[Int])

  /** Sequential engine that keeps a seeded reservoir sample of the
    * radius-`h` batches (per size class) it is asked for. */
  private final class Recorder(n: Int, h: Int) extends HDegEngine {
    private val inner = new SequentialEngine(n)
    private val rnd = new Random(42)
    val sample: Map[(Int, Int), mutable.ArrayBuffer[Batch]] =
      classes.map(_ -> mutable.ArrayBuffer.empty[Batch]).toMap
    private val seenPerClass = mutable.Map.empty[(Int, Int), Long].withDefaultValue(0L)

    override def batchHDeg(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                           r: Int, budget: Budget): Array[Int] = {
      if (r == h && vertices.length < n) {
        val c = classes.find { case (lo, hi) => vertices.length >= lo && vertices.length <= hi }.get
        val seen = seenPerClass(c) + 1
        seenPerClass(c) = seen
        val buf = sample(c)
        if (buf.length < perClass) buf += Batch(alive.clone(), vertices.clone())
        else {
          val slot = (rnd.nextDouble() * seen).toLong
          if (slot < perClass) buf(slot.toInt) = Batch(alive.clone(), vertices.clone())
        }
      }
      inner.batchHDeg(g, alive, vertices, r, budget)
    }

    override def batchNbrMax(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                             r: Int, value: Array[Int], budget: Budget): Array[Int] =
      inner.batchNbrMax(g, alive, vertices, r, value, budget)
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
      val all = Seq(Batch(Array.fill(g.n)(true), Array.range(0, g.n)))
      val groups = classes.map(c => (classLabel(c), h, rec.sample(c).toSeq)) ++
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
}
