package perfbench

import java.io.{BufferedWriter, FileWriter}
import repro.core.{AdjGraph, Budget, HDegEngine}
import scala.collection.mutable

/** In-memory span store for the traced run. Each span has an id (its row),
  * the id of the span that caused it (-1 for a root), a name, start and end
  * on the `System.nanoTime` scale and one count (vertices for an engine
  * batch). Rows live in primitive arrays because the road workload records
  * millions of engine batches; they are written out once, at the end.
  */
final class Spans {
  private val names = mutable.ArrayBuffer.empty[String]
  private val nameIds = mutable.HashMap.empty[String, Int]
  private var parent = new Array[Int](1 << 12)
  private var name = new Array[Int](1 << 12)
  private var start = new Array[Long](1 << 12)
  private var end = new Array[Long](1 << 12)
  private var count = new Array[Long](1 << 12)
  private var size = 0

  def length: Int = size

  def open(nm: String, par: Int): Int = {
    if (size == parent.length) {
      val cap = size * 2
      parent = java.util.Arrays.copyOf(parent, cap)
      name = java.util.Arrays.copyOf(name, cap)
      start = java.util.Arrays.copyOf(start, cap)
      end = java.util.Arrays.copyOf(end, cap)
      count = java.util.Arrays.copyOf(count, cap)
    }
    name(size) = nameIds.getOrElseUpdate(nm, { names += nm; names.length - 1 })
    parent(size) = par
    start(size) = System.nanoTime()
    end(size) = -1L
    size += 1
    size - 1
  }

  def close(id: Int, cnt: Long = 0L): Unit = {
    end(id) = System.nanoTime()
    count(id) = cnt
  }

  def span[A](nm: String, par: Int = -1)(body: Int => A): A = {
    val id = open(nm, par)
    try body(id) finally if (end(id) < 0) close(id)
  }

  def nameOf(id: Int): String = names(name(id))
  def startOf(id: Int): Long = start(id)
  def endOf(id: Int): Long = end(id)
  def countOf(id: Int): Long = count(id)
  def seconds(id: Int): Double = (end(id) - start(id)) / 1e9

  /** Direct children of `id`, in the order they were opened. */
  def children(id: Int): Array[Int] = {
    val b = Array.newBuilder[Int]
    var i = id + 1
    while (i < size) { if (parent(i) == id) b += i; i += 1 }
    b.result()
  }

  /** One CSV row per span: id,parent,name,start_ns,end_ns,count. */
  def write(path: String): Unit = {
    val w = new BufferedWriter(new FileWriter(path))
    try {
      w.write("id,parent,name,start_ns,end_ns,count\n")
      var i = 0
      while (i < size) {
        w.write(s"$i,${parent(i)},${names(name(i))},${start(i)},${end(i)},${count(i)}\n")
        i += 1
      }
    } finally w.close()
  }
}

/** Timing decorator over any [[HDegEngine]]: every batch call becomes a span
  * named after the call and its radius, under the span set in `parent`.
  * It changes no argument and no result, so cores, visits and BFS counts
  * stay those of the wrapped engine (checked by [[SelfTest]]).
  */
final class TimedEngine(inner: HDegEngine, spans: Spans) extends HDegEngine {
  var parent: Int = -1

  override def batchHDeg(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                         h: Int, budget: Budget): Array[Int] = {
    val id = spans.open(s"engine.batchHDeg.r$h", parent)
    val out = inner.batchHDeg(g, alive, vertices, h, budget)
    spans.close(id, vertices.length)
    out
  }

  override def batchNbrMax(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                           r: Int, value: Array[Int], budget: Budget): Array[Int] = {
    val id = spans.open(s"engine.batchNbrMax.r$r", parent)
    val out = inner.batchNbrMax(g, alive, vertices, r, value, budget)
    spans.close(id, vertices.length)
    out
  }

  override def shutdown(): Unit = inner.shutdown()
}

/** Runs every radius-`h` h-degree batch through both engines on the same
  * alive mask, so the two are timed on the identical batch sequence. The
  * engines take turns going first, since the second finds the batch's
  * neighbourhoods in cache. The run continues on `seq`'s answer and budget;
  * `par` is charged to a scratch budget. Batches on which the two disagree
  * are counted in `mismatches`.
  */
final class CompareEngine(seq: HDegEngine, par: HDegEngine, h: Int) extends HDegEngine {
  var seqNs = 0L
  var parNs = 0L
  var mismatches = 0
  private var batches = 0L

  override def batchHDeg(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                         r: Int, budget: Budget): Array[Int] = {
    if (r != h) return seq.batchHDeg(g, alive, vertices, r, budget)
    def runSeq(): Array[Int] = {
      val t0 = System.nanoTime()
      val out = seq.batchHDeg(g, alive, vertices, r, budget)
      seqNs += System.nanoTime() - t0
      out
    }
    def runPar(): Array[Int] = {
      val t0 = System.nanoTime()
      val out = par.batchHDeg(g, alive, vertices, r, Budget.unlimited())
      parNs += System.nanoTime() - t0
      out
    }
    batches += 1
    val (a, b) =
      if (batches % 2 == 0) { val a = runSeq(); (a, runPar()) }
      else { val b = runPar(); (runSeq(), b) }
    if (!java.util.Arrays.equals(a, b)) mismatches += 1
    a
  }

  override def batchNbrMax(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                           r: Int, value: Array[Int], budget: Budget): Array[Int] =
    seq.batchNbrMax(g, alive, vertices, r, value, budget)
}
