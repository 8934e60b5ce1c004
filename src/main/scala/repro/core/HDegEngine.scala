package repro.core

import java.util.concurrent.{Callable, ExecutionException, Executors, TimeUnit}
import scala.jdk.CollectionConverters._

/** Batch computation of h-degrees for a set of vertices over a fixed alive
  * mask — the block the paper parallelizes in §4.6 (its preferred option:
  * "give different h-BFS traversals to different processors").
  *
  * Engines must be pure w.r.t. the graph state: each listed vertex gets an
  * independent h-BFS, so batches can be computed in any order / in parallel.
  */
trait HDegEngine {
  /** h-degree of each vertex in `vertices` (aligned), charged to `budget`. */
  def batchHDeg(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                h: Int, budget: Budget): Array[Int]

  /** For each vertex v in `vertices`: max of `value` over v's r-neighborhood
    * including v itself — the kernel of the LB2 bound (Obs. 2). */
  def batchNbrMax(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                  r: Int, value: Array[Int], budget: Budget): Array[Int]

  /** Release any pooled resources (thread pools). */
  def shutdown(): Unit = ()
}

/** One thread's h-BFS scratch: one per-vertex and one 64-lane h-BFS. */
private[repro] final class EngineScratch(val n: Int) {
  val bfs = new HBfs(n)
  val multi = new MultiHBfs(n)
}

private[repro] object EngineScratch {
  private val local = new ThreadLocal[EngineScratch]

  /** The calling thread's scratch, grown to serve graphs of `n` vertices.
    * It belongs to the thread, not to an engine: the caller, the pool
    * threads and the Spark tasks each keep one, as large as the largest
    * graph the thread has served, and never shrink it.
    */
  def get(n: Int): EngineScratch = {
    val s = local.get()
    if (s != null && s.n >= n) s
    else { val t = new EngineScratch(n); local.set(t); t }
  }
}

private[repro] object EngineKernels {
  /** Smallest block sent through the 64-lane kernel; smaller batches and
    * tails, whose sources share less of their neighbourhoods, use
    * per-vertex h-BFS. `KernelCrossoverBench` measures the time ratio of
    * the two by batch size: the 64-lane kernel is ahead from 8–15-vertex
    * batches on the comm, hub and road benchmark graphs, and behind below 8.
    * CoreDecomp's round discovery follows the same rule.
    */
  private[core] final val MinLanes = 8

  /** The h-degree kernel shared by the engines: blocks of up to 64 vertices
    * go through [[MultiHBfs]], and a batch or tail under 8 vertices
    * through per-vertex [[HBfs.run]]. Visits and BFS counts are the same
    * either way.
    */
  def hDegRange(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                h: Int, budget: Budget,
                s: EngineScratch, out: Array[Int], from: Int, until: Int): Unit = {
    var i = from
    while (until - i >= MinLanes) {
      val lanes = math.min(MultiHBfs.Lanes, until - i)
      s.multi.run(g, alive, vertices, i, lanes, h, budget, out)
      i += lanes
    }
    while (i < until) {
      out(i) = s.bfs.run(g, alive, vertices(i), h, budget)
      i += 1
    }
  }

  /** Sequential kernel shared by the engines: max of `value` over the
    * r-neighborhood of each vertex (including the vertex). */
  def nbrMaxRange(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                  r: Int, value: Array[Int], budget: Budget,
                  s: EngineScratch, out: Array[Int], from: Int, until: Int): Unit = {
    val bfs = s.bfs
    var i = from
    while (i < until) {
      val v = vertices(i)
      var best = value(v)
      if (r >= 1) {
        val cnt = bfs.run(g, alive, v, r, budget)
        var j = 0
        while (j < cnt) {
          val x = value(bfs.nbrs(j))
          if (x > best) best = x
          j += 1
        }
      }
      out(i) = best
      i += 1
    }
  }
}

/** The local engine: every batch is independent h-BFS (§4.6) run through
  * [[EngineKernels]] on the running thread's scratch, so building one
  * allocates nothing. A batch of at most 64 vertices, or any batch when
  * `threads` is 1, runs on the caller. A longer one is split into
  * `threads * 4` chunks, rounded up to multiples of 64 vertices so that
  * every chunk but the last fills whole 64-lane blocks, and run on a
  * fixed pool; a single-chunk batch still runs on the caller. A worker's
  * failure, e.g. [[BudgetExceeded]], is rethrown as itself.
  */
class LocalEngine private[repro] (threads: Int) extends HDegEngine {
  require(threads >= 1, s"threads = $threads")
  private val pool = if (threads > 1) Executors.newFixedThreadPool(threads) else null

  /** Chunk length of a `len`-vertex batch; `len` or more ⇒ run on the caller. */
  private def chunk(len: Int): Int =
    if (pool == null) len
    else math.max(1, (len / (threads * 4) + MultiHBfs.Lanes - 1) / MultiHBfs.Lanes) * MultiHBfs.Lanes

  /** Runs `body(scratch, from, until)` over the chunks of [0, len) on the pool. */
  private def parallelFor(len: Int, n: Int, chunk: Int)(body: (EngineScratch, Int, Int) => Unit): Unit = {
    val tasks = (0 until len by chunk).map { start =>
      val end = math.min(len, start + chunk)
      new Callable[Unit] {
        override def call(): Unit = body(EngineScratch.get(n), start, end)
      }
    }
    pool.invokeAll(tasks.asJava).asScala.foreach { f =>
      try f.get()
      catch { case e: ExecutionException => throw e.getCause }
    }
  }

  override def batchHDeg(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                         h: Int, budget: Budget): Array[Int] = {
    val len = vertices.length
    val out = new Array[Int](len)
    val c = chunk(len)
    if (c >= len) EngineKernels.hDegRange(g, alive, vertices, h, budget, EngineScratch.get(g.n), out, 0, len)
    else parallelFor(len, g.n, c) { (s, from, until) =>
      EngineKernels.hDegRange(g, alive, vertices, h, budget, s, out, from, until)
    }
    out
  }

  override def batchNbrMax(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                           r: Int, value: Array[Int], budget: Budget): Array[Int] = {
    val len = vertices.length
    val out = new Array[Int](len)
    val c = chunk(len)
    if (c >= len) EngineKernels.nbrMaxRange(g, alive, vertices, r, value, budget, EngineScratch.get(g.n), out, 0, len)
    else parallelFor(len, g.n, c) { (s, from, until) =>
      EngineKernels.nbrMaxRange(g, alive, vertices, r, value, budget, s, out, from, until)
    }
    out
  }

  override def shutdown(): Unit = if (pool != null) {
    pool.shutdown()
    pool.awaitTermination(10, TimeUnit.SECONDS)
  }
}

/** Single-threaded engine (the sequential versions of the algorithms): no
  * pool, every batch on the caller. `n` is the size of the graphs it will
  * serve; the scratch is the caller thread's, sized at the first batch.
  */
final class SequentialEngine(n: Int) extends LocalEngine(1)

/** Multithreaded engine (§4.6): the local engine on a fixed pool of
  * `threads` (none when `threads` is 1, which is [[SequentialEngine]]).
  */
final class ThreadedEngine(n: Int, threads: Int = Runtime.getRuntime.availableProcessors())
    extends LocalEngine(threads)
