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

  /** [[batchHDeg]] with a cap (h-LB's capped re-measures, see
    * [[CoreDecomp]]): each vertex's h-BFS may stop once it has counted
    * `cap` or more h-neighbours, and its entry then holds the bitwise
    * complement `~count` (negative) of that count, which lies in [cap,
    * h-degree]; every other entry is the exact h-degree. Where a lane of
    * the 64-lane kernel stops depends on its block, so the blocks start at
    * the multiples of 64 in `vertices` on every engine: counts and visits
    * are then the same on every engine and thread count. This default runs
    * the batch on the caller, through [[EngineKernels.hDegRange]].
    */
  def batchHDegCapped(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                      h: Int, cap: Int, budget: Budget): Array[Int] = {
    val out = new Array[Int](vertices.length)
    EngineKernels.hDegRange(g, alive, vertices, h, budget, EngineScratch.get(g.n), out, 0, vertices.length, cap)
    out
  }

  /** For each vertex v in `vertices`: max of `value` over v's r-neighborhood
    * including v itself — the kernel of the LB2 bound (Obs. 2).
    *
    * The r-ball of v is v plus the (r−1)-balls of its alive neighbours, so
    * r − 1 rounds of "max over the closed neighbourhood" on every alive
    * vertex, then one at each listed vertex, give it with no h-BFS (the
    * max-value flooding of Pregel, Malewicz et al., SIGMOD 2010): each
    * round reads every alive neighbour once. As in [[HBfs.run]], v counts
    * whether or not it is alive, and no path passes another dead vertex.
    * The rounds' two buffers are the calling thread's [[EngineScratch]].
    * Charges no visits and no BFS to `budget`, and checks it once per round.
    */
  def batchNbrMax(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                  r: Int, value: Array[Int], budget: Budget): Array[Int] = {
    // max of self(u) and of `in` over u's alive neighbours
    def closedMax(u: Int, self: Array[Int], in: Array[Int]): Int = {
      var best = self(u)
      val a = g.adj(u)
      var i = 0
      while (i < a.length) { if (alive(a(i)) && in(a(i)) > best) best = in(a(i)); i += 1 }
      best
    }
    val s = if (r > 1) EngineScratch.get(g.n) else null
    var cur = value
    var t = 1
    while (t < r) {
      val next = if (cur eq s.roundA) s.roundB else s.roundA
      var u = 0
      while (u < g.n) { if (alive(u)) next(u) = closedMax(u, cur, cur); u += 1 }
      budget.check()
      cur = next
      t += 1
    }
    val out = new Array[Int](vertices.length)
    var i = 0
    while (i < out.length) {
      out(i) = if (r == 0) value(vertices(i)) else closedMax(vertices(i), value, cur)
      i += 1
    }
    budget.check()
    out
  }

  /** Release any pooled resources (thread pools). */
  def shutdown(): Unit = ()
}

/** One thread's h-BFS scratch: one per-vertex and one 64-lane h-BFS, and
  * the two round buffers of [[HDegEngine.batchNbrMax]], allocated at its
  * first use on the thread.
  */
private[repro] final class EngineScratch(val n: Int) {
  val bfs = new HBfs(n)
  val multi = new MultiHBfs(n)
  lazy val roundA = new Array[Int](n)
  lazy val roundB = new Array[Int](n)
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
    * either way. With a `cap` (below `Int.MaxValue`), the blocks run
    * [[MultiHBfs.runCapped]] and the tail [[HBfs.run]] with the cap, and
    * an entry stopped by the cap reads `~count`. Exact blocks keep
    * [[MultiHBfs.run]]: `runCapped` with no reachable cap gives the same
    * entries and visits but is slower (see [[MultiHBfs]]).
    */
  def hDegRange(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                h: Int, budget: Budget,
                s: EngineScratch, out: Array[Int], from: Int, until: Int,
                cap: Int = Int.MaxValue): Unit = {
    var i = from
    while (until - i >= MinLanes) {
      val lanes = math.min(MultiHBfs.Lanes, until - i)
      if (cap == Int.MaxValue) s.multi.run(g, alive, vertices, i, lanes, h, budget, out)
      else s.multi.runCapped(g, alive, vertices, i, lanes, h, cap, budget, out)
      i += lanes
    }
    while (i < until) {
      out(i) = s.bfs.run(g, alive, vertices(i), h, budget, cap)
      i += 1
    }
  }
}

/** The local engine: every h-degree batch is independent h-BFS (§4.6) run
  * through [[EngineKernels.hDegRange]] on the running thread's scratch, so
  * building one allocates nothing. A batch of at most 64 vertices, or any
  * batch when `threads` is 1, runs on the caller. A longer one is split
  * into `threads * 4` chunks, rounded up to multiples of 64 vertices so
  * that every chunk but the last fills whole 64-lane blocks, and run on a
  * fixed pool; a single-chunk batch still runs on the caller. Capped
  * batches are chunked the same way, so their 64-lane blocks are those of
  * a run on the caller. A worker's failure, e.g. [[BudgetExceeded]], is
  * rethrown as itself. LB2 batches are the trait's max pass, on the caller.
  */
class LocalEngine private[repro] (threads: Int) extends HDegEngine {
  require(threads >= 1, s"threads = $threads")
  private val pool = if (threads > 1) Executors.newFixedThreadPool(threads) else null

  override def batchHDeg(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                         h: Int, budget: Budget): Array[Int] =
    chunked(g, alive, vertices, h, Int.MaxValue, budget)

  override def batchHDegCapped(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                               h: Int, cap: Int, budget: Budget): Array[Int] =
    chunked(g, alive, vertices, h, cap, budget)

  private def chunked(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                      h: Int, cap: Int, budget: Budget): Array[Int] = {
    val len = vertices.length
    val out = new Array[Int](len)
    // Chunk length; `len` or more ⇒ run on the caller.
    val chunk =
      if (pool == null) len
      else math.max(1, (len / (threads * 4) + MultiHBfs.Lanes - 1) / MultiHBfs.Lanes) * MultiHBfs.Lanes
    if (chunk >= len) EngineKernels.hDegRange(g, alive, vertices, h, budget, EngineScratch.get(g.n), out, 0, len, cap)
    else {
      val tasks = (0 until len by chunk).map { from =>
        (() => EngineKernels.hDegRange(g, alive, vertices, h, budget, EngineScratch.get(g.n), out,
                                       from, math.min(len, from + chunk), cap)): Callable[Unit]
      }
      pool.invokeAll(tasks.asJava).asScala.foreach { f =>
        try f.get()
        catch { case e: ExecutionException => throw e.getCause }
      }
    }
    out
  }

  override def shutdown(): Unit = if (pool != null) {
    pool.shutdown()
    pool.awaitTermination(10, TimeUnit.SECONDS)
  }
}

/** Single-threaded engine (the sequential versions of the algorithms): no
  * pool, every batch on the caller, on the calling thread's scratch, sized
  * at the first batch. `n` is ignored; it is kept only because perfbench
  * constructs engines with it, and goes with perfbench's next change.
  */
final class SequentialEngine(n: Int) extends LocalEngine(1)

/** Multithreaded engine (§4.6): the local engine on a fixed pool of
  * `threads` (none when `threads` is 1, which is [[SequentialEngine]]).
  * `n` is ignored, as in [[SequentialEngine]].
  */
final class ThreadedEngine(n: Int, threads: Int = Runtime.getRuntime.availableProcessors())
    extends LocalEngine(threads)
