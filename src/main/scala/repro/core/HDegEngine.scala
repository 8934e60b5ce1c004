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

  /** Round discovery of [[CoreDecomp]]: one h-BFS from each of the `np`
    * sources `sources(0 until np)` (a round's peeled vertices, all still
    * alive), in blocks of up to 64 sources through [[MultiHBfs.discover]]
    * and a tail under 8 through per-vertex [[HBfs.run]]
    * ([[EngineKernels.discoverRange]]). Each block's output goes to `sink`,
    * in block order and always on the calling thread, so the sink sees the
    * same calls on every engine. This default runs every block on the
    * caller, on its [[EngineScratch]], and allocates nothing.
    */
  def discoverRound(g: AdjGraph, alive: Array[Boolean], sources: Array[Int], np: Int,
                    h: Int, budget: Budget, sink: DiscoverySink): Unit =
    EngineKernels.discoverRange(g, alive, sources, 0, np, h, budget, EngineScratch.get(g.n), sink)

  /** Release any pooled resources (thread pools). */
  def shutdown(): Unit = ()
}

/** Receives a round discovery's output ([[HDegEngine.discoverRound]]), in
  * the order of the round's blocks: for j < m, `found(j)` was reached at
  * distance `dist(j)` from the nearest of `lanes(j)` sources of its block
  * (one each when `lanes` is null). The arrays are the kernel's and are
  * reused after the call returns.
  */
trait DiscoverySink {
  def reached(found: Array[Int], dist: Array[Int], lanes: Array[Int], m: Int): Unit
}

/** A pool worker's copy of its share of a round's discovery output, in
  * block order, for the caller to hand to the round's sink.
  */
private final class FoundLog extends DiscoverySink {
  var found = new Array[Int](1024)
  var dist = new Array[Int](1024)
  var lanes = new Array[Int](1024)
  var size = 0

  def reached(f: Array[Int], d: Array[Int], l: Array[Int], m: Int): Unit = {
    if (size + m > found.length) {
      val cap = math.max(2 * found.length, size + m)
      found = java.util.Arrays.copyOf(found, cap)
      dist = java.util.Arrays.copyOf(dist, cap)
      lanes = java.util.Arrays.copyOf(lanes, cap)
    }
    System.arraycopy(f, 0, found, size, m)
    System.arraycopy(d, 0, dist, size, m)
    if (l == null) java.util.Arrays.fill(lanes, size, size + m, 1)
    else System.arraycopy(l, 0, lanes, size, m)
    size += m
  }
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

  /** The one round discovery loop: the sources `sources(from until until)`
    * in blocks by [[MinLanes]], as [[hDegRange]] cuts them, each block's
    * output handed to `sink` before the next block runs. With `from` a
    * multiple of 64, a range's blocks are those of the whole round.
    */
  def discoverRange(g: AdjGraph, alive: Array[Boolean], sources: Array[Int], from: Int, until: Int,
                    h: Int, budget: Budget, s: EngineScratch, sink: DiscoverySink): Unit = {
    var i = from
    while (until - i >= MinLanes) {
      val lanes = math.min(MultiHBfs.Lanes, until - i)
      val m = s.multi.discover(g, alive, sources, i, lanes, h, budget)
      sink.reached(s.multi.found, s.multi.foundRound, s.multi.foundLanes, m)
      i += lanes
    }
    while (i < until) {
      val m = s.bfs.run(g, alive, sources(i), h, budget)
      sink.reached(s.bfs.nbrs, s.bfs.nbrDist, null, m)
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
  * a run on the caller. A round discovery of at least
  * [[LocalEngine.MinPooledRound]] peeled vertices runs on the pool as well
  * ([[discoverPooled]]); a smaller one, or any when `threads` is 1, is the
  * trait's loop on the caller. A worker's failure, e.g. [[BudgetExceeded]],
  * is rethrown as itself. LB2 batches are the trait's max pass, on the
  * caller.
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

  override def discoverRound(g: AdjGraph, alive: Array[Boolean], sources: Array[Int], np: Int,
                             h: Int, budget: Budget, sink: DiscoverySink): Unit =
    if (pool == null || np < LocalEngine.MinPooledRound) super.discoverRound(g, alive, sources, np, h, budget, sink)
    else discoverPooled(g, alive, sources, np, h, budget, sink)

  /** [[discoverRound]] on the pool, whatever the round's size: the round's
    * 64-vertex blocks are cut into up to `threads` contiguous shares. The
    * caller runs the first share into `sink` while the pool runs the others,
    * each into its own [[FoundLog]]; the caller then hands the logs to
    * `sink` in share order. So `sink` gets the same entries in the same
    * order as from a run on the caller. The round ends only after every
    * share has ended, and a worker's failure is rethrown as itself.
    */
  private[repro] def discoverPooled(g: AdjGraph, alive: Array[Boolean], sources: Array[Int], np: Int,
                                    h: Int, budget: Budget, sink: DiscoverySink): Unit = {
    val blocks = (np + MultiHBfs.Lanes - 1) / MultiHBfs.Lanes
    val shares = math.max(1, math.min(threads, blocks))
    // Share s is sources(start(s) until start(s + 1)).
    def start(s: Int): Int = math.min(np, s * blocks / shares * MultiHBfs.Lanes)
    val logs = (1 until shares).map { s =>
      pool.submit((() => {
        val log = new FoundLog
        EngineKernels.discoverRange(g, alive, sources, start(s), start(s + 1), h, budget,
                                    EngineScratch.get(g.n), log)
        log
      }): Callable[FoundLog])
    }
    try {
      EngineKernels.discoverRange(g, alive, sources, 0, start(1), h, budget, EngineScratch.get(g.n), sink)
      logs.foreach { f =>
        val log = try f.get() catch { case e: ExecutionException => throw e.getCause }
        sink.reached(log.found, log.dist, log.lanes, log.size)
      }
    } finally logs.foreach(f => try f.get() catch { case _: ExecutionException => () })
  }

  override def shutdown(): Unit = if (pool != null) {
    pool.shutdown()
    pool.awaitTermination(10, TimeUnit.SECONDS)
  }
}

private[repro] object LocalEngine {
  /** Smallest round whose discovery runs on the pool: two full 64-lane
    * blocks. A smaller round is one block, or one block and a tail for a
    * worker, and the caller still applies every entry. `KernelCrossoverBench`
    * times recorded h-LB+UB rounds on the caller and on a 4-thread pool;
    * caller ÷ pooled time over two runs on a 4-core host:
    *  - 65–127 vertices: 1.25–1.27 comm, 1.09–1.24 hub, 0.82–1.06 road;
    *  - 128–255: 1.94–2.15 comm, 1.43–1.81 hub, 0.82–1.11 road;
    *  - 256–511: 2.33–2.34 comm, 1.07–1.15 road (no hub round);
    *  - 512 and more: 2.66–2.96 comm, 2.15–2.65 hub, 2.22–2.37 road.
    * Road rounds of 128–511 vertices take about 0.1–0.3 ms, near the cost of
    * waking the pool, yet a cutoff of 512 ran perfbench's `road-grid-h4`
    * `hlbub_mt_s` 8% slower than 128 (median of 6 alternating pairs).
    */
  final val MinPooledRound = 2 * MultiHBfs.Lanes
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
