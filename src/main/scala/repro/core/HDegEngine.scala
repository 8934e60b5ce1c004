package repro.core

import java.util.concurrent.{Callable, ExecutionException, Executors, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger
import scala.util.{Failure, Try}

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
    * ([[EngineKernels.discoverRange]]). Each entry carries the number of
    * sources that reached its vertex or, with `loss`, the vertex's loss
    * bound L over them. The output goes to `sink` in block order and always
    * on the calling thread. [[LocalEngine]] may run the blocks on its pool
    * and hand the sink their copied output a chunk of blocks at a time, so
    * the sink sees the same entries in the same order on every engine, not
    * the same calls. This default runs every block on the caller, on its
    * [[EngineScratch]], and allocates nothing.
    */
  def discoverRound(g: AdjGraph, alive: Array[Boolean], sources: Array[Int], np: Int,
                    h: Int, loss: Boolean, budget: Budget, sink: DiscoverySink): Unit =
    EngineKernels.discoverRange(g, alive, sources, 0, np, h, loss, budget, EngineScratch.get(g.n), sink)

  /** Release any pooled resources (thread pools). */
  def shutdown(): Unit = ()
}

/** Receives a round discovery's output ([[HDegEngine.discoverRound]]), in
  * the order of the round's blocks: for `from <= j < until`, `found(j)` was
  * reached at distance `dist(j)` from the nearest source of its block, and
  * `loss(j)` is the number of the block's sources that reached it or, in a
  * discovery with `loss`, its loss bound L over them (1 each when `loss` is
  * null). The arrays are the kernel's or a [[FoundLog]]'s and are reused
  * after the call returns.
  */
trait DiscoverySink {
  def reached(found: Array[Int], dist: Array[Int], loss: Array[Int], from: Int, until: Int): Unit
}

/** One thread's copy of the discovery output of the chunks it ran in a
  * pooled round ([[LocalEngine.onPool]]), in the order it ran them, for the
  * caller to hand to the round's sink in chunk order.
  */
private final class FoundLog extends DiscoverySink {
  var found = new Array[Int](1024)
  var dist = new Array[Int](1024)
  var loss = new Array[Int](1024)
  var size = 0

  def reached(f: Array[Int], d: Array[Int], l: Array[Int], from: Int, until: Int): Unit = {
    val m = until - from
    if (size + m > found.length) {
      val cap = math.max(2 * found.length, size + m)
      found = java.util.Arrays.copyOf(found, cap)
      dist = java.util.Arrays.copyOf(dist, cap)
      loss = java.util.Arrays.copyOf(loss, cap)
    }
    System.arraycopy(f, from, found, size, m)
    System.arraycopy(d, from, dist, size, m)
    if (l == null) java.util.Arrays.fill(loss, size, size + m, 1)
    else System.arraycopy(l, from, loss, size, m)
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
    * go through [[MultiHBfs.run]], and a batch or tail under 8 vertices
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

  /** The one round discovery loop: the sources `sources(from until until)`
    * in blocks by [[MinLanes]], as [[hDegRange]] cuts them, each block's
    * output handed to `sink` before the next block runs; with `loss`, a
    * tail source's entries carry [[HBfs.losses]]. With `from` a multiple of
    * 64, a range's blocks are those of the whole round.
    */
  def discoverRange(g: AdjGraph, alive: Array[Boolean], sources: Array[Int], from: Int, until: Int,
                    h: Int, loss: Boolean, budget: Budget, s: EngineScratch, sink: DiscoverySink): Unit = {
    var i = from
    while (until - i >= MinLanes) {
      val lanes = math.min(MultiHBfs.Lanes, until - i)
      val m = s.multi.discover(g, alive, sources, i, lanes, h, loss, budget)
      sink.reached(s.multi.found, s.multi.foundRound, s.multi.foundLoss, 0, m)
      i += lanes
    }
    while (i < until) {
      val m = s.bfs.run(g, alive, sources(i), h, budget)
      sink.reached(s.bfs.nbrs, s.bfs.nbrDist, if (loss) s.bfs.losses(h) else null, 0, m)
      i += 1
    }
  }
}

/** The local engine: §4.6's "different h-BFS traversals to different
  * processors" on one fixed pool, through one dispatch ([[onPool]]) for
  * both of its kinds of work:
  *  - an h-degree batch: [[EngineKernels.hDegRange]] writes each chunk's
  *    entries into the batch's output in place;
  *  - a round discovery ([[discoverRound]]): [[EngineKernels.discoverRange]]
  *    runs the caller's first chunk straight into the round's sink, and
  *    every other chunk into a [[FoundLog]] of the thread that ran it; the
  *    caller then hands the logs' chunks to the sink in chunk order.
  * A batch or round of fewer than [[LocalEngine.MinPooled]] vertices, and
  * every one when `threads` is 1, runs on the caller, on its
  * [[EngineScratch]], and allocates nothing new but a batch's output. The
  * chunks are whole 64-vertex blocks, so visits and the sink's entries and
  * their order are those of a run on the caller. LB2 batches are the
  * trait's max pass, on the caller.
  */
class LocalEngine private[repro] (threads: Int) extends HDegEngine {
  require(threads >= 1, s"threads = $threads")
  private val pool = if (threads > 1) Executors.newFixedThreadPool(threads) else null

  override def batchHDeg(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                         h: Int, budget: Budget): Array[Int] = {
    val out = new Array[Int](vertices.length)
    if (pool == null || vertices.length < LocalEngine.MinPooled)
      EngineKernels.hDegRange(g, alive, vertices, h, budget, EngineScratch.get(g.n), out, 0, vertices.length)
    else onPool(vertices.length, null) { (from, until, _) =>
      EngineKernels.hDegRange(g, alive, vertices, h, budget, EngineScratch.get(g.n), out, from, until)
    }
    out
  }

  override def discoverRound(g: AdjGraph, alive: Array[Boolean], sources: Array[Int], np: Int,
                             h: Int, loss: Boolean, budget: Budget, sink: DiscoverySink): Unit =
    if (pool == null || np < LocalEngine.MinPooled) super.discoverRound(g, alive, sources, np, h, loss, budget, sink)
    else onPool(np, sink) { (from, until, to) =>
      EngineKernels.discoverRange(g, alive, sources, from, until, h, loss, budget, EngineScratch.get(g.n), to)
    }

  /** The engine's one pool dispatch, whatever `len`: `run(from, until, to)`
    * over the chunks of `0 until len`, `threads * 4` of them rounded up to
    * whole 64-vertex blocks. The caller runs chunk 0 into `sink`; then the
    * caller and up to `threads − 1` pool workers claim the other chunks
    * from one cursor, each thread into one [[FoundLog]] of its own, and
    * after the last chunk the caller hands the logs' chunks to `sink` in
    * chunk order. With a null `sink`, `run` writes its output itself and
    * gets null. It returns or throws only after every worker has ended,
    * since the caller changes the alive mask next; the first failure closes
    * the cursor, and a worker's, e.g. [[BudgetExceeded]], is rethrown as
    * itself.
    */
  private[repro] def onPool(len: Int, sink: DiscoverySink)(run: (Int, Int, DiscoverySink) => Unit): Unit = {
    val chunk = math.max(1, (len / (threads * 4) + MultiHBfs.Lanes - 1) / MultiHBfs.Lanes) * MultiHBfs.Lanes
    val chunks = (len + chunk - 1) / chunk
    val cursor = new AtomicInteger(1)
    // With a sink, chunk c ≥ 1 went to logs(c), at cuts(2c) until cuts(2c + 1).
    val logs = if (sink != null) new Array[FoundLog](chunks) else null
    val cuts = if (sink != null) new Array[Int](2 * chunks) else null
    def drain(): Unit = {
      var log: FoundLog = null
      var c = cursor.getAndIncrement()
      while (c < chunks) {
        if (sink != null && log == null) log = new FoundLog
        if (log != null) { logs(c) = log; cuts(2 * c) = log.size }
        run(c * chunk, math.min(len, c * chunk + chunk), log)
        if (log != null) cuts(2 * c + 1) = log.size
        c = cursor.getAndIncrement()
      }
    }
    def closing(body: => Unit): Unit = try body catch { case e: Throwable => cursor.set(chunks); throw e }
    val workers = Seq.fill(math.min(threads - 1, chunks - 1))(pool.submit((() => closing(drain())): Callable[Unit]))
    val caller = Try(closing { run(0, math.min(len, chunk), sink); drain() })
    // Every worker has ended before the first failure, if any, is rethrown.
    (caller +: workers.map(f => Try(f.get()).recoverWith { case e: ExecutionException => Failure(e.getCause) }))
      .foreach(_.get)
    if (sink != null)
      for (c <- 1 until chunks) sink.reached(logs(c).found, logs(c).dist, logs(c).loss, cuts(2 * c), cuts(2 * c + 1))
  }

  override def shutdown(): Unit = if (pool != null) {
    pool.shutdown()
    pool.awaitTermination(10, TimeUnit.SECONDS)
  }
}

private[repro] object LocalEngine {
  /** Smallest h-degree batch or round discovery run on the pool: two full
    * 64-lane blocks, one chunk for the caller and at least one for a
    * worker. `KernelCrossoverBench` times recorded h-LB+UB batches and
    * rounds on the caller and through [[LocalEngine.onPool]] on 4 threads;
    * caller ÷ pooled time over two runs on a 4-core host, h-degree batches
    * then discovery:
    *  - 8–64 vertices (one chunk, on the caller either way): 0.96–1.01;
    *  - 65–127: comm 1.31–1.40, 1.36–1.44; hub 1.41, 1.17–1.23; road
    *    1.23–1.29, 1.03–1.07;
    *  - 128–255: comm 1.95–2.01, 1.75–1.95; hub 1.85–1.99, 1.25–1.45;
    *    road 1.33–1.52, 1.25–1.32;
    *  - 256–511: 1.93–2.78, 1.84–2.65 (no hub round of that size);
    *  - 512 and more: 2.7–3.3 and 2.0–2.7 on all three.
    * The bench keeps the pool warm between repetitions. A cutoff of 65,
    * which its 65–127 row favours, ran perfbench's threaded h-LB+UB
    * (`hlbub_mt_s`, median of 6 alternating pairs against 128) 7.0% faster
    * on comm, 4.5% slower on hub and 0.2% slower on road: no clear gain,
    * so the cutoff stays at two blocks.
    */
  final val MinPooled = 2 * MultiHBfs.Lanes
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
