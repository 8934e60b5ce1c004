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

private object EngineKernels {
  /** Sequential kernel shared by the engines: h-degree of each vertex. */
  def hDegRange(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                h: Int, budget: Budget,
                bfs: HBfs, out: Array[Int], from: Int, until: Int): Unit = {
    var i = from
    while (i < until) {
      out(i) = bfs.run(g, alive, vertices(i), h, budget)
      i += 1
    }
  }

  /** Sequential kernel shared by the engines: max of `value` over the
    * r-neighborhood of each vertex (including the vertex). */
  def nbrMaxRange(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                  r: Int, value: Array[Int], budget: Budget,
                  bfs: HBfs, out: Array[Int], from: Int, until: Int): Unit = {
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

/** Single-threaded engine (the sequential versions of the algorithms). */
final class SequentialEngine(n: Int) extends HDegEngine {
  private val bfs = new HBfs(n)

  override def batchHDeg(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                         h: Int, budget: Budget): Array[Int] = {
    val out = new Array[Int](vertices.length)
    EngineKernels.hDegRange(g, alive, vertices, h, budget, bfs, out, 0, vertices.length)
    out
  }

  override def batchNbrMax(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                           r: Int, value: Array[Int], budget: Budget): Array[Int] = {
    val out = new Array[Int](vertices.length)
    EngineKernels.nbrMaxRange(g, alive, vertices, r, value, budget, bfs, out, 0, vertices.length)
    out
  }
}

/** Multithreaded engine (§4.6): a fixed pool; each task owns a thread-local
  * [[HBfs]] scratchpad and takes a contiguous chunk of the vertex batch.
  * Falls back to sequential for small batches where fork-join overhead
  * dominates.
  */
final class ThreadedEngine(n: Int, threads: Int = Runtime.getRuntime.availableProcessors())
    extends HDegEngine {
  private val pool = Executors.newFixedThreadPool(threads)
  private val localBfs = ThreadLocal.withInitial[HBfs](() => new HBfs(n))
  private val minParallelBatch = 32

  /** Runs `body(bfs, from, until)` over contiguous chunks of [0, len) on the
    * pool (on the calling thread below `minParallelBatch`). A worker's
    * failure, e.g. [[BudgetExceeded]], is rethrown as itself.
    */
  private def parallelFor(len: Int)(body: (HBfs, Int, Int) => Unit): Unit = {
    if (len < minParallelBatch) return body(localBfs.get(), 0, len)
    val chunk = math.max(16, len / (threads * 4))
    val tasks = (0 until len by chunk).map { start =>
      val end = math.min(len, start + chunk)
      new Callable[Unit] {
        override def call(): Unit = body(localBfs.get(), start, end)
      }
    }
    pool.invokeAll(tasks.asJava).asScala.foreach { f =>
      try f.get()
      catch { case e: ExecutionException => throw e.getCause }
    }
  }

  override def batchHDeg(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                         h: Int, budget: Budget): Array[Int] = {
    val out = new Array[Int](vertices.length)
    parallelFor(vertices.length) { (bfs, from, until) =>
      EngineKernels.hDegRange(g, alive, vertices, h, budget, bfs, out, from, until)
    }
    out
  }

  override def batchNbrMax(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                           r: Int, value: Array[Int], budget: Budget): Array[Int] = {
    val out = new Array[Int](vertices.length)
    parallelFor(vertices.length) { (bfs, from, until) =>
      EngineKernels.nbrMaxRange(g, alive, vertices, r, value, budget, bfs, out, from, until)
    }
    out
  }

  override def shutdown(): Unit = {
    pool.shutdown()
    pool.awaitTermination(10, TimeUnit.SECONDS)
    ()
  }
}
