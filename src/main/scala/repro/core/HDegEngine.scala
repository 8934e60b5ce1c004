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

/** Per-thread scratch of an engine: one per-vertex and one 64-lane h-BFS. */
private final class EngineScratch(n: Int) {
  val bfs = new HBfs(n)
  val multi = new MultiHBfs(n)
}

private object EngineKernels {
  /** Smallest block sent through the 64-lane kernel; smaller batches and
    * tails, whose sources share less of their neighbourhoods, use
    * per-vertex h-BFS. `KernelCrossoverBench` measures the time ratio of
    * the two by batch size: the 64-lane kernel is ahead from 8–15-vertex
    * batches on the comm, hub and road benchmark graphs, and behind below 8.
    */
  private final val MinLanes = 8

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

/** Single-threaded engine (the sequential versions of the algorithms). */
final class SequentialEngine(n: Int) extends HDegEngine {
  private val scratch = new EngineScratch(n)

  override def batchHDeg(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                         h: Int, budget: Budget): Array[Int] = {
    val out = new Array[Int](vertices.length)
    EngineKernels.hDegRange(g, alive, vertices, h, budget, scratch, out, 0, vertices.length)
    out
  }

  override def batchNbrMax(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                           r: Int, value: Array[Int], budget: Budget): Array[Int] = {
    val out = new Array[Int](vertices.length)
    EngineKernels.nbrMaxRange(g, alive, vertices, r, value, budget, scratch, out, 0, vertices.length)
    out
  }
}

/** Multithreaded engine (§4.6): a fixed pool; each task owns thread-local
  * scratch and takes a contiguous chunk of the vertex batch. Chunks are
  * multiples of 64 vertices, so every chunk but a batch's last one fills
  * whole 64-lane blocks. Batches that make a single chunk, or fall under
  * the cutoff where fork-join overhead dominates, run on the caller.
  */
final class ThreadedEngine(n: Int, threads: Int = Runtime.getRuntime.availableProcessors())
    extends HDegEngine {
  private val pool = Executors.newFixedThreadPool(threads)
  private val localScratch = ThreadLocal.withInitial[EngineScratch](() => new EngineScratch(n))
  private val minParallelBatch = 32

  /** Runs `body(scratch, from, until)` over contiguous chunks of [0, len) on
    * the pool (on the calling thread below `minParallelBatch` or for a
    * single chunk). A worker's failure, e.g. [[BudgetExceeded]], is
    * rethrown as itself.
    */
  private def parallelFor(len: Int)(body: (EngineScratch, Int, Int) => Unit): Unit = {
    val blocks = (len / (threads * 4) + MultiHBfs.Lanes - 1) / MultiHBfs.Lanes
    val chunk = math.max(1, blocks) * MultiHBfs.Lanes
    if (len < minParallelBatch || chunk >= len) return body(localScratch.get(), 0, len)
    val tasks = (0 until len by chunk).map { start =>
      val end = math.min(len, start + chunk)
      new Callable[Unit] {
        override def call(): Unit = body(localScratch.get(), start, end)
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
    parallelFor(vertices.length) { (scratch, from, until) =>
      EngineKernels.hDegRange(g, alive, vertices, h, budget, scratch, out, from, until)
    }
    out
  }

  override def batchNbrMax(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                           r: Int, value: Array[Int], budget: Budget): Array[Int] = {
    val out = new Array[Int](vertices.length)
    parallelFor(vertices.length) { (scratch, from, until) =>
      EngineKernels.nbrMaxRange(g, alive, vertices, r, value, budget, scratch, out, from, until)
    }
    out
  }

  override def shutdown(): Unit = {
    pool.shutdown()
    pool.awaitTermination(10, TimeUnit.SECONDS)
    ()
  }
}
