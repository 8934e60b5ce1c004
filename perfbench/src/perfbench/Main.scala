package perfbench

import java.lang.management.ManagementFactory
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.spark.{PregelHDeg, SparkEngine, SparkPartitionedDecomp}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Benchmark entry point. One JVM measures one workload:
  *
  *   perfbench.Main --workload W --seed N --seconds S --trace 0|1 --out DIR
  *                  [--graph-seed G]
  *
  * With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
  * per-layer ones; either way the last stdout line is the JSON result.
  * See perfbench/README.md for what each metric means.
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        out: String, graphSeed: Option[Long])

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"--$k is required"))
    Args(need("workload"), need("seed").toLong, need("seconds").toDouble,
         need("trace") match { case "0" => false; case "1" => true; case t => throw new IllegalArgumentException(s"--trace $t") },
         need("out"), kv.get("graph-seed").map(_.toLong))
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val run = new Run(Workloads(args.workload), args)
    val ok = try run.execute() finally run.close()
    System.out.flush()
    System.exit(if (ok) 0 else 1)
  }
}

/** One measured configuration: an algorithm on an engine. */
sealed abstract class Config(val metric: String, val label: String)
object Config {
  case object Hlb extends Config("hlb_s", "h-LB seq")
  case object HlbUb extends Config("hlbub_s", "h-LB+UB seq")
  case object HlbUbMt extends Config("hlbub_mt_s", "h-LB+UB threaded")
  case object Partitioned extends Config("spark.partitioned_s", "SparkPartitionedDecomp")
  case object SparkHlbUb extends Config("spark.engine_hlbub_s", "h-LB+UB SparkEngine")
  val local: Seq[Config] = Seq(Hlb, HlbUb, HlbUbMt)
  val spark: Seq[Config] = Seq(Partitioned, SparkHlbUb)
}

/** A relabeled copy of the workload's graph, the engines that run on it
  * and its reference: the first h-LB result, once the gate accepted it. */
final class Instance(val g: AdjGraph, val seq: SequentialEngine, val threaded: ThreadedEngine,
                     val recorded: Option[Recorded]) {
  var sparkEngine: SparkEngine = _
  var ref: CoreResult = _
}

final class Run(wl: Workload, args: Main.Args) {
  import Config._

  private val t0Run = System.nanoTime()
  private val threads = Runtime.getRuntime.availableProcessors()
  private val h = wl.h
  private val graphSeed = args.graphSeed.getOrElse(wl.graphSeed)
  private val recorded = if (graphSeed == wl.graphSeed) Some(wl.recorded) else None
  private val threadMx = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  private var attempted = 0
  private var decompositions = 0
  private val failures = mutable.ArrayBuffer.empty[String]
  private val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
  private var spark: SparkSession = _
  private val engines = mutable.HashMap.empty[Int, (SequentialEngine, ThreadedEngine)]

  private def now: Long = System.nanoTime()
  private def secs(ns: Long): Double = ns / 1e9
  private def put(name: String, value: Double, unit: String): Unit = metrics(name) = (value, unit)
  private def fail(msg: String): Unit = failures += msg
  private def log(msg: String): Unit = Console.err.println(f"[${secs(now - t0Run)}%7.2f s] ${wl.name}: $msg")
  private def allocated: Long = threadMx.getCurrentThreadAllocatedBytes
  private def gcMillis: Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.length % 2 == 1) s(s.length / 2)
    else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }
  private def mean(xs: Seq[Double]): Double = xs.sum / xs.length

  /** Runs `body` as one attempted operation; an exception is a failure. */
  private def attempt[A](what: String)(body: => A): Option[A] = {
    attempted += 1
    try Some(body)
    catch { case e: Exception => fail(s"$what: $e"); None }
  }

  /** Counts one gate check of `res`: the first h-LB result of an instance
    * is checked as its reference and kept, every later result must equal it. */
  private def check(cfg: Config, res: CoreResult, inst: Instance): Unit = {
    attempted += 1
    if (inst.ref != null) Gate.agrees(cfg.label, res.core, inst.ref.core).foreach(fail)
    else if (cfg != Hlb) fail(s"${cfg.label}: no h-LB reference to check against")
    else {
      val fs = Gate.reference(inst.g, h, res.core, inst.recorded)
      fs.foreach(f => fail(s"reference: $f"))
      if (fs.isEmpty) inst.ref = res
    }
  }

  private def budget(): Budget = Budget.withTimeLimit(120000)

  /** One decomposition of `inst` under `cfg`, with `engine` in place of the
    * configuration's own engine when given (the timing decorator). */
  private def decompose(cfg: Config, inst: Instance, engine: Option[HDegEngine]): CoreResult = cfg match {
    case Hlb         => KHCore.decompose(inst.g, h, Algo.HLB, Some(engine.getOrElse(inst.seq)), budget())
    case HlbUb       => KHCore.decompose(inst.g, h, Algo.HLBUB(), Some(engine.getOrElse(inst.seq)), budget())
    case HlbUbMt     => KHCore.decompose(inst.g, h, Algo.HLBUB(), Some(engine.getOrElse(inst.threaded)), budget())
    case Partitioned => SparkPartitionedDecomp.decompose(spark, inst.g, h)
    case SparkHlbUb  => KHCore.decompose(inst.g, h, Algo.HLBUB(), Some(engine.getOrElse(inst.sparkEngine)), budget())
  }

  /** (result, wall ns, bytes allocated on this thread), or None on failure. */
  private def timed(cfg: Config, inst: Instance, engine: Option[HDegEngine] = None): Option[(CoreResult, Long, Long)] =
    attempt(cfg.label) {
      decompositions += 1
      val a0 = allocated
      val t0 = now
      val r = decompose(cfg, inst, engine)
      val t = now - t0
      (r, t, allocated - a0)
    }.map { case x @ (r, _, _) => check(cfg, r, inst); x }

  /** `g` with sequential and threaded engines, shared by all graphs of the
    * same size; [[close]] stops the pools. */
  private def instance(g: AdjGraph, rec: Option[Recorded]): Instance = {
    val (seq, pool) = engines.getOrElseUpdate(g.n, (new SequentialEngine(g.n), new ThreadedEngine(g.n, threads)))
    new Instance(g, seq, pool, rec)
  }

  /** Self-tests, then every configuration twice on a smaller graph of the
    * workload's family, untimed, so that measured runs are JIT-warm. */
  private def prepare(configs: Seq[Config]): Unit = {
    val (n, fs) = SelfTest.run(wl, threads)
    attempted += n
    failures ++= fs
    log(s"$n self-tests, ${fs.size} failed")
    val warmG = wl.warm()
    val inst = instance(warmG, None)
    if (spark != null) inst.sparkEngine = new SparkEngine(spark, warmG)
    try for (_ <- 0 until 2; c <- configs) timed(c, inst)
    finally if (inst.sparkEngine != null) inst.sparkEngine.shutdown()
    log("warm-up done")
  }

  def execute(): Boolean = {
    try {
      if (args.trace) traced() else untraced()
    } catch {
      case e: Exception => fail(s"run aborted: $e")
    }
    val ok = failures.isEmpty && metrics.values.forall(v => !v._1.isNaN && !v._1.isInfinite)
    failures.foreach(f => Console.err.println(s"FAIL $f"))
    val ms = metrics.map { case (k, (v, u)) => s""""$k": {"value": $v, "unit": "$u"}""" }.mkString(", ")
    println(s"""{"correct": $ok, "attempted": ${math.max(1, attempted)}, "failed": ${failures.size}, "metrics": {$ms}}""")
    ok
  }

  def close(): Unit = {
    engines.values.foreach(_._2.shutdown())
    if (spark != null) spark.stop()
  }

  // ---- end-to-end (untraced) ---------------------------------------------

  private def untraced(): Unit = {
    prepare(Config.local)
    val k = wl.instances
    // Set-up: generate, relabel, build, at least 11 times and for at least
    // a second, so that the median is past the JIT-cold first set-ups even
    // where one takes milliseconds. The first k set-ups are the instances.
    val setupS = mutable.ArrayBuffer.empty[Double]
    val graphs = mutable.ArrayBuffer.empty[AdjGraph]
    val tSetup = now
    while (setupS.length < math.max(11, k) || secs(now - tSetup) < 1.0) {
      val t0 = now
      val g = Workloads.relabel(wl.gen(graphSeed), args.seed, setupS.length)
      setupS += secs(now - t0)
      if (graphs.length < k) graphs += g
    }
    val insts = graphs.map(instance(_, recorded))
    log(f"${setupS.length} set-ups, median ${median(setupS.toSeq)}%.4f s")

    // Rounds: every configuration once on one instance, instances in turn,
    // until every instance has had a round and one more round would end
    // after `seconds`.
    val times = mutable.Map.empty[Config, mutable.ArrayBuffer[Double]]
    val visits = mutable.Map.empty[(Config, Int), Long]
    val allocs = mutable.ArrayBuffer.empty[Double]
    val tStart = now
    var round = 0
    var roundNs = 0L
    def more: Boolean = round < k || (secs(now - tStart + roundNs) <= args.seconds && secs(now - t0Run + roundNs) < 150)
    while (more) {
      val i = round % k
      val r0 = now
      Config.local.foreach { c =>
        timed(c, insts(i)).foreach { case (res, ns, bytes) =>
          times.getOrElseUpdate(c, mutable.ArrayBuffer.empty) += secs(ns)
          visits((c, i)) = res.visits
          if (c == HlbUb) allocs += bytes / 1e6
        }
      }
      roundNs = now - r0
      log(s"round $round on instance $i: " +
          Config.local.map(c => f"${c.metric}=${times.get(c).map(_.last).getOrElse(Double.NaN)}%.3f").mkString(" "))
      round += 1
    }

    // A time or an allocation is the median over all rounds; a count (exact
    // for a given instance) is the mean over instances.
    def countOf(c: Config): Double = mean((0 until k).map(i => visits.get((c, i)).fold(Double.NaN)(_.toDouble)))
    put("setup_s", median(setupS.toSeq), "s")
    Config.local.foreach(c => put(c.metric, median(times.getOrElse(c, Nil).toSeq), "s"))
    put("hlb_visits", countOf(Hlb), "count")
    put("hlbub_visits", countOf(HlbUb), "count")
    put("alloc_mb", median(allocs.toSeq), "MB")
    put("ok_frac", (attempted - failures.size).toDouble / math.max(1, attempted), "ratio")
    log(s"$round rounds over $k instance(s)")
  }

  // ---- per layer (traced) ------------------------------------------------

  private def traced(): Unit = {
    val spans = new Spans
    val tSpark = now
    spark = SparkLayer.start(threads, s"${args.out}/spark")
    put("spark.session_s", secs(now - tSpark), "s")
    val sc = spark.sparkContext
    prepare(Config.local ++ Config.spark)

    // Set-up, split into generation, adjacency build and broadcast.
    val gens = (0 until 3).map { _ => val t0 = now; val g = wl.gen(graphSeed); (g, secs(now - t0)) }
    put("graphgen.gen_s", median(gens.map(_._2)), "s")
    val g = Workloads.relabel(gens.head._1, args.seed, 0)
    val edges = g.edges
    put("adjgraph.build_s", median((0 until 3).map { _ =>
      val t0 = now; AdjGraph.fromEdges(g.n, edges); secs(now - t0) }), "s")
    val bcs = (0 until 3).map { _ => val t0 = now; val e = new SparkEngine(spark, g); (e, secs(now - t0)) }
    bcs.tail.foreach(_._1.shutdown())
    put("spark.broadcast_s", median(bcs.map(_._2)), "s")
    val inst = instance(g, recorded)
    inst.sparkEngine = bcs.head._1
    val n = g.n
    timed(Hlb, inst)
    if (inst.ref == null) throw new IllegalStateException("no h-LB reference")
    val core = inst.ref.core

    // HBfs: one all-alive radius-h sweep.
    val alive = Array.fill(n)(true)
    val bfs = new HBfs(n)
    val sweeps = (0 until 3).map { _ =>
      val b = Budget.unlimited()
      spans.span("HBfs.sweep") { _ =>
        val t0 = now
        var v = 0
        while (v < n) { bfs.run(g, alive, v, h, b); v += 1 }
        (secs(now - t0), b.visits)
      }
    }
    val sweepS = median(sweeps.map(_._1))
    var scans = 0L
    var v = 0
    while (v < n) {
      val cnt = bfs.run(g, alive, v, h, Budget.unlimited())
      scans += g.degree(v)
      var j = 0
      while (j < cnt) { if (bfs.nbrDist(j) < h) scans += g.degree(bfs.nbrs(j)); j += 1 }
      v += 1
    }
    put("hbfs.sweep_s", sweepS, "s")
    put("hbfs.ns_per_bfs", sweepS * 1e9 / n, "ns")
    put("hbfs.visits_per_s", sweeps.head._2 / sweepS, "1/s")
    put("hbfs.edge_scans_per_s", scans / sweepS, "1/s")

    // Bounds, each with its own Budget; the median-time call of three.
    final case class Bound(s: Double, visits: Long, bfs: Long, bytes: Long, values: Array[Int])
    def bound(name: String)(f: Budget => Array[Int]): Bound = {
      val reps = (0 until 3).map { _ =>
        val b = Budget.unlimited()
        val a0 = allocated
        val t0 = now
        val out = spans.span(name)(_ => f(b))
        Bound(secs(now - t0), b.visits, b.bfsCount, allocated - a0, out)
      }
      reps.sortBy(_.s).apply(1)
    }
    val lb1 = bound("Bounds.lb1")(b => Bounds.lb1(g, h, inst.seq, b))
    val lb2 = bound("Bounds.lb2")(b => Bounds.lb2(g, h, lb1.values, inst.seq, b))
    val ub = bound("Bounds.upperBound")(b => Bounds.upperBound(g, h, inst.seq, b))
    def tight(vals: Array[Int]): Double = core.indices.count(i => vals(i) == core(i)).toDouble / n
    for ((nm, b) <- Seq("lb1" -> lb1, "lb2" -> lb2, "ub" -> ub)) {
      put(s"bounds.${nm}_s", b.s, "s")
      put(s"bounds.${nm}_visits", b.visits.toDouble, "count")
    }
    put("bounds.lb2_tight_frac", tight(lb2.values), "ratio")
    put("bounds.ub_tight_frac", tight(ub.values), "ratio")

    // Traced then untraced run of each configuration. GC time is taken
    // over every decomposition from here on.
    val (gc0, decomps0) = (gcMillis, decompositions)
    def tracedRun(c: Config, inner: HDegEngine): Option[(Int, CoreResult, Long)] = {
      val eng = new TimedEngine(inner, spans)
      val root = spans.open(s"KHCore.decompose:${c.label}", -1)
      eng.parent = root
      val r = timed(c, inst, Some(eng))
      spans.close(root)
      r.map { case (res, _, bytes) => (root, res, bytes) }
    }
    def overhead(c: Config, tracedS: Double, untracedS: Double): Unit =
      put(s"trace.${c.metric.replace('.', '_').stripSuffix("_s")}_overhead_s", tracedS - untracedS, "s")

    val hlbRun = tracedRun(Hlb, inst.seq)
    val hlbubRun = tracedRun(HlbUb, inst.seq)
    val mtRun = tracedRun(HlbUbMt, inst.threaded)
    for ((c, r) <- Seq(Hlb -> hlbRun, HlbUb -> hlbubRun, HlbUbMt -> mtRun); (root, _, _) <- r; (_, ns, _) <- timed(c, inst))
      overhead(c, spans.seconds(root), secs(ns))

    // CoreDecomp and HDegEngine, from the traced sequential h-LB run.
    hlbRun.foreach { case (root, res, bytes) =>
      val kids = spans.children(root)
      val lb2Call = kids.find(spans.nameOf(_).startsWith("engine.batchNbrMax"))
      val recompute = kids.filter(spans.nameOf(_) == s"engine.batchHDeg.r$h")
      val sizes = recompute.map(spans.countOf)
      val busy = recompute.map(spans.seconds).sum
      val cdS = secs(spans.endOf(root) - lb2Call.fold(spans.startOf(root))(spans.endOf))
      val cdBfs = res.bfsCount - lb1.bfs - lb2.bfs
      put("coredecomp.s", cdS, "s")
      put("coredecomp.self_s", cdS - busy, "s")
      put("coredecomp.visits", (res.visits - lb1.visits - lb2.visits).toDouble, "count")
      put("coredecomp.bfs", cdBfs.toDouble, "count")
      put("coredecomp.recompute_bfs_frac", sizes.sum.toDouble / cdBfs, "ratio")
      put("coredecomp.alloc_mb", (bytes - lb1.bytes - lb2.bytes) / 1e6, "MB")
      put("engine.batches", sizes.length.toDouble, "count")
      put("engine.batch_vertices", sizes.sum.toDouble, "count")
      put("engine.batch_mean", sizes.sum.toDouble / math.max(1, sizes.length), "count")
      put("engine.small_batch_frac", sizes.count(_ < 32).toDouble / math.max(1, sizes.length), "ratio")
      put("engine.busy_s", busy, "s")
    }

    // The same h-LB batch sequence through the sequential and threaded engines.
    val cmp = new CompareEngine(inst.seq, inst.threaded, h)
    attempt("h-LB seq vs threaded batches")(KHCore.decompose(g, h, Algo.HLB, Some(cmp), budget()))
      .foreach(r => check(Hlb, r, inst))
    attempted += 1
    if (cmp.mismatches > 0) fail(s"threaded engine disagreed with sequential on ${cmp.mismatches} batches")
    put("engine.mt_busy_s", secs(cmp.parNs), "s")
    put("engine.mt_speedup", cmp.seqNs.toDouble / cmp.parNs, "ratio")
    put("engine.mt_efficiency", cmp.seqNs.toDouble / cmp.parNs / threads, "ratio")

    // HLBUB intervals: everything after UB, from the traced sequential run.
    hlbubRun.foreach { case (root, res, bytes) =>
      val kids = spans.children(root)
      val ubInit = kids.indexWhere(k => spans.nameOf(k) == s"engine.batchHDeg.r$h" && spans.countOf(k) == n)
      val firstInterval = if (ubInit >= 0 && ubInit + 1 < kids.length) spans.startOf(kids(ubInit + 1)) else spans.endOf(root)
      val intervalsS = secs(spans.endOf(root) - firstInterval)
      put("hlbub.intervals_s", intervalsS, "s")
      put("hlbub.intervals_visits", (res.visits - lb1.visits - lb2.visits - ub.visits).toDouble, "count")
      put("hlbub.alloc_mb", (bytes - lb1.bytes - lb2.bytes - ub.bytes) / 1e6, "MB")
      put("hlbub.accounted_frac", (lb1.s + lb2.s + ub.s + intervalsS) / spans.seconds(root), "ratio")
    }

    // Spark: untraced, then traced with the listener and the decorator.
    val untracedSpark = Config.spark.map(c => c -> timed(c, inst))
    for ((c, r) <- untracedSpark; (res, ns, _) <- r) {
      put(c.metric, secs(ns), "s")
      if (c == Partitioned) put("spark.partitioned_visits", res.visits.toDouble, "count")
    }
    val listener = new TaskListener
    sc.addSparkListener(listener)
    val part = SparkLayer.inGroup(spark, "partitioned")(timed(Partitioned, inst))
    val sparkEng = new TimedEngine(inst.sparkEngine, spans)
    val engRoot = spans.open(s"KHCore.decompose:${SparkHlbUb.label}", -1)
    sparkEng.parent = engRoot
    SparkLayer.inGroup(spark, "engine")(timed(SparkHlbUb, inst, Some(sparkEng)))
    spans.close(engRoot)
    listener.drain(spark)
    sc.removeSparkListener(listener)
    put("jvm.gc_s", (gcMillis - gc0) / 1e3 / (decompositions - decomps0), "s")
    val tasks = listener.tasksOf("partitioned")
    val taskS = tasks.map(_.millis / 1e3)
    put("spark.tasks", taskS.length.toDouble, "count")
    put("spark.task_s_sum", taskS.sum, "s")
    put("spark.task_s_max", if (taskS.isEmpty) Double.NaN else taskS.max, "s")
    put("spark.straggler", if (taskS.isEmpty) Double.NaN else taskS.max / math.max(median(taskS), 1e-3), "ratio")
    put("spark.result_mb", tasks.map(_.resultBytes).sum / 1e6, "MB")
    put("spark.engine.distributed_batches", listener.jobs("engine").toDouble, "count")
    for ((c, u) <- untracedSpark; (_, uns, _) <- u) {
      val tr = if (c == Partitioned) part.map(x => secs(x._2)) else Some(spans.seconds(engRoot))
      tr.foreach(t => overhead(c, t, secs(uns)))
    }

    // All-vertex radius-2 h-degrees: GraphX Pregel against SparkEngine.
    val all = Array.range(0, n)
    val t0 = now
    val engDeg = attempt("SparkEngine radius-2 h-degrees")(inst.sparkEngine.batchHDeg(g, alive, all, 2, Budget.unlimited()))
    put("spark.engine.hdeg2_s", secs(now - t0), "s")
    val t1 = now
    val pregelDeg = attempt("PregelHDeg radius-2 h-degrees")(PregelHDeg.hDegrees(spark, g, 2))
    put("pregel.hdeg2_s", secs(now - t1), "s")
    attempted += 1
    if (!(engDeg.isDefined && pregelDeg.isDefined && engDeg.get.sameElements(pregelDeg.get)))
      fail("PregelHDeg and SparkEngine radius-2 h-degrees differ")
    inst.sparkEngine.shutdown()

    val path = s"${args.out}/trace-${wl.name}-${args.seed}.csv"
    spans.write(path)
    log(s"${spans.length} spans written to $path")
  }
}
