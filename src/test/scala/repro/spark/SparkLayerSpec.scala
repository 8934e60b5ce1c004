package repro.spark

import repro.SparkSpec
import repro.core._
import repro.graphgen.GraphGen

/** Spark-side correctness: GraphX Pregel h-degrees, the distributed batch
  * engine, and the UB-interval partitioned decomposition all agree with the
  * sequential substrate.
  */
class SparkLayerSpec extends SparkSpec {

  test("Pregel h-degrees match local h-BFS on the Figure-1 graph") {
    val g = GraphGen.figure1
    for (h <- 1 to 4)
      assert(PregelHDeg.hDegrees(spark, g, h).toSeq == Bounds.hDegUB(g, h, new SequentialEngine(g.n)).toSeq, s"h=$h")
  }

  test("Pregel h-degrees match local h-BFS on random graphs") {
    for (seed <- 1 to 3; h <- Seq(2, 3)) {
      val g = GraphGen.randomConnected(80, 3.0, 20 + seed)
      assert(PregelHDeg.hDegrees(spark, g, h).toSeq == Bounds.hDegUB(g, h, new SequentialEngine(g.n)).toSeq,
             s"seed=$seed h=$h")
    }
  }

  test("Pregel h-degrees on a disconnected graph") {
    val g = GraphGen.er(40, 25, 99)
    assert(PregelHDeg.hDegrees(spark, g, 2).toSeq == Bounds.hDegUB(g, 2, new SequentialEngine(g.n)).toSeq)
  }

  test("SparkEngine batch h-degrees equal sequential engine output") {
    val g = GraphGen.communities(4, 40, 0.25, 0.01, 7)
    val eng = new SparkEngine(spark, g, minDistributedBatch = 8)
    try {
      val alive = Array.fill(g.n)(true)
      alive(3) = false; alive(10) = false
      val verts = (0 until g.n).filter(alive).toArray
      val seq = new SequentialEngine(g.n)
        .batchHDeg(g, alive, verts, 3, Budget.unlimited())
      val dist = eng.batchHDeg(g, alive, verts, 3, Budget.unlimited())
      assert(dist.toSeq == seq.toSeq)
    } finally eng.shutdown()
  }

  test("SparkEngine counts visits like the sequential engine") {
    val g = GraphGen.cycle(600)
    val eng = new SparkEngine(spark, g, minDistributedBatch = 8)
    try {
      val alive = Array.fill(g.n)(true)
      val verts = Array.range(0, g.n)
      val bSeq = Budget.unlimited()
      new SequentialEngine(g.n).batchHDeg(g, alive, verts, 2, bSeq)
      val bDist = Budget.unlimited()
      eng.batchHDeg(g, alive, verts, 2, bDist)
      assert(bDist.visits == bSeq.visits)
    } finally eng.shutdown()
  }

  test("SparkEngine batch above the default cutoff equals SequentialEngine in degrees, visits and BFS") {
    val g = GraphGen.ba(900, 4, 2, 17)
    val eng = new SparkEngine(spark, g)
    try {
      val alive = Array.tabulate(g.n)(_ % 9 != 4)
      val verts = Array.tabulate(1300)(i => (i * 7) % g.n)
      for (h <- Seq(2, 3)) {
        val bSeq = Budget.unlimited()
        val seq = new SequentialEngine(g.n).batchHDeg(g, alive, verts, h, bSeq)
        val bDist = Budget.unlimited()
        val dist = eng.batchHDeg(g, alive, verts, h, bDist)
        assert(dist.toSeq == seq.toSeq, s"h=$h")
        assert((bDist.visits, bDist.bfsCount) == ((bSeq.visits, bSeq.bfsCount)), s"h=$h")
      }
    } finally eng.shutdown()
  }

  test("SparkEngine stops a distributed batch at the caller's visit budget and deadline") {
    val g = GraphGen.ba(3000, 4, 2, 5)
    val eng = new SparkEngine(spark, g)
    try {
      val alive = Array.fill(g.n)(true)
      val all = Array.range(0, g.n)
      val full = Budget.unlimited()
      new SequentialEngine(g.n).batchHDeg(g, alive, all, 3, full)
      // Each task stops at most one 64-lane block past its budget.
      val bfs = new HBfs(g.n)
      val block = 64L * all.map(v => bfs.run(g, alive, v, 3, Budget.unlimited()) + 1).max
      val tasks = spark.sparkContext.defaultParallelism
      val b = new Budget(maxVisits = 1000)
      intercept[BudgetExceeded](eng.batchHDeg(g, alive, all, 3, b))
      assert(b.visits > 1000 && b.visits <= tasks * (1000 + block) && b.visits < full.visits,
             s"visits ${b.visits} of ${full.visits}, $tasks tasks, block $block")
      val late = new Budget(deadlineNanos = System.nanoTime())
      intercept[BudgetExceeded](eng.batchHDeg(g, alive, all, 3, late))
      assert(late.visits > 0 && late.visits <= tasks * block, s"visits ${late.visits}, $tasks tasks, block $block")
    } finally eng.shutdown()
  }

  test("SparkEngine rejects a graph other than its own") {
    val g = GraphGen.cycle(40)
    val other = GraphGen.path(40) // same n, different edges
    val eng = new SparkEngine(spark, g, minDistributedBatch = 8)
    try {
      intercept[IllegalArgumentException] {
        eng.batchHDeg(other, Array.fill(40)(true), Array.range(0, 40), 2, Budget.unlimited())
      }
    } finally eng.shutdown()
  }

  test("full decomposition with the SparkEngine plugged in matches naive") {
    val g = GraphGen.randomConnected(70, 3.5, 31)
    val expected = NaiveCore.decompose(g, 2).toSeq
    val eng = new SparkEngine(spark, g, minDistributedBatch = 16)
    try {
      val got = KHCore.decompose(g, 2, Algo.HLBUB(None), engine = Some(eng))
      assert(got.core.toSeq == expected)
    } finally eng.shutdown()
  }

  test("SparkPartitionedDecomp matches naive on canned graphs") {
    for ((name, g) <- Seq("figure1" -> GraphGen.figure1,
                          "petersen" -> GraphGen.petersen,
                          "grid" -> GraphGen.gridRoad(6, 6, 0.9, 3));
         h <- 2 to 3) {
      val expected = NaiveCore.decompose(g, h).toSeq
      val got = SparkPartitionedDecomp.decompose(spark, g, h)
      assert(got.core.toSeq == expected, s"$name h=$h")
      assert(Certify.check(g, h, got.core, got.order).isEmpty, s"$name h=$h")
    }
  }

  test("SparkPartitionedDecomp matches naive on random graphs for several S") {
    for (seed <- 1 to 3; s <- Seq(Some(1), Some(4), None)) {
      val g = GraphGen.randomConnected(50, 3.0, 40 + seed)
      val expected = NaiveCore.decompose(g, 2).toSeq
      val got = SparkPartitionedDecomp.decompose(spark, g, 2, s)
      assert(got.core.toSeq == expected, s"seed=$seed s=$s")
      assert(Certify.check(g, 2, got.core, got.order).isEmpty, s"seed=$seed s=$s")
    }
  }

  test("edge DataFrame round-trips to the same graph") {
    val g = GraphGen.ba(60, 3, 2, 5)
    val df = GraphDF.edgesDF(spark, g)
    val back = GraphDF.fromEdgesDF(df, g.n)
    assert(back.edges.toSeq == g.edges.toSeq)
  }

  test("Spark SQL degree histogram matches DuckDB (Oracle)") {
    import org.apache.spark.sql.functions._
    val g = GraphGen.communities(3, 20, 0.3, 0.02, 9)
    val edges = GraphDF.symmetricEdgesDF(spark, g)
    val sparkDf = edges.groupBy(col("src").as("vertex"))
      .agg(count(lit(1)).as("degree"))
    repro.Oracle.assertEquivalent(
      sparkDf,
      "SELECT src AS vertex, count(*) AS degree FROM edges GROUP BY src",
      "edges" -> edges)
  }

  test("Spark SQL aggregate degree stats match DuckDB (Oracle)") {
    import org.apache.spark.sql.functions._
    val g = GraphGen.er(50, 120, 17)
    val edges = GraphDF.symmetricEdgesDF(spark, g)
    val degrees = edges.groupBy(col("src")).agg(count(lit(1)).as("d"))
    val sparkDf = degrees.agg(avg("d").as("avg_deg"), max("d").as("max_deg"))
    repro.Oracle.assertEquivalent(
      sparkDf,
      """SELECT avg(d) AS avg_deg, max(d) AS max_deg FROM
        |  (SELECT src, count(*) AS d FROM edges GROUP BY src) t""".stripMargin,
      "edges" -> edges)
  }

  test("GraphDF.stats agrees with direct computation") {
    val g = GraphGen.gridRoad(8, 8, 0.9, 2)
    val s = GraphDF.stats(spark, g)
    assert(s.vertices == g.n)
    assert(s.edges == g.numEdges)
    assert(math.abs(s.avgDeg - 2.0 * g.numEdges / g.n) < 1e-9)
    assert(s.maxDeg == (0 until g.n).map(g.degree).max)
    assert(s.diameter == g.diameterExact())
    assert(s.diameterExact)
  }

  test("core-index DataFrame groups core sizes correctly (Oracle)") {
    import org.apache.spark.sql.functions._
    val g = GraphGen.figure1
    val core = KHCore.decompose(g, 2).core
    val df = GraphDF.coresDF(spark, core)
    val sparkDf = df.groupBy("core").agg(count(lit(1)).as("cnt"))
    repro.Oracle.assertEquivalent(
      sparkDf,
      "SELECT core, count(*) AS cnt FROM cores GROUP BY core",
      "cores" -> df)
  }
}
