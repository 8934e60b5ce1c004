package repro

import repro.core._
import repro.graphgen.GraphGen
import repro.spark.SparkPartitionedDecomp

/** Pins the exact h-BFS work (Table 3 visits and BFS count) of the
  * bucket-peeling loops (h-BZ, h-LB, UpperBound) and of the h-LB+UB
  * interval paths, sequential and Spark. The core indices are
  * checked elsewhere; these counters catch a change that keeps the result
  * but silently moves work between bounds, ImproveLB and peeling.
  *
  * The values recorded before level-synchronous rounds existed are checked
  * on the paper-literal path (one vertex per UpperBound and CoreDecomp
  * round); the default round path has its own rows.
  *
  * The h-LB+UB values recorded are those of Alg. 6 as written, which measures every
  * vertex of V[kmin]. The sequential paths skip the vertices a higher
  * interval has already assigned; their counters plus exactly that skipped
  * work must give the recorded values. Spark tasks know of no other
  * interval and skip nothing.
  *
  * Every row that runs LB2 was re-recorded when LB2 became a max pass over
  * closed neighbourhoods, which runs no h-BFS: each fell by exactly the
  * old LB2 cost, one ⌈h/2⌉-BFS per vertex (figure1 51 visits in 13 BFS,
  * ba-120 3 334 in 120).
  */
class WorkCountersSpec extends SparkSpec {

  private val graphs = Seq(
    ("figure1", 2, GraphGen.figure1),
    ("ba-120", 3, GraphGen.ba(120, 4, 2, 11)))

  /** (graph, path) -> (visits, bfsCount), recorded before the sequential
    * and Spark paths were merged onto one interval routine. The hDegUB rows
    * were re-recorded when ImproveLB's clean-up moved onto the shared
    * CoreDecomp peel: it still spends one h-BFS per removed vertex (the
    * BFS counts hold), but removes in bucket order instead of FIFO order,
    * so each removal's h-BFS runs on a different alive set. */
  private val expected: Map[(String, String), (Long, Long)] = Map(
    ("figure1", "h-LB+UB S=None") -> (669L, 107L),
    ("figure1", "h-LB+UB S=1")    -> (669L, 107L),
    ("figure1", "h-LB+UB hDegUB") -> (785L, 136L),
    ("figure1", "Spark S=None")   -> (684L, 109L),
    ("figure1", "Spark S=1")      -> (684L, 109L),
    ("ba-120", "h-LB+UB S=None")  -> (149125L, 2381L),
    ("ba-120", "h-LB+UB S=1")     -> (208877L, 3123L),
    ("ba-120", "h-LB+UB hDegUB")  -> (144728L, 2728L),
    ("ba-120", "Spark S=None")    -> (227481L, 3317L),
    ("ba-120", "Spark S=1")       -> (349064L, 4829L))

  /** (visits, bfsCount) of the ImproveLB h-BFS skipped by the sequential
    * path: per interval, one h-BFS in G[V[kmin]] from every vertex of
    * V[kmin] whose core index exceeds kmax. */
  private def skippedWork(g: AdjGraph, h: Int, core: Array[Int],
                          s: Option[Int], useHDegAsUB: Boolean): (Long, Long) = {
    val plan = HLBUB.plan(g, h, new SequentialEngine(g.n), Budget.unlimited(), s, useHDegAsUB,
                          paperLiteral = true)
    val bfs = new HBfs(g.n)
    val budget = Budget.unlimited()
    for ((kmin, kmax) <- plan.intervals) {
      val alive = Array.tabulate(g.n)(v => plan.ub(v) >= kmin)
      for (v <- 0 until g.n if alive(v) && core(v) > kmax) bfs.run(g, alive, v, h, budget)
    }
    (budget.visits, budget.bfsCount)
  }

  /** (graph, path) -> (visits, bfsCount) of the three bucket-peeling
    * loops, h-BZ (Alg. 1), h-LB's CoreDecomp (Alg. 3) and UpperBound
    * (Alg. 5), recorded while each still had its own loop. */
  private val expectedPeel: Map[(String, String), (Long, Long)] = Map(
    ("figure1", "h-BZ")       -> (409L, 67L),
    ("figure1", "h-LB")       -> (292L, 56L),
    ("figure1", "UpperBound") -> (166L, 26L),
    ("ba-120", "h-BZ")        -> (271190L, 3891L),
    ("ba-120", "h-LB")        -> (84060L, 1490L),
    ("ba-120", "UpperBound")  -> (14305L, 240L))

  for ((name, h, g) <- graphs) {
    def exact(algo: Algo)(b: Budget): Unit =
      assert(KHCore.decompose(g, h, algo, budget = b, paperLiteral = true).core.toSeq ==
             NaiveCore.decompose(g, h).toSeq)
    val peels: Seq[(String, Budget => Unit)] = Seq(
      "h-BZ" -> exact(Algo.HBZ),
      "h-LB" -> exact(Algo.HLB),
      "UpperBound" -> (b => Bounds.upperBound(g, h, new SequentialEngine(g.n), b, paperLiteral = true)))
    for ((path, run) <- peels)
      test(s"work counters of $path on $name (h=$h)") {
        val b = Budget.unlimited()
        run(b)
        assert((b.visits, b.bfsCount) == expectedPeel((name, path)))
      }
  }

  test("UpperBound values on figure1 (h=2)") {
    val g = GraphGen.figure1
    val expectedUB = 4 +: Seq.fill(12)(6)
    for (paperLiteral <- Seq(true, false))
      assert(Bounds.upperBound(g, 2, new SequentialEngine(g.n), paperLiteral = paperLiteral).toSeq == expectedUB,
             s"paperLiteral=$paperLiteral")
  }

  for ((name, h, g) <- graphs) {
    // (path, run, Some((S, useHDegAsUB)) for the sequential paths)
    val paths: Seq[(String, () => CoreResult, Option[(Option[Int], Boolean)])] = Seq(
      ("h-LB+UB S=None", () => KHCore.decompose(g, h, Algo.HLBUB(None), paperLiteral = true),
       Some((None, false))),
      ("h-LB+UB S=1", () => KHCore.decompose(g, h, Algo.HLBUB(Some(1)), paperLiteral = true),
       Some((Some(1), false))),
      ("h-LB+UB hDegUB", () => KHCore.decompose(g, h, Algo.HLBUBHDeg(None), paperLiteral = true),
       Some((None, true))),
      ("Spark S=None", () => SparkPartitionedDecomp.decompose(spark, g, h), None),
      ("Spark S=1", () => SparkPartitionedDecomp.decompose(spark, g, h, Some(1)), None))
    for ((path, run, sequential) <- paths)
      test(s"work counters of $path on $name (h=$h)") {
        val r = run()
        val core = NaiveCore.decompose(g, h)
        assert(r.core.toSeq == core.toSeq)
        val (skippedVisits, skippedBfs) = sequential match {
          case Some((s, useHDegAsUB)) => skippedWork(g, h, core, s, useHDegAsUB)
          case None => (0L, 0L)
        }
        assert((r.visits + skippedVisits, r.bfsCount + skippedBfs) == expected((name, path)))
      }
  }

  /** (graph, path) -> (visits, bfsCount) of the default level-synchronous
    * rounds. h-LB's were recorded when rounds were introduced; round
    * discovery through the 64-lane kernel left them unchanged. The h-LB+UB
    * rows were re-recorded when UpperBound moved to rounds (its discovery
    * h-BFS pass through P, and its values, so the intervals, change) and
    * rounds began to reuse ImproveLB's exact h-degrees (fewer measures).
    * The hDegUB rows were re-recorded when the default began to double its
    * width after an interval that assigns no vertex: the h-degree bound
    * overshoots the cores, so its top intervals are empty. The hDegUB rows
    * and ba-120's S=1 row were re-recorded when ImproveLB's clean-up moved
    * onto the shared CoreDecomp peel: it still spends one h-BFS per
    * removed vertex (the BFS counts hold), but a round's discovery h-BFS
    * run with the whole round still alive, where the old FIFO removed one
    * vertex before the next one's h-BFS. ba-120's h-LB row was re-recorded
    * when h-LB began to cap its re-measures (a flagged vertex's h-BFS stops
    * once it proves the vertex survives the level, see [[CoreDecomp]]):
    * (49 021, 784) → (47 722, 791), 1 299 visits fewer for 7 more BFS,
    * since a capped vertex is measured again, exactly, when it is popped.
    * figure1's h-LB row did not move. Every h-LB and h-LB+UB row was
    * re-recorded when the default peels began to bound each reached
    * vertex's loss instead of re-measuring it (see [[CoreDecomp]]); the
    * UpperBound rows did not move. Before → after:
    *  - figure1: h-LB (268, 46) → (258, 45), h-LB+UB S=None and S=1
    *    (555, 85) → (545, 84), hDegUB (510, 80) → (500, 79);
    *  - ba-120: h-LB (47 722, 791) → (29 549, 568), S=None (53 622, 917)
    *    → (47 339, 841), S=1 (50 231, 891) → (47 875, 860), hDegUB
    *    (68 553, 1 147) → (58 491, 1 025). */
  private val expectedRounds: Map[(String, String), (Long, Long)] = Map(
    ("figure1", "h-LB")           -> (258L, 45L),
    ("figure1", "h-LB+UB S=None") -> (545L, 84L),
    ("figure1", "h-LB+UB S=1")    -> (545L, 84L),
    ("figure1", "h-LB+UB hDegUB") -> (500L, 79L),
    ("figure1", "UpperBound")     -> (182L, 26L),
    ("ba-120", "h-LB")            -> (29549L, 568L),
    ("ba-120", "h-LB+UB S=None")  -> (47339L, 841L),
    ("ba-120", "h-LB+UB S=1")     -> (47875L, 860L),
    ("ba-120", "h-LB+UB hDegUB")  -> (58491L, 1025L),
    ("ba-120", "UpperBound")      -> (16286L, 240L))

  for ((name, h, g) <- graphs; (path, algo) <- Seq(
         "h-LB" -> Algo.HLB, "h-LB+UB S=None" -> Algo.HLBUB(None),
         "h-LB+UB S=1" -> Algo.HLBUB(Some(1)), "h-LB+UB hDegUB" -> Algo.HLBUBHDeg(None)))
    test(s"work counters of $path in rounds on $name (h=$h)") {
      val r = KHCore.decompose(g, h, algo)
      assert(r.core.toSeq == NaiveCore.decompose(g, h).toSeq)
      assert((r.visits, r.bfsCount) == expectedRounds((name, path)))
    }

  for ((name, h, g) <- graphs)
    test(s"work counters of UpperBound in rounds on $name (h=$h)") {
      val b = Budget.unlimited()
      val ub = Bounds.upperBound(g, h, new SequentialEngine(g.n), b)
      val core = NaiveCore.decompose(g, h)
      assert(core.indices.forall(v => core(v) <= ub(v)))
      assert((b.visits, b.bfsCount) == expectedRounds((name, "UpperBound")))
    }

  test("a visit budget raises BudgetExceeded in the middle of a round") {
    // C30 at h=2: LB1 = LB2 = 2, every h-degree is 4. h-LB spends 60 BFS
    // (240 visits) on LB1 and one batch measuring all 30 vertices (LB2
    // spends none), then peels all 30 in one round at k = 4, one 5-visit
    // discovery BFS each, run as one 30-lane block that charges its 150
    // visits at once. A budget of 380 visits is exceeded by that block,
    // before P is removed.
    val g = GraphGen.cycle(30)
    val full = KHCore.decompose(g, 2, Algo.HLB)
    assert(full.core.forall(_ == 4) && (full.visits, full.bfsCount) == (390L, 90L))
    val b = new Budget(maxVisits = 380)
    intercept[BudgetExceeded](KHCore.decompose(g, 2, Algo.HLB, budget = b))
    assert((b.visits, b.bfsCount) == (390L, 90L))
  }
}
