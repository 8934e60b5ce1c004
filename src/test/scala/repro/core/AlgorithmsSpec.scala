package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graphgen.GraphGen

/** Cross-checks of every production algorithm against the naive reference on
  * canned and random graphs, for h in 1..5 — the core correctness suite.
  */
class AlgorithmsSpec extends AnyFunSuite {

  private val allAlgos: Seq[Algo] = Seq(
    Algo.HBZ, Algo.HLB, Algo.HLB1,
    Algo.HLBUB(Some(1)), Algo.HLBUB(Some(3)), Algo.HLBUB(None),
    Algo.HLBUBHDeg(Some(2)))

  /** The algorithms with a CoreDecomp phase, run as Alg. 3 is written: one
    * vertex per round instead of a whole bucket. */
  private val literalAlgos: Seq[Algo] = Seq(
    Algo.HLB, Algo.HLB1, Algo.HLBUB(Some(1)), Algo.HLBUB(None), Algo.HLBUBHDeg(Some(2)))

  private def checkAll(name: String, g: AdjGraph, hs: Seq[Int] = 1 to 5): Unit = {
    for (h <- hs) {
      val expected = NaiveCore.decompose(g, h).toSeq
      val runs = allAlgos.map(a => (s"$a", KHCore.decompose(g, h, a))) ++
        literalAlgos.map(a => (s"$a paper-literal", KHCore.decompose(g, h, a, paperLiteral = true)))
      for ((label, got) <- runs) {
        assert(got.core.toSeq == expected, s"$name h=$h algo=$label")
        assert(Certify.check(g, h, got.core, got.order).isEmpty, s"$name h=$h algo=$label")
      }
    }
  }

  test("empty graph")           { checkAll("empty", AdjGraph.empty(0), Seq(1, 2)) }
  test("isolated vertices")     { checkAll("isolated", AdjGraph.empty(5), Seq(1, 2, 3)) }
  test("single edge")           { checkAll("K2", GraphGen.clique(2)) }
  test("path of 10")            { checkAll("P10", GraphGen.path(10)) }
  test("cycle of 9")            { checkAll("C9", GraphGen.cycle(9)) }
  test("clique of 7")           { checkAll("K7", GraphGen.clique(7)) }
  test("star of 12")            { checkAll("S12", GraphGen.star(12)) }
  test("Petersen graph")        { checkAll("petersen", GraphGen.petersen) }
  test("two disjoint cliques")  {
    val edges = (for (a <- 0 until 5; b <- a + 1 until 5) yield (a, b)) ++
                (for (a <- 5 until 12; b <- a + 1 until 12) yield (a, b))
    checkAll("K5+K7", AdjGraph.fromEdges(12, edges))
  }
  test("clique with a pendant path") {
    val edges = (for (a <- 0 until 6; b <- a + 1 until 6) yield (a, b)) ++
                Seq((5, 6), (6, 7), (7, 8))
    checkAll("K6+path", AdjGraph.fromEdges(9, edges))
  }

  for (seed <- 1 to 8)
    test(s"random sparse ER graph, avg deg 2.5, seed $seed") {
      checkAll(s"er-sparse-$seed", GraphGen.randomConnected(35, 2.5, seed), 1 to 4)
    }

  for (seed <- 1 to 6)
    test(s"random denser ER graph, avg deg 5, seed $seed") {
      checkAll(s"er-dense-$seed", GraphGen.randomConnected(30, 5.0, seed), 1 to 4)
    }

  for (seed <- 1 to 5)
    test(s"random BA graph (hubs), seed $seed") {
      checkAll(s"ba-$seed", GraphGen.ba(35, 3, 2, seed), 1 to 4)
    }

  for (seed <- 1 to 5)
    test(s"random WS small world, seed $seed") {
      checkAll(s"ws-$seed", GraphGen.ws(30, 2, 0.2, seed), 1 to 4)
    }

  for (seed <- 1 to 3)
    test(s"grid road fragment, seed $seed") {
      checkAll(s"grid-$seed", GraphGen.gridRoad(6, 6, 0.85, seed), 1 to 5)
    }

  for (seed <- 1 to 5)
    test(s"disconnected random graph (no largest-component filter), seed $seed") {
      checkAll(s"er-disc-$seed", GraphGen.er(30, 25, seed), 1 to 3)
    }

  test("h=1 equals the classic core decomposition on the Figure-1 graph") {
    val g = GraphGen.figure1
    // classic BZ computed by simple degree peeling, independent of HBfs
    val degs = Array.tabulate(g.n)(g.degree)
    val alive = Array.fill(g.n)(true)
    val classic = new Array[Int](g.n)
    var k = 0
    for (_ <- 0 until g.n) {
      val v = (0 until g.n).filter(alive).minBy(degs)
      k = math.max(k, degs(v))
      classic(v) = k
      alive(v) = false
      g.adj(v).foreach(u => if (alive(u)) degs(u) -= 1)
    }
    val got = KHCore.decompose(g, 1, Algo.HLBUB(None))
    assert(got.core.toSeq == classic.toSeq)
  }

  test("multithreaded engine produces identical results to sequential") {
    val eng = new ThreadedEngine(200, threads = 8)
    try {
      for (seed <- 1 to 4; h <- 2 to 3) {
        val g = GraphGen.randomConnected(60, 4.0, 100 + seed)
        val seq = KHCore.decompose(g, h, Algo.HLBUB(None))
        for (algo <- Seq[Algo](Algo.HBZ, Algo.HLB, Algo.HLBUB(None))) {
          val par = KHCore.decompose(g, h, algo, engine = Some(eng))
          assert(par.core.toSeq == seq.core.toSeq, s"seed=$seed h=$h algo=$algo")
          if (algo != Algo.HBZ) {
            val one = if (algo == Algo.HLB) KHCore.decompose(g, h, algo) else seq
            assert(par.order.toSeq == one.order.toSeq, s"seed=$seed h=$h algo=$algo: order")
            assert((par.visits, par.bfsCount) == ((one.visits, one.bfsCount)),
                   s"seed=$seed h=$h algo=$algo: visits, BFS")
          }
        }
      }
    } finally eng.shutdown()
  }

  test("wall-clock budget aborts a decomposition with BudgetExceeded") {
    val g = GraphGen.communities(4, 30, 0.4, 0.01, 5)
    intercept[BudgetExceeded] {
      KHCore.decompose(g, 4, Algo.HBZ, budget = new Budget(maxVisits = 2000))
    }
  }

  test("threaded engine raises BudgetExceeded from its worker threads") {
    val g = GraphGen.communities(4, 30, 0.4, 0.01, 5)
    val eng = new ThreadedEngine(g.n, threads = 4)
    try {
      intercept[BudgetExceeded] {
        KHCore.decompose(g, 4, Algo.HBZ, Some(eng), new Budget(maxVisits = 2000))
      }
    } finally eng.shutdown()
  }

  /** One of each `Algo` case. */
  private val everyCase: Seq[Algo] =
    Seq(Algo.HBZ, Algo.HLB, Algo.HLB1, Algo.HLBUB(), Algo.HLBUBHDeg())

  test("h = 0 is rejected for every algorithm, the empty graph included") {
    for (g <- Seq(GraphGen.figure1, AdjGraph.empty(0)); algo <- everyCase)
      intercept[IllegalArgumentException] { KHCore.decompose(g, 0, algo) }
  }

  test("the shared all-alive mask stays all true after every algorithm and bound, on both engines") {
    val g = GraphGen.randomConnected(200, 4.0, 7)
    val threaded = new ThreadedEngine(g.n, threads = 4)
    def allAlive(what: String): Unit = assert(g.all.forall(identity), what)
    try {
      for (eng <- Seq[HDegEngine](new SequentialEngine(g.n), threaded); h <- 1 to 3) {
        for (algo <- everyCase; literal <- Seq(false, true)) {
          KHCore.decompose(g, h, algo, Some(eng), paperLiteral = literal)
          allAlive(s"$algo paperLiteral=$literal h=$h on $eng")
        }
        val l1 = Bounds.lb1(g, h, eng)
        allAlive(s"lb1 h=$h on $eng")
        Bounds.lb2(g, h, l1, eng)
        allAlive(s"lb2 h=$h on $eng")
        Bounds.hDegUB(g, h, eng)
        allAlive(s"hDegUB h=$h on $eng")
        for (literal <- Seq(false, true)) {
          Bounds.upperBound(g, h, eng, paperLiteral = literal)
          allAlive(s"upperBound paperLiteral=$literal h=$h on $eng")
        }
      }
    } finally threaded.shutdown()
  }

  test("CoreResult helpers: maxCore, distinctCores, coreVertices") {
    val g = GraphGen.figure1
    val r = KHCore.decompose(g, 2)
    assert(r.maxCore == 6)
    assert(r.distinctCores == 3) // cores 4, 5, 6
    assert(r.coreVertices(6).length == 10)
    assert(r.coreVertices(5).length == 12)
    assert(r.coreVertices(4).length == 13)
    assert(r.coreVertices(0).length == 13 && r.coreVertices(7).isEmpty)
  }
}
