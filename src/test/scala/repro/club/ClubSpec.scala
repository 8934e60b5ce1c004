package repro.club

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{AdjGraph, Bounds, Budget, BudgetExceeded, NaiveCore, SequentialEngine}
import repro.graphgen.GraphGen

/** Max h-club machinery: club checking, exact solvers (against brute force),
  * Theorem 3, and the Algorithm 7 wrapper.
  */
class ClubSpec extends AnyFunSuite {

  /** Brute-force maximum h-club by subset enumeration (n ≤ ~16). */
  private def bruteForceMaxClub(g: AdjGraph, h: Int): Int = {
    require(g.n <= 16)
    var best = 0
    var mask = 1
    while (mask < (1 << g.n)) {
      val size = Integer.bitCount(mask)
      if (size > best) {
        val inSet = Array.tabulate(g.n)(v => (mask & (1 << v)) != 0)
        if (HClub.isHClub(g, inSet, h)) best = size
      }
      mask += 1
    }
    best
  }

  test("isHClub basics: cliques, paths, stars") {
    val k5 = GraphGen.clique(5)
    assert(HClub.isHClub(k5, Array.fill(5)(true), 1))
    val p4 = GraphGen.path(4)
    assert(!HClub.isHClub(p4, Array.fill(4)(true), 2))
    assert(HClub.isHClub(p4, Array.fill(4)(true), 3))
    val s6 = GraphGen.star(6)
    assert(HClub.isHClub(s6, Array.fill(6)(true), 2))
  }

  test("isHClub uses induced distances, not graph distances") {
    // path 0-1-2: {0,2} is a 2-clique but NOT a 2-club (induced: disconnected)
    val g = GraphGen.path(3)
    val inSet = Array(true, false, true)
    assert(!HClub.isHClub(g, inSet, 2))
    assert(g.bfsDistances(0)(2) == 2) // ... even though d_G(0,2)=2
  }

  test("violatingPair returns None exactly on clubs") {
    val g = GraphGen.cycle(6) // diameter 3
    assert(HClub.violatingPair(g, Array.fill(6)(true), 2).isDefined)
    assert(HClub.violatingPair(g, Array.fill(6)(true), 3).isEmpty)
    val (u, w) = HClub.violatingPair(g, Array.fill(6)(true), 2).get
    // every vertex is a member, so induced distance = graph distance
    assert(g.bfsDistances(u)(w) > 2)
  }

  test("dropHeuristic always returns a valid h-club") {
    for (seed <- 1 to 8; h <- 2 to 3) {
      val g = GraphGen.randomConnected(25, 2.5, seed)
      val club = HClub.dropHeuristic(g, h)
      val inSet = Array.fill(g.n)(false)
      club.foreach(inSet(_) = true)
      assert(HClub.isHClub(g, inSet, h), s"seed=$seed h=$h")
      assert(club.nonEmpty)
    }
  }

  for (seed <- 1 to 10; h <- 2 to 3)
    test(s"BnB solver is exact vs brute force (seed $seed, h=$h)") {
      val g = GraphGen.randomConnected(12, 2.2, 50 + seed)
      val expected = bruteForceMaxClub(g, h)
      val got = BnBClubSolver.solve(g, h, 0, Budget.unlimited())
      assert(got.length == expected)
      val inSet = Array.fill(g.n)(false); got.foreach(inSet(_) = true)
      assert(HClub.isHClub(g, inSet, h))
    }

  for (seed <- 1 to 10; h <- 2 to 3)
    test(s"Iterative solver is exact vs brute force (seed $seed, h=$h)") {
      val g = GraphGen.randomConnected(12, 2.2, 70 + seed)
      val expected = bruteForceMaxClub(g, h)
      val got = IterativeClubSolver.solve(g, h, 0, Budget.unlimited())
      assert(got.length == expected)
    }

  for (seed <- 1 to 5; h <- 2 to 3)
    test(s"solvers agree on a mid-size graph (seed $seed, h=$h)") {
      val g = GraphGen.randomConnected(40, 2.5, 90 + seed)
      val a = BnBClubSolver.solve(g, h, 0, Budget.unlimited())
      val b = IterativeClubSolver.solve(g, h, 0, Budget.unlimited())
      assert(a.length == b.length)
    }

  // Reference member lists of DROP, DBC* and ITDBC*: a change to the search
  // order or tie-breaking shows up here, not just a change of club size.
  private val pinnedClubs = Seq(
    ("figure1", 2, "6,7,8,10,11", "4,6,7,8,9,12", "4,6,7,8,9,12"),
    ("figure1", 3, "2,3,4,5,6,7,8,9,10,11,12", "2,3,4,5,6,7,8,9,10,11,12",
     "2,3,4,5,6,7,8,9,10,11,12"),
    ("rc40-1", 2, "1,17,20,22,23,30,35", "1,17,20,22,23,30,35", "1,17,20,22,23,30,35"),
    ("rc40-1", 3, "1,8,9,14,15,17,20,22,23,30,35", "1,8,9,14,15,17,20,22,23,30,35",
     "1,8,9,14,15,17,20,22,23,30,35"),
    ("rc40-2", 2, "5,12,14,19,23,29,30", "5,12,14,19,23,29,30", "5,12,14,19,23,29,30"),
    ("rc40-2", 3, "1,6,9,12,15,20,25,26,29,31,33,34", "1,5,6,9,12,14,16,19,23,25,26,29,30,34",
     "1,5,6,9,12,14,16,19,23,25,26,29,30,34"),
    ("rc40-3", 2, "8,16,20,22,25,29", "8,20,22,23,25,27,29", "0,4,12,14,16,22,28"),
    ("rc40-3", 3, "1,4,8,14,16,19,20,21,22,23,25,27,28,29",
     "1,2,4,8,10,14,15,16,19,20,21,22,25,27,28,29", "1,2,4,8,10,14,15,16,19,20,21,22,25,27,28,29"))

  for ((name, h, drop, dbc, itdbc) <- pinnedClubs)
    test(s"pinned DROP, DBC* and ITDBC* members ($name, h=$h)") {
      val g = if (name == "figure1") GraphGen.figure1
              else GraphGen.randomConnected(40, 2.5, name.stripPrefix("rc40-").toLong)
      assert(HClub.dropHeuristic(g, h).mkString(",") == drop)
      assert(BnBClubSolver.solve(g, h, 0, Budget.unlimited()).mkString(",") == dbc)
      assert(IterativeClubSolver.solve(g, h, 0, Budget.unlimited()).mkString(",") == itdbc)
    }

  test("pinned DBC* members on the amzn analog (h=2)") {
    val club = BnBClubSolver.solve(repro.bench.Datasets("amzn"), 2, 0, Budget.unlimited())
    assert(club.mkString(",") == "294,413,1456,1609,1610,1611,1612,1613,2469,2779")
  }

  test("solver budget raises BudgetExceeded") {
    val g = GraphGen.communities(3, 15, 0.3, 0.05, 3)
    intercept[BudgetExceeded] {
      BnBClubSolver.solve(g, 2, 0, new Budget(maxVisits = 20000))
    }
  }

  test("a visit budget stops DBC* and ITDBC* at the same point on every run") {
    val g = GraphGen.communities(3, 15, 0.3, 0.05, 3)
    for (solver <- Seq[ClubSolver](BnBClubSolver, IterativeClubSolver)) {
      val stops = (1 to 2).map { _ =>
        val budget = new Budget(maxVisits = 1000000)
        intercept[BudgetExceeded](solver.solve(g, 2, 0, budget))
        (budget.visits, budget.bfsCount)
      }
      assert(stops(0)._1 > 1000000, solver.name)
      assert(stops(0) == stops(1), solver.name)
    }
  }

  test("ITDBC* charges its all-vertex h-degree batch to the budget") {
    // A budget the batch alone exceeds stops ITDBC* where it stops the
    // batch, part-way through it and before any search node.
    val g = GraphGen.randomConnected(200, 3.0, 1)
    val batch = Budget.unlimited()
    Bounds.hDegUB(g, 2, new SequentialEngine(g.n), batch)
    val limit = batch.visits / 2
    val alone = new Budget(maxVisits = limit)
    intercept[BudgetExceeded](Bounds.hDegUB(g, 2, new SequentialEngine(g.n), alone))
    val budget = new Budget(maxVisits = limit)
    intercept[BudgetExceeded](IterativeClubSolver.solve(g, 2, 0, budget))
    assert((budget.visits, budget.bfsCount) == ((alone.visits, alone.bfsCount)))
    assert(budget.bfsCount < g.n)
  }

  test("DBC* searches road graphs deeper than a small thread stack") {
    // Branching removes one vertex per level, so the search on a road
    // graph is about as deep as the graph is large. The budget covers the
    // 85 169 878 visits DBC* spends on its first 2 000 search nodes here.
    val budget = new Budget(maxVisits = 86000000L)
    var outcome: Throwable = null
    val t = new Thread(null, () => {
      try BnBClubSolver.solve(repro.bench.Datasets("rnTX"), 2, 0, budget)
      catch { case e: Throwable => outcome = e }
    }, "dbc-small-stack", 128L << 10)
    t.start(); t.join()
    assert(outcome.isInstanceOf[BudgetExceeded], s"got $outcome")
  }

  for (seed <- 1 to 6; h <- 2 to 3)
    test(s"Theorem 3: every h-club of size k+1 is inside the (k,h)-core (seed $seed, h=$h)") {
      val g = GraphGen.randomConnected(30, 3.0, 110 + seed)
      val core = NaiveCore.decompose(g, h)
      val club = BnBClubSolver.solve(g, h, 0, Budget.unlimited())
      val k = club.length - 1
      assert(club.forall(core(_) >= k))
    }

  for (seed <- 1 to 5; h <- 2 to 3;
       solver <- Seq[ClubSolver](BnBClubSolver, IterativeClubSolver))
    test(s"Algorithm 7 wrapper matches the plain solver (seed $seed, h=$h, ${solver.name})") {
      val g = GraphGen.randomConnected(35, 3.0, 130 + seed)
      val plain = BnBClubSolver.solve(g, h, 0, Budget.unlimited())
      val wrapped = CoreClubWrapper.solve(g, h, solver)
      assert(wrapped.length == plain.length)
      val inSet = Array.fill(g.n)(false); wrapped.foreach(inSet(_) = true)
      assert(HClub.isHClub(g, inSet, h))
    }

  test("Algorithm 7 charges the decomposition to the club deadline") {
    val g = GraphGen.randomConnected(35, 3.0, 131)
    var solverRan = false
    val solver = new ClubSolver {
      override def solve(g: AdjGraph, h: Int, incumbentSize: Int, budget: Budget): Array[Int] = {
        solverRan = true
        BnBClubSolver.solve(g, h, incumbentSize, budget)
      }
      override def name: String = "recording"
    }
    intercept[BudgetExceeded] {
      CoreClubWrapper.solve(g, 2, solver, new Budget(deadlineNanos = System.nanoTime() - 1))
    }
    assert(!solverRan)
  }

  test("Algorithm 7 on the Figure-1 graph (h=2)") {
    val g = GraphGen.figure1
    val club = CoreClubWrapper.solve(g, 2, BnBClubSolver)
    val plain = BnBClubSolver.solve(g, 2, 0, Budget.unlimited())
    assert(club.length == plain.length)
    // Theorem 2 chain: club size <= 1 + degeneracy = 7
    assert(club.length <= 7)
  }
}
