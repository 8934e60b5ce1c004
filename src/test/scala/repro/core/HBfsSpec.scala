package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graphgen.GraphGen
import scala.util.Random

class HBfsSpec extends AnyFunSuite {

  private def naiveHDeg(g: AdjGraph, alive: Array[Boolean], v: Int, h: Int): Int = {
    // reference: full BFS on the alive-induced subgraph
    val (sub, ids) = g.induced(alive.clone match { case a => a(v) = true; a })
    val newV = ids.indexOf(v)
    sub.bfsDistances(newV).count(d => d >= 1 && d <= h)
  }

  test("h-degree on a path for growing h") {
    val g = GraphGen.path(7)
    val alive = Array.fill(7)(true)
    val bfs = new HBfs(7)
    val budget = Budget.unlimited()
    assert(bfs.run(g, alive, 0, 1, budget) == 1)
    assert(bfs.run(g, alive, 0, 3, budget) == 3)
    assert(bfs.run(g, alive, 3, 2, budget) == 4)
    assert(bfs.run(g, alive, 3, 100, budget) == 6)
  }

  test("neighborhood distances are correct") {
    val g = GraphGen.cycle(8)
    val bfs = new HBfs(8)
    val cnt = bfs.run(g, Array.fill(8)(true), 0, 2, Budget.unlimited())
    val got = (0 until cnt).map(i => bfs.nbrs(i) -> bfs.nbrDist(i)).toMap
    assert(got == Map(1 -> 1, 7 -> 1, 2 -> 2, 6 -> 2))
  }

  test("dead vertices are not traversed nor counted") {
    val g = GraphGen.path(5) // 0-1-2-3-4
    val alive = Array(true, false, true, true, true)
    val bfs = new HBfs(5)
    // with 1 dead, 0 is cut off from the rest
    assert(bfs.run(g, alive, 0, 4, Budget.unlimited()) == 0)
    assert(bfs.run(g, alive, 2, 4, Budget.unlimited()) == 2)
  }

  test("the source is traversed even when flagged dead (peeling contract)") {
    val g = GraphGen.path(3)
    val alive = Array(true, false, true)
    val bfs = new HBfs(3)
    assert(bfs.run(g, alive, 1, 1, Budget.unlimited()) == 2)
  }

  test("visit accounting: one visit per enqueued vertex") {
    val g = GraphGen.star(5)
    val budget = Budget.unlimited()
    val bfs = new HBfs(5)
    bfs.run(g, Array.fill(5)(true), 0, 1, budget)
    assert(budget.visits == 5) // source + 4 leaves
    assert(budget.bfsCount == 1)
  }

  test("budget exceeded raises BudgetExceeded") {
    val g = GraphGen.clique(20)
    val budget = new Budget(maxVisits = 10)
    val bfs = new HBfs(20)
    intercept[BudgetExceeded] { bfs.run(g, Array.fill(20)(true), 0, 1, budget) }
  }

  test("h-degree matches induced-subgraph BFS on random graphs and masks") {
    val rnd = new Random(7)
    for (trial <- 1 to 20) {
      val g = GraphGen.randomConnected(40, 2.5, trial)
      val alive = Array.fill(g.n)(rnd.nextDouble() > 0.25)
      val bfs = new HBfs(g.n)
      for (h <- 1 to 4; v <- 0 until g.n if alive(v)) {
        assert(bfs.run(g, alive, v, h, Budget.unlimited()) == naiveHDeg(g, alive, v, h),
               s"trial=$trial v=$v h=$h")
      }
    }
  }

  test("a capped run is exact or counts [cap, h-degree], with no more visits") {
    val rnd = new Random(17)
    for (trial <- 1 to 12) {
      val g = if (trial % 2 == 0) GraphGen.randomConnected(40, 3.0, trial) else GraphGen.ba(40, 3, 2, trial)
      val alive = Array.fill(g.n)(rnd.nextDouble() > 0.2)
      val bfs = new HBfs(g.n)
      for (h <- 1 to 4; v <- 0 until g.n) {
        val exact = Budget.unlimited()
        val e = bfs.run(g, alive, v, h, exact)
        for (cap <- 1 to g.n) {
          val b = Budget.unlimited()
          val d = bfs.run(g, alive, v, h, b, cap)
          val clue = s"trial=$trial v=$v h=$h cap=$cap"
          if (d >= 0) assert(d == e, clue)
          else assert(~d >= cap && ~d <= e && bfs.nbrCount == ~d, clue)
          assert(b.visits <= exact.visits && b.bfsCount == 1, clue)
        }
      }
    }
  }

  test("runs across the stamp wrap equal a fresh HBfs") {
    val g = GraphGen.randomConnected(60, 3.0, 11)
    val alive = Array.fill(g.n)(true)
    val bfs = new HBfs(g.n)
    bfs.run(g, alive, 0, 3, Budget.unlimited()) // stamps 0's ball with 1
    bfs.stampForTest(-3)
    for (v <- 0 until 8) {
      val fresh = new HBfs(g.n)
      val expected = fresh.run(g, alive, v, 3, Budget.unlimited())
      assert(bfs.run(g, alive, v, 3, Budget.unlimited()) == expected, s"v=$v")
      assert(bfs.nbrs.take(expected).toSet == fresh.nbrs.take(expected).toSet, s"v=$v")
    }
  }

  test("Bounds.hDegUB matches per-vertex runs") {
    assert(Bounds.hDegUB(GraphGen.petersen, 2, new SequentialEngine(10)).toSeq == Seq.fill(10)(9)) // diameter 2
    val g = GraphGen.randomConnected(60, 3.0, 4)
    val alive = Array.fill(g.n)(true)
    val bfs = new HBfs(g.n)
    for (h <- 1 to 3)
      assert(Bounds.hDegUB(g, h, new SequentialEngine(g.n)).toSeq ==
             (0 until g.n).map(bfs.run(g, alive, _, h, Budget.unlimited())), s"h=$h")
  }

  test("run lists the h-neighbours of a path vertex") {
    val g = GraphGen.path(6)
    val bfs = new HBfs(6)
    val cnt = bfs.run(g, Array.fill(6)(true), 2, 2, Budget.unlimited())
    assert(bfs.nbrs.take(cnt).toSet == Set(0, 1, 3, 4))
  }
}
