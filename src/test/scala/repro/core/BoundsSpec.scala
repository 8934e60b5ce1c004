package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graphgen.GraphGen

/** Properties of the LB1/LB2 lower bounds (Obs. 1–2), the Alg. 5 upper
  * bound, and the h-degree trivial upper bound, plus the Obs. 3 partition
  * machinery of h-LB+UB.
  */
class BoundsSpec extends AnyFunSuite {

  private def graphs = Seq(
    "figure1" -> GraphGen.figure1,
    "petersen" -> GraphGen.petersen,
    "er" -> GraphGen.randomConnected(40, 3.0, 11),
    "ba" -> GraphGen.ba(40, 3, 2, 12),
    "grid" -> GraphGen.gridRoad(6, 7, 0.9, 13),
    "comm" -> GraphGen.communities(3, 12, 0.4, 0.03, 14))

  // UpperBound in level-synchronous rounds (the default) and as Alg. 5 is
  // written.
  for ((name, g) <- graphs; h <- 2 to 4; paperLiteral <- Seq(false, true))
    test(s"bound sandwich LB1 <= LB2 <= core <= UB <= h-degree ($name, h=$h" +
         (if (paperLiteral) ", paper-literal UB)" else ")")) {
      val eng = new SequentialEngine(g.n)
      val core = NaiveCore.decompose(g, h)
      val (l1, l2) = Bounds.lowerBounds(g, h, eng)
      val ub = Bounds.upperBound(g, h, eng, paperLiteral = paperLiteral)
      val hd = Bounds.hDegUB(g, h, eng)
      for (v <- 0 until g.n) {
        assert(l1(v) <= l2(v), s"v=$v LB1>LB2")
        assert(l2(v) <= core(v), s"v=$v LB2>core")
        assert(core(v) <= ub(v), s"v=$v core>UB")
        assert(ub(v) <= hd(v), s"v=$v UB>h-degree")
      }
    }

  test("LB1 at h=1 is identically zero (radius 0 neighborhood is empty)") {
    val g = GraphGen.clique(5)
    assert(Bounds.lb1(g, 1, new SequentialEngine(5)).toSeq == Seq.fill(5)(0))
  }

  test("LB1 at h=2,3 equals the plain degree (radius 1)") {
    for ((name, g) <- graphs; h <- Seq(2, 3)) {
      val l1 = Bounds.lb1(g, h, new SequentialEngine(g.n))
      assert(l1.toSeq == (0 until g.n).map(g.degree), s"$name h=$h")
    }
  }

  test("LB1 at h=4,5 equals the 2-degree") {
    for ((name, g) <- graphs; h <- Seq(4, 5)) {
      val eng = new SequentialEngine(g.n)
      assert(Bounds.lb1(g, h, eng).toSeq == Bounds.hDegUB(g, 2, eng).toSeq, s"$name h=$h")
    }
  }

  test("LB2 is the max LB1 over the ceil(h/2)-ball (naive recomputation)") {
    for ((name, g) <- graphs; h <- 1 to 6) {
      val eng = new SequentialEngine(g.n)
      val (l1, l2) = Bounds.lowerBounds(g, h, eng)
      val r = (h + 1) / 2
      for (v <- 0 until g.n) {
        val ball = g.bfsDistances(v).zipWithIndex.collect {
          case (d, u) if d >= 0 && d <= r => u
        }
        assert(l2(v) == ball.map(l1).max, s"$name h=$h v=$v")
      }
    }
  }

  test("LB2 charges no visits and no BFS, and honours a past deadline") {
    for ((name, g) <- graphs; h <- 1 to 6) {
      val eng = new SequentialEngine(g.n)
      val l1 = Bounds.lb1(g, h, eng)
      val b = Budget.unlimited()
      Bounds.lb2(g, h, l1, eng, b)
      assert((b.visits, b.bfsCount) == (0L, 0L), s"$name h=$h")
      intercept[BudgetExceeded](Bounds.lb2(g, h, l1, eng, new Budget(deadlineNanos = System.nanoTime() - 1)))
    }
  }

  test("LB2 allocates only its vertex list and its output on a warmed thread") {
    val threadMx =
      java.lang.management.ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    val g = GraphGen.gridRoad(100, 100, 0.9, 7)
    val eng = new SequentialEngine(g.n)
    for (h <- Seq(2, 4, 6)) {
      val l1 = Bounds.lb1(g, h, eng)
      Bounds.lb2(g, h, l1, eng)
      Bounds.lb2(g, h, l1, eng)
      val a0 = threadMx.getCurrentThreadAllocatedBytes
      Bounds.lb2(g, h, l1, eng)
      val bytes = threadMx.getCurrentThreadAllocatedBytes - a0
      // Two n-long Int arrays; the all-alive mask is the graph's own.
      assert(bytes <= 8L * g.n + 4096, s"h=$h: $bytes bytes for n = ${g.n}")
    }
  }

  test("UB on the power graph strawman: matches classic core of G^h when no vertex is removed early") {
    // On a clique everything is symmetric: UB = core = n-1 for any h.
    val g = GraphGen.clique(8)
    for (h <- 1 to 3) {
      val ub = Bounds.upperBound(g, h, new SequentialEngine(8))
      assert(ub.toSeq == Seq.fill(8)(7), s"h=$h")
    }
  }

  test("UB is tight on vertex-transitive graphs (cycle, Petersen)") {
    for ((g, h) <- Seq((GraphGen.cycle(12), 2), (GraphGen.petersen, 2))) {
      val core = NaiveCore.decompose(g, h)
      val ub = Bounds.upperBound(g, h, new SequentialEngine(g.n))
      assert(ub.toSeq == core.toSeq)
    }
  }

  test("interval construction reproduces Example 4") {
    // U = {5,10,15,20,25,30}, lb0 = 3, so the appended element is 2.
    val u = Array(30, 25, 20, 15, 10, 5, 2)
    assert(HLBUB.intervals(u, 2) == Seq((21, 30), (11, 20), (3, 10)))
    assert(HLBUB.intervals(u, 1) ==
      Seq((26, 30), (21, 25), (16, 20), (11, 15), (6, 10), (3, 5)))
  }

  test("intervals tile the range with no gaps or overlaps") {
    for (s <- 1 to 5) {
      val u = Array(17, 13, 12, 9, 5, 4, 1)
      val iv = HLBUB.intervals(u, s)
      assert(iv.head._2 == 17)
      assert(iv.last._1 == 2)
      for (Seq((kminHi, _), (_, kmaxLo)) <- iv.sliding(2).toSeq.collect { case Seq(a, b) => Seq(a, b) })
        assert(kmaxLo == kminHi - 1, s"s=$s iv=$iv")
    }
  }

  test("descendingDistinct equals the boxed distinct-and-sort of UB and min LB2 − 1") {
    val rnd = new scala.util.Random(3)
    for (trial <- 0 until 200) {
      val n = 1 + rnd.nextInt(60)
      val range = 1 + rnd.nextInt(40)
      val ub = Array.fill(n)(rnd.nextInt(range))
      val lb2 = Array.fill(n)(rnd.nextInt(range))
      val boxed = (ub.distinct :+ (lb2.min - 1)).distinct.sortBy(-_)
      assert(HLBUB.descendingDistinct(ub, lb2.min - 1).toSeq == boxed.toSeq, s"trial $trial")
    }
  }

  test("Property 3 (LB3 base): min h-degree of any induced subgraph lower-bounds core indices") {
    val rnd = new scala.util.Random(5)
    for ((name, g) <- graphs; h <- 2 to 3) {
      val core = NaiveCore.decompose(g, h)
      for (_ <- 1 to 5) {
        val keep = Array.fill(g.n)(rnd.nextDouble() > 0.3)
        if (keep.exists(identity)) {
          val degs = NaiveCore.hDegrees(g, keep, h)
          val minDeg = (0 until g.n).filter(keep).map(degs).min
          for (v <- 0 until g.n if keep(v))
            assert(core(v) >= minDeg, s"$name h=$h v=$v")
        }
      }
    }
  }

  test("Observation 3: all (k,h)-cores with k >= i are inside V[i] = {UB >= i}") {
    for ((name, g) <- graphs; h <- 2 to 3) {
      val core = NaiveCore.decompose(g, h)
      val ub = Bounds.upperBound(g, h, new SequentialEngine(g.n))
      for (i <- 1 to core.max; v <- 0 until g.n if core(v) >= i)
        assert(ub(v) >= i, s"$name h=$h v=$v i=$i")
    }
  }
}
