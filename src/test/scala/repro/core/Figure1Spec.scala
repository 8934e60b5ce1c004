package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graphgen.GraphGen

/** Regression tests against every fact the paper states about its Figure-1
  * example graph (Examples 1, 2, 3, 5 and §4.2). Paper vertex vi = our i-1.
  */
class Figure1Spec extends AnyFunSuite {
  private val g = GraphGen.figure1
  private def v(i: Int) = i - 1

  test("Example 1: the classic ((k,1)) core decomposition puts every vertex in core 2") {
    val core = NaiveCore.decompose(g, 1)
    assert(core.toSeq == Seq.fill(13)(2))
  }

  test("Example 1: the (k,2)-core indices are 4 / 5,5 / 6 x 10") {
    val core = NaiveCore.decompose(g, 2)
    assert(core(v(1)) == 4)
    assert(core(v(2)) == 5 && core(v(3)) == 5)
    assert((4 to 13).forall(i => core(v(i)) == 6))
  }

  test("Example 2: classic decomposition of the power graph G^2 overestimates v2, v3") {
    val p = GraphGen.powerGraph(g, 2)
    val coreP = NaiveCore.decompose(p, 1)
    assert(coreP(v(2)) == 6 && coreP(v(3)) == 6) // 6 in G^2 ...
    val core = NaiveCore.decompose(g, 2)
    assert(core(v(2)) == 5 && core(v(3)) == 5)   // ... but truly 5
    assert(coreP(v(1)) == 4)
  }

  test("Example 2: v2 and v3 are adjacent in G^2 only through v1") {
    val d23 = g.bfsDistances(v(2))(v(3))
    assert(d23 == 2)
    val aliveNo1 = Array.fill(13)(true); aliveNo1(v(1)) = false
    val (sub, ids) = g.induced(aliveNo1)
    val d = sub.bfsDistances(ids.indexOf(v(2)))(ids.indexOf(v(3)))
    assert(d > 2 || d == -1)
  }

  test("Example 3: LB1 values (h=2): LB1(v1)=LB1(v2)=2, LB1(v4)=5") {
    val eng = new SequentialEngine(g.n)
    val l1 = Bounds.lb1(g, 2, eng)
    assert(l1(v(1)) == 2 && l1(v(2)) == 2 && l1(v(4)) == 5)
  }

  test("Example 3: LB2(v2) = max(LB1(v2), LB1(v4)) = 5 (v4 is a 1-neighbor of v2)") {
    assert(g.adj(v(2)).contains(v(4)))
    val eng = new SequentialEngine(g.n)
    val (_, l2) = Bounds.lowerBounds(g, 2, eng)
    assert(l2(v(2)) == 5)
    assert(l2(v(1)) == 2) // h-LB example: v1 starts in bucket B[2]
  }

  test("§4.2 example: deg^2(v1) = 4, so h-LB moves v1 from B[2] to B[4]") {
    assert(Bounds.hDegUB(g, 2, new SequentialEngine(g.n))(v(1)) == 4)
  }

  test("Example 5: Algorithm 5 upper bounds: UB(v1)=4, UB(vi)=6 for i>=2") {
    val eng = new SequentialEngine(g.n)
    val ub = Bounds.upperBound(g, 2, eng)
    assert(ub(v(1)) == 4)
    assert((2 to 13).forall(i => ub(v(i)) == 6))
  }

  test("Example 5: cleaning V6 removes v2 and v3 (2-degree 5 < kmin 6 in G[V6])") {
    val v6 = (2 to 13).map(v).toArray
    val (sub, ids) = g.inducedOn(v6)
    val degs = Bounds.hDegUB(sub, 2, new SequentialEngine(sub.n))
    assert(degs(ids.indexOf(v(2))) == 5)
    assert(degs(ids.indexOf(v(3))) == 5)
    assert((4 to 13).forall(i => degs(ids.indexOf(v(i))) >= 6))
  }

  test("all three production algorithms agree with the expected (k,2) indices") {
    val expected = NaiveCore.decompose(g, 2).toSeq
    for (algo <- Seq[Algo](Algo.HBZ, Algo.HLB, Algo.HLB1,
                           Algo.HLBUB(Some(1)), Algo.HLBUB(Some(2)), Algo.HLBUBHDeg(None))) {
      val got = KHCore.decompose(g, 2, algo, budget = Budget.unlimited())
      assert(got.core.toSeq == expected, s"algo=$algo")
    }
  }

  test("(k,h)-cores for h in 3..5 are consistent across algorithms") {
    for (h <- 3 to 5) {
      val expected = NaiveCore.decompose(g, h).toSeq
      for (algo <- Seq[Algo](Algo.HBZ, Algo.HLB, Algo.HLBUB(None))) {
        val got = KHCore.decompose(g, h, algo, budget = Budget.unlimited())
        assert(got.core.toSeq == expected, s"h=$h algo=$algo")
      }
    }
  }
}
