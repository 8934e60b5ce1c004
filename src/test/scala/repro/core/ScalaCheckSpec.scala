package repro.core

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.graphgen.GraphGen

/** ScalaCheck-generator property suite over random graphs: the invariants
  * of §3 and the bound relations of §4 must hold for *every* graph.
  * (Plain ScalaCheck Gen sampling — the scalatestplus bridge is not among
  * the offline deps.)
  */
class ScalaCheckSpec extends AnyFunSuite {

  private val genGraphH: Gen[(AdjGraph, Int)] = for {
    n <- Gen.choose(2, 28)
    extra <- Gen.choose(0, 2 * n)
    seed <- Gen.choose(0L, 100000L)
    h <- Gen.choose(1, 4)
  } yield (GraphGen.er(n, math.min(n - 1 + extra, n.toLong * (n - 1) / 2).toInt, seed), h)

  private def forAllSampled[A](gen: Gen[A], cases: Int = 30)(f: A => Unit): Unit = {
    var seed = Seed(20260816L)
    var i = 0
    while (i < cases) {
      gen.apply(Gen.Parameters.default, seed).foreach(f)
      seed = seed.next
      i += 1
    }
  }

  test("property: every algorithm agrees with the naive reference") {
    forAllSampled(genGraphH) { case (g, h) =>
      val expected = NaiveCore.decompose(g, h).toSeq
      for (algo <- Seq[Algo](Algo.HBZ, Algo.HLB, Algo.HLBUB(None)))
        assert(KHCore.decompose(g, h, algo).core.toSeq == expected, s"n=${g.n} h=$h $algo")
      for (algo <- Seq[Algo](Algo.HLB, Algo.HLBUB(None)))
        assert(KHCore.decompose(g, h, algo, paperLiteral = true).core.toSeq == expected,
               s"n=${g.n} h=$h $algo paper-literal")
    }
  }

  test("property: LB2 <= core <= UB for every vertex") {
    forAllSampled(genGraphH) { case (g, h) =>
      val core = NaiveCore.decompose(g, h)
      val eng = new SequentialEngine(g.n)
      val (_, l2) = Bounds.lowerBounds(g, h, eng)
      val ub = Bounds.upperBound(g, h, eng)
      for (v <- 0 until g.n) {
        assert(l2(v) <= core(v), s"n=${g.n} h=$h v=$v")
        assert(core(v) <= ub(v), s"n=${g.n} h=$h v=$v")
      }
    }
  }

  test("property: core indices are monotone in h") {
    forAllSampled(genGraphH) { case (g, h) =>
      val c1 = KHCore.decompose(g, h).core
      val c2 = KHCore.decompose(g, h + 1).core
      for (v <- 0 until g.n) assert(c1(v) <= c2(v), s"n=${g.n} h=$h v=$v")
    }
  }

  test("property: (k,h)-cores are nested") {
    forAllSampled(genGraphH) { case (g, h) =>
      val r = KHCore.decompose(g, h)
      for (k <- 1 to r.maxCore)
        assert(r.coreVertices(k + 1).toSet.subsetOf(r.coreVertices(k).toSet), s"k=$k")
    }
  }

  test("property: h-degree equals power-graph degree") {
    forAllSampled(genGraphH) { case (g, h) =>
      val p = GraphGen.powerGraph(g, h)
      assert(Bounds.hDegUB(g, h, new SequentialEngine(g.n)).toSeq == (0 until p.n).map(p.degree), s"n=${g.n} h=$h")
    }
  }

  test("property: power-graph core decomposition upper-bounds the (k,h)-core index") {
    forAllSampled(genGraphH) { case (g, h) =>
      val core = NaiveCore.decompose(g, h)
      val powerCore = NaiveCore.decompose(GraphGen.powerGraph(g, h), 1)
      for (v <- 0 until g.n) assert(core(v) <= powerCore(v), s"n=${g.n} h=$h v=$v")
    }
  }

  test("property: appending isolated vertices leaves existing cores unchanged") {
    forAllSampled(genGraphH) { case (g, h) =>
      val extra = 2
      val g2 = new AdjGraph(g.n + extra, g.adj ++ Array.fill(extra)(Array.empty[Int]))
      val c = KHCore.decompose(g2, h).core
      assert(c.drop(g.n).forall(_ == 0))
      assert(c.take(g.n).toSeq == KHCore.decompose(g, h).core.toSeq)
    }
  }

  test("property: visits are deterministic for a fixed algorithm and graph") {
    forAllSampled(genGraphH, cases = 10) { case (g, h) =>
      val a = KHCore.decompose(g, h, Algo.HLB)
      val b = KHCore.decompose(g, h, Algo.HLB)
      assert(a.visits == b.visits && a.bfsCount == b.bfsCount)
    }
  }
}
