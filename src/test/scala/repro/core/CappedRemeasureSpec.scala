package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.bench.Datasets
import repro.graphgen.GraphGen

/** h-LB's capped re-measures (see [[CoreDecomp]]): a flagged vertex's
  * h-BFS may stop once it proves the vertex survives the level, and the
  * vertex is measured exactly when a round pops it. The cores must stay
  * those of [[NaiveCore]] and pass [[Certify]], every capped vertex must be
  * measured exactly before the peel ends, and a capped run must not depend
  * on the engine's thread count.
  */
class CappedRemeasureSpec extends AnyFunSuite {

  /** A one-thread engine that counts the capped entries it returns, and the
    * vertices measured exactly while their last entry was capped: these
    * are capped vertices popped by a round, since a flagged capped vertex
    * is always re-measured with a cap. `open` holds the vertices whose
    * last entry was capped. */
  private final class CountingEngine extends LocalEngine(1) {
    var cappedEntries = 0L
    var cappedPops = 0L
    val open = scala.collection.mutable.Set.empty[Int]
    override def batchHDegCapped(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                                 h: Int, cap: Int, budget: Budget): Array[Int] = {
      val out = super.batchHDegCapped(g, alive, vertices, h, cap, budget)
      for ((v, d) <- vertices.zip(out)) if (d < 0) { cappedEntries += 1; open += v } else open -= v
      out
    }
    override def batchHDeg(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int],
                           h: Int, budget: Budget): Array[Int] = {
      for (v <- vertices) if (open.remove(v)) cappedPops += 1
      super.batchHDeg(g, alive, vertices, h, budget)
    }
  }

  /** 20 ER, 20 BA and 20 community graphs of 60 to 130 vertices, sparse
    * enough that a flagged hub's h-degree is often twice the cap above the
    * level. */
  private val graphs: Seq[(String, AdjGraph)] =
    (0 until 20).flatMap { i =>
      val n = 60 + (i * 13) % 71
      Seq(s"er-$i" -> GraphGen.er(n, n * (3 + i % 4) / 2, 300 + i),
          s"ba-$i" -> GraphGen.ba(n, 2 + i % 3, 1 + i % 2, 400 + i),
          s"comm-$i" -> GraphGen.communities(3 + i % 3, 15 + i % 11, 0.12 + 0.02 * (i % 5), 0.01, 500 + i))
    }

  test("default h-LB equals NaiveCore, passes Certify and measures every capped vertex exactly (300 runs)") {
    val eng = new CountingEngine
    var runs = 0
    for ((name, g) <- graphs; h <- 1 to 5) {
      val r = KHCore.decompose(g, h, Algo.HLB, Some(eng))
      assert(r.core.toSeq == NaiveCore.decompose(g, h).toSeq, s"$name h=$h")
      Certify.check(g, h, r.core, r.order).foreach(f => fail(s"$name h=$h: $f"))
      assert(eng.open.isEmpty, s"$name h=$h: capped vertices never measured exactly: ${eng.open}")
      runs += 1
    }
    assert(runs == 300)
    assert(eng.cappedEntries > 1000, s"only ${eng.cappedEntries} capped entries")
    assert(eng.cappedPops > 200, s"only ${eng.cappedPops} capped vertices popped")
  }

  test("paper-literal h-LB and h-LB+UB cap nothing") {
    val eng = new CountingEngine
    for ((name, g) <- graphs.take(30); h <- 2 to 4) {
      val naive = NaiveCore.decompose(g, h).toSeq
      assert(KHCore.decompose(g, h, Algo.HLB, Some(eng), paperLiteral = true).core.toSeq == naive, s"$name h=$h")
      assert(KHCore.decompose(g, h, Algo.HLBUB(), Some(eng)).core.toSeq == naive, s"$name h=$h")
      assert(eng.cappedEntries == 0, s"$name h=$h: paper-literal h-LB or h-LB+UB capped")
    }
  }

  test("capped h-LB on the sytb analog (h=3): certified, equal on 1 and 4 threads, visits pinned") {
    val g = Datasets("sytb")
    val seq = KHCore.decompose(g, 3, Algo.HLB)
    Certify.check(g, 3, seq.core, seq.order).foreach(f => fail(s"sytb: $f"))
    val eng = new ThreadedEngine(g.n, threads = 4)
    val mt = try KHCore.decompose(g, 3, Algo.HLB, Some(eng)) finally eng.shutdown()
    assert(seq.core.toSeq == mt.core.toSeq)
    assert(seq.order.toSeq == mt.order.toSeq)
    assert((seq.visits, seq.bfsCount) == ((mt.visits, mt.bfsCount)))
    // 24 603 099 visits before re-measures were capped.
    assert((seq.visits, seq.bfsCount) == ((15484703L, 43498L)))
  }
}
