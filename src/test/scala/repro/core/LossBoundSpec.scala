package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.bench.Datasets
import repro.graphgen.GraphGen

/** Loss-bounded peeling (see [[CoreDecomp]]): in default h-LB and h-LB+UB
  * interval peels, a vertex that a round reaches drops by its loss bound L
  * and, if a peeled vertex reached it at distance < h, keeps `deg` as a
  * lower bound of its h-degree (`lowerDeg`) until a round pops and
  * measures it. The cores must stay those of [[NaiveCore]] and pass
  * [[Certify]], `deg` must stay a lower bound of the h-degree, exact
  * unless lowered, after every level, and a run must not depend on the
  * engine's thread count.
  */
class LossBoundSpec extends AnyFunSuite {

  /** A one-thread engine that counts the round discoveries asked for loss
    * bounds, and the entries they give at a distance below h: the reached
    * vertices whose `deg` becomes a lower bound. */
  private final class CountingEngine extends LocalEngine(1) {
    var lossRounds = 0L
    var lowering = 0L
    override def discoverRound(g: AdjGraph, alive: Array[Boolean], sources: Array[Int], np: Int,
                               h: Int, loss: Boolean, budget: Budget, sink: DiscoverySink): Unit = {
      if (loss) lossRounds += 1
      val counting = new DiscoverySink {
        def reached(found: Array[Int], dist: Array[Int], l: Array[Int], from: Int, until: Int): Unit = {
          if (loss) for (j <- from until until if dist(j) > 0 && dist(j) < h) lowering += 1
          sink.reached(found, dist, l, from, until)
        }
      }
      super.discoverRound(g, alive, sources, np, h, loss, budget, counting)
    }
  }

  /** 20 ER, 20 BA and 20 community graphs of 60 to 130 vertices. */
  private val graphs: Seq[(String, AdjGraph)] =
    (0 until 20).flatMap { i =>
      val n = 60 + (i * 13) % 71
      Seq(s"er-$i" -> GraphGen.er(n, n * (3 + i % 4) / 2, 300 + i),
          s"ba-$i" -> GraphGen.ba(n, 2 + i % 3, 1 + i % 2, 400 + i),
          s"comm-$i" -> GraphGen.communities(3 + i % 3, 15 + i % 11, 0.12 + 0.02 * (i % 5), 0.01, 500 + i))
    }

  test("h-LB and h-LB+UB equal NaiveCore and pass Certify") {
    val eng = new CountingEngine
    var runs = 0
    for ((name, g) <- graphs; h <- 1 to 5) {
      val naive = NaiveCore.decompose(g, h).toSeq
      for (algo <- Seq(Algo.HLB, Algo.HLBUB())) {
        val r = KHCore.decompose(g, h, algo, Some(eng))
        assert(r.core.toSeq == naive, s"$name h=$h $algo")
        Certify.check(g, h, r.core, r.order).foreach(f => fail(s"$name h=$h $algo: $f"))
      }
      runs += 1
    }
    assert(runs == 300)
    assert(eng.lowering > 1000, s"only ${eng.lowering} entries lowered a vertex")
  }

  test("paper-literal peels, h-BZ and UB bound no loss") {
    val eng = new CountingEngine
    for ((name, g) <- graphs.take(30); h <- 2 to 4) {
      val naive = NaiveCore.decompose(g, h).toSeq
      for (algo <- Seq(Algo.HLB, Algo.HLBUB(), Algo.HBZ))
        assert(KHCore.decompose(g, h, algo, Some(eng), paperLiteral = true).core.toSeq == naive, s"$name h=$h $algo")
      Bounds.upperBound(g, h, eng)
      assert(eng.lossRounds == 0, s"$name h=$h: a paper-literal peel, h-BZ or UpperBound bounded the loss")
    }
  }

  test("the bound invariant holds level by level (h = 1..5)") {
    var lowered = 0L
    for ((name, g) <- graphs.take(12); h <- 1 to 5; exactStart <- Seq(false, true)) {
      val label = s"$name h=$h exactStart=$exactStart"
      val eng = new SequentialEngine(g.n)
      // h-LB's start (LB2 with `setLB`), or every vertex at its h-degree.
      val budget = Budget.unlimited()
      val init =
        if (exactStart) Bounds.hDegUB(g, h, eng, budget) else Bounds.lowerBounds(g, h, eng, budget)._2
      val st = new CoreDecomp.State(g.n)
      java.util.Arrays.fill(st.alive, true)
      for (v <- 0 until g.n) { st.deg(v) = init(v); st.setLB(v) = !exactStart; st.buckets.add(v, init(v)) }
      val bfs = new HBfs(g.n)
      for (k <- 0 until g.n) {
        CoreDecomp.run(g, h, k, k, remeasureBelow = h, paperLiteral = false, st, eng, budget)
        for (u <- 0 until g.n if st.alive(u)) {
          assert(st.buckets.bucket(u) > k, s"$label k=$k u=$u: left in bucket ${st.buckets.bucket(u)}")
          if (!st.setLB(u)) {
            val hd = bfs.run(g, st.alive, u, h, Budget.unlimited())
            assert(st.deg(u) <= st.buckets.bucket(u), s"$label k=$k u=$u")
            if (st.lowerDeg(u)) { assert(st.deg(u) <= hd, s"$label k=$k u=$u: ${st.deg(u)} > $hd"); lowered += 1 }
            else assert(st.deg(u) == hd, s"$label k=$k u=$u: ${st.deg(u)} != $hd")
          }
        }
        if (h == 1) assert(!st.lowerDeg.contains(true), s"$label k=$k: lowered at h = 1")
      }
      assert(!st.lowerDeg.contains(true), s"$label: lowered after the run")
      assert(st.core.toSeq == NaiveCore.decompose(g, h).toSeq, label)
      // One level at a time is h-LB's peel.
      if (!exactStart) {
        val r = KHCore.decompose(g, h, Algo.HLB)
        assert((budget.visits, budget.bfsCount) == ((r.visits, r.bfsCount)), label)
      }
    }
    assert(lowered > 1000, s"only $lowered lowered vertices checked")
  }

  test("sytb h=3: certified, same on 1 and 4 threads, pinned") {
    val g = Datasets("sytb")
    val counts = for (algo <- Seq(Algo.HLB, Algo.HLBUB())) yield {
      val seq = KHCore.decompose(g, 3, algo)
      Certify.check(g, 3, seq.core, seq.order).foreach(f => fail(s"sytb $algo: $f"))
      val eng = new ThreadedEngine(g.n, threads = 4)
      val mt = try KHCore.decompose(g, 3, algo, Some(eng)) finally eng.shutdown()
      assert(seq.core.toSeq == mt.core.toSeq, s"$algo")
      assert(seq.order.toSeq == mt.order.toSeq, s"$algo")
      assert((seq.visits, seq.bfsCount) == ((mt.visits, mt.bfsCount)), s"$algo")
      (seq.visits, seq.bfsCount)
    }
    // h-LB spent 24 603 099 visits with exact re-measures and 15 484 703
    // in 43 498 BFS with capped ones; loss bounds leave no re-measure.
    assert(counts == Seq((5204299L, 16482L), (8922318L, 27739L)))
  }
}
