package repro.graphgen

import repro.core.AdjGraph
import scala.collection.mutable
import scala.util.Random

/** Deterministic synthetic graph generators.
  *
  * The paper evaluates on 13 public real-world graphs; the offline container
  * cannot download them, so each is substituted by a generator from the same
  * structural family (see DESIGN.md §3). All generators are deterministic in
  * their seed so tests and the DuckDB oracle see identical inputs.
  */
object GraphGen {

  /** Erdős–Rényi G(n, m): m distinct uniform edges (bio-network analog). */
  def er(n: Int, m: Int, seed: Long): AdjGraph = {
    val rnd = new Random(seed)
    val edges = mutable.Set.empty[(Int, Int)]
    val maxM = n.toLong * (n - 1) / 2
    require(m <= maxM, s"G($n,$m) infeasible")
    while (edges.size < m) {
      val a = rnd.nextInt(n); val b = rnd.nextInt(n)
      if (a != b) edges += (if (a < b) (a, b) else (b, a))
    }
    AdjGraph.fromEdges(n, edges)
  }

  /** Barabási–Albert preferential attachment: start from a clique on `m0`
    * vertices, each newcomer attaches to `mAttach` distinct existing
    * vertices drawn proportionally to degree (social-network analog with
    * heavy-tailed hubs).
    */
  def ba(n: Int, m0: Int, mAttach: Int, seed: Long): AdjGraph = {
    require(m0 >= mAttach && m0 >= 2 && n >= m0)
    val rnd = new Random(seed)
    val edges = mutable.ArrayBuffer.empty[(Int, Int)]
    val endpoints = mutable.ArrayBuffer.empty[Int] // degree-proportional pool
    for (a <- 0 until m0; b <- a + 1 until m0) {
      edges += ((a, b)); endpoints += a; endpoints += b
    }
    for (v <- m0 until n) {
      val targets = mutable.Set.empty[Int]
      var guard = 0
      while (targets.size < mAttach && guard < 100 * mAttach) {
        targets += endpoints(rnd.nextInt(endpoints.size))
        guard += 1
      }
      targets.foreach { t =>
        edges += ((v, t)); endpoints += v; endpoints += t
      }
    }
    AdjGraph.fromEdges(n, edges)
  }

  /** Watts–Strogatz small world: ring lattice with `k` nearest neighbors
    * per side rewired with probability `beta`.
    */
  def ws(n: Int, k: Int, beta: Double, seed: Long): AdjGraph = {
    val rnd = new Random(seed)
    val edges = mutable.Set.empty[(Int, Int)]
    def put(a: Int, b: Int): Unit = if (a != b) edges += (if (a < b) (a, b) else (b, a))
    for (v <- 0 until n; j <- 1 to k) {
      val u = (v + j) % n
      if (rnd.nextDouble() < beta) put(v, rnd.nextInt(n)) else put(v, u)
    }
    AdjGraph.fromEdges(n, edges)
  }

  /** Road-network analog: a rows×cols grid where each lattice edge is kept
    * with probability `keep`, then restricted to its largest component
    * (long diameter, near-uniform tiny degrees, like roadNet-PA/TX).
    */
  def gridRoad(rows: Int, cols: Int, keep: Double, seed: Long): AdjGraph = {
    val rnd = new Random(seed)
    val n = rows * cols
    def id(r: Int, c: Int) = r * cols + c
    val edges = mutable.ArrayBuffer.empty[(Int, Int)]
    for (r <- 0 until rows; c <- 0 until cols) {
      if (c + 1 < cols && rnd.nextDouble() < keep) edges += ((id(r, c), id(r, c + 1)))
      if (r + 1 < rows && rnd.nextDouble() < keep) edges += ((id(r, c), id(r + 1, c)))
    }
    AdjGraph.fromEdges(n, edges).largestComponent()._1
  }

  /** Planted-community graph: `nCom` communities of `size` vertices, edge
    * probability `pIn` inside a community and `pOut` across (collaboration
    * network analog: dense local groups, sparse bridges).
    */
  def communities(nCom: Int, size: Int, pIn: Double, pOut: Double, seed: Long): AdjGraph = {
    val rnd = new Random(seed)
    val n = nCom * size
    val edges = mutable.ArrayBuffer.empty[(Int, Int)]
    for (a <- 0 until n; b <- a + 1 until n) {
      val p = if (a / size == b / size) pIn else pOut
      if (rnd.nextDouble() < p) edges += ((a, b))
    }
    AdjGraph.fromEdges(n, edges).largestComponent()._1
  }

  // ---- canned graphs for tests -------------------------------------------

  def path(n: Int): AdjGraph = AdjGraph.fromEdges(n, (0 until n - 1).map(i => (i, i + 1)))
  def cycle(n: Int): AdjGraph = AdjGraph.fromEdges(n, (0 until n).map(i => (i, (i + 1) % n)))
  def clique(n: Int): AdjGraph =
    AdjGraph.fromEdges(n, for (a <- 0 until n; b <- a + 1 until n) yield (a, b))
  def star(n: Int): AdjGraph = AdjGraph.fromEdges(n, (1 until n).map(i => (0, i)))
  def petersen: AdjGraph = AdjGraph.fromEdges(10, Seq(
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),      // outer 5-cycle
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),      // inner pentagram
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)))     // spokes

  /** The 13-vertex example graph of the paper's Figure 1, reconstructed from
    * every fact the text states about it (see DESIGN.md §4): classic cores
    * all 2; (k,2)-cores v1→4, v2,v3→5, v4..v13→6; G² cores 4/6/6.
    * Vertices are shifted to 0-based ids (paper's v1 = our 0).
    */
  def figure1: AdjGraph = {
    val paperEdges = Seq(
      (1, 2), (1, 3), (2, 4), (3, 8), (4, 6), (4, 8), (4, 11), (4, 12),
      (5, 7), (5, 10), (6, 10), (7, 9), (7, 13), (8, 9), (8, 10), (8, 13),
      (9, 11), (9, 12), (11, 12))
    AdjGraph.fromEdges(13, paperEdges.map { case (a, b) => (a - 1, b - 1) })
  }

  /** h-power graph G^h: same vertices, an edge for every pair at distance
    * ≤ h in g (Example 2's strawman; only tests use it).
    */
  def powerGraph(g: AdjGraph, h: Int): AdjGraph = {
    val ball = g.hBalls(h)
    AdjGraph.fromEdges(g.n, for (v <- 0 until g.n; u <- ball(v) if v < u) yield (v, u))
  }

  /** Uniform random connected graph for property sweeps: ER conditioned on
    * taking the largest component.
    */
  def randomConnected(n: Int, avgDeg: Double, seed: Long): AdjGraph = {
    val m = math.max(n - 1, (n * avgDeg / 2).toInt)
    er(n, math.min(m, n * (n - 1) / 2), seed).largestComponent()._1
  }
}
