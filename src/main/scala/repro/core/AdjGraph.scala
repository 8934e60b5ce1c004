package repro.core

/** Compact undirected, unweighted graph over vertices `0 until n`.
  *
  * Adjacency is stored as one sorted `Array[Int]` row per vertex; only the
  * h-BFS kernels of `HBfs.scala` read the rows directly, and every traversal
  * here runs on [[HBfs]]. Self-loops and parallel edges are dropped at
  * construction.
  *
  * @param n   number of vertices
  * @param adj per-vertex sorted neighbor arrays
  */
final class AdjGraph(val n: Int, val adj: Array[Array[Int]]) extends Serializable {

  /** Degree of vertex `v` in the full graph. */
  def degree(v: Int): Int = adj(v).length

  /** Number of undirected edges. */
  val numEdges: Long = {
    var sum = 0L
    var v = 0
    while (v < n) { sum += adj(v).length; v += 1 }
    sum / 2
  }

  /** Undirected edge list with `src < dst`, sorted. */
  def edges: Array[(Int, Int)] = {
    val b = Array.newBuilder[(Int, Int)]
    var v = 0
    while (v < n) {
      adj(v).foreach(u => if (v < u) b += ((v, u)))
      v += 1
    }
    b.result()
  }

  /** The `i`-th neighbour of `v` in ascending id order, `i < degree(v)`. */
  def neighbor(v: Int, i: Int): Int = adj(v)(i)

  /** Every vertex alive: the mask of the whole-graph traversals and of the
    * all-vertex bound batches. Shared, so never written. */
  @transient private[repro] lazy val all = Array.fill(n)(true)

  /** The calling thread's [[HBfs]] after an unbounded BFS from `src` over
    * `alive`: `nbrs(0 until nbrCount)` are the vertices reached, in order of
    * distance, and `nbrDist` their distances, until the thread's next run.
    */
  private def bfs(alive: Array[Boolean], src: Int): HBfs = {
    val b = EngineScratch.get(n).bfs
    b.run(this, alive, src, Int.MaxValue, AdjGraph.unmetered)
    b
  }

  /** BFS distances from `src` over the whole graph; -1 = unreachable. */
  def bfsDistances(src: Int): Array[Int] = {
    val dist = Array.fill(n)(-1)
    dist(src) = 0
    val b = bfs(all, src)
    var i = 0
    while (i < b.nbrCount) { dist(b.nbrs(i)) = b.nbrDist(i); i += 1 }
    dist
  }

  /** h-balls over the whole graph: the returned function maps v to the
    * vertices at distance 1..h from it, in [[HBfs]] visit order. It reuses
    * one [[HBfs]], so each thread needs its own.
    */
  def hBalls(h: Int): Int => Array[Int] = {
    val b = new HBfs(n)
    v => b.nbrs.take(b.run(this, all, v, h, AdjGraph.unmetered))
  }

  /** Connected components of the subgraph induced by `mask`: vertex ->
    * component id (0-based, by discovery from the lowest id), -1 outside
    * the mask.
    */
  def components(mask: Array[Boolean] = all): Array[Int] = {
    val comp = Array.fill(n)(-1)
    var c = 0
    var s = 0
    while (s < n) {
      if (mask(s) && comp(s) < 0) {
        comp(s) = c
        val b = bfs(mask, s)
        var i = 0
        while (i < b.nbrCount) { comp(b.nbrs(i)) = c; i += 1 }
        c += 1
      }
      s += 1
    }
    comp
  }

  /** Exact diameter via all-source BFS: the largest eccentricity over all
    * vertices, so for a disconnected graph the largest component diameter.
    */
  def diameterExact(): Int =
    (0 until n).foldLeft(0) { (d, v) =>
      val b = bfs(all, v)
      if (b.nbrCount == 0) d else math.max(d, b.nbrDist(b.nbrCount - 1))
    }

  /** Double-sweep lower bound on the diameter (cheap, for large graphs):
    * each sweep starts from the lowest-id farthest vertex of the last.
    * 0 on the empty graph.
    */
  def diameterLowerBound(sweeps: Int = 4): Int = {
    if (n == 0) return 0
    var best = 0
    var src = 0
    for (_ <- 0 until sweeps) {
      val b = bfs(all, src)
      val last = b.nbrCount - 1
      if (last >= 0) {
        // The farthest vertices end the visit order.
        val fd = b.nbrDist(last)
        best = math.max(best, fd)
        src = (last to 0 by -1).takeWhile(b.nbrDist(_) == fd).map(b.nbrs).min
      }
    }
    best
  }

  /** Induced subgraph on `keep` (a boolean mask), with vertices relabeled
    * densely. Returns the subgraph plus the old-id of each new vertex.
    */
  def induced(keep: Array[Boolean]): (AdjGraph, Array[Int]) = {
    val old2new = Array.fill(n)(-1)
    var cnt = 0
    var v = 0
    while (v < n) { if (keep(v)) { old2new(v) = cnt; cnt += 1 }; v += 1 }
    val ids = new Array[Int](cnt)
    val newAdj = new Array[Array[Int]](cnt)
    v = 0
    while (v < n) {
      val i = old2new(v)
      if (i >= 0) {
        ids(i) = v
        // Two passes over the old row: the kept length, then the new ids.
        val a = adj(v)
        var len = 0
        var j = 0
        while (j < a.length) { if (keep(a(j))) len += 1; j += 1 }
        val row = new Array[Int](len)
        len = 0
        j = 0
        while (j < a.length) { if (keep(a(j))) { row(len) = old2new(a(j)); len += 1 }; j += 1 }
        newAdj(i) = row
      }
      v += 1
    }
    (new AdjGraph(cnt, newAdj), ids)
  }

  /** Induced subgraph on a vertex set given as old ids. */
  def inducedOn(vertices: Iterable[Int]): (AdjGraph, Array[Int]) = {
    val keep = new Array[Boolean](n)
    vertices.foreach(keep(_) = true)
    induced(keep)
  }

  /** Largest connected component, relabeled. Returns (subgraph, old ids). */
  def largestComponent(): (AdjGraph, Array[Int]) = {
    val comp = components()
    if (n == 0) return (this, Array.empty)
    // Component ids are below n; ties go to the lowest id.
    val sizes = new Array[Int](n)
    var v = 0
    while (v < n) { sizes(comp(v)) += 1; v += 1 }
    var big = 0
    var c = 1
    while (c < n) { if (sizes(c) > sizes(big)) big = c; c += 1 }
    induced(comp.map(_ == big))
  }
}

object AdjGraph {

  /** Build from an undirected edge list; drops self-loops and duplicates. */
  def fromEdges(n: Int, edgeIt: IterableOnce[(Int, Int)]): AdjGraph = {
    // The edges can be read once: keep their ends, pairwise, and count
    // each row's length; then fill the rows, sort and dedupe each.
    var ends = new Array[Int](math.max(16, 2 * edgeIt.knownSize))
    var m = 0
    val len = new Array[Int](n)
    edgeIt.iterator.foreach { case (a, b) =>
      // Not `require`: its by-name message is a closure per edge.
      if (a < 0 || a >= n || b < 0 || b >= n)
        throw new IllegalArgumentException(s"edge ($a,$b) out of range [0,$n)")
      if (a != b) {
        if (m == ends.length) ends = java.util.Arrays.copyOf(ends, 2 * m)
        ends(m) = a; ends(m + 1) = b; m += 2
        len(a) += 1; len(b) += 1
      }
    }
    val adj = new Array[Array[Int]](n)
    var v = 0
    while (v < n) { adj(v) = new Array[Int](len(v)); len(v) = 0; v += 1 }
    var i = 0
    while (i < m) {
      val a = ends(i); val b = ends(i + 1)
      adj(a)(len(a)) = b; len(a) += 1
      adj(b)(len(b)) = a; len(b) += 1
      i += 2
    }
    v = 0
    while (v < n) {
      val row = adj(v)
      java.util.Arrays.sort(row)
      var k = 0
      i = 0
      while (i < row.length) { if (k == 0 || row(i) != row(k - 1)) { row(k) = row(i); k += 1 }; i += 1 }
      if (k < row.length) adj(v) = java.util.Arrays.copyOf(row, k)
      v += 1
    }
    new AdjGraph(n, adj)
  }

  // The helpers' BFS are not Table 3 work: their visits are never read.
  private val unmetered = Budget.unlimited()

  /** Empty graph on n vertices. */
  def empty(n: Int): AdjGraph = new AdjGraph(n, Array.fill(n)(Array.empty[Int]))
}
