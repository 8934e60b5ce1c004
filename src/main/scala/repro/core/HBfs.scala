package repro.core

/** Reusable scratchpad for h-bounded BFS over the alive-masked graph.
  *
  * One instance per thread (the arrays are mutable state); allocation-free
  * across calls via the token-stamped `seen` array, which is cleared when
  * the stamp wraps to 0 (once every 2^32 − 1 runs). After [[run]]:
  *   - `nbrCount` is the h-degree of the source,
  *   - `nbrs(0 until nbrCount)` are the h-neighbors,
  *   - `nbrDist(i)` is the shortest-path distance of `nbrs(i)` (≤ h).
  *
  * Every vertex enqueued (including the source) counts as one "visit" for
  * the Table 3 point-to-point distance metric. Each run charges its visits
  * and one BFS to the budget, then checks it once.
  */
final class HBfs(n: Int) {
  private val seen = new Array[Int](n)
  private val dist = new Array[Int](n)
  private val queue = new Array[Int](n)
  private var token = 0

  val nbrs = new Array[Int](n)
  val nbrDist = new Array[Int](n)
  var nbrCount = 0

  /** h-BFS from `src` restricted to `alive` vertices; `src` is traversed
    * regardless of its own alive flag (callers peel the source after
    * collecting its neighborhood). Returns the h-degree. Accounts visits
    * against `budget` and honors its limits.
    *
    * With a `cap`, the run stops once it has `cap` or more h-neighbours
    * while a vertex at distance < h is still queued, and returns the
    * bitwise complement `~nbrCount` (negative) of the count so far, which
    * lies in [cap, h-degree]; a run that ends on its own returns the
    * h-degree, whatever the cap.
    */
  def run(g: AdjGraph, alive: Array[Boolean], src: Int, h: Int, budget: Budget,
          cap: Int = Int.MaxValue): Int = {
    token += 1
    // The stamps would repeat: clear them before a slot stamped long ago,
    // or never, can read as seen.
    if (token == 0) { java.util.Arrays.fill(seen, 0); token = 1 }
    val tk = token
    var head = 0; var tail = 0
    seen(src) = tk; dist(src) = 0
    queue(tail) = src; tail += 1
    nbrCount = 0
    var visits = 1L
    var capped = false
    while (head < tail) {
      val u = queue(head); head += 1
      val du = dist(u)
      if (du < h && nbrCount >= cap) { capped = true; head = tail }
      else if (du < h) {
        val a = g.adj(u)
        var i = 0
        while (i < a.length) {
          val w = a(i)
          if (alive(w) && seen(w) != tk) {
            seen(w) = tk
            val dw = du + 1
            dist(w) = dw
            nbrs(nbrCount) = w; nbrDist(nbrCount) = dw; nbrCount += 1
            queue(tail) = w; tail += 1
            visits += 1
          }
          i += 1
        }
      }
    }
    budget.merge(visits, 1)
    budget.check()
    if (capped) ~nbrCount else nbrCount
  }

  /** Sets the stamp of the last run, to test the wrap. */
  private[core] def stampForTest(t: Int): Unit = token = t
}

/** Reusable scratchpad for up to 64 h-bounded BFS at once (MS-BFS, Then et
  * al., "The More the Merrier", PVLDB 2014): lane i carries the BFS of one
  * source as bit i of a `Long`, so a vertex reached by many of the sources
  * has its adjacency scanned once per round instead of once per source.
  *
  * One instance per thread. Only alive vertices (and the sources) ever get
  * a bit; `touched` lists them, so a reset costs O(touched), not O(n).
  * One exact traversal serves two outputs: [[run]] gives each lane's
  * h-degree, [[discover]] each reached vertex's distance to the block and
  * the number of lanes that reached it; in both, each lane's visits are
  * exactly those of [[HBfs.run]] from its source. [[runCapped]] is a
  * separate traversal that stops a lane once its count reaches a cap; where
  * a lane stops depends on the order in which the block's scans reach its
  * vertices, so its capped count and visits depend on the 64-vertex block
  * it ran in, not on its source alone.
  *
  * `runCapped` with a cap it cannot reach gives the entries and visits of
  * [[run]], but exact batches keep [[run]]: counting in the scan loop costs
  * more than one bit-sliced sum over `touched` at the end. With every
  * engine block sent through `runCapped`, 10 alternating perfbench pairs on
  * comm-dense-h3 (4-core host, `--seconds 30`) read h-LB+UB 0.150 → 0.218 s
  * sequential and 0.077 → 0.104 s on 4 threads, slower in 10 of 10 pairs.
  */
final class MultiHBfs(n: Int) {
  private val seen = new Array[Long](n)
  // Lanes that reached a vertex in the previous round (`visit`) and in
  // this one (`next`); the arrays swap roles every round.
  private var visit = new Array[Long](n)
  private var next = new Array[Long](n)
  // Reached vertices in the order first reached: touched(roundEnd(r − 1)
  // until roundEnd(r)) in round r, the sources (round 0) first.
  private val touched = new Array[Int](n)
  private var roundEnd = new Array[Int](8)
  private var frontier = new Array[Int](n)
  private var reached = new Array[Int](n)
  // Bit-sliced per-lane counters: bit i of planes(p) is bit p of the number
  // of vertices lane i has seen, so adding a `seen` word is a carry chain.
  private val planes = new Array[Long](32)
  // Counting-sort cursors of [[discover]], one per lowest lane (+ 1).
  private val slot = new Array[Int](MultiHBfs.Lanes + 1)
  // Per-lane count of [[runCapped]] above its 4 low bits, in steps of 16.
  private val over = new Array[Int](MultiHBfs.Lanes)

  /** After [[discover]] returns m: `found(0 until m)` are the vertices some
    * lane reached (the sources included), `foundRound(i)` is the round in
    * which a lane first reached `found(i)` (its distance to the nearest
    * source, 0 for a source) and `foundLanes(i)` the number of lanes that
    * reached it.
    */
  val found = new Array[Int](n)
  val foundRound = new Array[Int](n)
  val foundLanes = new Array[Int](n)

  /** h-degrees of the `lanes` (1..64) sources `vertices(from until
    * from + lanes)`, written to the same slots of `out`. A source is
    * traversed regardless of its own alive flag, as in [[HBfs.run]], but no
    * lane passes through another dead vertex. Charges the block's visits
    * and `lanes` BFS to `budget`, then checks it once.
    */
  def run(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int], from: Int, lanes: Int,
          h: Int, budget: Budget, out: Array[Int]): Unit = {
    val nTouched = traverse(g, alive, vertices, from, lanes, h)
    // Every lane of seen(w) has w as one visit; all but the source are
    // h-neighbours. Sum the lanes of each word into the counters and reset.
    var visits = 0L
    var top = 0 // planes in use
    var i = 0
    while (i < nTouched) {
      val w = touched(i)
      var carry = seen(w)
      seen(w) = 0L
      visits += java.lang.Long.bitCount(carry)
      var p = 0
      while (carry != 0L) {
        val c = planes(p)
        planes(p) = c ^ carry
        carry &= c
        p += 1
      }
      if (p > top) top = p
      i += 1
    }
    i = 0
    while (i < lanes) { out(from + i) = -1; i += 1 }
    var p = 0
    while (p < top) {
      var x = planes(p)
      planes(p) = 0L
      while (x != 0L) {
        out(from + java.lang.Long.numberOfTrailingZeros(x)) += 1 << p
        x &= x - 1
      }
      p += 1
    }
    budget.merge(visits, lanes)
    budget.check()
  }

  /** [[run]] with a cap: the `lanes` sources' h-degrees, except that a lane
    * is dropped from the traversal once its count of h-neighbours, rounded
    * down to a multiple of 16, reaches `cap`; its slot of `out` then holds
    * the bitwise complement `~count` (negative) of its count, which lies in
    * [cap, h-degree]. Every other slot holds the exact h-degree. Each round
    * adds its new bits
    * into 4 bit-sliced planes (the low 4 bits of every lane's count); a
    * carry out of the top plane adds 16 to the lane's `over` counter, and
    * the lane stops once that counter reaches `cap`. A lane's visits are
    * at most those of its exact run. Charges what [[run]] charges for the
    * visits made.
    */
  def runCapped(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int], from: Int, lanes: Int,
                h: Int, cap: Int, budget: Budget, out: Array[Int]): Unit = {
    require(lanes >= 1 && lanes <= MultiHBfs.Lanes, s"lanes $lanes not in [1, ${MultiHBfs.Lanes}]")
    var nTouched = 0
    var nFrontier = 0
    var i = 0
    while (i < lanes) {
      val s = vertices(from + i)
      if (seen(s) == 0L) { touched(nTouched) = s; nTouched += 1; frontier(nFrontier) = s; nFrontier += 1 }
      seen(s) |= 1L << i
      visit(s) |= 1L << i
      over(i) = 0
      i += 1
    }
    var p0 = 0L; var p1 = 0L; var p2 = 0L; var p3 = 0L
    // Lanes still traversed.
    var live = if (lanes == MultiHBfs.Lanes) -1L else (1L << lanes) - 1
    var round = 1
    while (round <= h && nFrontier > 0 && live != 0L) {
      val last = round == h
      var nReached = 0
      var k = 0
      while (k < nFrontier) {
        val u = frontier(k)
        val bits = visit(u) & live
        visit(u) = 0L
        if (bits != 0L) {
          val a = g.adj(u)
          var j = 0
          while (j < a.length) {
            val w = a(j)
            if (alive(w)) {
              val sw = seen(w)
              val d = bits & ~sw
              if (d != 0L) {
                if (sw == 0L) { touched(nTouched) = w; nTouched += 1 }
                seen(w) = sw | d
                if (!last) {
                  if (next(w) == 0L) { reached(nReached) = w; nReached += 1 }
                  next(w) |= d
                }
                // Add 1 to each lane of `d`.
                val c0 = p0 & d; p0 ^= d
                if (c0 != 0L) {
                  val c1 = p1 & c0; p1 ^= c0
                  if (c1 != 0L) {
                    val c2 = p2 & c1; p2 ^= c1
                    if (c2 != 0L) {
                      var c3 = p3 & c2; p3 ^= c2
                      while (c3 != 0L) {
                        val lane = java.lang.Long.numberOfTrailingZeros(c3)
                        over(lane) += 16
                        if (over(lane) >= cap) live &= ~(1L << lane)
                        c3 &= c3 - 1
                      }
                    }
                  }
                }
              }
            }
            j += 1
          }
        }
        k += 1
      }
      val v = visit; visit = next; next = v
      val f = frontier; frontier = reached; reached = f
      nFrontier = nReached
      round += 1
    }
    i = 0
    while (i < nFrontier) { visit(frontier(i)) = 0L; i += 1 }
    var visits = 0L
    i = 0
    while (i < nTouched) {
      val w = touched(i)
      visits += java.lang.Long.bitCount(seen(w))
      seen(w) = 0L
      i += 1
    }
    i = 0
    while (i < lanes) {
      val count = over(i) + ((p0 >>> i) & 1L).toInt + 2 * ((p1 >>> i) & 1L).toInt +
                  4 * ((p2 >>> i) & 1L).toInt + 8 * ((p3 >>> i) & 1L).toInt
      out(from + i) = if (over(i) >= cap) ~count else count
      i += 1
    }
    budget.merge(visits, lanes)
    budget.check()
  }

  /** The same traversal as [[run]], read out per reached vertex instead of
    * per lane: returns m and fills `found`, `foundRound` and `foundLanes`.
    * `found` lists the vertices grouped by the lowest lane that reached
    * them (a stable counting sort of the reach order), so the vertices near
    * one source stay together, as in one [[HBfs.run]] per source. Charges
    * what [[run]] charges.
    */
  def discover(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int], from: Int, lanes: Int,
               h: Int, budget: Budget): Int = {
    val nTouched = traverse(g, alive, vertices, from, lanes, h)
    java.util.Arrays.fill(slot, 0)
    var i = 0
    while (i < nTouched) { slot(java.lang.Long.numberOfTrailingZeros(seen(touched(i))) + 1) += 1; i += 1 }
    i = 1
    while (i <= lanes) { slot(i) += slot(i - 1); i += 1 }
    var visits = 0L
    var r = 0
    i = 0
    while (i < nTouched) {
      while (i >= roundEnd(r)) r += 1
      val w = touched(i)
      val s = seen(w)
      seen(w) = 0L
      val c = java.lang.Long.bitCount(s)
      visits += c
      val lane = java.lang.Long.numberOfTrailingZeros(s)
      val at = slot(lane)
      slot(lane) = at + 1
      found(at) = w; foundRound(at) = r; foundLanes(at) = c
      i += 1
    }
    budget.merge(visits, lanes)
    budget.check()
    nTouched
  }

  /** The block's h-BFS: leaves every reached vertex's lanes in `seen`, the
    * vertices in `touched` by round, and `visit` all zero. Returns the
    * number of reached vertices.
    */
  private def traverse(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int], from: Int, lanes: Int,
                       h: Int): Int = {
    require(lanes >= 1 && lanes <= MultiHBfs.Lanes, s"lanes $lanes not in [1, ${MultiHBfs.Lanes}]")
    var nTouched = 0
    var nFrontier = 0
    var i = 0
    while (i < lanes) {
      val s = vertices(from + i)
      if (seen(s) == 0L) { touched(nTouched) = s; nTouched += 1; frontier(nFrontier) = s; nFrontier += 1 }
      seen(s) |= 1L << i
      visit(s) |= 1L << i
      i += 1
    }
    roundEnd(0) = nTouched
    var round = 1
    while (round <= h && nFrontier > 0) {
      val last = round == h
      var nReached = 0
      var k = 0
      while (k < nFrontier) {
        val u = frontier(k)
        val bits = visit(u)
        visit(u) = 0L
        val a = g.adj(u)
        var j = 0
        while (j < a.length) {
          val w = a(j)
          if (alive(w)) {
            val sw = seen(w)
            val d = bits & ~sw
            if (d != 0L) {
              // Lanes in `d` reach w at distance `round`.
              if (sw == 0L) { touched(nTouched) = w; nTouched += 1 }
              seen(w) = sw | d
              if (!last) {
                if (next(w) == 0L) { reached(nReached) = w; nReached += 1 }
                next(w) |= d
              }
            }
          }
          j += 1
        }
        k += 1
      }
      val v = visit; visit = next; next = v
      val f = frontier; frontier = reached; reached = f
      nFrontier = nReached
      if (round == roundEnd.length) roundEnd = java.util.Arrays.copyOf(roundEnd, 2 * round)
      roundEnd(round) = nTouched
      round += 1
    }
    i = 0
    while (i < nFrontier) { visit(frontier(i)) = 0L; i += 1 }
    nTouched
  }
}

object MultiHBfs {
  /** Sources per block: one bit of a `Long` each. */
  private[repro] final val Lanes = 64
}
