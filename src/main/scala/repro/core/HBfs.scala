package repro.core

/** Reusable scratchpad for h-bounded BFS over the alive-masked graph.
  *
  * One instance per thread (the arrays are mutable state); allocation-free
  * across calls via the token-stamped `seen` array, which is cleared when
  * the stamp wraps to 0 (once every 2^32 − 1 runs). After [[run]]:
  *   - `nbrCount` is the h-degree of the source,
  *   - `nbrs(0 until nbrCount)` are the h-neighbors,
  *   - `nbrDist(i)` is the shortest-path distance of `nbrs(i)` (≤ h),
  *     nondecreasing in i;
  * and [[losses]] reads the source's ball sizes off those shells.
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
  lazy val nbrLoss = new Array[Int](n)

  /** h-BFS from `src` restricted to `alive` vertices; `src` is traversed
    * regardless of its own alive flag (callers peel the source after
    * collecting its neighborhood). Returns the h-degree. Accounts visits
    * against `budget` and honors its limits.
    */
  def run(g: AdjGraph, alive: Array[Boolean], src: Int, h: Int, budget: Budget): Int = {
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
    while (head < tail) {
      val u = queue(head); head += 1
      val du = dist(u)
      if (du < h) {
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
    nbrCount
  }

  /** After a [[run]] to radius `h`: `nbrLoss(i)`, for each h-neighbour i,
    * set to |B̄(src, h − nbrDist(i))|, the source's closed ball of that
    * radius in the alive set, read off the shells of `nbrDist`: the loss
    * bound L of a one-source round (see [[CoreDecomp]]). Returns
    * `nbrLoss`.
    */
  def losses(h: Int): Array[Int] = {
    // nbrDist is nondecreasing (BFS order), so that ball is the source and
    // nbrs(0 until j), for a j that only shrinks as i grows.
    var j = nbrCount
    var i = 0
    while (i < nbrCount) {
      val r = h - nbrDist(i)
      while (j > 0 && nbrDist(j - 1) > r) j -= 1
      nbrLoss(i) = 1 + j
      i += 1
    }
    nbrLoss
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
  * the number of lanes that reached it, or its loss bound L; in both, each
  * lane's visits are exactly those of [[HBfs.run]] from its source.
  *
  * The loss bound of a reached vertex w is L(w) = Σ over the lanes f that
  * reach w of |B̄(f, h − d(w,f))|, f's closed ball of that radius (see
  * [[CoreDecomp]]). Each lane contributes 1 for w itself, which the
  * read-out adds as the number of lanes of w, plus the h-neighbours in its
  * ball. The traversal keeps every lane's count of h-neighbours in
  * bit-sliced counters and snapshots them after each round ρ < h as the
  * radius-ρ planes. The lanes `d` that newly reach w in round r < h add
  * Σ_p 2^p · popcount(d & plane[h − r][p]) over the planes in use; when
  * h − r ≥ r those planes are not complete yet, so (w, d, h − r) is logged
  * and added after the traversal. A lane reaching w in round h adds its 1
  * alone, so the last round, where most vertices are reached, costs
  * nothing more.
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
  // Bit-sliced per-lane counters: bit i of planes(p) is bit p of lane i's
  // count, so adding a word of lanes is a carry chain. Loss bounds keep
  // `inUse` of them in use.
  private val planes = new Array[Long](32)
  private var inUse = 0
  // Counting-sort cursors of [[discover]], one per lowest lane (+ 1).
  private val slot = new Array[Int](MultiHBfs.Lanes + 1)
  // Loss bounds: the radius-ρ planes at ball(32ρ until 32ρ + ballTop(ρ)),
  // for ρ < radii; each reached vertex's L so far, less the number of its
  // lanes; the logged reaches.
  private var ball = new Array[Long](32 * 8)
  private var ballTop = new Array[Int](8)
  private var radii = 0
  private val lossOf = new Array[Int](n)
  private var logW = new Array[Int](256)
  private var logLanes = new Array[Long](256)
  private var logRadius = new Array[Int](256)
  private var logged = 0

  /** After [[discover]] returns m: `found(0 until m)` are the vertices some
    * lane reached (the sources included), `foundRound(i)` is the round in
    * which a lane first reached `found(i)` (its distance to the nearest
    * source, 0 for a source) and `foundLoss(i)` the number of lanes that
    * reached it or, with `loss`, L over the lanes that reached it in round
    * 1 or later.
    */
  val found = new Array[Int](n)
  val foundRound = new Array[Int](n)
  val foundLoss = new Array[Int](n)

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

  /** The same traversal as [[run]], read out per reached vertex instead of
    * per lane: returns m and fills `found`, `foundRound` and `foundLoss`.
    * `found` lists the vertices grouped by the lowest lane that reached
    * them (a stable counting sort of the reach order), so the vertices near
    * one source stay together, as in one [[HBfs.run]] per source. Charges
    * what [[run]] charges.
    */
  def discover(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int], from: Int, lanes: Int,
               h: Int, loss: Boolean, budget: Budget): Int = {
    val nTouched =
      if (loss) traverseLoss(g, alive, vertices, from, lanes, h) else traverse(g, alive, vertices, from, lanes, h)
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
      found(at) = w; foundRound(at) = r
      if (loss) { foundLoss(at) = lossOf(w) + c; lossOf(w) = 0 } else foundLoss(at) = c
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
    var nTouched = start(vertices, from, lanes, loss = false)
    var nFrontier = nTouched
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
      nFrontier = endRound(round, nReached, nTouched)
      round += 1
    }
    clearFrontier(nFrontier)
    nTouched
  }

  /** [[traverse]] that also leaves every reached vertex's L, less the
    * number of its lanes, in `lossOf`. A loop of its own, so that the
    * h-degree and count traversals compile as before.
    */
  private def traverseLoss(g: AdjGraph, alive: Array[Boolean], vertices: Array[Int], from: Int, lanes: Int,
                           h: Int): Int = {
    var nTouched = start(vertices, from, lanes, loss = true)
    var nFrontier = nTouched
    // No radius-0 ball holds an h-neighbour.
    radii = 0
    snapshot()
    logged = 0
    var round = 1
    while (round <= h && nFrontier > 0) {
      val last = round == h
      // The lanes that reach a vertex now are at distance `round` from it;
      // their balls of radius h − round are known if h − round < round.
      val radius = h - round
      val known = radius < round
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
              if (sw == 0L) { touched(nTouched) = w; nTouched += 1 }
              seen(w) = sw | d
              if (!last) {
                if (next(w) == 0L) { reached(nReached) = w; nReached += 1 }
                next(w) |= d
                if (known) lossOf(w) += ballSum(d, radius)
                else defer(w, d, radius)
              }
            }
          }
          j += 1
        }
        k += 1
      }
      nFrontier = endRound(round, nReached, nTouched)
      if (!last) {
        // The round's new lanes grow their balls to radius `round`.
        k = 0
        while (k < nFrontier) { count(visit(frontier(k))); k += 1 }
        snapshot()
      }
      round += 1
    }
    clearFrontier(nFrontier)
    // A ball past the last round taken is the last one.
    var i = 0
    while (i < logged) {
      lossOf(logW(i)) += ballSum(logLanes(i), math.min(logRadius(i), radii - 1))
      i += 1
    }
    clearCounts()
    nTouched
  }

  /** Puts the sources in `seen`, `visit`, `touched` and the frontier, and
    * with `loss` takes each source lane's 1 off its `lossOf` (it is at
    * distance 0 and adds nothing). Returns the number of distinct sources.
    */
  private def start(vertices: Array[Int], from: Int, lanes: Int, loss: Boolean): Int = {
    require(lanes >= 1 && lanes <= MultiHBfs.Lanes, s"lanes $lanes not in [1, ${MultiHBfs.Lanes}]")
    var m = 0
    var i = 0
    while (i < lanes) {
      val s = vertices(from + i)
      if (seen(s) == 0L) { touched(m) = s; frontier(m) = s; m += 1 }
      seen(s) |= 1L << i
      visit(s) |= 1L << i
      if (loss) lossOf(s) -= 1
      i += 1
    }
    roundEnd(0) = m
    m
  }

  /** Ends round `round`: the reached vertices become the frontier, the
    * round's end in `touched` is recorded. Returns the new frontier size. */
  private def endRound(round: Int, nReached: Int, nTouched: Int): Int = {
    val v = visit; visit = next; next = v
    val f = frontier; frontier = reached; reached = f
    if (round == roundEnd.length) roundEnd = java.util.Arrays.copyOf(roundEnd, 2 * round)
    roundEnd(round) = nTouched
    nReached
  }

  private def clearFrontier(nFrontier: Int): Unit = {
    var i = 0
    while (i < nFrontier) { visit(frontier(i)) = 0L; i += 1 }
  }

  /** Adds 1 to the count of each lane of `lanes`. */
  private def count(lanes: Long): Unit = {
    var carry = lanes
    var p = 0
    while (carry != 0L) {
      val c = planes(p)
      planes(p) = c ^ carry
      carry &= c
      p += 1
    }
    if (p > inUse) inUse = p
  }

  private def clearCounts(): Unit = { java.util.Arrays.fill(planes, 0, inUse, 0L); inUse = 0 }

  /** Takes the counters as the planes of the next radius. */
  private def snapshot(): Unit = {
    if (radii == ballTop.length) {
      ballTop = java.util.Arrays.copyOf(ballTop, 2 * radii)
      ball = java.util.Arrays.copyOf(ball, 64 * radii)
    }
    System.arraycopy(planes, 0, ball, 32 * radii, inUse)
    ballTop(radii) = inUse
    radii += 1
  }

  /** Σ over the lanes of `d` of their h-neighbours within `radius`. */
  private def ballSum(d: Long, radius: Int): Int = {
    val base = 32 * radius
    var s = 0
    var p = 0
    while (p < ballTop(radius)) { s += java.lang.Long.bitCount(d & ball(base + p)) << p; p += 1 }
    s
  }

  /** Logs lanes `d` reaching w, whose balls of `radius` are not known yet. */
  private def defer(w: Int, d: Long, radius: Int): Unit = {
    if (logged == logW.length) {
      logW = java.util.Arrays.copyOf(logW, 2 * logged)
      logLanes = java.util.Arrays.copyOf(logLanes, 2 * logged)
      logRadius = java.util.Arrays.copyOf(logRadius, 2 * logged)
    }
    logW(logged) = w; logLanes(logged) = d; logRadius(logged) = radius
    logged += 1
  }
}

object MultiHBfs {
  /** Sources per block: one bit of a `Long` each. */
  private[repro] final val Lanes = 64
}
