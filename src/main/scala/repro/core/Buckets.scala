package repro.core

/** Bucket queue: a vector of doubly-linked lists over vertex ids, with
  * O(1) insertion, removal, and move of an arbitrary vertex between cells.
  *
  * This is the structure the paper prescribes (footnote 2): a flat-array
  * layout à la Khaouid et al. would make a move linear in the bucket-index
  * delta, and distance-generalized peeling moves vertices by more than 1.
  *
  * Bucket indices range over [0, maxBucket]; a vertex is in at most one
  * bucket at a time.
  */
final class Buckets(n: Int, maxBucket: Int) {
  private val head = Array.fill(maxBucket + 1)(-1)
  private val next = Array.fill(n)(-1)
  private val prev = Array.fill(n)(-1)
  private val bucketOf = Array.fill(n)(-1)

  /** Bucket currently holding `v`, or -1. */
  def bucket(v: Int): Int = bucketOf(v)

  def contains(v: Int): Boolean = bucketOf(v) >= 0

  def nonEmpty(b: Int): Boolean = head(b) >= 0

  /** Insert `v` into bucket `b` (must not already be in a bucket). */
  def add(v: Int, b: Int): Unit = {
    // Not `require`: its by-name message is a closure per call, which the
    // JIT does not always scalar-replace, and the peel adds every vertex.
    if (bucketOf(v) >= 0) throw new IllegalArgumentException(s"vertex $v already bucketed")
    val h = head(b)
    next(v) = h
    prev(v) = -1
    if (h >= 0) prev(h) = v
    head(b) = v
    bucketOf(v) = b
  }

  /** Remove `v` from its bucket (no-op if not bucketed). */
  def remove(v: Int): Unit = {
    val b = bucketOf(v)
    if (b < 0) return
    val p = prev(v); val nx = next(v)
    if (p >= 0) next(p) = nx else head(b) = nx
    if (nx >= 0) prev(nx) = p
    bucketOf(v) = -1
  }

  /** Move `v` to bucket `b` (insert if not present). */
  def move(v: Int, b: Int): Unit = {
    if (bucketOf(v) == b) return
    remove(v)
    add(v, b)
  }

  /** Pop any vertex from bucket `b`; -1 if empty. */
  def pop(b: Int): Int = {
    val v = head(b)
    if (v < 0) return -1
    remove(v)
    v
  }
}
