package repro.core

/** One k-NN answer: a series id and its squared Euclidean distance `dist2`,
  * kept squared so comparisons stay exact; callers take `sqrt` to report.
  */
final case class Neighbor(id: Long, dist2: Double)

/** Bounded best-so-far set for k-NN (the paper's `Results` array).
  *
  * Keeps the k smallest (dist², id) pairs in sorted order; `bsf` is the kth
  * distance (+∞ until k answers exist). Ties break on id so all methods and
  * the DuckDB oracle agree deterministically. `add` is not thread-safe;
  * parallel workers use `addSync` and `bsfSync`, which share this object's
  * one monitor, so every bound read also takes the lock (the paper's
  * readers-writers lock on Results is not reproduced).
  */
final class KnnSet(val k: Int) {
  private val d2 = Array.fill(k)(Double.PositiveInfinity)
  private val id = Array.fill(k)(Long.MaxValue)

  /** Current kth-best squared distance (the pruning bound BSF_k). */
  def bsf: Double = d2(k - 1)

  private def beats(dist2: Double, sid: Long, i: Int): Boolean =
    dist2 < d2(i) || (dist2 == d2(i) && sid < id(i))

  /** Insert a candidate; returns true if it entered the top-k. A candidate
    * already present (same id and distance — e.g. seen by both an
    * approximate step and a refinement step) is ignored, so methods that
    * legitimately evaluate a series twice stay exact.
    */
  def add(dist2: Double, sid: Long): Boolean = {
    if (!beats(dist2, sid, k - 1)) return false
    var j = 0
    while (j < k && d2(j) <= dist2) {
      if (d2(j) == dist2 && id(j) == sid) return false
      j += 1
    }
    var i = k - 1
    while (i > 0 && beats(dist2, sid, i - 1)) { d2(i) = d2(i - 1); id(i) = id(i - 1); i -= 1 }
    d2(i) = dist2
    id(i) = sid
    true
  }

  /** Thread-safe insert. */
  def addSync(dist2: Double, sid: Long): Boolean = synchronized(add(dist2, sid))

  /** Thread-safe bound read. */
  def bsfSync: Double = synchronized(bsf)

  /** The current answers, best first, excluding unfilled slots. */
  def toArray: Array[Neighbor] =
    (0 until k).iterator
      .filter(i => !d2(i).isPosInfinity || id(i) != Long.MaxValue)
      .map(i => Neighbor(id(i), d2(i)))
      .toArray

  /** Merge another result set into this one (driver-side partition merge). */
  def addAll(other: Iterable[Neighbor]): Unit = other.foreach(nb => add(nb.dist2, nb.id))
}
