package repro.core

import scala.collection.mutable.ArrayBuffer

/** The LRDFile layout every method keeps its raw series in: the series at
  * position `pos` is `lrd[pos * len, (pos + 1) * len)` and has id `ids(pos)`.
  */
trait FlatSeries {
  def len: Int
  def lrd: Array[Float]
  def ids: Array[Long]
}

object FlatSeries {

  /** Copy `data`, `len` floats per series, into one flat array in order. */
  def pack(data: Array[Array[Float]], len: Int): Array[Float] = {
    val flat = new Array[Float](data.length * len)
    var i = 0
    while (i < data.length) { System.arraycopy(data(i), 0, flat, i * len, len); i += 1 }
    flat
  }

  /** Positions `0 until n` in consecutive ranges of `size`. */
  def blocks(n: Int, size: Int): IndexedSeq[Range] = (0 until n by size).map(b => b until math.min(n, b + size))
}

/** The refinement policy of the five methods, over one query `q` against a
  * [[FlatSeries]]: real distances early-abandon against the best-so-far
  * (BSF) of `results`, and every real distance counts in
  * `stats.seriesAccessed`. Every operation reads the BSF with `results.bsf`
  * and inserts with `results.add` on any number of threads: the
  * [[KnnSet]] is the one shared BSF, lock-free to read.
  */
final class Refiner(data: FlatSeries, q: Array[Float], k: Int, stats: QueryStats) {
  import Refiner.{Candidates, admits}

  private val len = data.len
  private val lrd = data.lrd
  private val ids = data.ids

  /** The answers so far. */
  val results = new KnnSet(k)

  /** Range scan: the real distance of every series of `ranges`, in order,
    * with no lower-bound test; `threads` workers claim ranges one at a time.
    * With `at`, a range holds indices into `at`, which holds the positions.
    */
  def scan(ranges: collection.IndexedSeq[Range], threads: Int = 1, at: Array[Int] = null): Unit = {
    Par.claim(threads, ranges.length) { (_, r) =>
      val range = ranges(r)
      var i = range.start
      while (i < range.end) {
        val pos = if (at == null) i else at(i)
        results.add(Dist.ed2Flat(q, lrd, pos * len, results.bsf), ids(pos))
        i += 1
      }
      stats.seriesAccessed.addAndGet(range.length)
    }
  }

  /** Lower-bound filter: the `(pos, lb2)` of every position of `ranges`
    * whose squared lower bound `lb2(range index, pos)` passes against the BSF
    * read once per range, one list per worker; `threads` workers claim
    * ranges one at a time. The BSF only falls, so [[refine]] would drop every
    * series the filter drops.
    */
  def filter(ranges: collection.IndexedSeq[Range], threads: Int)(lb2: (Int, Int) => Double): Array[Candidates] = {
    val out = Array.fill(threads)(new Candidates)
    Par.claim(threads, ranges.length) { (t, r) =>
      val range = ranges(r)
      val bsf = results.bsf
      var pos = range.start
      while (pos < range.end) {
        val b = lb2(r, pos)
        if (admits(b, bsf)) out(t) += ((pos, b))
        pos += 1
      }
    }
    out
  }

  /** Candidate refine: each list's `(pos, lb2)` in order, one worker per
    * list; a candidate whose bound passes against the current BSF gets its
    * real distance, bounded by that BSF, and counts as accessed.
    */
  def refine(lists: collection.Seq[Candidates]): Unit = {
    Par.claim(lists.length, lists.length) { (_, l) =>
      val list = lists(l)
      var accessed = 0L
      var j = 0
      while (j < list.length) {
        val (pos, lb2) = list(j)
        val bsf = results.bsf
        if (admits(lb2, bsf)) {
          results.add(Dist.ed2Flat(q, lrd, pos * len, bsf), ids(pos))
          accessed += 1
        }
        j += 1
      }
      stats.seriesAccessed.addAndGet(accessed)
    }
  }
}

object Refiner {
  /** Survivors of a lower-bound filter: `(position, squared lower bound)`. */
  type Candidates = ArrayBuffer[(Int, Double)]

  /** Every worker's candidates in one list, in position (file) order. */
  def inOrder(lists: Array[Candidates]): Candidates =
    ArrayBuffer.from(lists.iterator.flatten).sortInPlaceBy(_._1)

  /** The pruning test of every method: a series or node whose squared lower
    * bound is `lb2` may improve the answers whose kth distance is `bsf`. A
    * bound equal to the BSF passes: a series at exactly the kth distance
    * still wins the tie-break when its id is smaller.
    */
  def admits(lb2: Double, bsf: Double): Boolean = lb2 <= bsf
}
