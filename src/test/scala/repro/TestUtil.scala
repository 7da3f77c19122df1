package repro

import repro.core._
import repro.baselines.BruteForce

/** Shared helpers for the test suites: tiny configs, datasets, and the
  * brute-force agreement assertion every exactness test uses.
  */
object TestUtil {

  /** Small index config for unit tests. */
  def cfg(len: Int, leaf: Int = 16, threads: Int = 1): IndexConfig =
    IndexConfig(seriesLength = len, leafCapacity = leaf, buildThreads = threads,
      writerThreads = threads, dbSize = 64)

  /** Deterministic walk dataset with ids 0..n-1. */
  def dataset(n: Int, len: Int, seed: Long, kind: String = "walk"): (Array[Long], Array[Array[Float]]) =
    (Array.tabulate(n)(_.toLong), SeriesGen.dataset(kind, n, len, seed))

  /** Assert `actual` equals the brute-force exact k-NN for `q` by id and
    * bit-equal `dist2`: every method shares `Dist.ed2Flat`'s summation order.
    */
  def assertExact(ids: Array[Long], data: Array[Array[Float]], q: Array[Float], k: Int,
                  actual: Array[Neighbor], context: String = ""): Unit = {
    val expect = BruteForce.knn(ids, data, q, k)
    assert(expect.length == actual.length,
      s"$context: got ${actual.length} answers, expected ${expect.length}")
    expect.zip(actual).zipWithIndex.foreach { case ((e, a), i) =>
      assert(e.id == a.id && e.dist2 == a.dist2,
        s"$context: rank $i differs: expected (${e.id}, ${e.dist2}), got (${a.id}, ${a.dist2})")
    }
  }
}
