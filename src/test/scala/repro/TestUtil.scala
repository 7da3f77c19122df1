package repro

import java.util.Random
import repro.core._
import repro.baselines.BruteForce

/** Shared helpers for the test suites: tiny configs, datasets, and the
  * brute-force agreement assertion every exactness test uses.
  */
object TestUtil {

  /** Squared Euclidean distance between two series: `Dist.ed2Flat` with no
    * bound.
    */
  def ed2(a: Array[Float], b: Array[Float]): Double = Dist.ed2Flat(a, b, 0, Double.PositiveInfinity)

  /** Small index config for unit tests. */
  def cfg(len: Int, leaf: Int = 16, threads: Int = 1): IndexConfig =
    IndexConfig(seriesLength = len, leafCapacity = leaf, buildThreads = threads,
      writerThreads = threads, dbSize = 64)

  /** Deterministic walk dataset with ids 0..n-1. */
  def dataset(n: Int, len: Int, seed: Long, kind: String = "walk"): (Array[Long], Array[Array[Float]]) =
    (Array.tabulate(n)(_.toLong), SeriesGen.dataset(kind, n, len, seed))

  /** Raw series that are not z-normalized, at `offset`: "noisy-flat" is flat
    * lines at a N(0, 1) level plus N(0, 1e-2) noise, and "mixed" alternates
    * those with random walks.
    */
  def offsetSet(kind: String, n: Int, len: Int, offset: Double, seed: Long): Array[Array[Float]] = {
    val rng = new Random(seed)
    Array.tabulate(n) { i =>
      val flat = kind == "noisy-flat" || i % 2 == 0
      val level = rng.nextGaussian()
      var walk = 0.0
      Array.tabulate(len) { _ =>
        walk += rng.nextGaussian()
        (offset + (if (flat) level + 1e-2 * rng.nextGaussian() else walk)).toFloat
      }
    }
  }

  /** Two-pass mean and population sd of `s[from, until)`: the reference the
    * index's [[SeriesCtx]] is checked against.
    */
  def meanSd(s: Array[Float], from: Int, until: Int): (Double, Double) = {
    val len = until - from
    var sum = 0.0
    for (i <- from until until) sum += s(i)
    val mean = sum / len
    var ss = 0.0
    for (i <- from until until) { val d = s(i) - mean; ss += d * d }
    (mean, math.sqrt(ss / len))
  }

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
