package repro.core

import java.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil

/** Distance kernels: exactness and early-abandon semantics. */
class DistSpec extends AnyFunSuite {

  test("ed2 of identical series is zero") {
    val s = SeriesGen.dataset("walk", 1, 32, 1)(0)
    assert(TestUtil.ed2(s, s) == 0.0)
  }

  test("ed2 matches the naive definition") {
    val a = Array(1f, 2f, 3f)
    val b = Array(2f, 0f, 5f)
    assert(math.abs(TestUtil.ed2(a, b) - (1 + 4 + 4)) < 1e-12)
  }

  for (seed <- 1 to 6)
    test(s"ed2Flat abandoned value exceeds the bound (seed $seed)") {
      val rng = new Random(100 + seed)
      val a = Array.fill(64)(rng.nextFloat() * 10)
      val b = Array.fill(64)(-rng.nextFloat() * 10)
      val full = TestUtil.ed2(a, b)
      val bound = full / 4
      val r = Dist.ed2Flat(a, b, 0, bound)
      assert(r > bound && r < full, s"$r should abandon early, past $bound but short of $full")
    }

  for (seed <- 1 to 6)
    test(s"ed2Flat equals ed2 at every offset (seed $seed)") {
      val data = SeriesGen.dataset("walk", 5, 24, seed)
      val flat = new Array[Float](5 * 24)
      data.zipWithIndex.foreach { case (s, i) => System.arraycopy(s, 0, flat, i * 24, 24) }
      val q = SeriesGen.dataset("walk", 1, 24, seed + 50)(0)
      data.zipWithIndex.foreach { case (s, i) =>
        assert(Dist.ed2Flat(q, flat, i * 24, Double.PositiveInfinity) == TestUtil.ed2(q, s))
      }
    }

  /** One running sum over the points in order: the definition. */
  private def naive(a: Array[Float], b: Array[Float]): Double =
    a.indices.map { i => val d = a(i).toDouble - b(i); d * d }.sum

  private val lengths = Seq(1, 3, 4, 15, 16, 17, 33, 96, 100, 256, 257)

  for (len <- lengths)
    test(s"ed2Flat matches a naive sum to 1e-12 relative (len $len)") {
      val rng = new Random(len)
      for (_ <- 1 to 20) {
        val q = Array.fill(len)(rng.nextGaussian().toFloat)
        val flat = Array.fill(3 * len)(rng.nextGaussian().toFloat * 2)
        val off = rng.nextInt(3) * len
        val want = naive(q, flat.slice(off, off + len))
        val got = Dist.ed2Flat(q, flat, off, Double.PositiveInfinity)
        assert(math.abs(got - want) <= 1e-12 * want, s"$got vs $want")
      }
    }

  for (len <- lengths)
    test(s"ed2Flat is the full value up to the bound and above it past the bound (len $len)") {
      val rng = new Random(1000 + len)
      val q = Array.fill(len)(rng.nextGaussian().toFloat)
      val s = Array.fill(len)(rng.nextGaussian().toFloat)
      val full = TestUtil.ed2(q, s)
      val below = Seq(0.0, full / 16, full / 2, math.nextDown(full))
      val above = Seq(full, math.nextUp(full), full * 2, Double.PositiveInfinity)
      below.foreach(b => assert(Dist.ed2Flat(q, s, 0, b) > b, s"bound $b"))
      above.foreach(b => assert(Dist.ed2Flat(q, s, 0, b) == full, s"bound $b"))
    }

  /** [[Dist.ed2Flat]]'s loop with the float query widened point by point. */
  private def widenedPerPoint(q: Array[Float], flat: Array[Float], off: Int, bound: Double): Double = {
    val acc = new Array[Double](4)
    var i = 0
    while (i + 16 <= q.length) {
      val lim = i + 16
      while (i < lim) { val d = q(i).toDouble - flat(off + i); acc(i % 4) += d * d; i += 1 }
      val sum = (acc(0) + acc(1)) + (acc(2) + acc(3))
      if (sum > bound) return sum
    }
    while (i < q.length) { val d = q(i).toDouble - flat(off + i); acc(0) += d * d; i += 1 }
    (acc(0) + acc(1)) + (acc(2) + acc(3))
  }

  for (len <- lengths)
    test(s"the widened query gives the float adapter's and ed2's value at every offset and bound (len $len)") {
      val rng = new Random(2000 + len)
      val q = Array.fill(len)(rng.nextGaussian().toFloat)
      val qd = Dist.widen(q)
      val flat = Array.fill(4 * len)(rng.nextGaussian().toFloat * 2)
      for (off <- 0 to 3 * len) {
        val full = TestUtil.ed2(q, flat.slice(off, off + len))
        val bounds = Seq(0.0, full / 2, math.nextDown(full), full, math.nextUp(full), Double.PositiveInfinity)
        bounds.foreach { b =>
          val wide = Dist.ed2Flat(qd, flat, off, b)
          assert(java.lang.Double.compare(wide, Dist.ed2Flat(q, flat, off, b)) == 0, s"offset $off bound $b")
          assert(java.lang.Double.compare(wide, widenedPerPoint(q, flat, off, b)) == 0, s"offset $off bound $b")
          if (b >= full) assert(java.lang.Double.compare(wide, full) == 0, s"offset $off bound $b")
        }
      }
    }

  test("BruteForce.knn answers as a scan of ed2 per series does") {
    val rng = new Random(77)
    for (len <- Seq(5, 32, 100)) {
      val data = Array.fill(300)(Array.fill(len)(rng.nextGaussian().toFloat))
      data(7) = data(3).clone() // a tie at equal distance
      val ids = Array.tabulate(data.length)(i => (i * 7919L) % 1000)
      for (k <- Seq(1, 10)) {
        val q = if (k == 1) data(3) else Array.fill(len)(rng.nextGaussian().toFloat)
        val want = new KnnSet(k)
        data.indices.foreach(i => want.add(TestUtil.ed2(q, data(i)), ids(i)))
        val got = repro.baselines.BruteForce.knn(ids, data, q, k)
        assert(got.toSeq == want.toArray.toSeq, s"len $len k $k")
      }
    }
  }
}
