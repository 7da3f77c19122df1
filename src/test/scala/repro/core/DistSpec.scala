package repro.core

import java.util.Random
import org.scalatest.funsuite.AnyFunSuite

/** Distance kernels: exactness and early-abandon semantics. */
class DistSpec extends AnyFunSuite {

  test("ed2 of identical series is zero") {
    val s = SeriesGen.dataset("walk", 1, 32, 1)(0)
    assert(Dist.ed2(s, s) == 0.0)
  }

  test("ed2 matches the naive definition") {
    val a = Array(1f, 2f, 3f)
    val b = Array(2f, 0f, 5f)
    assert(math.abs(Dist.ed2(a, b) - (1 + 4 + 4)) < 1e-12)
  }

  for (seed <- 1 to 6)
    test(s"ed2Flat abandoned value exceeds the bound (seed $seed)") {
      val rng = new Random(100 + seed)
      val a = Array.fill(64)(rng.nextFloat() * 10)
      val b = Array.fill(64)(-rng.nextFloat() * 10)
      val full = Dist.ed2(a, b)
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
        assert(Dist.ed2Flat(q, flat, i * 24, Double.PositiveInfinity) == Dist.ed2(q, s))
      }
    }
}
