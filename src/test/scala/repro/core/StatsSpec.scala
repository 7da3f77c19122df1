package repro.core

import java.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.TestUtil.meanSd

/** Z-normalization and the index's segment statistic, [[SeriesCtx]], checked
  * against the two-pass reference `TestUtil.meanSd`.
  */
class StatsSpec extends AnyFunSuite {

  private def randSeries(rng: Random, n: Int): Array[Float] =
    Array.fill(n)((rng.nextDouble() * 100 - 50).toFloat)

  test("meanSd of a constant segment is (c, 0)") {
    val s = Array.fill(10)(3.5f)
    val (m, sd) = meanSd(s, 0, 10)
    assert(m == 3.5 && sd == 0.0)
    val ctx = new SeriesCtx(s)
    assert(ctx.mean(0, 10) == 3.5 && ctx.sd(0, 10) == 0.0)
    assert(ctx.mean(3, 7) == 3.5 && ctx.sd(3, 7) == 0.0)
  }

  test("meanSd matches direct computation on a known segment") {
    val s = Array(1f, 2f, 3f, 4f, 5f, 6f)
    val ctx = new SeriesCtx(s) // segment [1, 5) is 2,3,4,5
    for ((m, sd) <- Seq(meanSd(s, 1, 5), (ctx.mean(1, 5), ctx.sd(1, 5)))) {
      assert(math.abs(m - 3.5) < 1e-12)
      assert(math.abs(sd - math.sqrt(1.25)) < 1e-12)
    }
  }

  test("meanSd never returns negative variance (catastrophic cancellation)") {
    val s = Array.fill(32)(1e6f)
    assert(meanSd(s, 0, 32)._2 >= 0.0)
    assert(new SeriesCtx(s).sd(0, 32) == 0.0)
  }

  for (seed <- 1 to 8)
    test(s"znorm produces mean ~0 and sd ~1 (seed $seed)") {
      val z = Stats.znorm(randSeries(new Random(seed), 40 + seed))
      val ctx = new SeriesCtx(z)
      val (m, sd) = meanSd(z, 0, z.length)
      for ((cm, csd) <- Seq((m, sd), (ctx.mean(0, z.length), ctx.sd(0, z.length)))) {
        assert(math.abs(cm) < 1e-4)
        assert(math.abs(csd - 1.0) < 1e-4)
      }
    }

  test("znorm of a constant series is all zeros") {
    val z = Stats.znorm(Array.fill(8)(7f))
    assert(z.forall(_ == 0f))
  }

  for (seed <- 1 to 5)
    test(s"SeriesCtx mean/sd equals the two-pass meanSd on every segment (seed $seed)") {
      val s = randSeries(new Random(100 + seed), 32)
      val ctx = new SeriesCtx(s)
      for (from <- 0 until s.length; until <- (from + 1) to s.length) {
        val (m, sd) = meanSd(s, from, until)
        assert(math.abs(ctx.mean(from, until) - m) < 1e-5, s"mean [$from,$until)")
        assert(math.abs(ctx.sd(from, until) - sd) < 1e-5, s"sd [$from,$until)")
      }
    }

  for (seed <- 1 to 5)
    test(s"SeriesCtx whole-series stats match on walk data (seed $seed)") {
      val s = SeriesGen.dataset("walk", 1, 64, seed)(0)
      val ctx = new SeriesCtx(s)
      val (m, sd) = meanSd(s, 0, 64)
      assert(math.abs(ctx.mean(0, 64) - m) < 1e-9)
      assert(math.abs(ctx.sd(0, 64) - sd) < 1e-9)
    }

  // Prefix sums of the raw points lose the sd of these lines to cancellation;
  // shifted by the series' first point they keep it.
  for (offset <- Seq(1e4, 1e6))
    test(s"SeriesCtx mean/sd of noisy flat lines at offset $offset are within 1e-9 relative") {
      TestUtil.offsetSet("noisy-flat", 40, 64, offset, 3).foreach { s =>
        val ctx = new SeriesCtx(s)
        for ((from, until) <- Seq((0, 64), (0, 8), (8, 24), (24, 64), (63, 64))) {
          val (m, sd) = meanSd(s, from, until)
          assert(math.abs(ctx.mean(from, until) - m) <= 1e-9 * math.abs(m), s"mean [$from,$until)")
          assert(math.abs(ctx.sd(from, until) - sd) <= 1e-9 * sd, s"sd [$from,$until): ${ctx.sd(from, until)} vs $sd")
        }
      }
    }
}
