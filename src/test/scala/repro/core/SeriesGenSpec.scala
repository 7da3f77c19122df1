package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil

/** Generators: determinism, normalization, workload construction. */
class SeriesGenSpec extends AnyFunSuite {

  for (kind <- SeriesGen.Kinds) {
    test(s"$kind series are deterministic in (seed, id)") {
      val a = SeriesGen.seriesForId(kind, 42, 64, 7)
      val b = SeriesGen.seriesForId(kind, 42, 64, 7)
      assert(a.toSeq == b.toSeq)
      val c = SeriesGen.seriesForId(kind, 43, 64, 7)
      assert(a.toSeq != c.toSeq)
      val d = SeriesGen.seriesForId(kind, 42, 64, 8)
      assert(a.toSeq != d.toSeq)
    }

    test(s"$kind series are z-normalized") {
      val s = SeriesGen.seriesForId(kind, 5, 96, 3)
      val (m, sd) = TestUtil.meanSd(s, 0, s.length)
      assert(math.abs(m) < 1e-3)
      assert(math.abs(sd - 1.0) < 1e-3)
    }
  }

  test("unknown kind is rejected") {
    intercept[IllegalArgumentException](SeriesGen.seriesForId("nope", 0, 8, 0))
  }

  test("dataset materializes ids 0..n-1 in order") {
    val d = SeriesGen.dataset("walk", 10, 32, 5)
    assert(d.length == 10)
    d.zipWithIndex.foreach { case (s, i) =>
      assert(s.toSeq == SeriesGen.seriesForId("walk", i, 32, 5).toSeq)
    }
  }

  test("ood queries are outside the indexed id range but same generator") {
    val qs = SeriesGen.queries("walk", "ood", 3, nData = 100, len = 32, globalSeed = 5)
    qs.zipWithIndex.foreach { case (q, i) =>
      assert(q.toSeq == SeriesGen.seriesForId("walk", 100 + i, 32, 5).toSeq)
    }
  }

  for (wl <- Seq("1%", "2%", "5%", "10%"))
    test(s"$wl queries are perturbed in-dataset series") {
      val n = 50
      val qs = SeriesGen.queries("walk", wl, 5, n, 64, 9)
      val data = SeriesGen.dataset("walk", n, 64, 9)
      qs.foreach { q =>
        val best = data.map(s => TestUtil.ed2(q, s)).min
        // a sigma^2-perturbed z-normed series stays near its source
        assert(best < 64 * 1.5, s"query too far from every source: $best")
        val (m, sd) = TestUtil.meanSd(q, 0, 64)
        assert(math.abs(m) < 1e-3 && math.abs(sd - 1.0) < 1e-3)
      }
    }

  test("more noise means harder queries on average") {
    val n = 80
    val data = SeriesGen.dataset("walk", n, 64, 13)
    def avgBest(wl: String): Double = {
      val qs = SeriesGen.queries("walk", wl, 10, n, 64, 13)
      qs.map(q => data.map(s => TestUtil.ed2(q, s)).min).sum / qs.length
    }
    assert(avgBest("1%") < avgBest("10%"))
  }

  test("queries are deterministic in their seed") {
    val a = SeriesGen.queries("deep", "5%", 4, 100, 32, 3, querySeed = 5)
    val b = SeriesGen.queries("deep", "5%", 4, 100, 32, 3, querySeed = 5)
    assert(a.zip(b).forall { case (x, y) => x.toSeq == y.toSeq })
  }
}
