package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.core._
import repro.spark.LocalIndex

/** Exactness of every baseline against brute force, across datasets,
  * workloads and k — plus method-specific invariants.
  */
class BaselinesSpec extends AnyFunSuite {

  private val len = 32
  private val n = 700

  private lazy val fixtures: Map[String, (Array[Long], Array[Array[Float]])] =
    Seq("walk", "deep").map(kind => kind -> TestUtil.dataset(n, len, 31, kind)).toMap

  private lazy val pscans = fixtures.map { case (k, (ids, data)) => k -> Pscan.build(ids, data, TestUtil.cfg(len)) }
  private lazy val dstrees = fixtures.map { case (k, (ids, data)) =>
    k -> DSTreeIndex.build(ids, data, TestUtil.cfg(len, 16))
  }
  private lazy val pariss = fixtures.map { case (k, (ids, data)) =>
    k -> ParISIndex.build(ids, data, TestUtil.cfg(len, 16))
  }
  private lazy val vafiles = fixtures.map { case (k, (ids, data)) => k -> VAFile.build(ids, data, TestUtil.cfg(len)) }

  for (kind <- Seq("walk", "deep"); wl <- Seq("1%", "5%", "ood"); k <- Seq(1, 5))
    test(s"PSCAN exact ($kind/$wl k=$k)") {
      val (ids, data) = fixtures(kind)
      SeriesGen.queries(kind, wl, 3, n, len, 31).zipWithIndex.foreach { case (q, qi) =>
        TestUtil.assertExact(ids, data, q, k, pscans(kind).knn(q, QueryKnobs(k = k, threads = 4)), s"pscan $qi")
      }
    }

  for (kind <- Seq("walk", "deep"); wl <- Seq("1%", "5%", "ood"); k <- Seq(1, 5))
    test(s"DSTree* exact ($kind/$wl k=$k)") {
      val (ids, data) = fixtures(kind)
      SeriesGen.queries(kind, wl, 3, n, len, 31).zipWithIndex.foreach { case (q, qi) =>
        TestUtil.assertExact(ids, data, q, k, dstrees(kind).knn(q, QueryKnobs(k = k)), s"dstree $qi")
      }
    }

  for (kind <- Seq("walk", "deep"); wl <- Seq("1%", "5%", "ood"); k <- Seq(1, 5))
    test(s"ParIS+ exact ($kind/$wl k=$k)") {
      val (ids, data) = fixtures(kind)
      SeriesGen.queries(kind, wl, 3, n, len, 31).zipWithIndex.foreach { case (q, qi) =>
        TestUtil.assertExact(ids, data, q, k, pariss(kind).knn(q, QueryKnobs(k = k, threads = 3)), s"paris $qi")
      }
    }

  for (kind <- Seq("walk", "deep"); wl <- Seq("1%", "5%", "ood"); k <- Seq(1, 5))
    test(s"VA+file exact ($kind/$wl k=$k)") {
      val (ids, data) = fixtures(kind)
      SeriesGen.queries(kind, wl, 3, n, len, 31).zipWithIndex.foreach { case (q, qi) =>
        TestUtil.assertExact(ids, data, q, k, vafiles(kind).knn(q, QueryKnobs(k = k)), s"vafile $qi")
      }
    }

  // 4 copies of each of 100 walks under shuffled ids: a copy's bound equals
  // the BSF once another copy is found, and the tie-break wants the least id.
  private lazy val copies: (Array[Long], Array[Array[Float]]) = {
    val base = SeriesGen.dataset("walk", 100, 64, 41)
    val ids = new scala.util.Random(41).shuffle((0L until 400L).toVector).toArray
    (ids, Array.tabulate(400)(i => base(i % 100).clone()))
  }

  for (method <- LocalIndex.builders.keys; k <- Seq(1, 3))
    test(s"$method exact by id on duplicated series (k=$k)") {
      val (ids, data) = copies
      val idx = LocalIndex.builders(method)(ids, data, TestUtil.cfg(64))
      for (threads <- Seq(1, 4); qi <- 0 until 40) {
        val q = data(qi * 7 + 3)
        TestUtil.assertExact(ids, data, q, k, idx.knn(q, QueryKnobs(k = k, lmax = 4, threads = threads)),
          s"$method q$qi threads=$threads")
      }
    }

  test("VAFile DFT transform lower-bounds the true distance") {
    val data = SeriesGen.dataset("walk", 30, len, 5)
    val q = SeriesGen.dataset("walk", 1, len, 6)(0)
    val qf = VAFile.transform(q)
    data.foreach { s =>
      val sf = VAFile.transform(s)
      val featDist = qf.zip(sf).map { case (a, b) => (a - b) * (a - b) }.sum
      assert(featDist <= Dist.ed2(q, s) + 1e-6)
    }
  }

  test("VAFile transform preserves energy ordering (Parseval sanity)") {
    val s = SeriesGen.dataset("walk", 1, 64, 8)(0)
    val f = VAFile.transform(s)
    val featEnergy = f.map(x => x * x).sum
    val fullEnergy = s.map(x => x.toDouble * x).sum
    assert(featEnergy <= fullEnergy + 1e-6)
    assert(featEnergy > 0.3 * fullEnergy, "DFT should capture most walk energy")
  }

  test("VAFile cell bounds contain their member features") {
    val (ids, data) = fixtures("walk")
    val va = vafiles("walk")
    for (i <- 0 until 50) {
      val f = VAFile.transform(data(i))
      for (d <- 0 until VAFile.Dims) {
        val c = va.cells(i * VAFile.Dims + d) & 0xff
        assert(f(d) >= va.boundaries(d)(c) - 1e-9)
        assert(f(d) <= va.boundaries(d)(c + 1) + 1e-9)
      }
    }
  }

  test("ParIS+ groups partition the collection") {
    val p = pariss("walk")
    assert(p.groups.values.map(_.length).sum == n)
  }

  test("ParIS+ handles a query landing in an empty subtree") {
    val (ids, data) = fixtures("deep")
    val far = Array.fill(len)(0f) // all-zero z-normed vector: likely empty key
    val res = pariss("deep").knn(Stats.znorm(far.map(_ + 1f)), QueryKnobs(k = 3, threads = 2))
    TestUtil.assertExact(ids, data, Stats.znorm(far.map(_ + 1f)), 3, res, "empty subtree")
  }

  test("DSTree query visits fewer series than a scan on easy queries") {
    val (_, data) = fixtures("walk")
    val st = new QueryStats
    val q = SeriesGen.queries("walk", "1%", 1, n, len, 31)(0)
    dstrees("walk").knn(q, QueryKnobs(k = 1), st)
    assert(st.seriesAccessed.get < n, s"accessed ${st.seriesAccessed.get} of $n")
  }

  test("BruteForce returns k sorted answers") {
    val (ids, data) = fixtures("walk")
    val q = SeriesGen.queries("walk", "5%", 1, n, len, 31)(0)
    val res = BruteForce.knn(ids, data, q, 7)
    assert(res.length == 7)
    res.sliding(2).foreach(p => assert(p(0).dist2 <= p(1).dist2))
  }
}
