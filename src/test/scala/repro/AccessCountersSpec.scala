package repro

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.spark.LocalIndex

/** The access counters of every method on one thread, pinned to fixed
  * values for one dataset and query set: a refactor of the scan, filter and
  * refine loops must visit, prune and count exactly as before.
  */
class AccessCountersSpec extends AnyFunSuite {

  private val len = 32
  private val n = 800
  private lazy val (ids, data) = TestUtil.dataset(n, len, 5)
  private lazy val queries =
    SeriesGen.queries("walk", "5%", 4, n, len, 5) ++ SeriesGen.queries("walk", "ood", 2, n, len, 5)
  private val knobs = QueryKnobs(k = 3, lmax = 2, threads = 1)

  /** `seriesAccessed` per query, by method. */
  private val accessed: Map[String, Seq[Long]] = Map(
    "hercules" -> Seq(38, 20, 721, 45, 61, 39),
    "dstree"   -> Seq(350, 221, 721, 233, 241, 266),
    "paris"    -> Seq(45, 21, 126, 34, 55, 28),
    "vafile"   -> Seq(269, 265, 277, 272, 272, 261),
    "pscan"    -> Seq(800, 800, 800, 800, 800, 800),
  )

  for (method <- LocalIndex.builders.keys)
    test(s"$method: seriesAccessed per query on one thread is pinned") {
      val idx = LocalIndex.builders(method)(ids, data, TestUtil.cfg(len))
      val got = queries.toSeq.map { q =>
        val st = new QueryStats
        idx.knn(q, knobs, st)
        st.seriesAccessed.get
      }
      assert(got == accessed.getOrElse(method, Nil), s"$method: $got")
    }

  private case class Steps(accessed: Long, leaves: Long, saxChecked: Long, candidateLeaves: Long,
                           candidateSeries: Long, eapcaScan: Boolean, saxScan: Boolean)

  /** Hercules's per-step counters: the six queries, then the last one with
    * EAPCA_TH forced (eapcaTh = 1) and with SAX_TH forced (eapcaTh = 0,
    * saxTh = 1).
    */
  private val steps: Seq[Steps] = Seq(
    Steps(38, 2, 325, 30, 18, false, false),
    Steps(20, 2, 205, 20, 4, false, false),
    Steps(721, 2, 0, 68, 0, true, false),
    Steps(45, 2, 281, 29, 31, false, false),
    Steps(61, 2, 250, 23, 53, false, false),
    Steps(39, 2, 342, 33, 36, false, false),
    Steps(331, 2, 0, 33, 0, true, false),
    Steps(39, 2, 342, 33, 36, false, true),
  )

  test("hercules: step counters and adaptive path on one thread are pinned") {
    val idx = HerculesIndex.build(ids, data, TestUtil.cfg(len))
    val runs = queries.toSeq.map((_, knobs)) ++ Seq(
      (queries.last, knobs.copy(eapcaTh = 1.0)),
      (queries.last, knobs.copy(eapcaTh = 0.0, saxTh = 1.0)))
    val got = runs.map { case (q, kn) =>
      val st = new QueryStats
      idx.knn(q, kn, st)
      Steps(st.seriesAccessed.get, st.leavesVisited.get, st.saxChecked.get, st.candidateLeaves,
        st.candidateSeries, st.skipSeqEapca, st.skipSeqSax)
    }
    assert(got == steps, got.mkString("\n"))
    assert(got(6).eapcaScan && !got(6).saxScan)
    assert(got(7).saxScan && !got(7).eapcaScan)
  }
}
