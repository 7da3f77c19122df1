package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.baselines.BruteForce
import repro.spark.LocalIndex

/** One result set shared across partitions: every method, asked for the
  * k-NN of one partition into a set that already holds another partition's
  * exact top-k, leaves a set whose merge with that partition's answers is
  * the exact k-NN of both, by `(id, dist2)`, while it accesses no more
  * series than with a fresh set, and fewer over all queries where the
  * method prunes. One thread per query, so every count is deterministic.
  */
class SharedResultSpec extends AnyFunSuite {

  private val len = 32
  private val knobs = QueryKnobs(lmax = 2, threads = 1)

  /** A dataset, cut into two contiguous halves as `Distributed.build` cuts
    * partitions, and its queries.
    */
  private case class Case(ids: Array[Long], data: Array[Array[Float]], queries: Seq[Array[Float]])

  private lazy val cases: Seq[(String, Case)] = {
    val (wIds, walks) = TestUtil.dataset(600, len, 61)
    val wq = SeriesGen.queries("walk", "5%", 6, 600, len, 61) ++ SeriesGen.queries("walk", "ood", 3, 600, len, 61)
    // 4 copies of each of 150 walks under shuffled ids: each half holds 2.
    val base = SeriesGen.dataset("walk", 150, len, 62)
    val dIds = new scala.util.Random(62).shuffle((0L until 600L).toVector).toArray
    val dups = Array.tabulate(600)(i => base(i % 150).clone())
    // Flat lines at 6 levels, 100 each, queried at and between the levels.
    val levels = Seq(-1.5f, -0.5f, 0f, 0.25f, 1f, 2f)
    val flats = Array.tabulate(600)(i => Array.fill(len)(levels(i % levels.length)))
    val fq = (levels ++ Seq(-0.75f, 0.125f, 3f)).map(v => Array.fill(len)(v)) ++ walks.take(2)
    Seq(
      "random walks" -> Case(wIds, walks, wq.toSeq ++ walks.slice(10, 12)),
      "duplicates" -> Case(dIds, dups, (0 until 8).map(i => dups(i * 37 + 3))),
      "flat lines" -> Case(Array.tabulate(600)(_.toLong), flats, fq),
    )
  }

  for (method <- LocalIndex.builders.keys; k <- Seq(1, 5))
    test(s"$method into a set holding another partition's top-k is exact and accesses no more (k=$k)") {
      val kn = knobs.copy(k = k)
      var (fresh, shared) = (0L, 0L)
      for ((name, c) <- cases) {
        val half = c.data.length / 2
        val (idsA, dataA) = (c.ids.take(half), c.data.take(half))
        val (idsB, dataB) = (c.ids.drop(half), c.data.drop(half))
        val idx = LocalIndex.builders(method)(idsA, dataA, TestUtil.cfg(len, 8))
        c.queries.zipWithIndex.foreach { case (q, qi) =>
          val what = s"$method $name q$qi"
          val alone = new QueryStats
          idx.knn(q, kn, alone)
          val topB = BruteForce.knn(idsB, dataB, q, k)
          val set = new KnnSet(k)
          set.addAll(topB)
          val st = new QueryStats
          val got = idx.knn(q, kn, st, set)
          val merged = new KnnSet(k)
          merged.addAll(topB)
          merged.addAll(got)
          TestUtil.assertExact(c.ids, c.data, q, k, merged.toArray, what)
          assert(st.seriesAccessed.get <= alone.seriesAccessed.get,
            s"$what: ${st.seriesAccessed.get} accessed with a shared set, ${alone.seriesAccessed.get} alone")
          fresh += alone.seriesAccessed.get
          shared += st.seriesAccessed.get
        }
      }
      // The set was shared, not copied: pruning against it saved accesses.
      // PSCAN touches every series whatever the BSF, only abandoning sooner.
      if (method != "pscan") assert(shared < fresh, s"$method: $shared accessed with a shared set, $fresh alone")
    }
}
