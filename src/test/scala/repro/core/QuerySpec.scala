package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil

/** Exact query answering across every adaptive path, knob, k, and workload. */
class QuerySpec extends AnyFunSuite {

  private val len = 32
  private val n = 900

  // One index per dataset kind, shared across the suite's tests.
  private lazy val fixtures: Map[String, (Array[Long], Array[Array[Float]], HerculesIndex)] =
    Seq("walk", "deep", "seismic").map { kind =>
      val (ids, data) = TestUtil.dataset(n, len, 11, kind)
      kind -> ((ids, data, HerculesIndex.build(ids, data, TestUtil.cfg(len, 16, 2))))
    }.toMap

  private def checkQueries(kind: String, workload: String, k: Int, knobs: QueryKnobs,
                           nQ: Int = 4): Unit = {
    val (ids, data, idx) = fixtures(kind)
    val queries = SeriesGen.queries(kind, workload, nQ, n, len, 11, querySeed = k * 31 + workload.hashCode)
    queries.zipWithIndex.foreach { case (q, qi) =>
      val stats = new QueryStats
      val res = idx.knn(q, knobs.copy(k = k), stats)
      TestUtil.assertExact(ids, data, q, k, res, s"$kind/$workload k=$k q$qi knobs=$knobs")
      assert(stats.seriesAccessed.get >= res.length.toLong)
    }
  }

  for (kind <- Seq("walk", "deep", "seismic"); wl <- Seq("1%", "5%", "ood"); k <- Seq(1, 5, 20))
    test(s"exact kNN matches brute force ($kind/$wl k=$k)") {
      checkQueries(kind, wl, k, QueryKnobs(lmax = 4, threads = 2))
    }

  for (lmax <- Seq(1, 2, 64, 10000))
    test(s"exactness independent of Lmax=$lmax") {
      checkQueries("walk", "5%", 3, QueryKnobs(lmax = lmax, threads = 2))
    }

  test("forced EAPCA skip-sequential path (eapcaTh=1.0) is exact and flagged") {
    val (ids, data, idx) = fixtures("deep")
    val q = SeriesGen.queries("deep", "ood", 1, n, len, 11)(0)
    val stats = new QueryStats
    val res = idx.knn(q, QueryKnobs(k = 3, lmax = 2, eapcaTh = 1.0, threads = 2), stats)
    TestUtil.assertExact(ids, data, q, 3, res, "forced eapca skip-seq")
    assert(stats.skipSeqEapca)
  }

  test("forced SAX skip-sequential path (saxTh=1.0, eapcaTh=0) is exact and flagged") {
    val (ids, data, idx) = fixtures("deep")
    val q = SeriesGen.queries("deep", "ood", 1, n, len, 11)(0)
    val stats = new QueryStats
    val res = idx.knn(q, QueryKnobs(k = 3, lmax = 2, eapcaTh = 0.0, saxTh = 1.0, threads = 2), stats)
    TestUtil.assertExact(ids, data, q, 3, res, "forced sax skip-seq")
    assert(stats.skipSeqSax && !stats.skipSeqEapca)
  }

  for (threads <- Seq(1, 2, 4, 8))
    test(s"exactness independent of query threads=$threads") {
      checkQueries("walk", "5%", 5, QueryKnobs(lmax = 4, threads = threads))
    }

  test("NoSAX ablation (useSax=false) is exact") {
    checkQueries("walk", "ood", 3, QueryKnobs(lmax = 4, useSax = false, threads = 2))
    checkQueries("deep", "ood", 3, QueryKnobs(lmax = 4, useSax = false, threads = 2))
  }

  test("NoThresh ablation (useThresholds=false) is exact") {
    checkQueries("deep", "ood", 3, QueryKnobs(lmax = 4, useThresholds = false, threads = 2))
  }

  test("NoPara ablation (threads=1) is exact") {
    checkQueries("seismic", "10%", 3, QueryKnobs(lmax = 4, threads = 1))
  }

  test("k larger than the dataset returns every series") {
    val (ids, data) = TestUtil.dataset(10, len, 3)
    val idx = HerculesIndex.build(ids, data, TestUtil.cfg(len, 4))
    val q = SeriesGen.queries("walk", "ood", 1, 10, len, 3)(0)
    val res = idx.knn(q, QueryKnobs(k = 50, lmax = 2))
    assert(res.length == 10)
    TestUtil.assertExact(ids, data, q, 50, res, "k > n")
  }

  test("query identical to an indexed series finds it at distance 0") {
    val (ids, data, idx) = fixtures("walk")
    val res = idx.knn(data(123), QueryKnobs(k = 1, lmax = 2))
    assert(res(0).id == 123L && res(0).dist2 == 0.0)
  }

  test("easy queries access less data than hard ones (pruning works)") {
    val (_, _, idx) = fixtures("walk")
    def accessed(wl: String): Double = {
      val qs = SeriesGen.queries("walk", wl, 5, n, len, 11)
      qs.map { q =>
        val st = new QueryStats
        idx.knn(q, QueryKnobs(k = 1, lmax = 4, threads = 2), st)
        st.accessFraction(n)
      }.sum / qs.length
    }
    val easy = accessed("1%")
    val hard = accessed("ood")
    assert(easy <= hard + 1e-9, s"easy=$easy hard=$hard")
    assert(easy < 0.9, s"easy workload should prune most data, accessed ${easy * 100}%")
  }

  test("QueryStats counters populate consistently") {
    val (_, _, idx) = fixtures("walk")
    val q = SeriesGen.queries("walk", "5%", 1, n, len, 11)(0)
    val st = new QueryStats
    idx.knn(q, QueryKnobs(k = 1, lmax = 4, threads = 2), st)
    assert(st.leavesVisited.get >= 1)
    assert(st.seriesAccessed.get >= 1 && st.seriesAccessed.get <= n)
  }

  /** Step 1 of [[ExactKnn.search]] on a heap written out here, then a drain
    * of that heap: step 2's leaves and bounds, in LRDFile order.
    */
  private def heapDrain(idx: HerculesIndex, q: Array[Float], k: Int, lmax: Int): Seq[(Node, Double)] = {
    val results = new KnnSet(k)
    val refiner = new Refiner(idx, q, results, new QueryStats)
    val qc = new SeriesCtx(q)
    val heap = new java.util.PriorityQueue[(Node, Double)](64,
      (a: (Node, Double), b: (Node, Double)) => java.lang.Double.compare(a._2, b._2))
    def push(n: Node): Unit = {
      val lb2 = Eapca.lb2(qc, n)
      if (lb2 <= results.bsf) heap.add((n, lb2))
    }
    push(idx.root)
    var visited = 0
    while (visited < lmax && !heap.isEmpty) {
      val (n, lb2) = heap.poll()
      if (lb2 > results.bsf) heap.clear()
      else if (n.isLeaf) { refiner.scan(n.positions); visited += 1 }
      else { push(n.left); push(n.right) }
    }
    val out = Seq.newBuilder[(Node, Double)]
    while (!heap.isEmpty) {
      val (n, lb2) = heap.poll()
      if (lb2 > results.bsf) heap.clear()
      else if (n.isLeaf) out += ((n, lb2))
      else { push(n.left); push(n.right) }
    }
    out.result().sortBy(_._1.filePos)
  }

  /** Step 1 as [[ExactKnn.search]] runs it, then [[EapcaQueue.collect]]. */
  private def collected(idx: HerculesIndex, q: Array[Float], k: Int, lmax: Int): Seq[(Node, Double)] = {
    val results = new KnnSet(k)
    val refiner = new Refiner(idx, q, results, new QueryStats)
    val pq = new EapcaQueue(new SeriesCtx(q), results)
    pq.push(idx.root)
    var visited = 0
    pq.run { (leaf, _) => refiner.scan(leaf.positions); visited += 1; visited < lmax }
    pq.collect().sortBy(_._1.filePos).toSeq
  }

  // Walks mixed with noisy flat lines, queried by more of them and by two
  // indexed series (whose BSF after step 1 may already be 0).
  for ((mode, threads) <- Seq[(BuildMode, Int)]((BuildMode.Hercules, 2), (BuildMode.PathLocked, 1)))
    test(s"step 2 collects the leaves and bounds of a heap drain, in file order ($mode)") {
      val data = TestUtil.offsetSet("mixed", 1000, len, 0.0, 5)
      val ids = Array.tabulate(data.length)(_.toLong)
      val idx = HerculesIndex.build(ids, data, TestUtil.cfg(len, 8, threads), mode)
      val queries = TestUtil.offsetSet("mixed", 6, len, 0.0, 55) ++ Seq(data(4), data(5))
      def key(leaves: Seq[(Node, Double)]) = leaves.map { case (n, lb2) => (n.id, n.filePos, lb2) }
      var leaves = 0
      for (q <- queries; k <- Seq(1, 10); lmax <- Seq(1, 4)) {
        val got = collected(idx, q, k, lmax)
        assert(key(got) == key(heapDrain(idx, q, k, lmax)), s"k $k lmax $lmax")
        leaves += got.length
      }
      assert(leaves > 0)
    }
}
