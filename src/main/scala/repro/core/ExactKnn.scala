package repro.core

import java.util.concurrent.atomic.AtomicInteger
import scala.collection.mutable.ArrayBuffer

/** Query answering (§3.4, Algorithms 10–14).
  *
  * Step 1 — approximate search: a priority queue ordered by `LB_EAPCA` guides
  * the traversal; at most `Lmax` leaves are visited with real-distance scans.
  * Step 2 — candidate leaves: the queue is drained into LCList (sorted by
  * LRDFile position); if EAPCA pruning is below `EAPCA_TH` a single-thread
  * skip-sequential scan finishes the query.
  * Step 3 — candidate series: parallel workers filter LCList's series with
  * `LB_SAX` into per-thread SCLists; if SAX pruning is below `SAX_TH` a
  * skip-sequential scan finishes the query.
  * Step 4 — parallel refinement of SCList with early-abandoning real
  * distances and an atomically-updated result set.
  */
object ExactKnn {

  private final case class PQE(node: Node, lb: Double)
  private val byLb = new java.util.Comparator[PQE] {
    def compare(a: PQE, b: PQE): Int = java.lang.Double.compare(a.lb, b.lb)
  }

  /** Exact k-NN of `q` over `idx` under `knobs`; fills `stats`. */
  def search(idx: HerculesIndex, q: Array[Float], knobs: QueryKnobs, stats: QueryStats): Array[Neighbor] = {
    require(q.length == idx.cfg.seriesLength)
    val qc = new SeriesCtx(q)
    val results = new KnnSet(knobs.k)
    val len = idx.cfg.seriesLength
    val pq = new java.util.PriorityQueue[PQE](64, byLb)
    pq.add(PQE(idx.root, math.sqrt(Eapca.lb2(qc, idx.root))))

    // ---- Step 1: Approx-kNN (Algorithm 11) ----
    var visited = 0
    var exactDone = false
    while (!exactDone && visited < knobs.lmax && !pq.isEmpty) {
      val e = pq.poll()
      if (e.lb > math.sqrt(results.bsf)) exactDone = true // everything else is farther
      else if (e.node.isLeaf) {
        scanLeaf(idx, q, e.node, results, stats)
        visited += 1
        stats.leavesVisited.incrementAndGet()
      } else {
        addChild(e.node.left, qc, results, pq)
        addChild(e.node.right, qc, results, pq)
      }
    }
    if (exactDone || pq.isEmpty) return results.toArray

    // ---- Step 2: FindCandidateLeaves (Algorithm 12) ----
    val lc = new ArrayBuffer[(Node, Double)]
    var drained = false
    while (!drained && !pq.isEmpty) {
      val e = pq.poll()
      if (e.lb > math.sqrt(results.bsf)) drained = true
      else if (e.node.isLeaf) lc += ((e.node, e.lb))
      else {
        addChild(e.node.left, qc, results, pq)
        addChild(e.node.right, qc, results, pq)
      }
    }
    val lcSorted = lc.sortBy(_._1.filePos)
    stats.candidateLeaves = lcSorted.size
    val eapcaPr = 1.0 - lcSorted.size.toDouble / math.max(1, idx.totalLeaves)
    if (knobs.useThresholds && eapcaPr < knobs.eapcaTh) {
      // Skip-sequential scan in LRDFile order, re-checking each leaf's bound
      // against the evolving BSF.
      lcSorted.foreach { case (leaf, lb) =>
        if (lb * lb < results.bsf) scanLeaf(idx, q, leaf, results, stats)
      }
      stats.skipSeqEapca = true
      return results.toArray
    }

    // ---- Step 3: FindCandidateSeries (Algorithm 13) ----
    val threads = math.max(1, knobs.threads)
    val locals = Array.fill(threads)(new ArrayBuffer[(Int, Double)])
    if (!knobs.useSax || idx.lsd == null) {
      // NoSAX ablation: every series of every candidate leaf goes straight to
      // refinement, carrying its leaf's EAPCA bound.
      var t = 0
      lcSorted.foreach { case (leaf, lb) =>
        var i = leaf.filePos
        while (i < leaf.filePos + leaf.leafSize) {
          locals(t % threads) += ((i, lb)); t += 1; i += 1
        }
      }
    } else {
      val paaQ = idx.isax.paa(q)
      val segs = idx.isax.segments
      val cursor = new AtomicInteger(0)
      Par.run(threads) { t =>
        var checked = 0L
        var j = cursor.getAndIncrement()
        while (j < lcSorted.size) {
          val leaf = lcSorted(j)._1
          val bound = results.bsfSync
          var i = leaf.filePos
          while (i < leaf.filePos + leaf.leafSize) {
            val lb2 = idx.isax.lbSax2(paaQ, idx.lsd, i * segs)
            checked += 1
            if (lb2 < bound) locals(t) += ((i, math.sqrt(lb2)))
            i += 1
          }
          j = cursor.getAndIncrement()
        }
        stats.saxChecked.addAndGet(checked)
      }
      val scCount = locals.iterator.map(_.size.toLong).sum
      stats.candidateSeries = scCount
      val saxPr = 1.0 - scCount.toDouble / math.max(1L, idx.nSeries.toLong)
      if (knobs.useThresholds && saxPr < knobs.saxTh) {
        val merged = locals.iterator.flatten.toArray.sortBy(_._1)
        skipSeqPositions(idx, q, merged, results, stats)
        stats.skipSeqSax = true
        return results.toArray
      }
    }

    // ---- Step 4: ComputeResults (Algorithm 14) ----
    Par.run(threads) { t =>
      var accessed = 0L
      locals(t).foreach { case (pos, lbDist) =>
        val bound = results.bsfSync
        if (lbDist * lbDist < bound) {
          val d = Dist.ed2Flat(q, idx.lrd, pos * len, bound)
          accessed += 1
          results.addSync(d, idx.ids(pos))
        }
      }
      stats.seriesAccessed.addAndGet(accessed)
    }
    results.toArray
  }

  private def addChild(child: Node, qc: SeriesCtx, results: KnnSet,
                       pq: java.util.PriorityQueue[PQE]): Unit = {
    val lb = math.sqrt(Eapca.lb2(qc, child))
    if (lb < math.sqrt(results.bsf)) pq.add(PQE(child, lb))
  }

  /** Single-thread real-distance scan of every series of `leaf` against the
    * evolving BSF; counts the leaf's series as accessed.
    */
  def scanLeaf(idx: HerculesIndex, q: Array[Float], leaf: Node, results: KnnSet, stats: QueryStats): Unit = {
    val len = idx.cfg.seriesLength
    var i = leaf.filePos
    val end = leaf.filePos + leaf.leafSize
    while (i < end) {
      results.add(Dist.ed2Flat(q, idx.lrd, i * len, results.bsf), idx.ids(i))
      i += 1
    }
    stats.seriesAccessed.addAndGet(leaf.leafSize)
  }

  /** Single-thread skip-sequential scan over candidate series positions. */
  private def skipSeqPositions(idx: HerculesIndex, q: Array[Float],
                               entries: Array[(Int, Double)],
                               results: KnnSet, stats: QueryStats): Unit = {
    val len = idx.cfg.seriesLength
    var accessed = 0L
    entries.foreach { case (pos, lbDist) =>
      if (lbDist * lbDist < results.bsf) {
        val d = Dist.ed2Flat(q, idx.lrd, pos * len, results.bsf)
        accessed += 1
        results.add(d, idx.ids(pos))
      }
    }
    stats.seriesAccessed.addAndGet(accessed)
  }
}
