package repro.baselines

import repro.core._

/** DSTree* baseline (§2, §4.1): the optimized sequential EAPCA tree.
  *
  * Build: path-locked inserts on one thread, which maintain every path
  * node's synopsis inline (the cost Hercules defers to index writing —
  * Fig. 12a). Query: the classic exact algorithm — an approximate descent to
  * the query's home leaf seeds the best-so-far, then a priority-queue
  * traversal ordered by `LB_EAPCA` scans every non-pruned leaf with real
  * distances. Single thread, no iSAX, no thresholds.
  */
final class DSTreeIndex(val idx: HerculesIndex) extends KnnIndex {

  def nSeries: Int = idx.nSeries

  /** Exact k-NN (DSTree's search; one thread, reads no knob). */
  def knn(q: Array[Float], knobs: QueryKnobs, stats: QueryStats, results: KnnSet): Array[Neighbor] = {
    val refiner = new Refiner(idx, q, results, stats)
    def scanLeaf(leaf: Node): Unit = {
      refiner.scan(leaf.positions)
      stats.leavesVisited.incrementAndGet()
    }

    // Approximate answer: descend the split policies to the home leaf.
    val qc = new SeriesCtx(q)
    val home = idx.root.leafFor(qc)
    scanLeaf(home)

    // Exact traversal.
    val pq = new EapcaQueue(qc, results)
    pq.push(idx.root)
    pq.run { (leaf, _) => if (leaf ne home) scanLeaf(leaf); true }
    results.toArray
  }
}

object DSTreeIndex {

  /** Build the DSTree* baseline over a dataset. */
  def build(ids: Array[Long], data: Array[Array[Float]], cfg: IndexConfig): DSTreeIndex =
    new DSTreeIndex(HerculesIndex.build(ids, data, cfg.copy(buildThreads = 1), BuildMode.PathLocked))
}
