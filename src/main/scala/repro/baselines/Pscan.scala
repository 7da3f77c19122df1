package repro.baselines

import repro.core.{FlatSeries, IndexConfig, KnnIndex, KnnSet, Neighbor, QueryKnobs, QueryStats, Refiner}

/** PSCAN — the paper's parallel UCR-suite variant (§2, §4.1): an optimized
  * sequential scan with squared distances and early abandoning, parallelized
  * over fixed-size blocks with a shared best-so-far set. Stored as a flat
  * LRD-style buffer (double buffering is moot on the in-memory substrate).
  */
final class Pscan(val len: Int, val lrd: Array[Float], val ids: Array[Long], val nSeries: Int)
    extends KnnIndex with FlatSeries {

  /** Exact k-NN by early-abandoning parallel scan on `knobs.threads`. */
  def knn(q: Array[Float], knobs: QueryKnobs, stats: QueryStats, results: KnnSet): Array[Neighbor] = {
    val refiner = new Refiner(this, q, results, stats)
    refiner.scan(FlatSeries.blocks(nSeries, 1024), knobs.threads)
    results.toArray
  }
}

object Pscan {

  /** Pack a dataset into the flat scan buffer. */
  def build(ids: Array[Long], data: Array[Array[Float]], cfg: IndexConfig): Pscan =
    new Pscan(cfg.seriesLength, FlatSeries.pack(data, cfg.seriesLength), ids.clone(), data.length)
}
