package repro.baselines

import java.util.concurrent.atomic.AtomicInteger
import repro.core.{Dist, IndexConfig, KnnIndex, KnnSet, Neighbor, Par, QueryKnobs, QueryStats}

/** PSCAN — the paper's parallel UCR-suite variant (§2, §4.1): an optimized
  * sequential scan with squared distances and early abandoning, parallelized
  * over fixed-size blocks with a shared best-so-far set. Stored as a flat
  * LRD-style buffer (double buffering is moot on the in-memory substrate).
  */
final class Pscan(val len: Int, val lrd: Array[Float], val ids: Array[Long], val nSeries: Int)
    extends KnnIndex {

  /** Exact k-NN by early-abandoning parallel scan on `knobs.threads`. */
  def knn(q: Array[Float], knobs: QueryKnobs, stats: QueryStats): Array[Neighbor] = {
    val results = new KnnSet(knobs.k)
    val block = 1024
    val nBlocks = (nSeries + block - 1) / block
    val cursor = new AtomicInteger(0)
    Par.run(knobs.threads) { _ =>
      var b = cursor.getAndIncrement()
      while (b < nBlocks) {
        var i = b * block
        val end = math.min(nSeries, i + block)
        while (i < end) {
          val d = Dist.ed2Flat(q, lrd, i * len, results.bsfSync)
          results.addSync(d, ids(i))
          i += 1
        }
        b = cursor.getAndIncrement()
      }
    }
    stats.seriesAccessed.addAndGet(nSeries)
    results.toArray
  }
}

object Pscan {

  /** Pack a dataset into the flat scan buffer. */
  def build(ids: Array[Long], data: Array[Array[Float]], cfg: IndexConfig): Pscan = {
    val len = cfg.seriesLength
    val flat = new Array[Float](data.length * len)
    var i = 0
    while (i < data.length) { System.arraycopy(data(i), 0, flat, i * len, len); i += 1 }
    new Pscan(len, flat, ids.clone(), data.length)
  }
}
