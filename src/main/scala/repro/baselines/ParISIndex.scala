package repro.baselines

import scala.collection.mutable.ArrayBuffer
import repro.core._

/** ParIS+ baseline (§2): the iSAX-family multi-core index.
  *
  * Build is summary-only (the raw data is touched once to compute iSAX
  * words), which is why ParIS+ builds an order of magnitude faster than
  * EAPCA trees. Query answering follows the parallel ADS+SIMS algorithm: an
  * approximate answer from the query's root subtree, then a parallel scan of
  * *all* iSAX words with `LB_SAX`, then refinement of the survivors in file
  * order. The raw file keeps insertion order (ParIS+ has no leaf-clustered
  * LRDFile) — neighbors are scattered, which is what degrades it on hard
  * workloads and large k (Fig. 10/11).
  *
  * Simplification (DESIGN.md): root subtrees are the 2^segments top-bit
  * groups without the deeper variable-cardinality split hierarchy; query-time
  * behaviour is dominated by the flat summary scan + skip-sequential refine,
  * which are implemented faithfully.
  */
final class ParISIndex(
    val len: Int,
    val lrd: Array[Float],
    val ids: Array[Long],
    val lsd: Array[Byte],
    val nSeries: Int,
    val isax: ISax,
    val groups: Map[Int, Array[Int]],
) extends KnnIndex with FlatSeries {

  /** Exact k-NN via parallel SIMS (summary scan + file-order refinement) on
    * `knobs.threads`.
    */
  def knn(q: Array[Float], knobs: QueryKnobs, stats: QueryStats, results: KnnSet): Array[Neighbor] = {
    val refiner = new Refiner(this, q, results, stats)
    val paaQ = isax.paa(q)
    val qWord = new Array[Byte](isax.segments)
    var i = 0
    while (i < isax.segments) { qWord(i) = isax.symbolOf(paaQ(i)); i += 1 }
    val qKey = ParISIndex.keyOf(qWord, 0, isax.segments)

    // Approximate answer from the query's root subtree (nearest non-empty
    // group by Hamming distance on the top bits when the exact one is empty).
    val group = groups.getOrElse(qKey,
      groups.minByOption { case (key, _) => Integer.bitCount(key ^ qKey) }.map(_._2).getOrElse(Array.empty[Int]))
    refiner.scan(0 until math.min(group.length, 4096), at = group)

    // SIMS filtering: parallel LB_SAX over every summary in LSDFile.
    val t = knobs.threads
    val table = isax.queryTable(paaQ)
    val found = refiner.filter(FlatSeries.blocks(nSeries, 4096), t)((_, j) => table.lb2(lsd, j * isax.segments))
    stats.saxChecked.addAndGet(nSeries)
    val candidates = Refiner.inOrder(found)
    stats.candidateSeries = candidates.length

    // Refinement in file order (parallel chunks, shared BSF).
    refiner.refine(candidates.grouped(math.max(1, (candidates.length + t - 1) / t)).toVector)
    results.toArray
  }
}

object ParISIndex {

  /** Root-subtree key of the iSAX word at `word[off, off + segments)`: the
    * top bit of each symbol, first segment highest.
    */
  private def keyOf(word: Array[Byte], off: Int, segments: Int): Int = {
    var key = 0
    var i = 0
    while (i < segments) {
      key = (key << 1) | ((word(off + i) & 0x80) >>> 7)
      i += 1
    }
    key
  }

  /** Build: one pass computing iSAX words + top-bit root-subtree grouping. */
  def build(idsIn: Array[Long], data: Array[Array[Float]], cfg: IndexConfig): ParISIndex = {
    val len = cfg.seriesLength
    val isax = ISax(cfg)
    val n = data.length
    val lrd = FlatSeries.pack(data, len)
    val lsd = new Array[Byte](n * isax.segments)
    val grouped = new java.util.HashMap[Int, ArrayBuffer[Int]]
    var i = 0
    while (i < n) {
      System.arraycopy(isax.word(data(i)), 0, lsd, i * isax.segments, isax.segments)
      val key = keyOf(lsd, i * isax.segments, isax.segments)
      var buf = grouped.get(key)
      if (buf == null) { buf = new ArrayBuffer[Int]; grouped.put(key, buf) }
      buf += i
      i += 1
    }
    val groups = {
      val b = Map.newBuilder[Int, Array[Int]]
      grouped.forEach((k, v) => b += (k -> v.toArray))
      b.result()
    }
    new ParISIndex(len, lrd, idsIn.clone(), lsd, n, isax, groups)
  }
}
