package repro.spark

import scala.collection.immutable.ListMap
import repro.baselines.{DSTreeIndex, ParISIndex, Pscan, VAFile}
import repro.core._

/** One partition's self-contained similarity-search structure — the unit the
  * paper's single-node methods map onto under the per-partition Spark design
  * (DESIGN.md §2). `index.knn` leaves in its result set every series of
  * the partition that ranks among the set's k best, so the driver-side
  * top-k merge is exact globally, whether or not partitions share the set.
  *
  * @param method       the name `index` was built under (a key of [[LocalIndex.builders]])
  * @param buildMs      wall-clock build time of this partition's structure, in ms
  * @param seriesLength the length of every indexed series, and of a query
  */
final case class LocalIndex(method: String, index: KnnIndex, buildMs: Double, seriesLength: Int) {
  /** Series indexed in this partition. */
  def nSeries: Long = index.nSeries

  /** Exact within-partition k-NN into `results` ([[KnnIndex.knn]]), which
    * may be shared with other partitions answering the same query; `stats`
    * accumulates access counters. Rejects a query of another length or
    * with a NaN or infinite point.
    */
  def knn(q: Array[Float], knobs: QueryKnobs, stats: QueryStats, results: KnnSet): Array[Neighbor] = {
    LocalIndex.checkQuery(q, seriesLength, "query")
    index.knn(q, knobs, stats, results)
  }

  /** Exact within-partition k-NN into a fresh result set. */
  def knn(q: Array[Float], knobs: QueryKnobs, stats: QueryStats): Array[Neighbor] =
    knn(q, knobs, stats, new KnnSet(knobs.k))
}

object LocalIndex {
  type Builder = (Array[Long], Array[Array[Float]], IndexConfig) => KnnIndex

  /** Every method by name, Hercules first: the names the benches and jobs
    * accept.
    */
  val builders: ListMap[String, Builder] = ListMap(
    "hercules" -> (HerculesIndex.build(_, _, _)),
    "dstree"   -> DSTreeIndex.build,
    "paris"    -> ParISIndex.build,
    "vafile"   -> VAFile.build,
    "pscan"    -> Pscan.build,
  )

  /** Index of the first NaN or infinite point of `s`, or -1. */
  private[spark] def firstNonFinite(s: Array[Float]): Int = {
    var i = 0
    while (i < s.length && java.lang.Float.isFinite(s(i))) i += 1
    if (i < s.length) i else -1
  }

  /** Reject a query `q` of another length than `len` or with a NaN or
    * infinite point; messages start with `name`.
    */
  private[spark] def checkQuery(q: Array[Float], len: Int, name: String): Unit = {
    require(q.length == len, s"$name has length ${q.length}, expected $len")
    val bad = firstNonFinite(q)
    require(bad < 0, s"$name has the non-finite value ${q(bad)} at index $bad")
  }

  /** Build one partition's structure for `method` over materialized series.
    * Rejects, by id, a series whose length is not `cfg.seriesLength` or that
    * holds a NaN or infinite point.
    */
  def build(method: String, ids: Array[Long], data: Array[Array[Float]], cfg: IndexConfig): LocalIndex = {
    val builder = builders.getOrElse(method, throw new IllegalArgumentException(s"unknown method: $method"))
    require(ids.length == data.length, s"${ids.length} ids for ${data.length} series")
    var i = 0
    while (i < data.length) {
      val s = data(i)
      require(s.length == cfg.seriesLength,
        s"series ${ids(i)} has length ${s.length}, expected ${cfg.seriesLength}")
      val bad = firstNonFinite(s)
      require(bad < 0, s"series ${ids(i)} has the non-finite value ${s(bad)} at index $bad")
      i += 1
    }
    val t0 = System.nanoTime()
    val index = builder(ids, data, cfg)
    LocalIndex(method, index, (System.nanoTime() - t0) / 1e6, cfg.seriesLength)
  }
}
