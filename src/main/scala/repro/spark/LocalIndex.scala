package repro.spark

import scala.collection.immutable.ListMap
import repro.baselines.{DSTreeIndex, ParISIndex, Pscan, VAFile}
import repro.core._

/** One partition's self-contained similarity-search structure — the unit the
  * paper's single-node methods map onto under the per-partition Spark design
  * (DESIGN.md §2). `index.knn` is exact within the partition, so the
  * driver-side top-k merge is exact globally.
  *
  * @param method  the name `index` was built under (a key of [[LocalIndex.builders]])
  * @param buildMs wall-clock build time of this partition's structure, in ms
  */
final case class LocalIndex(method: String, index: KnnIndex, buildMs: Double) {
  /** Series indexed in this partition. */
  def nSeries: Long = index.nSeries

  /** Exact within-partition k-NN; `stats` accumulates access counters. */
  def knn(q: Array[Float], knobs: QueryKnobs, stats: QueryStats): Array[Neighbor] =
    index.knn(q, knobs, stats)
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

  /** Build one partition's structure for `method` over materialized series. */
  def build(method: String, ids: Array[Long], data: Array[Array[Float]], cfg: IndexConfig): LocalIndex = {
    val builder = builders.getOrElse(method, throw new IllegalArgumentException(s"unknown method: $method"))
    val t0 = System.nanoTime()
    val index = builder(ids, data, cfg)
    LocalIndex(method, index, (System.nanoTime() - t0) / 1e6)
  }
}
