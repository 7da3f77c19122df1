package repro.core

/** The contract of every exact k-NN method (Hercules, DSTree*, ParIS+,
  * VA+file, PSCAN): one self-contained structure over a set of series that
  * answers `knobs.k` nearest neighbours exactly, under the `KnnSet` tie-break
  * (distance, then id). Methods read the knobs they use and ignore the rest.
  */
trait KnnIndex extends Serializable {
  /** Series indexed. */
  def nSeries: Int

  /** Exact k-NN of `q`; `stats` accumulates access counters. */
  def knn(q: Array[Float], knobs: QueryKnobs, stats: QueryStats = new QueryStats): Array[Neighbor]
}
