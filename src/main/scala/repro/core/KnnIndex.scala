package repro.core

/** The contract of every exact k-NN method (Hercules, DSTree*, ParIS+,
  * VA+file, PSCAN): one self-contained structure over a set of series that
  * answers `knobs.k` nearest neighbours exactly, under the `KnnSet` tie-break
  * (distance, then id). Methods read the knobs they use and ignore the rest.
  */
trait KnnIndex extends Serializable {
  /** Series indexed. */
  def nSeries: Int

  /** Exact k-NN of `q` into `results`, a set of `knobs.k` answers that may
    * already hold, or meanwhile gain, answers for `q` from elsewhere;
    * returns its contents. On return no series of this index would enter
    * `results`: each one that ranks among its k best is in it. `stats`
    * accumulates access counters.
    */
  def knn(q: Array[Float], knobs: QueryKnobs, stats: QueryStats, results: KnnSet): Array[Neighbor]

  /** Exact k-NN of `q` into a fresh result set. */
  final def knn(q: Array[Float], knobs: QueryKnobs, stats: QueryStats = new QueryStats): Array[Neighbor] =
    knn(q, knobs, stats, new KnnSet(knobs.k))
}
