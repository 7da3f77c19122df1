package repro.baselines

import repro.core.{Dist, KnnSet, Neighbor}

/** Exact reference scan without any optimization — the tests' ground truth. */
object BruteForce {

  /** k-NN of `q` over `(ids, data)` by full squared-ED scan. */
  def knn(ids: Array[Long], data: Array[Array[Float]], q: Array[Float], k: Int): Array[Neighbor] = {
    val set = new KnnSet(k)
    val qd = Dist.widen(q)
    var i = 0
    while (i < data.length) { set.add(Dist.ed2Flat(qd, data(i), 0, Double.PositiveInfinity), ids(i)); i += 1 }
    set.toArray
  }
}
