package repro.baselines

import repro.core.{FlatSeries, IndexConfig, KnnIndex, KnnSet, Neighbor, QueryKnobs, QueryStats, Refiner}

/** VA+file baseline (§2): a skip-sequential filter file over a 16-dimension
  * real-DFT transform of each series, with per-dimension equi-depth scalar
  * quantization (8 bits). Query answering computes a per-series cell lower
  * bound and refines survivors in file order with early abandoning.
  *
  * The transform projects onto the orthonormal real Fourier basis
  * `{1/√n, √(2/n)·cos(2πkj/n), √(2/n)·sin(2πkj/n)}`, so the distance over
  * the kept dimensions lower-bounds the full Euclidean distance; the cell
  * gap lower-bounds that in turn. Substitution (DESIGN.md): the BSF is
  * seeded by refining the first 256 series instead of from cell *upper*
  * bounds (which need all dimensions quantized); single-threaded, as the
  * paper classes VA+file as the best skip-sequential (not parallel) method.
  */
final class VAFile(
    val len: Int,
    val lrd: Array[Float],
    val ids: Array[Long],
    val nSeries: Int,
    val boundaries: Array[Array[Double]], // per dim: cells+1 edges (±∞ at ends)
    val cells: Array[Byte],               // per series × dim: cell index
) extends KnnIndex with FlatSeries {
  import VAFile.Dims

  /** Exact k-NN: seed BSF, then filter + refine skip-sequentially (one
    * thread, reads no knob).
    */
  def knn(q: Array[Float], knobs: QueryKnobs, stats: QueryStats, results: KnnSet): Array[Neighbor] = {
    val refiner = new Refiner(this, q, results, stats)
    val qf = VAFile.transform(q)
    val seed = math.min(256, nSeries)
    refiner.scan(0 until seed)
    refiner.refine(refiner.filter(Vector(seed until nSeries), 1) { (_, i) =>
      var lb2 = 0.0
      var d = 0
      val base = i * Dims
      while (d < Dims) {
        val c = cells(base + d) & 0xff
        val lo = boundaries(d)(c)
        val hi = boundaries(d)(c + 1)
        val v = qf(d)
        val gap = if (v < lo) lo - v else if (v > hi) v - hi else 0.0
        lb2 += gap * gap
        d += 1
      }
      lb2
    })
    results.toArray
  }
}

object VAFile {
  /** Transform dimensions kept per series. */
  final val Dims = 16

  /** Quantization cells per dimension (8 bits, as 16 symbols × 16 dims ≈
    * the same summary budget as iSAX 16×256).
    */
  val CellsPerDim = 256

  /** Orthonormal real-DFT features (c0, a1, b1, a2, b2, …) padded with zeros
    * when the series is too short for a harmonic (`2k < n` required).
    */
  def transform(s: Array[Float]): Array[Double] = {
    val n = s.length
    val out = new Array[Double](Dims)
    var sum = 0.0
    var j = 0
    while (j < n) { sum += s(j); j += 1 }
    out(0) = sum / math.sqrt(n)
    var d = 1
    var k = 1
    val scale = math.sqrt(2.0 / n)
    while (d < Dims && 2 * k < n) {
      var a = 0.0
      var b = 0.0
      val w = 2.0 * math.Pi * k / n
      j = 0
      while (j < n) { a += s(j) * math.cos(w * j); b += s(j) * math.sin(w * j); j += 1 }
      out(d) = a * scale
      if (d + 1 < Dims) out(d + 1) = b * scale
      d += 2
      k += 1
    }
    out
  }

  /** Build the VA+file: transform, fit equi-depth boundaries, quantize. */
  def build(idsIn: Array[Long], data: Array[Array[Float]], cfg: IndexConfig): VAFile = {
    val len = cfg.seriesLength
    val n = data.length
    val feats = new Array[Double](n * Dims)
    var i = 0
    while (i < n) { System.arraycopy(transform(data(i)), 0, feats, i * Dims, Dims); i += 1 }
    val cells = math.min(CellsPerDim, math.max(1, n))
    val boundaries = Array.tabulate(Dims) { d =>
      val col = new Array[Double](n)
      var r = 0
      while (r < n) { col(r) = feats(r * Dims + d); r += 1 }
      java.util.Arrays.sort(col)
      val edges = new Array[Double](cells + 1)
      edges(0) = Double.NegativeInfinity
      edges(cells) = Double.PositiveInfinity
      var c = 1
      while (c < cells) { edges(c) = col((c.toLong * n / cells).toInt); c += 1 }
      edges
    }
    val cellIdx = new Array[Byte](n * Dims)
    i = 0
    while (i < n) {
      var d = 0
      while (d < Dims) {
        val v = feats(i * Dims + d)
        val edges = boundaries(d)
        // cell c such that edges(c) <= v <= edges(c+1)
        var lo = 0
        var hi = cells - 1
        while (lo < hi) {
          val mid = (lo + hi + 1) >>> 1
          if (edges(mid) <= v) lo = mid else hi = mid - 1
        }
        cellIdx(i * Dims + d) = lo.toByte
        d += 1
      }
      i += 1
    }
    new VAFile(len, FlatSeries.pack(data, len), idsIn.clone(), n, boundaries, cellIdx)
  }
}
