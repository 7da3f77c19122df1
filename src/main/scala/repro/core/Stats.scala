package repro.core

/** Z-normalization of generated series. */
object Stats {

  /** Z-normalize: subtract mean, divide by population sd (zeros if constant). */
  def znorm(s: Array[Float]): Array[Float] = {
    var i = 0
    var sum = 0.0
    var sum2 = 0.0
    while (i < s.length) { val v = s(i).toDouble; sum += v; sum2 += v * v; i += 1 }
    val mean = sum / s.length
    val sd = math.sqrt(math.max(0.0, sum2 / s.length - mean * mean))
    val out = new Array[Float](s.length)
    if (sd < 1e-9) out
    else {
      i = 0
      while (i < s.length) { out(i) = ((s(i) - mean) / sd).toFloat; i += 1 }
      out
    }
  }
}

/** The index's one segment statistic: the mean and population sd of each of
  * `rho` series between any two of the increasing cut points `cuts`, from its
  * running sums at the cuts, shifted by its first point so that `sum2/len − m²`
  * does not cancel at large offsets (a flat line gives its value and sd 0).
  * Routing, split choice, synopses and `LB_EAPCA` all read it. A sum taken at
  * a point does not depend on the other cuts, so a split's columns and each
  * member's [[SeriesCtx]] (every point a cut) agree bit for bit.
  */
private[core] final class Sums(val cuts: Array[Int], val rho: Int) {
  private val nc = cuts.length
  private val base = new Array[Double](rho)
  private val pre = new Array[Double](rho * nc)
  private val pre2 = new Array[Double](rho * nc)

  /** Running sums of the series last filled at every point up to the last cut. */
  private val run = new Array[Double](cuts(nc - 1) + 1)
  private val run2 = new Array[Double](cuts(nc - 1) + 1)

  /** Take series `i`'s sums from its points `src[off, off + cuts.last)`: one
    * pass takes the running sums at every point, then each cut reads its own
    * (storing only on reaching a cut, inside the pass, ran 1.3–3 times slower
    * under JDK 17's C2 on a 4-core Xeon VM).
    */
  def fill(i: Int, src: Array[Float], off: Int): Unit = {
    val b = src(off).toDouble
    base(i) = b
    val last = run.length - 1
    var sum, sum2 = 0.0
    var p = 0
    while (p < last) {
      val v = src(off + p).toDouble - b
      sum += v
      sum2 += v * v
      p += 1
      run(p) = sum
      run2(p) = sum2
    }
    val row = i * nc
    var c = 0
    while (c < nc) {
      pre(row + c) = run(cuts(c))
      pre2(row + c) = run2(cuts(c))
      c += 1
    }
  }

  /** Mean of series `i` between cut numbers `a < b`. */
  def mean(i: Int, a: Int, b: Int): Double =
    base(i) + (pre(i * nc + b) - pre(i * nc + a)) / (cuts(b) - cuts(a))

  /** Population sd of series `i` between cut numbers `a < b`. */
  def sd(i: Int, a: Int, b: Int): Double = {
    val len = cuts(b) - cuts(a)
    val m = (pre(i * nc + b) - pre(i * nc + a)) / len
    math.sqrt(math.max(0.0, (pre2(i * nc + b) - pre2(i * nc + a)) / len - m * m))
  }
}

/** One series' [[Sums]] with every point `0..n` a cut, so a cut number is a
  * point: O(1) mean and sd of any segment. A context made for length `n` can
  * [[load]] one series after another (an insert worker keeps one).
  */
final class SeriesCtx(n: Int) {
  private val sums = new Sums(Array.range(0, n + 1), 1)
  private var s: Array[Float] = _

  def this(series: Array[Float]) = { this(series.length); load(series) }

  /** The series last loaded. */
  def series: Array[Float] = s

  /** Take the running sums of `series`' first `n` points; returns this. */
  def load(series: Array[Float]): SeriesCtx = { sums.fill(0, series, 0); s = series; this }

  /** Mean of the segment `[from, until)`. */
  def mean(from: Int, until: Int): Double = sums.mean(0, from, until)

  /** Population standard deviation of the segment `[from, until)`. */
  def sd(from: Int, until: Int): Double = sums.sd(0, from, until)
}
