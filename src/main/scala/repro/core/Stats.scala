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

/** The index's one segment statistic: O(1) mean and sd of `series` over any
  * segment, from prefix sums of the series shifted by its first point.
  * Routing, split choice, synopses and `LB_EAPCA` all read it, so a split is
  * chosen on the numbers its members are routed and summarized on. The shift
  * keeps `sum2/len − m²` from cancelling at large offsets; a flat line comes
  * out exactly (mean = its value, sd = 0). A context made for length `n` can
  * [[load]] one series after another (an insert worker keeps one).
  */
final class SeriesCtx(n: Int) {
  private var s: Array[Float] = _
  private var base = 0.0
  private val pre = new Array[Double](n + 1)
  private val pre2 = new Array[Double](n + 1)

  def this(series: Array[Float]) = { this(series.length); load(series) }

  /** The series last loaded. */
  def series: Array[Float] = s

  /** Take the prefix sums of `series`' first `n` points; returns this. */
  def load(series: Array[Float]): SeriesCtx = {
    base = series(0).toDouble
    var i = 0
    while (i < n) {
      val v = series(i).toDouble - base
      pre(i + 1) = pre(i) + v
      pre2(i + 1) = pre2(i) + v * v
      i += 1
    }
    s = series
    this
  }

  /** Mean of the segment `[from, until)`. */
  def mean(from: Int, until: Int): Double = SeriesCtx.mean(base, pre(until) - pre(from), until - from)

  /** Population standard deviation of the segment `[from, until)`. */
  def sd(from: Int, until: Int): Double =
    SeriesCtx.sd(pre(until) - pre(from), pre2(until) - pre2(from), until - from)
}

object SeriesCtx {

  /** Mean of a segment of `len` points whose differences from `base` sum to
    * `sum`.
    */
  def mean(base: Double, sum: Double, len: Int): Double = base + sum / len

  /** Population sd of a segment of `len` points whose differences from the
    * series' first point sum to `sum`, and their squares to `sum2`.
    */
  def sd(sum: Double, sum2: Double, len: Int): Double = {
    val m = sum / len
    math.sqrt(math.max(0.0, sum2 / len - m * m))
  }
}
