package repro.core

import java.lang.invoke.MethodHandles
import java.nio.ByteOrder

/** iSAX summarization (Lin et al. SAX + Shieh/Keogh iSAX) and its lower bound.
  *
  * A series is first reduced to PAA (segment means over `m` equal-ish
  * segments), then each PAA value is discretized against breakpoints that
  * split the standard normal into `cardinality` equiprobable regions.
  * `LB_SAX` lower-bounds the true Euclidean distance between the query and
  * any series whose iSAX word is known (Keogh's PAA bound + region gaps).
  *
  * One instance is built per (series length, segments, cardinality) and is
  * immutable/thread-safe.
  */
final class ISax(val n: Int, val segments: Int, val cardinality: Int) extends Serializable {
  require(segments >= 1 && segments <= n)
  require(cardinality >= 2 && cardinality <= 256, "symbols are stored in one byte")

  /** Segment boundaries: segment i covers [ends(i), ends(i+1)). */
  val ends: Array[Int] = Array.tabulate(segments + 1)(i => ((i.toLong * n) / segments).toInt)

  /** Interior breakpoints: Φ⁻¹(i/cardinality) for i = 1..cardinality-1. */
  val breakpoints: Array[Double] =
    Array.tabulate(cardinality - 1)(i => ISax.invNormCdf((i + 1).toDouble / cardinality))

  /** PAA of a full-length series: per-segment means. */
  def paa(s: Array[Float]): Array[Double] = {
    val out = new Array[Double](segments)
    var i = 0
    while (i < segments) {
      var j = ends(i)
      var sum = 0.0
      while (j < ends(i + 1)) { sum += s(j); j += 1 }
      out(i) = sum / (ends(i + 1) - ends(i))
      i += 1
    }
    out
  }

  /** Symbol for one PAA value: index of the breakpoint region containing it. */
  def symbolOf(v: Double): Byte = {
    var lo = 0
    var hi = breakpoints.length // region index in [0, cardinality)
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (v < breakpoints(mid)) hi = mid else lo = mid + 1
    }
    lo.toByte
  }

  /** iSAX word of a series (one byte per segment). */
  def word(s: Array[Float]): Array[Byte] = {
    val p = paa(s)
    val out = new Array[Byte](segments)
    var i = 0
    while (i < segments) { out(i) = symbolOf(p(i)); i += 1 }
    out
  }

  /** Squared `LB_SAX` between a query PAA and an iSAX word stored at
    * `words[off, off+segments)`. Zero gap when the query PAA value falls
    * inside the symbol's region. The reference form; a query that bounds
    * many words uses its [[queryTable]].
    */
  def lbSax2(paaQ: Array[Double], words: Array[Byte], off: Int): Double = {
    var i = 0
    var acc = 0.0
    while (i < segments) {
      acc += term(i, paaQ(i), words(off + i) & 0xff)
      i += 1
    }
    acc
  }

  /** The `LB_SAX` terms of one query, built from its PAA: the term of every
    * (segment, symbol) pair, so bounding a word takes one lookup per segment.
    */
  def queryTable(paaQ: Array[Double]): ISax.QueryTable = {
    val terms = new Array[Double](segments * cardinality)
    var i = 0
    while (i < segments) {
      var sym = 0
      while (sym < cardinality) { terms(i * cardinality + sym) = term(i, paaQ(i), sym); sym += 1 }
      i += 1
    }
    new ISax.QueryTable(segments, cardinality, terms)
  }

  /** What `LB_SAX` adds for segment `i`, query PAA value `q` and symbol
    * `sym`: the segment length times the squared gap from `q` to the
    * symbol's region.
    */
  private def term(i: Int, q: Double, sym: Int): Double = {
    val lo = if (sym == 0) Double.NegativeInfinity else breakpoints(sym - 1)
    val hi = if (sym == breakpoints.length) Double.PositiveInfinity else breakpoints(sym)
    val gap = if (q < lo) lo - q else if (q > hi) q - hi else 0.0
    (ends(i + 1) - ends(i)) * gap * gap
  }
}

object ISax {

  /** One query's `LB_SAX` terms, `terms(segment * cardinality + symbol)`
    * (see [[ISax.queryTable]]). Immutable, so threads may share it.
    */
  final class QueryTable private[ISax] (segments: Int, cardinality: Int, terms: Array[Double]) {

    /** Squared `LB_SAX` of the word at `words[off, off+segments)`: its terms
      * added in segment order, bit-identical to [[ISax.lbSax2]]. Whole
      * groups of eight symbols are read with one little-endian load, so the
      * lowest byte of a load is the group's first symbol; the tail symbols
      * are read one by one.
      */
    def lb2(words: Array[Byte], off: Int): Double = {
      var acc = 0.0
      var i = 0
      while (i + 8 <= segments) {
        var group = Longs.get(words, off + i): Long
        var j = 0
        while (j < 8) {
          acc += terms((i + j) * cardinality + (group & 0xff).toInt)
          group >>>= 8
          j += 1
        }
        i += 8
      }
      while (i < segments) {
        acc += terms(i * cardinality + (words(off + i) & 0xff))
        i += 1
      }
      acc
    }
  }

  /** Eight bytes of a byte array read as one little-endian `Long`. */
  private val Longs = MethodHandles.byteArrayViewVarHandle(classOf[Array[Long]], ByteOrder.LITTLE_ENDIAN)

  /** Build the iSAX codec for an index config. */
  def apply(cfg: IndexConfig): ISax =
    new ISax(cfg.seriesLength, cfg.saxSegmentsEff, cfg.saxCardinality)

  /** Inverse standard normal CDF (Acklam's rational approximation, |ε|<1.2e-9). */
  def invNormCdf(p: Double): Double = {
    require(p > 0.0 && p < 1.0, s"p out of (0,1): $p")
    val a = Array(-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    val b = Array(-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
    val c = Array(-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    val d = Array(7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
    val pLow = 0.02425
    if (p < pLow) {
      val q = math.sqrt(-2 * math.log(p))
      (((((c(0) * q + c(1)) * q + c(2)) * q + c(3)) * q + c(4)) * q + c(5)) /
        ((((d(0) * q + d(1)) * q + d(2)) * q + d(3)) * q + 1)
    } else if (p <= 1 - pLow) {
      val q = p - 0.5
      val r = q * q
      (((((a(0) * r + a(1)) * r + a(2)) * r + a(3)) * r + a(4)) * r + a(5)) * q /
        (((((b(0) * r + b(1)) * r + b(2)) * r + b(3)) * r + b(4)) * r + 1)
    } else {
      val q = math.sqrt(-2 * math.log(1 - p))
      -(((((c(0) * q + c(1)) * q + c(2)) * q + c(3)) * q + c(4)) * q + c(5)) /
        ((((d(0) * q + d(1)) * q + d(2)) * q + d(3)) * q + 1)
    }
  }
}
