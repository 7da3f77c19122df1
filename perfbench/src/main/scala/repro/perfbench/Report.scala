package repro.perfbench

import scala.collection.mutable.ArrayBuffer

/** One reported metric: its value, unit, and how many samples it summarises. */
final case class Metric(name: String, value: Double, unit: String, samples: Long)

/** Metrics of one run, plus the answered/failed query counts. */
final class Report {
  val metrics = new ArrayBuffer[Metric]
  var attempted = 0L
  var failed = 0L

  def add(name: String, value: Double, unit: String, samples: Long): Unit =
    metrics += Metric(name, value, unit, samples)

  /** Count one answered query; `ok` is its exactness against brute force. */
  def answer(ok: Boolean): Unit = { attempted += 1; if (!ok) failed += 1 }

  /** Human-readable lines: every metric with its unit and sample count. */
  def lines: Seq[String] = metrics.toSeq.map(m => f"${m.name}%-28s ${Json.num(m.value)}%-24s ${m.unit}%-10s n=${m.samples}")

  /** The result line: `correct`, `attempted`, `failed` and `metrics`. */
  def json: String = {
    val ms = metrics.map(m => s"${Json.str(m.name)}: {\"value\": ${Json.num(m.value)}, \"unit\": ${Json.str(m.unit)}}")
    s"""{"correct": ${failed == 0 && attempted > 0}, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}

object Stat {
  /** Nearest-rank percentile `p` (0-100) of `xs`. */
  def pct(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    val s = xs.sorted
    s(math.min(s.length - 1, math.max(0, math.ceil(p / 100.0 * s.length).toInt - 1)))
  }
  def median(xs: Seq[Double]): Double = pct(xs, 50)
  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.length
}

object Json {
  def str(s: String): String = "\"" + s.flatMap {
    case '"'  => "\\\""
    case '\\' => "\\\\"
    case c if c < ' ' => f"\\u${c.toInt}%04x"
    case c => c.toString
  } + "\""

  /** A finite number with all its digits; non-finite values become `null`. */
  def num(v: Double): String = if (v.isNaN || v.isInfinite) "null" else java.lang.Double.toString(v)

  def value(v: Any): String = v match {
    case d: Double  => num(d)
    case i: Int     => i.toString
    case l: Long    => l.toString
    case b: Boolean => b.toString
    case other      => str(other.toString)
  }

  def obj(fields: Seq[(String, Any)]): String =
    fields.map { case (k, v) => s"${str(k)}: ${value(v)}" }.mkString("{", ", ", "}")
}
