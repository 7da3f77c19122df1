package repro.experiments

/** One cell of a reproduced evaluation table: which figure of the paper it
  * belongs to, the sweep configuration, the method, the metric and its value.
  */
final case class BenchRow(figure: String, config: String, method: String, metric: String, value: Double)

object BenchRow {

  /** Reject a table that has no rows, or a value that is NaN or negative. */
  def check(title: String, rows: Seq[BenchRow]): Unit = {
    require(rows.nonEmpty, s"$title produced no rows")
    rows.foreach(r => require(r.value >= 0.0, s"$title has a NaN or negative value in $r"))
  }

  /** Render rows as an aligned text table grouped by (config, metric). */
  def render(title: String, rows: Seq[BenchRow]): String = {
    val sb = new StringBuilder
    sb.append(s"== $title ==\n")
    val methods = rows.map(_.method).distinct
    val header = f"${"config"}%-18s ${"metric"}%-16s" + methods.map(m => f"$m%14s").mkString
    sb.append(header).append('\n')
    rows.groupBy(r => (r.config, r.metric)).toSeq
      .sortBy { case ((c, m), _) => (rows.indexWhere(_.config == c), rows.indexWhere(_.metric == m)) }
      .foreach { case ((config, metric), group) =>
        val cells = methods.map { m =>
          group.find(_.method == m).map(r => f"${r.value}%14.3f").getOrElse(" " * 14)
        }
        sb.append(f"$config%-18s $metric%-16s").append(cells.mkString).append('\n')
      }
    sb.toString
  }
}

/** One table of a reproduced figure: its title, its rows and the paper's
  * shape claims on them.
  */
final case class FigureTable(title: String, rows: Seq[BenchRow], claims: Seq[Claim]) {

  /** The value of the row at `(config, method, metric)`; throws if there is none. */
  def apply(config: String, method: String, metric: String): Double =
    rows.find(r => r.config == config && r.method == method && r.metric == metric).map(_.value)
      .getOrElse(throw new NoSuchElementException(s"$title has no row $config/$method/$metric"))
}

/** A shape claim of the paper, as a test over a table's values; it throws
  * if it names a row that the table does not have. Claims only warn:
  * absolute hardware differs, and EXPERIMENTS.md records both sides.
  */
final case class Claim(text: String, holds: FigureTable => Boolean)
