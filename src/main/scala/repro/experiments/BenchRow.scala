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
