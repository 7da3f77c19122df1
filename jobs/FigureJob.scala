package repro.jobs

import repro.experiments.{BenchRow, Figures}

/** Reproduces one evaluation figure of the paper and prints its tables, each
  * followed by the paper's shape claims on it.
  *
  * Usage: FigureJob <fig6|fig7|fig8|fig9-10|fig11|fig12> [--scale X]
  */
object FigureJob {

  /** The figure that `args` name and its scale (default 1.0), or None unless
    * they read `<figure> [--scale X]` with X a finite positive number.
    */
  def parse(args: Seq[String]): Option[(String, Double)] = args match {
    case Seq(fig) if Figures.byName.contains(fig) => Some((fig, 1.0))
    case Seq(fig, "--scale", x) if Figures.byName.contains(fig) =>
      x.toDoubleOption.filter(s => s > 0.0 && s < Double.PositiveInfinity).map(s => (fig, s))
    case _ => None
  }

  def main(args: Array[String]): Unit = parse(args.toSeq) match {
    case None =>
      Console.err.println(s"usage: FigureJob <${Figures.byName.keys.mkString("|")}> [--scale X]")
      sys.exit(2)
    case Some((fig, scale)) =>
      val spark = JobUtil.session(s"hercules-$fig")
      try Figures.byName(fig)(spark, scale).foreach { t =>
        println(BenchRow.render(t.title, t.rows))
        BenchRow.check(t.title, t.rows)
        t.claims.foreach(c => println(s"  [shape] ${if (c.holds(t)) "OK  " else "WARN"} ${c.text}"))
      } finally spark.stop()
  }
}
