package repro.jobs

import scala.collection.immutable.ListMap
import org.apache.spark.sql.SparkSession
import repro.experiments.{BenchRow, Figures}

/** Reproduces one evaluation figure of the paper and prints its tables.
  *
  * Usage: FigureJob <fig6|fig7|fig8|fig9-10|fig11|fig12> [--scale X]
  */
object FigureJob {

  private def emit(title: String, rows: Seq[BenchRow]): Unit = println(BenchRow.render(title, rows))

  /** Each figure by name: prints its tables for a session and a scale. */
  private val figures: ListMap[String, (SparkSession, Double) => Unit] = ListMap(
    "fig6" -> ((spark, scale) => emit("Fig 6: scalability with dataset size", Figures.fig6(spark, scale))),
    "fig7" -> ((spark, scale) => emit("Fig 7: scalability with very large datasets", Figures.fig7(spark, scale))),
    "fig8" -> ((spark, scale) => emit("Fig 8: scalability with series length", Figures.fig8(spark, scale))),
    "fig9-10" -> ((spark, scale) =>
      emit("Figs 9+10: scalability with query difficulty", Figures.fig9and10(spark, scale))),
    "fig11" -> ((spark, scale) => emit("Fig 11: scalability with k", Figures.fig11(spark, scale))),
    "fig12" -> { (spark, scale) =>
      emit("Fig 12a: index building ablation", Figures.fig12a(scale))
      emit("Fig 12b: query answering ablation", Figures.fig12b(spark, scale))
    },
  )

  /** Parse `--scale X` (default 1.0). */
  private def scaleOf(args: Array[String]): Double =
    args.sliding(2).collectFirst { case Array("--scale", v) => v.toDouble }.getOrElse(1.0)

  def main(args: Array[String]): Unit = figures.get(args.headOption.getOrElse("")) match {
    case None =>
      Console.err.println(s"usage: FigureJob <${figures.keys.mkString("|")}> [--scale X]")
      sys.exit(2)
    case Some(figure) =>
      val spark = JobUtil.session(s"hercules-${args(0)}")
      try figure(spark, scaleOf(args))
      finally spark.stop()
  }
}
