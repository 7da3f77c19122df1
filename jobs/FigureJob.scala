package repro.jobs

import scala.collection.immutable.ListMap
import org.apache.spark.sql.SparkSession
import repro.experiments.{BenchRow, Figures}

/** Reproduces one evaluation figure of the paper and prints its tables, each
  * followed by the paper's shape claims on it.
  *
  * Usage: FigureJob <fig6|fig7|fig8|fig9-10|fig11|fig12> [--scale X]
  */
object FigureJob {

  /** A row's value by `(config, method, metric)`. */
  private type Value = (String, String, String) => Double

  /** Print a table, check its rows, then print each `(claim, holds)` shape
    * comparison against the paper. Claims only warn: absolute hardware
    * differs, and EXPERIMENTS.md records both sides.
    */
  private def emit(title: String, rows: Seq[BenchRow])(claims: Value => Seq[(String, Boolean)]): Unit = {
    println(BenchRow.render(title, rows))
    BenchRow.check(title, rows)
    val v: Value = (config, method, metric) =>
      rows.find(r => r.config == config && r.method == method && r.metric == metric).map(_.value)
        .getOrElse(throw new NoSuchElementException(s"$title has no row $config/$method/$metric"))
    claims(v).foreach { case (claim, holds) => println(s"  [shape] ${if (holds) "OK  " else "WARN"} $claim") }
  }

  /** Each figure by name: prints its tables for a session and a scale. */
  private val figures: ListMap[String, (SparkSession, Double) => Unit] = ListMap(
    "fig6" -> ((spark, scale) =>
      emit("Fig 6: scalability with dataset size", Figures.fig6(spark, scale)) { v =>
        Seq("25GB", "50GB", "100GB", "250GB").flatMap(size => Seq(
          s"$size: hercules builds faster than dstree*" ->
            (v(size, "hercules", "build_s") < v(size, "dstree", "build_s")),
          s"$size: hercules idx+10K queries beats pscan" ->
            (v(size, "hercules", "idx+10kq_s") < v(size, "pscan", "idx+10kq_s")),
          s"$size: hercules idx+10K queries beats paris" ->
            (v(size, "hercules", "idx+10kq_s") < v(size, "paris", "idx+10kq_s")),
        ))
      }),
    "fig7" -> ((spark, scale) =>
      emit("Fig 7: scalability with very large datasets", Figures.fig7(spark, scale)) { v =>
        Seq("1TB", "1.5TB").flatMap(size => Seq("pscan", "paris").map(m =>
          s"$size: hercules beats $m" -> (v(size, "hercules", "avg_query_ms") < v(size, m, "avg_query_ms"))))
      }),
    "fig8" -> ((spark, scale) =>
      emit("Fig 8: scalability with series length", Figures.fig8(spark, scale)) { v =>
        Seq("len64", "len128", "len256", "len512", "len1024").map(len =>
          s"$len: hercules beats pscan" -> (v(len, "hercules", "avg_query_ms") < v(len, "pscan", "avg_query_ms")))
      }),
    "fig9-10" -> ((spark, scale) =>
      emit("Figs 9+10: scalability with query difficulty", Figures.fig9and10(spark, scale)) { v =>
        (for (kind <- Seq("sald", "seismic", "deep"); wl <- Seq("1%", "5%", "ood")) yield {
          val c = s"$kind/$wl"
          Seq(
            s"$c: hercules query time beats pscan" ->
              (v(c, "hercules", "avg_query_ms") < v(c, "pscan", "avg_query_ms")),
            s"$c: hercules accesses less data than a full scan" -> (v(c, "hercules", "data_accessed_%") < 100.0),
          )
        }).flatten :+ ("easy sald queries access less data than hard ood ones (hercules)" ->
          (v("sald/1%", "hercules", "data_accessed_%") <= v("sald/ood", "hercules", "data_accessed_%") + 1e-9))
      }),
    "fig11" -> ((spark, scale) =>
      emit("Fig 11: scalability with k", Figures.fig11(spark, scale)) { v =>
        Seq(1, 10, 100).map(k =>
          s"k=$k: hercules beats pscan" -> (v(s"k=$k", "hercules", "avg_query_ms") < v(s"k=$k", "pscan", "avg_query_ms"))
        ) :+ ("paris k=100 is costlier than paris k=1 (skip-sequential degradation)" ->
          (v("k=100", "paris", "avg_query_ms") >= v("k=1", "paris", "avg_query_ms")))
      }),
    "fig12" -> { (spark, scale) =>
      emit("Fig 12a: index building ablation", Figures.fig12a(scale)) { v =>
        Seq(
          "parallel leaf-locked build (hercules) is not slower than sequential dstree*" ->
            (v("build", "hercules", "build_s") <= v("build", "dstree*", "build_s")),
          "path-locked dstree*P pays synchronization over hercules" ->
            (v("build", "hercules", "build_s") <= v("build", "dstree*P", "build_s")),
        )
      }
      emit("Fig 12b: query answering ablation", Figures.fig12b(spark, scale)) { v =>
        Seq("1%", "5%", "ood").map(wl =>
          s"$wl: full hercules is not slower than noSAX" ->
            (v(wl, "hercules", "avg_query_ms") <= v(wl, "noSAX", "avg_query_ms") * 1.25)
        ) :+ ("ood: thresholds help on hard queries (hercules <= noThresh)" ->
          (v("ood", "hercules", "avg_query_ms") <= v("ood", "noThresh", "avg_query_ms") * 1.25))
      }
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
