package repro.experiments

import scala.collection.immutable.ListMap
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.experiments.Runner.MethodRun
import repro.spark.{Distributed, SeriesFrames}

/** One entry point per evaluation figure of the paper (DESIGN.md §5). Each
  * returns its table: the rows of its sweep and the paper's shape claims on
  * them, both built from the same sweep labels and metric names.
  *
  * `scale` multiplies dataset sizes; 1.0 is the bench default (seconds per
  * figure on local[*]). Paper sizes are listed as the `config` labels so the
  * measured rows line up with the digitized paper numbers in EXPERIMENTS.md.
  */
object Figures {
  private val Seed = 20220601L

  private val BuildS = "build_s"
  private val Idx100 = "idx+100q_s"
  private val Idx10k = "idx+10kq_s"
  private val AvgMs = "avg_query_ms"
  private val AccessPct = "data_accessed_%"

  private def cfg(len: Int): IndexConfig =
    IndexConfig(seriesLength = len, leafCapacity = 64, buildThreads = 1, writerThreads = 1)

  private def n(base: Int, scale: Double): Int = math.max(256, (base * scale).toInt)

  /** All five methods on one `kind` dataset of `size` series of length
    * `len`, each answering `nQ` queries of every `(label, workload, k)`.
    */
  private def sweep(spark: SparkSession, kind: String, size: Long, len: Int, nQ: Int)(
      points: Seq[(String, String, Int)]): Seq[(String, MethodRun)] = {
    val df = SeriesFrames.dataset(spark, kind, size, len, Seed)
    Runner.runSweep(df, Runner.allMethods, cfg(len), points.map { case (label, wl, k) =>
      (label, SeriesGen.queries(kind, wl, nQ, size, len, Seed), Runner.knobs(k))
    })
  }

  /** One row of `fig` per labelled run and `(metric, value)` cell. */
  private def rows(fig: String, runs: Seq[(String, MethodRun)])(
      cells: MethodRun => Seq[(String, Double)]): Seq[BenchRow] =
    runs.flatMap { case (c, r) => cells(r).map { case (metric, value) => BenchRow(fig, c, r.method, metric, value) } }

  /** The claim that Hercules's `metric` at `config` is below `other`'s. */
  private def herculesBeats(text: String, config: String, metric: String, other: String): Claim =
    Claim(text, t => t(config, "hercules", metric) < t(config, other, metric))

  /** Fig. 6: combined index construction + query answering (100 and 10K
    * 1NN queries) vs dataset size.
    */
  def fig6(spark: SparkSession, scale: Double = 1.0, nQ: Int = 15): FigureTable = {
    val sizes = Seq("25GB" -> 8000, "50GB" -> 16000, "100GB" -> 32000, "250GB" -> 64000)
    val runs = sizes.flatMap { case (size, base) =>
      sweep(spark, "walk", n(base, scale), 256, nQ)(Seq((size, "ood", 1)))
    }
    FigureTable("Fig 6: scalability with dataset size",
      rows("fig6", runs)(r => Seq(BuildS -> r.buildS, Idx100 -> (r.buildS + r.avgQueryMs * 100 / 1000.0),
        Idx10k -> (r.buildS + Runner.extrapolate10kS(r.perQueryMs)))),
      sizes.flatMap { case (size, _) =>
        herculesBeats(s"$size: hercules builds faster than dstree*", size, BuildS, "dstree") +:
          Seq("pscan", "paris").map(m => herculesBeats(s"$size: hercules idx+10K queries beats $m", size, Idx10k, m))
      })
  }

  /** Fig. 7: average 1NN query time on very large datasets. */
  def fig7(spark: SparkSession, scale: Double = 1.0, nQ: Int = 10): FigureTable = {
    val sizes = Seq("1TB" -> 96000, "1.5TB" -> 144000)
    val runs = sizes.flatMap { case (size, base) =>
      sweep(spark, "walk", n(base, scale), 256, nQ)(Seq((size, "5%", 1)))
    }
    FigureTable("Fig 7: scalability with very large datasets", rows("fig7", runs)(r => Seq(AvgMs -> r.avgQueryMs)),
      for ((size, _) <- sizes; m <- Seq("pscan", "paris"))
        yield herculesBeats(s"$size: hercules beats $m", size, AvgMs, m))
  }

  /** Fig. 8: average query time vs series length at a fixed total volume. */
  def fig8(spark: SparkSession, scale: Double = 1.0, nQ: Int = 10): FigureTable = {
    val totalFloats = (8_000_000 * scale).toLong
    val lengths = Seq(64, 128, 256, 512, 1024).map(len => s"len$len" -> len)
    val runs = lengths.flatMap { case (label, len) =>
      sweep(spark, "walk", math.max(512L, totalFloats / len), len, nQ)(Seq((label, "5%", 1)))
    }
    FigureTable("Fig 8: scalability with series length", rows("fig8", runs)(r => Seq(AvgMs -> r.avgQueryMs)),
      lengths.map { case (label, _) => herculesBeats(s"$label: hercules beats pscan", label, AvgMs, "pscan") })
  }

  /** Figs. 9 + 10 share datasets and runs: combined idx+query totals (9) and
    * per-query time / % data accessed (10) across real-dataset proxies and
    * workload difficulties.
    */
  def fig9and10(spark: SparkSession, scale: Double = 1.0, nQ: Int = 10): FigureTable = {
    val datasets = Seq(("sald", 128), ("seismic", 256), ("deep", 96))
    val (easy, medium, hard) = ("1%", "5%", "ood")
    def label(kind: String, wl: String) = s"$kind/$wl"
    val runs = datasets.flatMap { case (kind, len) =>
      val workloads = Seq(easy, "2%", medium, "10%", hard)
      sweep(spark, kind, n(24000, scale), len, nQ)(workloads.map(wl => (label(kind, wl), wl, 1)))
    }
    val (first, _) = datasets.head
    FigureTable("Figs 9+10: scalability with query difficulty",
      rows("fig9", runs)(r => Seq(Idx100 -> (r.buildS + r.avgQueryMs * 100 / 1000.0))) ++
        rows("fig10", runs)(r => Seq(AvgMs -> r.avgQueryMs, AccessPct -> r.accessPct)),
      (for ((kind, _) <- datasets; c <- Seq(easy, medium, hard).map(label(kind, _))) yield Seq(
        herculesBeats(s"$c: hercules query time beats pscan", c, AvgMs, "pscan"),
        Claim(s"$c: hercules accesses less data than a full scan", t => t(c, "hercules", AccessPct) < 100.0),
      )).flatten :+ Claim(s"easy $first queries access less data than hard $hard ones (hercules)", t =>
        t(label(first, easy), "hercules", AccessPct) <= t(label(first, hard), "hercules", AccessPct) + 1e-9))
  }

  /** Fig. 11: query time and % data accessed vs k (5% workload). */
  def fig11(spark: SparkSession, scale: Double = 1.0, nQ: Int = 10): FigureTable = {
    def label(k: Int) = s"k=$k"
    val runs = sweep(spark, "walk", n(32000, scale), 256, nQ)(Seq(1, 5, 10, 25, 50, 100).map(k => (label(k), "5%", k)))
    FigureTable("Fig 11: scalability with k",
      rows("fig11", runs)(r => Seq(AvgMs -> r.avgQueryMs, AccessPct -> r.accessPct)),
      Seq(1, 10, 100).map(label).map(c => herculesBeats(s"$c: hercules beats pscan", c, AvgMs, "pscan")) :+
        Claim(s"paris ${label(100)} is costlier than paris ${label(1)} (skip-sequential degradation)",
          t => t(label(100), "paris", AvgMs) >= t(label(1), "paris", AvgMs)))
  }

  /** Fig. 12a: index construction ablation — the in-core threaded builders
    * (this is where the paper's build protocol itself is exercised).
    */
  def fig12a(scale: Double = 1.0): FigureTable = {
    val len = 96
    val size = n(20000, scale)
    val data = SeriesGen.dataset("deep", size, len, Seed)
    val ids = Array.tabulate(size)(_.toLong)
    val base = IndexConfig(seriesLength = len, leafCapacity = 64, buildThreads = 4, writerThreads = 4)
    val (config, dstree, dstreeP, full) = ("build", "dstree*", "dstree*P", "hercules")
    val rows = Seq(
      (dstree, BuildMode.PathLocked, base.copy(buildThreads = 1, writerThreads = 1)),
      (dstreeP, BuildMode.PathLocked, base.copy(writerThreads = 1)),
      ("noWPara", BuildMode.Hercules, base.copy(writerThreads = 1)),
      (full, BuildMode.Hercules, base),
    ).map { case (variant, mode, c) =>
      val t0 = System.nanoTime()
      HerculesIndex.build(ids, data, c, mode)
      BenchRow("fig12a", config, variant, BuildS, (System.nanoTime() - t0) / 1e9)
    }
    FigureTable("Fig 12a: index building ablation", rows, Seq(
      Claim(s"parallel leaf-locked build ($full) is not slower than sequential $dstree",
        t => t(config, full, BuildS) <= t(config, dstree, BuildS)),
      Claim(s"path-locked $dstreeP pays synchronization over $full",
        t => t(config, full, BuildS) <= t(config, dstreeP, BuildS)),
    ))
  }

  /** Fig. 12b: query-answering ablation — NoSAX / NoPara / NoThresh vs the
    * full Hercules, on the hard (deep) proxy across difficulties, each
    * variant answering its queries one at a time.
    */
  def fig12b(spark: SparkSession, scale: Double = 1.0, nQ: Int = 10): FigureTable = {
    val len = 96
    val size = n(24000, scale)
    val df = SeriesFrames.dataset(spark, "deep", size, len, Seed)
    val workloads = Seq("1%", "5%", "ood").map(wl => wl -> SeriesGen.queries("deep", wl, nQ, size, len, Seed))
    val (full, noSax, noPara, noThresh) = ("hercules", "noSAX", "noPara", "noThresh")
    val k1 = Runner.knobs(1)
    val builtP = Distributed.build(df, "hercules", cfg(len), Runner.partitionsFor("hercules", spark))
    val built1 = Distributed.build(df, "hercules", cfg(len), 1)
    val runs = try {
      Seq(builtP, built1).foreach(Runner.warmUp(_, workloads.head._2, k1))
      workloads.flatMap { case (wl, queries) =>
        Runner.checkExactAgreement(Seq(
          Runner.answer(full, builtP, queries, k1),
          Runner.answer(noSax, builtP, queries, k1.copy(useSax = false)),
          Runner.answer(noPara, built1, queries, k1),
          Runner.answer(noThresh, builtP, queries, k1.copy(useThresholds = false)),
        )).map(wl -> _)
      }
    } finally Seq(builtP, built1).foreach(_.unpersist())
    val (hard, _) = workloads.last
    FigureTable("Fig 12b: query answering ablation", rows("fig12b", runs)(r => Seq(AvgMs -> r.avgQueryMs)),
      workloads.map { case (wl, _) =>
        Claim(s"$wl: full $full is not slower than $noSax", t => t(wl, full, AvgMs) <= t(wl, noSax, AvgMs) * 1.25)
      } :+ Claim(s"$hard: thresholds help on hard queries ($full <= $noThresh)",
        t => t(hard, full, AvgMs) <= t(hard, noThresh, AvgMs) * 1.25))
  }

  /** Each figure's tables by its `FigureJob` name, in the paper's order. */
  val byName: ListMap[String, (SparkSession, Double) => Seq[FigureTable]] = ListMap(
    "fig6" -> ((spark, scale) => Seq(fig6(spark, scale))),
    "fig7" -> ((spark, scale) => Seq(fig7(spark, scale))),
    "fig8" -> ((spark, scale) => Seq(fig8(spark, scale))),
    "fig9-10" -> ((spark, scale) => Seq(fig9and10(spark, scale))),
    "fig11" -> ((spark, scale) => Seq(fig11(spark, scale))),
    "fig12" -> ((spark, scale) => Seq(fig12a(scale), fig12b(spark, scale))),
  )
}
