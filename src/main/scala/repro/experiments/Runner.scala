package repro.experiments

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{IndexConfig, Neighbor, QueryKnobs}
import repro.spark.{Distributed, LocalIndex}

/** Shared experiment harness: builds a method's per-partition indexes over a
  * DataFrame, answers a query batch, cross-checks exactness between methods,
  * and applies the paper's 10K-query extrapolation rule.
  */
object Runner {

  /** One method's end-to-end run over a dataset + query workload. */
  final case class MethodRun(
      method: String,
      buildS: Double,
      avgQueryMs: Double,
      perQueryMs: Array[Double],
      accessPct: Double,
      answers: Array[Array[Neighbor]],
  )

  /** Paper-faithful partition counts: single-threaded methods (DSTree*,
    * VA+file) get one partition; parallel methods fan out.
    */
  def partitionsFor(method: String, spark: SparkSession): Int = method match {
    case "dstree" | "vafile" => 1
    case _                   => math.min(8, spark.sparkContext.defaultParallelism)
  }

  /** Scaled default query knobs (paper values for the thresholds). */
  def knobs(k: Int, lmax: Int = 8): QueryKnobs =
    QueryKnobs(k = k, lmax = lmax, eapcaTh = 0.25, saxTh = 0.50, threads = 1)

  /** The paper's Lmax is a whole-index budget; per-partition searches share
    * it so the approximate step does not scan `partitions×Lmax` leaves.
    */
  def scaleKnobs(qk: QueryKnobs, partitions: Int): QueryKnobs =
    qk.copy(lmax = math.max(1, (qk.lmax + partitions - 1) / partitions))

  /** The paper's extrapolation: drop the best/worst tail, average the rest,
    * multiply by 10K queries; result in seconds.
    */
  def extrapolate10kS(perQueryMs: Array[Double]): Double = {
    val sorted = perQueryMs.sorted
    val drop = if (sorted.length >= 20) 5 else math.min(sorted.length / 5, 2)
    val kept = sorted.slice(drop, sorted.length - drop)
    val avg = if (kept.isEmpty) 0.0 else kept.sum / kept.length
    avg * 10000 / 1000.0
  }

  /** Assert every method returned the same exact `(id, dist2)` lists (they
    * are all exact algorithms under the `KnnSet` tie-break); returns the
    * compared run list unchanged.
    */
  def checkExactAgreement(runs: Seq[MethodRun]): Seq[MethodRun] = {
    require(runs.nonEmpty)
    val ref = runs.head
    runs.tail.foreach { r =>
      require(r.answers.length == ref.answers.length)
      ref.answers.indices.foreach { qi =>
        val a = ref.answers(qi)
        val b = r.answers(qi)
        require(a.length == b.length,
          s"${r.method} returned ${b.length} answers vs ${ref.method} ${a.length} for query $qi")
        a.zip(b).foreach { case (x, y) =>
          require(x.id == y.id && math.abs(x.dist2 - y.dist2) <= 1e-6 * math.max(1.0, math.max(x.dist2, y.dist2)),
            s"${r.method} disagrees with ${ref.method} on query $qi: $y vs $x")
        }
      }
    }
    runs
  }

  /** Run several methods over the same dataset/queries and verify agreement. */
  def runAll(df: DataFrame, methods: Seq[String], cfg: IndexConfig,
             queries: Array[Array[Float]], qk: QueryKnobs): Seq[MethodRun] =
    runSweep(df, methods, cfg, Seq(("", queries, qk))).map(_._2)

  /** Build each method once, answer every workload of the sweep against the
    * cached index, and verify cross-method agreement per workload label.
    */
  def runSweep(df: DataFrame, methods: Seq[String], cfg: IndexConfig,
               sweeps: Seq[(String, Array[Array[Float]], QueryKnobs)]): Seq[(String, MethodRun)] = {
    val spark = df.sparkSession
    val out = methods.flatMap { m =>
      val parts = partitionsFor(m, spark)
      val built = Distributed.build(df, m, cfg, parts)
      try {
        // Untimed warmup so JIT compilation does not bias the first workload.
        sweeps.headOption.foreach { case (_, queries, qk) =>
          Distributed.knnBatch(built, queries, scaleKnobs(qk, parts))
        }
        sweeps.map { case (label, queries, qk) =>
          val res = Distributed.knnBatch(built, queries, scaleKnobs(qk, parts))
          (label, MethodRun(m, built.maxPartitionBuildMs / 1000.0, res.avgQueryMs, res.perQueryMs,
            res.avgAccessFraction * 100.0, res.neighbors))
        }
      } finally built.unpersist()
    }
    out.groupBy(_._1).values.foreach(g => checkExactAgreement(g.map(_._2)))
    out
  }

  /** All method names, Hercules first. */
  def allMethods: Seq[String] = LocalIndex.builders.keys.toSeq
}
