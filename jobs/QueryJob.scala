package repro.jobs

import java.nio.file.{Files, Paths}
import repro.core.SeriesGen
import repro.experiments.Runner
import repro.spark.Distributed

/** Stage 2 of the paper's pipeline: load a saved per-partition index and
  * answer a k-NN workload drawn for its generator kind, series count and
  * length.
  *
  * Usage: QueryJob <indexDir> [kind] [workload] [k] [nQ]
  *
  * `kind` defaults to the one [[BuildIndexJob]] recorded for the index; any
  * other is rejected, since a noisy workload's queries are copies of the
  * generated series of that kind.
  */
object QueryJob {

  /** The generator kind of the index under `dir`, as [[BuildIndexJob]]
    * recorded it; rejects a `requested` kind that differs, naming both.
    */
  def kindFor(dir: String, requested: Option[String]): String = {
    val file = Paths.get(dir, BuildIndexJob.KindFile)
    require(Files.exists(file), s"$dir has no ${BuildIndexJob.KindFile}; build the index with BuildIndexJob")
    val built = Files.readString(file)
    requested.foreach(k =>
      require(k == built, s"the index under $dir was built from kind '$built', so it cannot answer kind '$k'"))
    built
  }

  def main(args: Array[String]): Unit = {
    val dir = args.headOption.getOrElse("/tmp/hercules-index")
    val kind = kindFor(dir, args.lift(1))
    val workload = args.lift(2).getOrElse("5%")
    val k = args.lift(3).map(_.toInt).getOrElse(1)
    val nQ = args.lift(4).map(_.toInt).getOrElse(10)
    val spark = JobUtil.session("hercules-query")
    try {
      val built = Distributed.loadFromDir(spark, dir)
      val queries = SeriesGen.queries(kind, workload, nQ, built.totalSeries, built.seriesLength, 20220601L)
      // One whole-index Lmax of 8, shared across the partitions.
      val res = Distributed.knnBatch(built, queries, Runner.scaleKnobs(Runner.knobs(k), built.partitions))
      println(f"answered $nQ $workload ${k}NN queries: avg ${res.avgQueryMs}%.2f ms/query, " +
        f"${res.avgAccessFraction * 100}%.1f%% data accessed")
      res.neighbors.zipWithIndex.foreach { case (nbs, qi) =>
        println(s"  q$qi -> " + nbs.map(n => f"${n.id}:${math.sqrt(n.dist2)}%.4f").mkString(", "))
      }
    } finally spark.stop()
  }
}
