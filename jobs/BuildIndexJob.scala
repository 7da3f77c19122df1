package repro.jobs

import java.nio.file.{Files, Paths}
import repro.core.IndexConfig
import repro.spark.{Distributed, SeriesFrames}

/** Stage 1 of the paper's pipeline as a standalone job: build per-partition
  * Hercules indexes over a generated dataset and persist them to a directory.
  *
  * Usage: BuildIndexJob <outDir> [kind] [nSeries] [len] [partitions]
  *
  * `outDir` must not already hold `.idx` files from an earlier save: the
  * save rejects such a directory before it writes anything. Beside the
  * `.idx` files, [[KindFile]] names the generator kind, from which
  * [[QueryJob]] draws its queries.
  */
object BuildIndexJob {

  /** The file under an index directory that names its generator kind. */
  val KindFile = "kind.txt"

  /** Record that the index under `dir` was built from generator `kind`. */
  def recordKind(dir: String, kind: String): Unit = Files.writeString(Paths.get(dir, KindFile), kind)

  def main(args: Array[String]): Unit = {
    val outDir = args.headOption.getOrElse("/tmp/hercules-index")
    val kind = args.lift(1).getOrElse("walk")
    val nSeries = args.lift(2).map(_.toLong).getOrElse(32000L)
    val len = args.lift(3).map(_.toInt).getOrElse(256)
    val partitions = args.lift(4).map(_.toInt).getOrElse(8)
    val spark = JobUtil.session("hercules-build")
    try {
      val df = SeriesFrames.dataset(spark, kind, nSeries, len, seed = 20220601L)
      val built = Distributed.build(df, "hercules", IndexConfig(seriesLength = len, leafCapacity = 64), partitions)
      Distributed.saveToDir(built, outDir)
      recordKind(outDir, kind)
      println(s"built $partitions partition indexes over $nSeries series -> $outDir " +
        f"(wall ${built.buildWallMs / 1000}%.2fs, max partition ${built.maxPartitionBuildMs / 1000}%.2fs)")
    } finally spark.stop()
  }
}
