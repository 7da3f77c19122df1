package repro.jobs

import repro.core.SeriesGen
import repro.experiments.Runner
import repro.spark.Distributed

/** Stage 2 of the paper's pipeline: load a saved per-partition index and
  * answer a k-NN workload drawn for its series count and length.
  *
  * Usage: QueryJob <indexDir> [kind] [workload] [k] [nQ]
  */
object QueryJob {
  def main(args: Array[String]): Unit = {
    val dir = args.headOption.getOrElse("/tmp/hercules-index")
    val kind = args.lift(1).getOrElse("walk")
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
