package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.SeriesGen

/** DataFrame-side dataset generation.
  *
  * A dataset is `(id: Long, series: Array[Float])`; every series is the pure
  * function `SeriesGen.seriesForId(kind, id, len, seed)`, so executors and
  * the driver-side query generators agree without shipping data.
  */
object SeriesFrames {

  /** A deterministic dataset of `n` series of `kind`, as a DataFrame. */
  def dataset(spark: SparkSession, kind: String, n: Long, len: Int, seed: Long): DataFrame = {
    import spark.implicits._
    val k = kind
    val l = len
    val s = seed
    spark.range(n).map(id => (id, SeriesGen.seriesForId(k, id, l, s))).toDF("id", "series")
  }
}
