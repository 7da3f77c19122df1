package repro.spark

import repro.{Oracle, SparkSpec}
import repro.core.SeriesGen

/** DataFrame generators agree with the driver-side pure generators. */
class SeriesFramesSpec extends SparkSpec {

  test("dataset DF matches SeriesGen.seriesForId for every id") {
    import spark.implicits._
    val df = SeriesFrames.dataset(spark, "walk", 50, 32, 9)
    val rows = df.as[(Long, Array[Float])].collect().sortBy(_._1)
    assert(rows.length == 50)
    rows.foreach { case (id, s) =>
      assert(s.toSeq == SeriesGen.seriesForId("walk", id, 32, 9).toSeq, s"id $id")
    }
  }

  for (kind <- SeriesGen.Kinds)
    test(s"$kind DF generation is deterministic across jobs") {
      import spark.implicits._
      val a = SeriesFrames.dataset(spark, kind, 20, 16, 3).as[(Long, Array[Float])].collect().sortBy(_._1)
      val b = SeriesFrames.dataset(spark, kind, 20, 16, 3).as[(Long, Array[Float])].collect().sortBy(_._1)
      assert(a.map(_._2.toSeq).toSeq == b.map(_._2.toSeq).toSeq)
    }

  test("explode emits one row per (id, pos) with double values") {
    val df = SeriesFrames.dataset(spark, "walk", 10, 8, 1)
    val long = Oracle.explode(df)
    assert(long.count() == 80)
    assert(long.schema("val").dataType.typeName == "double")
    val row = long.filter("id = 3 AND pos = 2").collect()(0)
    val expect = SeriesGen.seriesForId("walk", 3, 8, 1)(2).toDouble
    assert(row.getDouble(2) == expect)
  }
}
