package repro.experiments

import repro.SparkSpec

/** The build and query ablation figures at micro scale: each runs its
  * variants end to end and yields a table that passes [[BenchRow.check]].
  */
class FiguresSpec extends SparkSpec {

  test("fig12a runs the four build variants through the build protocol") {
    val rows = Figures.fig12a(0.01)
    BenchRow.check("fig12a", rows)
    assert(rows.length == 4)
  }

  test("fig12b runs the four query variants, which agree exactly, on three workloads") {
    val rows = Figures.fig12b(spark, 0.01, nQ = 2)
    BenchRow.check("fig12b", rows)
    assert(rows.length == 12)
  }
}
