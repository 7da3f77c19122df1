package repro.experiments

import repro.SparkSpec

/** Every figure at the smallest scale, where each dataset bottoms out at 256
  * series (512 for fig8), with 2 queries per workload: each runs its sweep
  * end to end and yields tables whose rows pass [[BenchRow.check]] and whose
  * every shape claim names rows the table has.
  */
class FiguresSpec extends SparkSpec {

  private val Scale = 0.001

  /** Check `t`'s rows, evaluate every claim, and return the row count. */
  private def checked(t: FigureTable): Int = {
    BenchRow.check(t.title, t.rows)
    assert(t.claims.nonEmpty)
    t.claims.foreach(_.holds(t))
    t.rows.length
  }

  test("fig6 yields build, idx+100 and idx+10K rows for 4 sizes and 5 methods") {
    assert(checked(Figures.fig6(spark, Scale, nQ = 2)) == 4 * 5 * 3)
  }

  test("fig7 yields a query time for 2 sizes and 5 methods") {
    assert(checked(Figures.fig7(spark, Scale, nQ = 2)) == 2 * 5)
  }

  test("fig8 yields a query time for 5 lengths and 5 methods") {
    assert(checked(Figures.fig8(spark, Scale, nQ = 2)) == 5 * 5)
  }

  test("fig9-10 yields 3 rows for 3 datasets, 5 workloads and 5 methods") {
    assert(checked(Figures.fig9and10(spark, Scale, nQ = 2)) == 3 * 5 * 5 * 3)
  }

  test("fig11 yields query time and data accessed for 6 values of k and 5 methods") {
    assert(checked(Figures.fig11(spark, Scale, nQ = 2)) == 6 * 5 * 2)
  }

  test("fig12a runs the four build variants through the build protocol") {
    assert(checked(Figures.fig12a(Scale)) == 4)
  }

  test("fig12b runs the four query variants, which agree exactly, on three workloads") {
    assert(checked(Figures.fig12b(spark, Scale, nQ = 2)) == 12)
  }

  test("a claim that names a missing row throws") {
    val t = FigureTable("t", Seq(BenchRow("f", "c", "hercules", "ms", 1.0)),
      Seq(Claim("c: hercules beats pscan", t => t("c", "hercules", "ms") < t("c", "pscan", "ms"))))
    intercept[NoSuchElementException](t.claims.head.holds(t))
  }

  test("byName names every figure in the paper's order") {
    assert(Figures.byName.keys.toSeq == Seq("fig6", "fig7", "fig8", "fig9-10", "fig11", "fig12"))
  }
}
