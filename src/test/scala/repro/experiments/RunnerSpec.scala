package repro.experiments

import repro.SparkSpec
import repro.core.SeriesGen
import repro.spark.{Distributed, SeriesFrames}

/** The experiment harness at micro scale: sweeps, agreement checking,
  * extrapolation, rendering.
  */
class RunnerSpec extends SparkSpec {

  test("one-workload runSweep agrees across all methods and yields timing rows") {
    val df = SeriesFrames.dataset(spark, "walk", 400, 24, 5)
    val queries = SeriesGen.queries("walk", "5%", 3, 400, 24, 5)
    val cfg = repro.core.IndexConfig(seriesLength = 24, leafCapacity = 16)
    val out = Runner.runSweep(df, Runner.allMethods, cfg, Seq(("5%", queries, Runner.knobs(1, lmax = 3))))
    assert(out.map(_._1).distinct == Seq("5%"))
    val runs = out.map(_._2)
    assert(runs.map(_.method) == Runner.allMethods)
    runs.foreach { r =>
      assert(r.buildS >= 0.0)
      assert(r.perQueryMs.length == 3)
      assert(r.answers.forall(_.length == 1))
    }
  }

  test("runSweep builds once per method and answers every workload") {
    val df = SeriesFrames.dataset(spark, "deep", 300, 16, 6)
    val cfg = repro.core.IndexConfig(seriesLength = 16, leafCapacity = 16)
    val sweeps = Seq("1%", "ood").map { wl =>
      (wl, SeriesGen.queries("deep", wl, 2, 300, 16, 6), Runner.knobs(2, lmax = 3))
    }
    val out = Runner.runSweep(df, Seq("hercules", "pscan"), cfg, sweeps)
    assert(out.size == 4)
    assert(out.map(_._1).distinct.sorted == Seq("1%", "ood"))
  }

  test("oneAtATime returns a batch call's answers and counters, one query per call") {
    val df = SeriesFrames.dataset(spark, "walk", 400, 24, 7)
    val queries = SeriesGen.queries("walk", "ood", 6, 400, 24, 7)
    val cfg = repro.core.IndexConfig(seriesLength = 24, leafCapacity = 16)
    val built = Distributed.build(df, "hercules", cfg, 1)
    try {
      val qk = Runner.knobs(2, lmax = 3)
      val one = Runner.oneAtATime(built, queries, qk)
      val batch = Distributed.knnBatch(built, queries, qk)
      assert(one.neighbors.map(_.toSeq).toSeq == batch.neighbors.map(_.toSeq).toSeq)
      assert(one.perQueryStats.map(_.seriesAccessed.get).toSeq == batch.perQueryStats.map(_.seriesAccessed.get).toSeq)
      assert(one.perQueryMs.length == 6 && one.perQueryMs.forall(_ >= 0.0))
      assert(one.totalSeries == 400 && one.avgAccessFraction == batch.avgAccessFraction)
    } finally built.unpersist()
  }

  test("extrapolation drops outliers and scales to 10K queries") {
    val times = Array.fill(100)(10.0)
    times(0) = 1000.0; times(1) = 0.0
    val s = Runner.extrapolate10kS(times)
    assert(math.abs(s - 100.0) < 1e-6) // 10ms * 10000 = 100s
  }

  test("extrapolation handles tiny workloads") {
    assert(Runner.extrapolate10kS(Array(5.0)) == 50.0)
    assert(Runner.extrapolate10kS(Array(4.0, 6.0)) == 50.0)
  }

  test("BenchRow rendering includes every method column") {
    val rows = Seq(
      BenchRow("f", "cfg1", "hercules", "ms", 1.5),
      BenchRow("f", "cfg1", "pscan", "ms", 2.5),
    )
    val s = BenchRow.render("t", rows)
    assert(s.contains("hercules") && s.contains("pscan") && s.contains("cfg1"))
  }

  test("BenchRow.check rejects an empty table, a NaN value and a negative value") {
    val ok = BenchRow("f", "cfg1", "hercules", "ms", 0.0)
    BenchRow.check("t", Seq(ok))
    for (bad <- Seq(Seq.empty, Seq(ok, ok.copy(value = Double.NaN)), Seq(ok.copy(value = -1.0))))
      intercept[IllegalArgumentException](BenchRow.check("t", bad))
  }

  test("checkExactAgreement raises on disagreement") {
    import repro.core.Neighbor
    val a = Runner.MethodRun("a", 0, 0, Array(0.0), 0, Array(Array(Neighbor(1, 1.0))))
    val b = Runner.MethodRun("b", 0, 0, Array(0.0), 0, Array(Array(Neighbor(2, 2.0))))
    intercept[IllegalArgumentException](Runner.checkExactAgreement(Seq(a, b)))
    val sameDist = Runner.MethodRun("c", 0, 0, Array(0.0), 0, Array(Array(Neighbor(2, 1.0))))
    intercept[IllegalArgumentException](Runner.checkExactAgreement(Seq(a, sameDist)))
  }

  test("checkExactAgreement raises on a dist2 one ulp apart") {
    import repro.core.Neighbor
    val a = Runner.MethodRun("a", 0, 0, Array(0.0), 0, Array(Array(Neighbor(1, 1234.5))))
    val b = Runner.MethodRun("b", 0, 0, Array(0.0), 0, Array(Array(Neighbor(1, math.nextUp(1234.5)))))
    Runner.checkExactAgreement(Seq(a, a.copy(method = "c")))
    intercept[IllegalArgumentException](Runner.checkExactAgreement(Seq(a, b)))
  }
}
