package repro.spark

import java.nio.file.Files
import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicInteger
import scala.jdk.CollectionConverters._
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.{ArrayType, FloatType, LongType, StructField, StructType}
import org.apache.spark.storage.StorageLevel
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.SpanSugar._
import repro.{Oracle, SparkSpec}
import repro.baselines.BruteForce
import repro.core.{HerculesIndex, IndexConfig, KnnIndex, KnnSet, Neighbor, QueryKnobs, QueryStats, SeriesGen}

/** Distributed per-partition indexing: every method's Spark pipeline must
  * return exactly the DuckDB brute-force k-NN (via the oracle), partition
  * counts must not change answers, save/load must round-trip for every
  * method, and a build and a query batch must each be one Spark job. A
  * build reads its input partitions in place when their count is a
  * multiple of the index's, and deals the rows by a shuffle otherwise. The
  * result sets that a call's partitions share are gone once it returns,
  * whether its tasks succeeded or failed.
  */
class DistributedSpec extends SparkSpec {

  private val n = 300
  private val len = 24
  private val k = 3
  private val seed = 77L
  private val cfg = IndexConfig(seriesLength = len, leafCapacity = 16, dbSize = 64)
  private val knobs = QueryKnobs(k = k, lmax = 3, threads = 1)

  private lazy val df: DataFrame =
    SeriesFrames.dataset(spark, "walk", n, len, seed).cache()

  private lazy val queries = SeriesGen.queries("walk", "5%", 3, n, len, seed)

  private lazy val queryDF: DataFrame = {
    import spark.implicits._
    queries.zipWithIndex.flatMap { case (q, qi) =>
      q.zipWithIndex.map { case (v, p) => (qi.toLong, p, v.toDouble) }
    }.toSeq.toDF("qid", "pos", "val")
  }

  private def oracleSql(kk: Int): String =
    s"""WITH dists AS (
       |  SELECT q.qid AS qid, d.id AS sid,
       |         sum(pow(CAST(d.val AS DOUBLE) - CAST(q.val AS DOUBLE), 2)) AS d2
       |  FROM data d JOIN query q ON d.pos = q.pos
       |  GROUP BY q.qid, d.id
       |)
       |SELECT qid, sid, sqrt(d2) AS dist
       |FROM dists
       |QUALIFY row_number() OVER (PARTITION BY qid ORDER BY d2, sid) <= $kk
       |""".stripMargin

  for (method <- LocalIndex.builders.keys)
    test(s"$method distributed kNN matches the DuckDB oracle") {
      val built = Distributed.build(df, method, cfg, Runner.partitions(method))
      try {
        val res = Distributed.knnBatch(built, queries, knobs)
        val out = Oracle.resultsToDF(spark, res)
        Oracle.assertEquivalent(out, oracleSql(k),
          "data" -> Oracle.explode(df), "query" -> queryDF)
      } finally built.unpersist()
    }

  private object Runner {
    def partitions(method: String): Int = method match {
      case "dstree" | "vafile" => 1
      case _                   => 4
    }
  }

  /** [[Distributed.knnBatch]], then a check that the call left no result
    * sets in the registry.
    */
  private def knnBatch(built: Distributed.BuiltIndex, qs: Array[Array[Float]], kn: QueryKnobs) = {
    val res = Distributed.knnBatch(built, qs, kn)
    assert(ResultRegistry.size == 0, "result sets outlived their call")
    res
  }

  test("more partitions than rows: every method is exact with empty partitions") {
    val tiny = SeriesFrames.dataset(spark, "walk", 5, len, seed)
    val (ids, data) = (Array.tabulate(5)(_.toLong), SeriesGen.dataset("walk", 5, len, seed))
    for (method <- LocalIndex.builders.keys) {
      val built = Distributed.build(tiny, method, cfg, 8)
      try {
        assert(built.totalSeries == 5)
        for (kk <- Seq(3, 10)) {
          val res = knnBatch(built, queries, knobs.copy(k = kk))
          queries.indices.foreach { qi =>
            val expect = BruteForce.knn(ids, data, queries(qi), kk).map(nb => (nb.id, nb.dist2)).toSeq
            assert(res.neighbors(qi).map(nb => (nb.id, nb.dist2)).toSeq == expect, s"$method k=$kk q$qi")
          }
        }
      } finally built.unpersist()
    }
  }

  test("every method at 1, 2, 4 and 8 partitions sharing result sets equals brute force") {
    val (ids, data) = (Array.tabulate(n)(_.toLong), SeriesGen.dataset("walk", n, len, seed))
    val qs = SeriesGen.queries("walk", "5%", 6, n, len, seed) ++
      SeriesGen.queries("walk", "ood", 3, n, len, seed + 2) ++ Seq(data(17), data(250))
    for (method <- LocalIndex.builders.keys; p <- Seq(1, 2, 4, 8)) {
      val built = Distributed.build(df, method, cfg, p)
      try {
        for (kk <- Seq(1, 5)) {
          val res = knnBatch(built, qs, knobs.copy(k = kk))
          qs.indices.foreach { qi =>
            val expect = BruteForce.knn(ids, data, qs(qi), kk).map(nb => (nb.id, nb.dist2)).toSeq
            assert(res.neighbors(qi).map(nb => (nb.id, nb.dist2)).toSeq == expect, s"$method p=$p k=$kk q$qi")
          }
        }
      } finally built.unpersist()
    }
  }

  test("a call whose tasks throw leaves no result sets in the registry") {
    val good = LocalIndex.build("pscan", Array.tabulate(n)(_.toLong), SeriesGen.dataset("walk", n, len, seed), cfg)
    val failing = LocalIndex("failing", DistributedSpec.Failing, 0.0, len)
    for (parts <- Seq(Seq(failing), Seq(good, failing, good, failing))) {
      val rdd = spark.sparkContext.parallelize(parts, parts.length)
      val built = Distributed.BuiltIndex(rdd, 0.0, parts.length, parts.map(_.nSeries).sum, 0.0, len)
      // The executor logs each failed task's stack trace at ERROR; these are meant.
      spark.sparkContext.setLogLevel("OFF")
      val e = try intercept[org.apache.spark.SparkException](Distributed.knnBatch(built, queries, knobs))
        finally spark.sparkContext.setLogLevel("WARN")
      assert(e.getMessage.contains(DistributedSpec.Failing.message), e.getMessage)
      // A failed job returns once one task fails; the others end on their own.
      if (parts.length == 1) assert(ResultRegistry.size == 0)
      else eventually(timeout(30.seconds), interval(10.millis))(assert(ResultRegistry.size == 0))
    }
    val res = knnBatch(Distributed.BuiltIndex(spark.sparkContext.parallelize(Seq(good), 1), 0.0, 1, n, 0.0, len),
      queries, knobs)
    assert(res.neighbors.forall(_.length == k))
  }

  test("answers are identical for 1, 2 and 5 partitions") {
    val refs = Seq(1, 2, 5).map { p =>
      val built = Distributed.build(df, "hercules", cfg, p)
      try Distributed.knnBatch(built, queries, knobs).neighbors
      finally built.unpersist()
    }
    refs.tail.foreach { r =>
      refs.head.zip(r).foreach { case (a, b) =>
        assert(a.map(x => (x.id, x.dist2)).toSeq == b.map(x => (x.id, x.dist2)).toSeq)
      }
    }
  }

  test("knnBatch rejects a bad query on the driver, naming its index") {
    val built = Distributed.build(df, "hercules", cfg, 2)
    try {
      assert(built.seriesLength == len)
      val q = queries(0)
      val bad = Seq(
        "length 23" -> q.take(len - 1),
        "length 25" -> (q :+ 0f),
        "NaN at index 5" -> q.updated(5, Float.NaN),
        "-Infinity at index 0" -> q.updated(0, Float.NegativeInfinity))
      bad.foreach { case (what, b) =>
        // An IllegalArgumentException, not a SparkException: no task ran.
        val e = intercept[IllegalArgumentException](Distributed.knnBatch(built, Array(q, q, b), knobs))
        assert(e.getMessage.contains("query 2") && e.getMessage.contains(what), e.getMessage)
      }
    } finally built.unpersist()
  }

  /** `body`'s result and the stage count of each Spark job it started from
    * this thread, in start order. The jobs run under a job group of their
    * own; a marker job started after `body` under another group shows that
    * the listener bus has delivered every earlier job start.
    */
  private def jobStages[T](body: => T): (T, Seq[Int]) = {
    val sc = spark.sparkContext
    val group = s"counted-${System.nanoTime()}"
    val marker = s"$group-marker"
    val stages = new ConcurrentLinkedQueue[Int]
    val markerSeen = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).map(_.getProperty("spark.jobGroup.id")).foreach { g =>
          if (g == group) stages.add(e.stageInfos.length)
          if (g == marker) markerSeen.incrementAndGet()
        }
    }
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup(group, "counted")
      val out = body
      sc.setJobGroup(marker, "marker")
      sc.parallelize(Seq(1), 1).count()
      eventually(timeout(30.seconds), interval(10.millis))(assert(markerSeen.get == 1))
      (out, stages.asScala.toSeq)
    } finally {
      sc.clearJobGroup()
      sc.removeSparkListener(listener)
    }
  }

  /** `body`'s result and the Spark jobs it started from this thread. */
  private def jobsStarted[T](body: => T): (T, Int) = {
    val (out, stages) = jobStages(body)
    (out, stages.length)
  }

  test("a build and a query batch are one Spark job each, and the index RDD keeps no lineage") {
    for (method <- LocalIndex.builders.keys) {
      val (built, buildJobs) = jobsStarted(Distributed.build(df, method, cfg, 2))
      try {
        assert(buildJobs == 1, method)
        assert(built.rdd.isCheckpointed && built.rdd.getCheckpointFile.isEmpty, s"$method: not locally checkpointed")
        assert(built.rdd.getStorageLevel == StorageLevel.MEMORY_AND_DISK, method)
        assert(!built.rdd.toDebugString.contains("Shuffle"), built.rdd.toDebugString)
        val (res, callJobs) = jobsStarted(Distributed.knnBatch(built, queries, knobs))
        assert(callJobs == 1, method)
        assert(res.neighbors.length == queries.length)
      } finally built.unpersist()
    }
  }

  /** `n` walks (`SeriesGen.seriesForId`, as in `df`) in exactly `m` input
    * partitions, whatever the core count.
    */
  private def inputOf(m: Int): DataFrame = {
    import spark.implicits._
    val (l, s) = (len, seed)
    spark.range(0, n, 1, m).map(id => (id, SeriesGen.seriesForId("walk", id, l, s))).toDF("id", "series")
  }

  /** Assert that `built` answers `queries` as brute force does, by `(id, dist2)`. */
  private def assertBruteForce(built: Distributed.BuiltIndex, what: String): Unit = {
    val (ids, data) = (Array.tabulate(n)(_.toLong), SeriesGen.dataset("walk", n, len, seed))
    val res = Distributed.knnBatch(built, queries, knobs)
    queries.indices.foreach { qi =>
      val expect = BruteForce.knn(ids, data, queries(qi), k).map(nb => (nb.id, nb.dist2)).toSeq
      assert(res.neighbors(qi).map(nb => (nb.id, nb.dist2)).toSeq == expect, s"$what q$qi")
    }
  }

  test("a build reads whole input partitions in place when their count divides evenly: one stage") {
    val input = inputOf(4)
    for (p <- Seq(4, 2, 1)) {
      val (built, stages) = jobStages(Distributed.build(input, "hercules", cfg, p))
      try {
        assert(stages == Seq(1), s"4 -> $p")
        assert(built.partitions == p && built.rdd.getNumPartitions == p && built.totalSeries == n)
        assert(built.rdd.map(_.nSeries).collect().toSeq == Seq.fill(p)(n.toLong / p), s"4 -> $p")
        assertBruteForce(built, s"4 -> $p")
      } finally built.unpersist()
    }
  }

  test("a build deals the rows by a shuffle when the input's partitions do not divide evenly: two stages") {
    for ((m, p) <- Seq(3 -> 2, 2 -> 4)) {
      val (built, stages) = jobStages(Distributed.build(inputOf(m), "hercules", cfg, p))
      try {
        assert(stages == Seq(2), s"$m -> $p")
        assert(built.partitions == p && built.rdd.getNumPartitions == p && built.totalSeries == n)
        val sizes = built.rdd.map(_.nSeries).collect()
        assert(sizes.length == p && sizes.sum == n)
        if (m == 3) sizes.foreach(s => assert(math.abs(s - n / p) <= m, sizes.mkString(s"$m -> $p: ", ", ", "")))
        assertBruteForce(built, s"$m -> $p")
      } finally built.unpersist()
    }
  }

  test("an input with no partitions builds the asked-for number of empty indexes") {
    val schema = StructType(Seq(
      StructField("id", LongType, nullable = false),
      StructField("series", ArrayType(FloatType, containsNull = false), nullable = false)))
    val empty = spark.createDataFrame(spark.sparkContext.emptyRDD[Row], schema)
    assert(empty.rdd.getNumPartitions == 0)
    val built = Distributed.build(empty, "hercules", cfg, 3)
    try {
      assert(built.partitions == 3 && built.rdd.getNumPartitions == 3)
      assert(built.totalSeries == 0 && built.seriesLength == len)
      val res = Distributed.knnBatch(built, queries, knobs)
      assert(res.neighbors.length == queries.length && res.neighbors.forall(_.isEmpty))
    } finally built.unpersist()
  }

  test("build rejects a partition count below 1") {
    val e = intercept[IllegalArgumentException](Distributed.build(df, "hercules", cfg, 0))
    assert(e.getMessage.contains("got 0"), e.getMessage)
  }

  test("knnBatch reports timing and access stats") {
    val built = Distributed.build(df, "hercules", cfg, 2)
    try {
      val res = Distributed.knnBatch(built, queries, knobs)
      assert(res.totalSeries == n)
      assert(res.perQueryMs.length == queries.length)
      assert(res.avgAccessFraction > 0.0 && res.avgAccessFraction <= 1.0)
    } finally built.unpersist()
  }

  test("queriesAtOnce fills the cores the partitions leave idle") {
    // (parallelism, partitions, threads per query) -> queries at once
    Seq((4, 1, 1) -> 4, (4, 4, 1) -> 1, (4, 8, 1) -> 1, (4, 1, 4) -> 1, (4, 1, 2) -> 2).foreach {
      case ((par, parts, threads), want) => assert(Distributed.queriesAtOnce(par, parts, threads) == want)
    }
  }

  test("an empty batch returns empty arrays") {
    val built = Distributed.build(df, "hercules", cfg, 1)
    try {
      val res = Distributed.knnBatch(built, Array.empty[Array[Float]], knobs)
      assert(res.neighbors.isEmpty && res.perQueryMs.isEmpty && res.perQueryStats.isEmpty)
      assert(res.avgQueryMs == 0.0 && res.avgAccessFraction == 0.0)
    } finally built.unpersist()
  }

  /** Every field of a query's access counters and adaptive path. */
  private def fields(s: QueryStats) =
    (s.seriesAccessed.get, s.leavesVisited.get, s.saxChecked.get, s.candidateLeaves, s.candidateSeries,
      s.skipSeqEapca, s.skipSeqSax)

  for (method <- LocalIndex.builders.keys)
    test(s"$method on 1 partition: a concurrent batch equals one-query calls and brute force") {
      val parallelism = spark.sparkContext.defaultParallelism
      val half = 2 * parallelism
      val qs = SeriesGen.queries("walk", "5%", half, n, len, seed) ++
        SeriesGen.queries("walk", "ood", half, n, len, seed + 1)
      val (ids, data) = (Array.tabulate(n)(_.toLong), SeriesGen.dataset("walk", n, len, seed))
      val built = Distributed.build(df, method, cfg, 1)
      try {
        assert(Distributed.queriesAtOnce(parallelism, built.partitions, knobs.threads) == parallelism)
        val batch = Distributed.knnBatch(built, qs, knobs)
        qs.indices.foreach { qi =>
          val one = Distributed.knnBatch(built, Array(qs(qi)), knobs)
          val got = batch.neighbors(qi).map(nb => (nb.id, nb.dist2)).toSeq
          assert(got == one.neighbors(0).map(nb => (nb.id, nb.dist2)).toSeq, s"$method q$qi")
          assert(got == BruteForce.knn(ids, data, qs(qi), k).map(nb => (nb.id, nb.dist2)).toSeq, s"$method q$qi")
          assert(fields(batch.perQueryStats(qi)) == fields(one.perQueryStats(0)), s"$method q$qi")
        }
      } finally built.unpersist()
    }

  /** Run `body` on a fresh temp directory, then delete it and its files. */
  private def withTempDir(prefix: String)(body: String => Unit): Unit = {
    val dir = Files.createTempDirectory(prefix)
    try body(dir.toString)
    finally {
      val files = Files.list(dir)
      try files.forEach(f => Files.delete(f))
      finally files.close()
      Files.delete(dir)
    }
  }

  test("save/load round-trips the per-partition indexes") {
    for (method <- LocalIndex.builders.keys) withTempDir(s"hercules-dist-$method") { dir =>
      val built = Distributed.build(df, method, cfg, 3)
      try {
        Distributed.saveToDir(built, dir)
        val loaded = Distributed.loadFromDir(spark, dir)
        try {
          assert(loaded.partitions == 3)
          assert(loaded.totalSeries == n)
          assert(loaded.seriesLength == len)
          val a = Distributed.knnBatch(built, queries, knobs).neighbors
          val b = Distributed.knnBatch(loaded, queries, knobs).neighbors
          a.zip(b).foreach { case (x, y) =>
            assert(x.map(v => (v.id, v.dist2)).toSeq == y.map(v => (v.id, v.dist2)).toSeq, method)
          }
          built.rdd.collect().zip(loaded.rdd.collect()).foreach { case (x, y) =>
            assert(y.method == method && y.nSeries == x.nSeries)
            (x.index, y.index) match {
              case (xi: HerculesIndex, yi: HerculesIndex) =>
                assert(yi.leaves.map(_.filePos) == xi.leaves.map(_.filePos))
                assert(yi.leaves.map(_.leafSize) == xi.leaves.map(_.leafSize))
                assert(yi.ids.toSeq == xi.ids.toSeq)
                assert(yi.lsd.toSeq == xi.lsd.toSeq)
              case _ =>
            }
          }
        } finally loaded.unpersist()
      } finally built.unpersist()
    }
  }

  test("saving into a directory that holds an earlier save's .idx files is rejected") {
    withTempDir("hercules-dist-resave") { dir =>
      val three = Distributed.build(df, "hercules", cfg, 3)
      try Distributed.saveToDir(three, dir)
      finally three.unpersist()
      val two = Distributed.build(df, "hercules", cfg, 2)
      try {
        val e = intercept[IllegalArgumentException](Distributed.saveToDir(two, dir))
        assert(e.getMessage.contains(dir))
      } finally two.unpersist()
      val loaded = Distributed.loadFromDir(spark, dir)
      try assert(loaded.partitions == 3 && loaded.totalSeries == n)
      finally loaded.unpersist()
    }
  }

  test("ood queries against a larger k also match the oracle (hercules)") {
    val oodQ = SeriesGen.queries("walk", "ood", 2, n, len, seed)
    val oodQDF = {
      import spark.implicits._
      oodQ.zipWithIndex.flatMap { case (q, qi) =>
        q.zipWithIndex.map { case (v, p) => (qi.toLong, p, v.toDouble) }
      }.toSeq.toDF("qid", "pos", "val")
    }
    val built = Distributed.build(df, "hercules", cfg, 4)
    try {
      val res = Distributed.knnBatch(built, oodQ, knobs.copy(k = 10))
      val out = Oracle.resultsToDF(spark, res)
      Oracle.assertEquivalent(out, oracleSql(10),
        "data" -> Oracle.explode(df), "query" -> oodQDF)
    } finally built.unpersist()
  }
}

object DistributedSpec {
  /** A partition index whose every query throws. */
  object Failing extends KnnIndex {
    val message = "this partition fails every query"
    def nSeries: Int = 0
    def knn(q: Array[Float], knobs: QueryKnobs, stats: QueryStats, results: KnnSet): Array[Neighbor] =
      throw new IllegalStateException(message)
  }
}
