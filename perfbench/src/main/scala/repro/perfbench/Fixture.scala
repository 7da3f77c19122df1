package repro.perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.{Callable, Executors}
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baselines.BruteForce
import repro.core.{IndexConfig, Neighbor, QueryKnobs}
import scala.jdk.CollectionConverters._

/** Everything a run sets up before it measures: the Spark session, the
  * workload's cached input DataFrame, an in-process copy of the same series,
  * the distinct queries and their brute-force answers.
  */
final class Fixture(val w: Workload, val seed: Long, workDir: String) {
  val nproc: Int = Runtime.getRuntime.availableProcessors

  val spark: SparkSession = SparkSession.builder()
    .master(s"local[$nproc]")
    .appName(s"perfbench-${w.name}")
    .config("spark.ui.enabled", "false")
    .config("spark.driver.host", "127.0.0.1")
    .config("spark.local.dir", s"$workDir/spark")
    .config("spark.sql.warehouse.dir", s"$workDir/warehouse")
    .config("spark.sql.shuffle.partitions", nproc.toString)
    .getOrCreate()
  spark.sparkContext.setLogLevel("WARN")
  Log.phase("spark session up")

  val (partitions, threads) = Workloads.layout(w, nproc, spark.sparkContext.defaultParallelism)
  val cfg: IndexConfig = Workloads.indexConfig(w, partitions, threads)
  val knobs: QueryKnobs = Workloads.knobs(w, partitions)

  /** The input DataFrame `(id, series)`, cached and counted. */
  val df: DataFrame = {
    import spark.implicits._
    val (wl, s) = (w, seed)
    val frame = spark.range(w.n.toLong).map(id => (id, Workloads.series(wl, s, id))).toDF("id", "series")
    frame.cache()
    require(frame.count() == w.n)
    Log.phase("input cached")
    frame
  }

  val ids: Array[Long] = Array.tabulate(w.n)(_.toLong)
  val data: Array[Array[Float]] = parallel(w.n)(i => Workloads.series(w, seed, i.toLong))
  val flatShare: Double = data.count(_.forall(_ == 0f)).toDouble / w.n

  Log.phase("in-process copy made")
  val queries: Array[Array[Float]] = Workloads.queries(w, seed)
  val truth: Array[Array[Neighbor]] = parallel(queries.length)(qi => BruteForce.knn(ids, data, queries(qi), w.k))

  /** `f(0) … f(count-1)` on nproc threads (set-up work, never timed). */
  def parallel[T: scala.reflect.ClassTag](count: Int)(f: Int => T): Array[T] = {
    val pool = Executors.newFixedThreadPool(nproc)
    try {
      val tasks = (0 until count).map(i => new Callable[T] { def call(): T = f(i) })
      pool.invokeAll(tasks.asJava).asScala.map(_.get).toArray
    } finally pool.shutdown()
  }

  /** True iff `got` is exactly the brute-force answer of query `qi`: the
    * same `(id, dist2)` list under the `KnnSet` tie-break.
    */
  def exact(qi: Int, got: Array[Neighbor]): Boolean = got.sameElements(truth(qi))

  /** Heap in use after a full collection, in bytes. */
  def usedHeapAfterGc(): Long = {
    val mem = ManagementFactory.getMemoryMXBean
    System.gc(); System.gc()
    mem.getHeapMemoryUsage.getUsed
  }

  /** The machine and set-up, recorded with every result. */
  def env(scale: Double, trace: Boolean): Seq[(String, Any)] = Seq(
    "workload" -> w.name,
    "seed" -> seed,
    "query_seed" -> Workloads.querySeed(seed),
    "scale" -> scale,
    "trace" -> trace,
    "nproc" -> nproc,
    "heap_mb" -> Runtime.getRuntime.maxMemory / (1 << 20),
    "gc" -> ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getName).mkString("+"),
    "jdk" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
    "spark_version" -> spark.version,
    "spark_master" -> spark.sparkContext.master,
    "default_parallelism" -> spark.sparkContext.defaultParallelism,
    "n" -> w.n,
    "len" -> w.len,
    "k" -> w.k,
    "queries" -> w.queryMode,
    "distinct_queries" -> queries.length,
    "batch_size" -> Workloads.BatchSize,
    "partitions" -> partitions,
    "build_threads_per_partition" -> threads,
    "query_threads" -> knobs.threads,
    "leaf_capacity" -> cfg.leafCapacity,
    "lmax_per_partition" -> knobs.lmax,
    "hbuffer_slots" -> cfg.hbufferSlots,
    "flat_share_measured" -> flatShare,
  )

  def close(): Unit = spark.stop()
}
