package repro.spark

import java.io.{BufferedInputStream, BufferedOutputStream, FileInputStream, FileOutputStream, ObjectInputStream, ObjectOutputStream}
import java.nio.file.{Files, Paths}
import java.util.concurrent.atomic.AtomicLong
import scala.jdk.CollectionConverters._
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{IndexConfig, KnnSet, Neighbor, Par, QueryKnobs, QueryStats}

/** Distributed build + query answering: one [[LocalIndex]] per partition via
  * `mapPartitions`, query batches carried in the task closure, one result
  * set per query shared by the partitions on an executor
  * ([[ResultRegistry]]), and an exact driver-side top-k merge (k-NN under a
  * partition of the dataset is the k smallest of the per-partition k
  * smallest). A build and a query batch are one Spark job each. The index
  * RDD is locally checkpointed, so it has no lineage: a lost partition fails
  * the query instead of being rebuilt.
  */
object Distributed {

  /** The id of the next [[knnBatch]] call, which keys its result sets. */
  private val nextCall = new AtomicLong

  /** A built per-partition index collection plus build-time measurements;
    * `buildWallMs` times the one job that built (or loaded) the partitions;
    * `seriesLength` is the length of every indexed series, and of a query.
    */
  final case class BuiltIndex(
      rdd: RDD[LocalIndex],
      buildWallMs: Double,
      partitions: Int,
      totalSeries: Long,
      maxPartitionBuildMs: Double,
      seriesLength: Int,
  ) {
    /** Release the cached partitions; the index cannot answer after this. */
    def unpersist(): Unit = rdd.unpersist(blocking = false)
  }

  /** Results of a query batch: merged exact answers, wall/per-query times,
    * and per-query merged access counters.
    *
    * @param wallMs        wall time of the batch's one job, submit to collect
    * @param perQueryMs    per query, the longest of its partitions' in-task
    *                      times; each is that query's own wall time, which
    *                      other queries of the batch may overlap
    * @param perQueryStats per query, the sum of its partitions' counters. On
    *                      more than 1 partition they depend on timing: each
    *                      partition prunes against what the partitions
    *                      sharing its result set have found so far
    */
  final case class QueryBatchResult(
      neighbors: Array[Array[Neighbor]],
      wallMs: Double,
      perQueryMs: Array[Double],
      perQueryStats: Array[QueryStats],
      totalSeries: Long,
  ) {
    /** Average of [[perQueryMs]]: the slowest partition's time per query,
      * measured while other queries of the batch may run alongside it, so
      * it is not `wallMs` divided by the batch size.
      */
    def avgQueryMs: Double = if (perQueryMs.isEmpty) 0.0 else perQueryMs.sum / perQueryMs.length
    /** Average fraction of the collection accessed per query. */
    def avgAccessFraction: Double =
      if (perQueryStats.isEmpty) 0.0
      else perQueryStats.map(_.accessFraction(totalSeries)).sum / perQueryStats.length
  }

  /** Build one `method` index per partition of `df` (`id`, `series`) into
    * `partitions` partitions inside `mapPartitions`, all in one job.
    *
    * The rows move only when they have to. If the input has `m` partitions
    * and `m` is a nonzero multiple of `partitions`, each build task reads
    * `m / partitions` whole input partitions in place (`coalesce`, a narrow
    * dependency, so the job has one stage). Otherwise `RDD.repartition`
    * deals the rows evenly by a shuffle: coalescing whole partitions into a
    * count that does not divide would leave one index partition up to twice
    * as large as the others, and an input with no partitions must still
    * give `partitions` empty indexes. A SQL exchange would run its shuffle
    * as a job of its own under adaptive query execution.
    *
    * Two trade-offs of the shuffle-free path: the index partitions are only
    * as balanced as the input's partitions, and an uncached input is
    * computed inside the `partitions` build tasks, not by `m` tasks of its
    * own. `LocalIndex.buildMs` starts once a task has gathered its rows, so
    * it does not include that computation. Rejects a `partitions` below 1.
    */
  def build(df: DataFrame, method: String, cfg: IndexConfig, partitions: Int): BuiltIndex = {
    require(partitions >= 1, s"partitions must be at least 1, got $partitions")
    val spark = df.sparkSession
    import spark.implicits._
    val rows = df.as[(Long, Array[Float])].rdd
    val m = rows.getNumPartitions
    val rdd = rows
      .coalesce(partitions, shuffle = m == 0 || m % partitions != 0)
      .mapPartitions { it =>
        val ids = Array.newBuilder[Long]
        val series = Array.newBuilder[Array[Float]]
        it.foreach { case (id, s) => ids += id; series += s }
        Iterator.single(LocalIndex.build(method, ids.result(), series.result(), cfg))
      }
    materialize(rdd, partitions, s"partitions of $method")
  }

  /** Locally checkpoint `rdd` and run the one job that computes and caches
    * it, collecting each partition's size, build time and series length,
    * which the partitions must agree on.
    */
  private def materialize(rdd: RDD[LocalIndex], partitions: Int, what: String): BuiltIndex = {
    rdd.localCheckpoint()
    val t0 = System.nanoTime()
    val stats = rdd.map(i => (i.nSeries, i.buildMs, i.seriesLength)).collect()
    val wallMs = (System.nanoTime() - t0) / 1e6
    val lengths = stats.map(_._3).distinct
    require(lengths.length == 1, s"$what index series of lengths ${lengths.mkString(", ")}")
    BuiltIndex(rdd, wallMs, partitions, stats.map(_._1).sum, stats.map(_._2).max, lengths.head)
  }

  /** Queries a [[knnBatch]] task answers at once: the cores that the job's
    * `partitions` leave idle out of Spark's `parallelism`, each query taking
    * `threads` of them, and at least 1. In local mode a job thus never
    * runs more than `parallelism` query threads, unless one query alone
    * needs more.
    *
    * `parallelism` counts the cores of the whole cluster. In local mode
    * those are the cores of the one JVM that runs every task. Under a
    * cluster master all of a task's threads run on one executor, so
    * [[knnBatch]] also caps a task at `queriesAtOnce(executor cores, 1,
    * threads)`; tasks that Spark places on the same executor may still
    * together run more query threads than it has cores.
    */
  def queriesAtOnce(parallelism: Int, partitions: Int, threads: Int): Int =
    math.max(1, parallelism / (partitions * threads))

  /** Answer a batch of queries exactly in one job, the batch travelling in
    * the task closure; merge the partitions' top-k. Each partition's task
    * answers [[queriesAtOnce]] queries concurrently, one `QueryStats` per
    * query. Each query has one result set per executor, which every
    * partition of the call there fills and prunes against
    * ([[ResultRegistry]]); a task returns that set's contents when its
    * partition is done, and the merge drops the answers that several tasks
    * return. Within one partition, answers and counters do not depend on
    * how many queries run at once. Rejects, before any task is sent, a
    * query of another length or with a NaN or infinite point, naming its
    * index in `queries`.
    */
  def knnBatch(built: BuiltIndex, queries: Array[Array[Float]], knobs: QueryKnobs): QueryBatchResult = {
    queries.indices.foreach(qi => LocalIndex.checkQuery(queries(qi), built.seriesLength, s"query $qi"))
    val atOnce = queriesAtOnce(built.rdd.sparkContext.defaultParallelism, built.partitions, knobs.threads)
    val call = nextCall.getAndIncrement()
    val t0 = System.nanoTime()
    val partResults = built.rdd.map { idx =>
      // On the task's thread: the Par workers below have no TaskContext.
      val sets = ResultRegistry.acquire(call, queries.length, knobs.k)
      val res = new Array[Array[Neighbor]](queries.length)
      val stats = Array.fill(queries.length)(new QueryStats)
      val times = new Array[Double](queries.length)
      val onExecutor = queriesAtOnce(Runtime.getRuntime.availableProcessors, 1, knobs.threads)
      // Par.run joins its workers, so every slot is written on return.
      Par.claim(Seq(atOnce, onExecutor, queries.length).min, queries.length) { (_, qi) =>
        val q0 = System.nanoTime()
        res(qi) = idx.knn(queries(qi), knobs, stats(qi), sets(qi))
        times(qi) = (System.nanoTime() - q0) / 1e6
      }
      (res, stats, times)
    }.collect()
    val wallMs = (System.nanoTime() - t0) / 1e6
    val merged = Array.tabulate(queries.length) { qi =>
      val set = new KnnSet(knobs.k)
      partResults.foreach { case (res, _, _) => set.addAll(res(qi)) }
      set.toArray
    }
    val perQueryMs = Array.tabulate(queries.length) { qi =>
      if (partResults.isEmpty) 0.0 else partResults.map(_._3(qi)).max
    }
    val perQueryStats = Array.tabulate(queries.length) { qi =>
      val s = new QueryStats
      partResults.foreach(p => s.merge(p._2(qi)))
      s
    }
    QueryBatchResult(merged, wallMs, perQueryMs, perQueryStats, built.totalSeries)
  }

  /** Persist each partition's index as one serialized file under `dir`.
    * Rejects, before the job runs, a `dir` that already holds `.idx` files:
    * [[loadFromDir]] would load an earlier save's leftover partitions too.
    */
  def saveToDir(built: BuiltIndex, dir: String): Unit = {
    Files.createDirectories(Paths.get(dir))
    require(idxFiles(dir).isEmpty, s"$dir already holds .idx files; save into an empty directory")
    built.rdd.mapPartitionsWithIndex { (pid, it) =>
      it.foreach { idx =>
        val out = new ObjectOutputStream(new BufferedOutputStream(
          new FileOutputStream(s"$dir/part-$pid.idx")))
        try out.writeObject(idx)
        finally out.close()
      }
      Iterator.single(pid)
    }.count()
  }

  /** Reload a saved per-partition index collection (one task per file). */
  def loadFromDir(spark: SparkSession, dir: String): BuiltIndex = {
    val files = idxFiles(dir)
    require(files.nonEmpty, s"no index files under $dir")
    val rdd = spark.sparkContext
      .parallelize(files.toSeq, files.length)
      .map { f =>
        val in = new ObjectInputStream(new BufferedInputStream(new FileInputStream(f)))
        try in.readObject().asInstanceOf[LocalIndex]
        finally in.close()
      }
    materialize(rdd, files.length, s"partitions under $dir")
  }

  /** The saved partition files under `dir`, sorted by path. */
  private def idxFiles(dir: String): Array[String] = {
    val files = Files.list(Paths.get(dir))
    try files.iterator.asScala.map(_.toString).filter(_.endsWith(".idx")).toArray.sorted
    finally files.close()
  }
}
