package repro.perfbench

import java.util.Random
import repro.core.{IndexConfig, QueryKnobs, SeriesGen, Stats}
import repro.experiments.Runner

/** One benchmark workload: how its series and queries are made and how the
  * Hercules pipeline is set up for it. Sizes are multiplied by `scale`
  * (1.0 for measured runs; the smoke run uses a tiny scale).
  *
  * @param kind         `SeriesGen` dataset kind
  * @param n            series in the collection (at scale 1.0)
  * @param queryMode    `5%` perturbs in-collection series with noise of
  *                     variance 0.05; `ood` draws held-out series
  * @param singleNode   true = 1 partition whose build and index writing use
  *                     nproc threads; false = the figures'
  *                     `Runner.partitionsFor` partitions of 1 thread each
  * @param flatShare    share of series replaced by flat lines (constant raw
  *                     series, which z-normalise to all zeros)
  * @param hbufferShare HBuffer slots as a share of one partition's series;
  *                     0 sizes the HBuffer to the data, so nothing is flushed
  * @param queries      distinct queries per run, each checked against brute
  *                     force; a multiple of `Workloads.BatchSize`
  */
final case class Workload(
    name: String,
    kind: String,
    n: Int,
    len: Int,
    queryMode: String,
    k: Int,
    singleNode: Boolean,
    flatShare: Double,
    hbufferShare: Double,
    queries: Int,
) {
  def scaled(scale: Double): Workload = copy(n = math.max(2048, (n * scale).round.toInt))
}

object Workloads {

  /** Leaf capacity, iSAX shape and the whole-index Lmax shared by every workload. */
  val LeafCapacity = 64
  val SaxSegments = 16
  val SaxCardinality = 256
  val Lmax = 8

  /** The fixed batch size of `batch_qps`. */
  val BatchSize = 100

  val all: Seq[Workload] = Seq(
    // synth-part: the partitioned path every figure uses (Fig. 6, 11), on
    // the paper's Synth random walks with 5%-noise queries. LB_SAX filtering
    // and refinement do the query work, and partition fan-out and the
    // top-k merge after the job are visible. The HBuffer fits and no series is flat,
    // so this is the side without flushes and without unsplittable leaves
    // that synth-node is compared against.
    Workload("synth-part", "walk", n = 65536, len = 256, queryMode = "5%", k = 10,
      singleNode = false, flatShare = 0.0, hbufferShare = 0.0, queries = 1000),
    // deep-ood: the Deep proxy (i.i.d. Gaussian, len 96) with out-of-
    // distribution queries (Fig. 9/10's hardest cell). Pruning fails, so the
    // EAPCA_TH/SAX_TH thresholds route queries to skip-sequential scans and
    // the Dist.ed2Flat kernel does the work: a kernel change shows here, a
    // pruning change cannot. It is not in BENCHMARK.json: three workloads at
    // a run length that keeps the other two steady do not fit the time the
    // benchmark is given, and every layer it runs is measured on the others.
    Workload("deep-ood", "deep", n = 65536, len = 96, queryMode = "ood", k = 1,
      singleNode = false, flatShare = 0.0, hbufferShare = 0.0, queries = 1000),
    // synth-node: the paper's single-node regime, 1 partition with nproc
    // build and writer threads. 1% of the series are flat lines (as sensor
    // drop-outs are) and the HBuffer holds a quarter of the series, so it is
    // the only workload that runs the InsertWorkers and barriers of
    // ParallelBuilder, SeriesStore flushes and spill re-reads, the parallel
    // IndexWriter and the unsplittable-leaf path of HerculesTree.splitLeaf.
    // Its traced run also times ExactKnn steps 3-4 on nproc threads sharing
    // one KnnSet. Its share of data accessed varies more from query to query
    // (standard deviation 15 points on a mean of 6%), so it has more queries.
    Workload("synth-node", "walk", n = 24576, len = 256, queryMode = "5%", k = 10,
      singleNode = true, flatShare = 0.01, hbufferShare = 0.25, queries = 2000),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  /** Partitions and threads per partition for `w` on a machine with `nproc`
    * cores and a Spark `defaultParallelism` of `parallelism`.
    */
  def layout(w: Workload, nproc: Int, parallelism: Int): (Int, Int) =
    if (w.singleNode) (1, nproc) else (math.min(8, parallelism), 1)

  def indexConfig(w: Workload, partitions: Int, threads: Int): IndexConfig = {
    val perPartition = (w.n + partitions - 1) / partitions
    IndexConfig(
      seriesLength = w.len,
      leafCapacity = LeafCapacity,
      saxSegments = SaxSegments,
      saxCardinality = SaxCardinality,
      buildThreads = threads,
      writerThreads = threads,
      hbufferSlots = if (w.hbufferShare > 0) math.max(1, (perPartition * w.hbufferShare).toInt) else 0,
    )
  }

  /** `Runner.knobs` thresholds and Lmax shared across partitions by
    * `Runner.scaleKnobs`. Query steps 3-4 run on one thread: on a loaded
    * 4-core machine, nproc threads contending for one `KnnSet` made
    * synth-node's query times spread 2:1 from run to run. The traced run
    * measures the multi-threaded steps on the replica instead.
    */
  def knobs(w: Workload, partitions: Int): QueryKnobs =
    Runner.scaleKnobs(Runner.knobs(w.k, Lmax), partitions)

  /** The query seed, derived from the workload seed. */
  def querySeed(seed: Long): Long = seed * 1000003L + 17

  /** splitmix64 finaliser: a well-mixed 64-bit hash. */
  private def mix(x0: Long): Long = {
    var x = x0 + 0x9E3779B97F4A7C15L
    x = (x ^ (x >>> 30)) * 0xBF58476D1CE4E5B9L
    x = (x ^ (x >>> 27)) * 0x94D049BB133111EBL
    x ^ (x >>> 31)
  }

  /** True iff series `id` of the collection is a flat line. */
  def isFlat(w: Workload, seed: Long, id: Long): Boolean =
    w.flatShare > 0 && (mix(seed * 0x632BE59BD9B4E019L ^ id) >>> 11).toDouble / (1L << 53) < w.flatShare

  /** Series `id` of the collection: a pure function of (workload, seed, id),
    * so Spark tasks and the in-process copy agree without shipping data.
    */
  def series(w: Workload, seed: Long, id: Long): Array[Float] =
    if (isFlat(w, seed, id)) Stats.znorm(Array.fill(w.len)((id % 1000).toFloat))
    else SeriesGen.seriesForId(w.kind, id, w.len, seed)

  /** The distinct queries of `w`, following the paper's recipe (§4.1). */
  def queries(w: Workload, seed: Long): Array[Array[Float]] = w.queryMode match {
    case "ood" => Array.tabulate(w.queries)(i => series(w, seed, w.n.toLong + i))
    case pct =>
      val rng = new Random(querySeed(seed))
      val sigma = math.sqrt(pct.stripSuffix("%").toDouble / 100.0)
      Array.fill(w.queries) {
        val base = series(w, seed, math.floorMod(rng.nextLong(), w.n.toLong))
        Stats.znorm(Array.tabulate(w.len)(i => (base(i) + sigma * rng.nextGaussian()).toFloat))
      }
  }
}
