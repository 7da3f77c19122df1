package repro.perfbench

import java.nio.file.{Files, Path}
import repro.spark.Distributed
import repro.spark.Distributed.{BuiltIndex, QueryBatchResult}
import scala.collection.mutable.ArrayBuffer

/** The calls an interactive caller makes, timed with tracing off:
  * `Distributed.build`, then `Distributed.knnBatch` one query at a time and in
  * batches of `Workloads.BatchSize`, in a closed loop with one client.
  *
  * The measured time is cut into `Rounds` rounds, each a window of one-query
  * calls followed by batches, so both kinds of call sample the whole run.
  * On a shared machine, the cost of a call drifts by a third for ten
  * seconds or more at a time; the call percentiles are medians over the
  * windows, so a slow spell that covers a minority of the windows does not
  * move them.
  */
object EndToEnd {

  /** Timed builds per run; `setup_s` is their median. */
  val Builds = 3
  /** Single-query calls per run, at least (so ≥10 samples lie beyond p95). */
  val MinCalls = 200
  /** Rounds of one-query calls and batches the measured time is cut into. */
  val Rounds = 7
  /** Share of each round spent on one-query calls; batches take the rest. */
  val SingleShare = 0.6
  /** Untimed rounds after the timed builds, as a share of the measured time:
    * calls keep getting faster for 20 s or so after a build.
    */
  val SettleShare = 0.3
  /** Untimed one-query calls in the warm-up, and after a traced build. */
  val WarmupCalls = 50
  val SettleCalls = 100

  /** One timed call: its sequence number in the loop, time and result. */
  final case class Call(seq: Int, callMs: Double, res: QueryBatchResult)

  def nowMs: Double = System.nanoTime() / 1e6

  def build(fx: Fixture): BuiltIndex = Distributed.build(fx.df, "hercules", fx.cfg, fx.partitions)

  def release(built: BuiltIndex): Unit = built.rdd.unpersist(blocking = true)

  /** An untimed build and a few calls, so JIT compilation and lazy Spark
    * set-up do not land in the first timed build or query.
    */
  def warmUp(fx: Fixture, report: Report): Unit = {
    val built = build(fx)
    try {
      singleCalls(fx, built, 0, WarmupCalls, report)()
      val res = Distributed.knnBatch(built, fx.queries.take(Workloads.BatchSize), fx.knobs)
      res.neighbors.indices.foreach(j => report.answer(fx.exact(j, res.neighbors(j))))
    } finally release(built)
  }

  /** One-query calls cycling through the distinct queries, from number
    * `first` on, until `seconds` have passed and at least `minCalls` were
    * made. Every answer is checked against brute force after its call is timed.
    */
  def singleCalls(fx: Fixture, built: BuiltIndex, seconds: Double, minCalls: Int, report: Report, first: Int = 0)
                 (timed: (Int, => QueryBatchResult) => QueryBatchResult = (_, f) => f): ArrayBuffer[Call] = {
    val calls = new ArrayBuffer[Call]
    val start = nowMs
    var i = first
    while (calls.length < minCalls || nowMs - start < seconds * 1000) {
      val qi = i % fx.queries.length
      val t0 = nowMs
      try {
        val res = timed(i, Distributed.knnBatch(built, Array(fx.queries(qi)), fx.knobs))
        val ms = nowMs - t0
        report.answer(fx.exact(qi, res.neighbors(0)))
        calls += Call(i, ms, res)
      } catch { case e: Exception => report.answer(ok = false); Console.err.println(s"query $qi failed: $e") }
      i += 1
    }
    calls
  }

  /** Batches of `Workloads.BatchSize` distinct queries sent back to back,
    * cycling through the distinct queries. Keeps the queries answered, the
    * wall time of the batches and the access fraction of each distinct query
    * from the first pass over them.
    */
  final class Batches(fx: Fixture, built: BuiltIndex, report: Report) {
    private val size = math.min(Workloads.BatchSize, fx.queries.length)
    private val perPass = fx.queries.length / size
    val access = new Array[Double](perPass * size)
    var answered = 0L
    var wallMs = 0.0
    private var sent = 0

    /** Sends batches until `seconds` of batch time have passed, at least one. */
    def runFor(seconds: Double): Unit = {
      val until = wallMs + seconds * 1000
      send()
      while (wallMs < until) send()
    }

    /** Sends batches until every distinct query was answered once. */
    def finishPass(): Unit = while (sent < perPass) send()

    private def send(): Unit = {
      val first = (sent % perPass) * size
      val t0 = nowMs
      try {
        val res = Distributed.knnBatch(built, fx.queries.slice(first, first + size), fx.knobs)
        wallMs += nowMs - t0
        res.neighbors.indices.foreach(j => report.answer(fx.exact(first + j, res.neighbors(j))))
        if (sent < perPass) res.perQueryStats.indices.foreach { j =>
          access(first + j) = res.perQueryStats(j).accessFraction(res.totalSeries)
        }
        answered += size
      } catch {
        case e: Exception =>
          wallMs += nowMs - t0
          (0 until size).foreach(_ => report.answer(ok = false))
          Console.err.println(s"batch $sent failed: $e")
      }
      sent += 1
    }
  }

  /** `Rounds` rounds filling `seconds`: one-query calls for `SingleShare` of
    * each round (at least `minCalls`), then batches. Returns each round's call
    * times in milliseconds.
    */
  def rounds(fx: Fixture, built: BuiltIndex, seconds: Double, minCalls: Int, batches: Batches,
             report: Report): Seq[Seq[Double]] = {
    var next = 0
    (1 to Rounds).map { _ =>
      val calls = singleCalls(fx, built, SingleShare * seconds / Rounds, minCalls, report, next)()
      next += calls.length
      batches.runFor((1 - SingleShare) * seconds / Rounds)
      calls.map(_.callMs).toSeq
    }
  }

  /** Bytes `Distributed.saveToDir` writes for `built`. */
  def savedBytes(built: BuiltIndex, dir: Path): Long = {
    Distributed.saveToDir(built, dir.toString)
    val files = Files.list(dir).toArray.map(_.asInstanceOf[Path])
    val bytes = files.map(Files.size).sum
    files.foreach(Files.delete)
    Files.delete(dir)
    bytes
  }

  def run(fx: Fixture, seconds: Double, workDir: String): Report = {
    val report = new Report
    warmUp(fx, report)
    Log.phase("warm-up done")

    val setupS = new ArrayBuffer[Double]
    val heapMb = new ArrayBuffer[Double]
    var built: BuiltIndex = null
    (1 to Builds).foreach { b =>
      if (built != null) release(built)
      val before = fx.usedHeapAfterGc()
      val t0 = nowMs
      built = build(fx)
      setupS += (nowMs - t0) / 1000
      heapMb += (fx.usedHeapAfterGc() - before).toDouble / (1 << 20)
    }
    val rawBytes = fx.w.n.toDouble * fx.w.len * 4
    val bytesRatio = savedBytes(built, Path.of(workDir, "saved-index")) / rawBytes
    Log.phase(s"builds done: ${setupS.map(s => f"$s%.3f").mkString(" ")} s")

    rounds(fx, built, SettleShare * seconds, 1, new Batches(fx, built, report), report)
    Log.phase("settled")
    val batches = new Batches(fx, built, report)
    val windows = rounds(fx, built, seconds, (MinCalls + Rounds - 1) / Rounds, batches, report)
    batches.finishPass()
    val calls = windows.map(_.length).sum
    Log.phase(s"$calls single calls and ${batches.answered} batched queries done; window p50 / p95 ms: " +
      windows.map(w => f"${Stat.pct(w, 50)}%.1f/${Stat.pct(w, 95)}%.1f").mkString(" "))
    release(built)

    def windowed(p: Double): Double = Stat.median(windows.map(Stat.pct(_, p)).toSeq)
    report.add("setup_s", Stat.median(setupS.toSeq), "s", setupS.length)
    report.add("query_ms_p50", windowed(50), "ms", calls)
    report.add("query_ms_p95", windowed(95), "ms", calls)
    report.add("batch_qps", batches.answered / (batches.wallMs / 1000), "queries/s", batches.answered)
    report.add("data_accessed_pct", Stat.mean(batches.access.toSeq) * 100, "%", batches.access.length)
    report.add("index_bytes_ratio", bytesRatio, "B/B", 1)
    report.add("index_heap_mb", Stat.median(heapMb.toSeq), "MB", heapMb.length)
    report
  }
}
