package repro.perfbench

import java.nio.file.Path
import repro.baselines.BruteForce
import repro.core.{BuildMode, HerculesIndex, IndexWriter, Node, ParallelBuilder, QueryStats}
import repro.spark.Distributed.BuiltIndex
import scala.collection.mutable.ArrayBuffer

/** The traced run: per-layer numbers, measured from outside by timing calls
  * into each module's public functions, with a span around every call.
  *
  *  - `repro.spark`: one traced build and traced one-query calls, split by
  *    the times the program reports (`buildWallMs`, `wallMs`, `perQueryMs`),
  *    and the partition skew of builds and queries.
  *  - `repro.core`: a replica, i.e. one partition's worth of the workload's
  *    rows rebuilt in-process with the workload's `IndexConfig`, timed in its
  *    build phases and queried directly.
  *  - kernels: see [[Kernels]], driven by the replica.
  *
  * The tracing overhead is the traced minus the untraced p50 of the same
  * one-query calls, both made in this run.
  */
object Traced {

  /** Replica builds: up to `ReplicaBuilds`, fewer once `ReplicaBuildMs` is
    * spent; the build phase times are their medians.
    */
  val ReplicaBuilds = 3
  val ReplicaBuildMs = 5000.0

  def run(fx: Fixture, seconds: Double, traceFile: Path): Report = {
    val report = new Report
    val tr = new Tracer
    EndToEnd.warmUp(fx, report)
    tr.span("bench.run") { root =>
      val built = sparkLayer(fx, seconds, tr, root, report)
      EndToEnd.release(built)
      Log.phase("spark layer done")
      val idx = coreLayer(fx, tr, root, report)
      Log.phase("core layer done")
      tr.span("bench.kernels", root)(k => Kernels.run(idx, fx.queries, fx.nproc, tr, k, report))
    }
    val self = tr.selfMsByLayer
    Seq("spark", "core", "kernel").foreach { layer =>
      report.add(s"trace.self_ms.$layer", self.getOrElse(layer, 0.0), "ms",
        tr.spans.count(_.layer == layer))
    }
    tr.write(traceFile)
    report
  }

  private def sparkLayer(fx: Fixture, seconds: Double, tr: Tracer, root: Int, report: Report): BuiltIndex = {
    val (built, buildSpan) = tr.span("spark.Distributed.build", root)(_ => EndToEnd.build(fx))
    val partMs = built.rdd.map(_.buildMs).collect().toSeq
    tr.derived("core.LocalIndex.build", buildSpan, built.maxPartitionBuildMs)
    report.add("spark.build_overhead_ms", built.buildWallMs - built.maxPartitionBuildMs, "ms", 1)
    report.add("spark.build_skew", partMs.max / Stat.median(partMs), "ratio", partMs.length)

    // Untraced and traced calls alternate, so drift affects both alike.
    EndToEnd.singleCalls(fx, built, 0, EndToEnd.SettleCalls, report)()
    val calls = EndToEnd.singleCalls(fx, built, 0.8 * seconds, EndToEnd.MinCalls, report) { (i, call) =>
      if (i % 2 == 0) call
      else {
        val (res, id) = tr.span("spark.Distributed.knnBatch", root, i)(_ => call)
        val job = tr.derived("spark.job", id, res.wallMs, i)
        tr.derived("core.LocalIndex.knn", job, res.perQueryMs(0), i)
        res
      }
    }
    val (traced, plain) = calls.partition(_.seq % 2 == 1)
    val n = traced.length
    def p50(f: EndToEnd.Call => Double): Double = Stat.median(traced.map(f).toSeq)
    report.add("spark.call_overhead_ms_p50", p50(c => c.callMs - c.res.perQueryMs(0)), "ms", n)
    report.add("spark.dispatch_ms_p50", p50(c => c.res.wallMs - c.res.perQueryMs(0)), "ms", n)
    report.add("spark.merge_ms_p50", p50(c => c.callMs - c.res.wallMs), "ms", n)
    report.add("trace.overhead_ms_p50", p50(_.callMs) - Stat.median(plain.map(_.callMs).toSeq), "ms", n)

    // Per-partition in-task time of every distinct query, in one job.
    val (qs, knobs) = (fx.queries, fx.knobs)
    val (perPart, _) = tr.span("spark.rdd.map(LocalIndex.knn)", root) { _ =>
      built.rdd.map { idx =>
        qs.map { q => val t0 = System.nanoTime(); idx.knn(q, knobs, new QueryStats); (System.nanoTime() - t0) / 1e6 }
      }.collect()
    }
    val skew = qs.indices.map { qi =>
      val t = perPart.map(_(qi)).toSeq
      t.max / Stat.median(t)
    }
    report.add("spark.query_skew", Stat.mean(skew), "ratio", skew.length)
    built
  }

  private def depth(n: Node): Int = if (n.isLeaf) 0 else 1 + math.max(depth(n.left), depth(n.right))

  private def coreLayer(fx: Fixture, tr: Tracer, root: Int, report: Report): HerculesIndex = {
    // Round-robin share of the rows: the first partition's worth.
    val rows = (0 until fx.w.n by fx.partitions).toArray
    val ids = rows.map(fx.ids)
    val data = rows.map(fx.data)
    val insertMs = new ArrayBuffer[Double]
    val writeMs = new ArrayBuffer[Double]
    var idx: HerculesIndex = null
    var spentMs = 0.0
    while (insertMs.length < ReplicaBuilds && spentMs < ReplicaBuildMs) {
      tr.span("bench.replica.build", root) { b =>
        val ((tree, store), ins) = tr.span("core.ParallelBuilder.build", b)(_ =>
          new ParallelBuilder(fx.cfg, BuildMode.Hercules).build(ids, data))
        val (written, wr) = tr.span("core.IndexWriter.write", b)(_ =>
          IndexWriter.write(tree, store, threads = fx.cfg.writerThreads))
        insertMs += tr.spans(ins).durNs / 1e6
        writeMs += tr.spans(wr).durNs / 1e6
        spentMs += insertMs.last + writeMs.last
        idx = written
      }
    }
    report.add("build.insert_ms", Stat.median(insertMs.toSeq), "ms", insertMs.length)
    report.add("build.write_ms", Stat.median(writeMs.toSeq), "ms", writeMs.length)

    val leaves = idx.leaves
    val sizes = leaves.map(_.leafSize.toDouble)
    val cap = fx.cfg.leafCapacity
    report.add("build.leaves", leaves.length, "count", 1)
    report.add("build.depth_max", depth(idx.root), "count", 1)
    report.add("build.leaf_fill", Stat.mean(sizes) / cap, "ratio", leaves.length)
    report.add("build.oversized_leaves", sizes.count(_ > cap), "count", leaves.length)
    report.add("build.largest_leaf", sizes.max, "count", leaves.length)

    // The replica's own brute-force answers: its rows are a subset.
    val truth = if (fx.partitions == 1) fx.truth
      else fx.parallel(fx.queries.length)(qi => BruteForce.knn(ids, data, fx.queries(qi), fx.w.k))
    // Steps 3-4 on the layout's threads per partition: nproc on synth-node.
    val knobs = fx.knobs.copy(threads = fx.threads)
    fx.queries.take(20).foreach(q => idx.knn(q, knobs, new QueryStats))
    val stats = new ArrayBuffer[QueryStats]
    val ms = new ArrayBuffer[Double]
    tr.span("bench.replica.query", root) { parent =>
      fx.queries.indices.foreach { qi =>
        val st = new QueryStats
        val (res, id) = tr.span("core.HerculesIndex.knn", parent, qi)(_ => idx.knn(fx.queries(qi), knobs, st))
        ms += tr.spans(id).durNs / 1e6
        stats += st
        report.answer(res.sameElements(truth(qi)))
      }
    }
    val q = stats.length
    def share(p: QueryStats => Boolean): Double = stats.count(p).toDouble / q
    val refine = (s: QueryStats) => !s.skipSeqEapca && !s.skipSeqSax && s.candidateLeaves > 0
    val saxChecked = stats.map(_.saxChecked.get).sum
    report.add("query.in_task_ms_p50", Stat.pct(ms.toSeq, 50), "ms", q)
    report.add("query.in_task_ms_p95", Stat.pct(ms.toSeq, 95), "ms", q)
    report.add("query.leaves_visited", Stat.mean(stats.map(_.leavesVisited.get.toDouble).toSeq), "count", q)
    report.add("query.eapca_pruning",
      Stat.mean(stats.map(s => 1.0 - s.candidateLeaves.toDouble / idx.totalLeaves).toSeq), "ratio", q)
    // Ratio of sums over the queries that ran step 3; 0 when none did.
    report.add("query.sax_pruning",
      if (saxChecked == 0) 0.0 else 1.0 - stats.map(_.candidateSeries).sum.toDouble / saxChecked, "ratio",
      stats.count(_.saxChecked.get > 0))
    report.add("query.series_accessed", Stat.mean(stats.map(_.seriesAccessed.get.toDouble).toSeq), "count", q)
    report.add("query.path.step1", share(s => s.candidateLeaves == 0 && !s.skipSeqEapca), "share", q)
    report.add("query.path.eapca_scan", share(_.skipSeqEapca), "share", q)
    report.add("query.path.sax_scan", share(_.skipSeqSax), "share", q)
    report.add("query.path.refine", share(refine), "share", q)
    idx
  }
}
