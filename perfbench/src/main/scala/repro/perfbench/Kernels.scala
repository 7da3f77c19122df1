package repro.perfbench

import java.util.concurrent.CountDownLatch
import repro.core.{Dist, Eapca, HerculesIndex, ISax, KnnSet, Node, SeriesCtx, SplitPolicy}
import scala.collection.mutable.ArrayBuffer

/** Microbenchmarks of the distance, lower-bound, summary and split kernels,
  * driven by a workload's own queries, index and tree at its own series
  * length. Each kernel runs warm-up passes first, then timed passes; the
  * reported figure is the median time per operation over the timed passes.
  */
object Kernels {

  private val Warmup = 3
  private val MinPasses = 7
  private val MinTimedNs = 150L * 1000 * 1000
  private val KernelQueries = 4

  /** Sink for kernel results, so the JIT cannot drop the work. */
  @volatile var sink = 0.0

  /** (median ns per op, ops timed) of `pass`, which does `ops` operations. */
  private def time(ops: Long)(pass: => Double): (Double, Long) = {
    (1 to Warmup).foreach(_ => sink += pass)
    val perOp = new ArrayBuffer[Double]
    var spent = 0L
    while (perOp.length < MinPasses || spent < MinTimedNs) {
      val t0 = System.nanoTime()
      sink += pass
      val dt = System.nanoTime() - t0
      spent += dt
      perOp += dt.toDouble / ops
    }
    (Stat.median(perOp.toSeq), ops * perOp.length)
  }

  private def allNodes(root: Node): Array[Node] = {
    val out = new ArrayBuffer[Node]
    def walk(n: Node): Unit = { out += n; if (!n.isLeaf) { walk(n.left); walk(n.right) } }
    walk(root)
    out.toArray
  }

  def run(idx: HerculesIndex, queries: Array[Array[Float]], nproc: Int,
          tracer: Tracer, parent: Int, report: Report): Unit = {
    val len = idx.cfg.seriesLength
    val n = idx.nSeries
    val isax: ISax = idx.isax
    val segs = isax.segments
    val qs = queries.take(KernelQueries)

    def kernel(name: String, unit: String, scale: Double, ops: Long)(pass: => Double): Unit = {
      val ((ns, timed), _) = tracer.span(s"kernel.$name", parent)(_ => time(ops)(pass))
      report.add(s"kernel.$name", ns / scale, unit, timed)
    }

    kernel("ed2flat_ns", "ns", 1, qs.length.toLong * n) {
      var acc = 0.0
      qs.foreach { q => var i = 0; while (i < n) { acc += Dist.ed2Flat(q, idx.lrd, i * len, Double.PositiveInfinity); i += 1 } }
      acc
    }

    val paas = qs.map(isax.paa)
    kernel("lbsax2_ns", "ns", 1, paas.length.toLong * n) {
      var acc = 0.0
      paas.foreach { p => var i = 0; while (i < n) { acc += isax.lbSax2(p, idx.lsd, i * segs); i += 1 } }
      acc
    }

    val nodes = allNodes(idx.root)
    val ctxs = qs.map(new SeriesCtx(_))
    kernel("eapca_lb2_ns", "ns", 1, ctxs.length.toLong * nodes.length) {
      var acc = 0.0
      ctxs.foreach { c => var i = 0; while (i < nodes.length) { acc += Eapca.lb2(c, nodes(i)); i += 1 } }
      acc
    }

    val words = Array.tabulate(math.min(n, 8192))(i => java.util.Arrays.copyOfRange(idx.lrd, i * len, (i + 1) * len))
    kernel("isax_word_ns", "ns", 1, words.length.toLong) {
      var acc = 0.0
      words.foreach(s => acc += isax.word(s)(0))
      acc
    }

    // One full leaf's worth of series, split under the segmentation of the
    // tree's most-segmented leaf (the costliest split the build meets).
    val cap = math.min(idx.cfg.leafCapacity, n)
    val leaf = idx.leaves.maxBy(_.segCount)
    val from = math.max(0, math.min(leaf.filePos, n - cap))
    val full = (from until from + cap).map(i => java.util.Arrays.copyOfRange(idx.lrd, i * len, (i + 1) * len))
    kernel("split_choose_us", "us", 1000, 1) {
      SplitPolicy.choose(leaf, full).fold(0.0)(_.value)
    }

    // nproc threads reading the bound of one shared, full result set.
    val shared = new KnnSet(8)
    (0 until 8).foreach(i => shared.add(i.toDouble, i.toLong))
    val reads = 200000
    kernel("bsf_sync_ns", "ns", 1, reads) {
      val start = new CountDownLatch(1)
      val sums = new Array[Double](nproc)
      val threads = (0 until nproc).map { t =>
        val th = new Thread(() => {
          start.await()
          var acc = 0.0
          var i = 0
          while (i < reads) { acc += shared.bsfSync; i += 1 }
          sums(t) = acc
        })
        th.start()
        th
      }
      start.countDown()
      threads.foreach(_.join())
      sums.sum
    }
  }
}
