package repro.core

import java.util.concurrent.CyclicBarrier
import java.util.concurrent.atomic.{AtomicInteger, AtomicReference}

/** How inserts keep the tree's synopses — the choice the build ablation
  * (Fig. 12a) makes besides the thread count. The tree's mode alone decides
  * how [[HerculesTree.insert]] locks and what [[IndexWriter.write]] computes.
  */
sealed trait BuildMode
object BuildMode {
  /** Hercules: inserts lock the leaf only; index writing rebuilds the
    * internal synopses and writes the iSAX words (LSDFile).
    */
  case object Hercules extends BuildMode
  /** DSTree*P, and DSTree* on one build thread: inserts lock the whole
    * root-to-leaf path and keep its synopses; EAPCA only, no iSAX words.
    */
  case object PathLocked extends BuildMode
}

/** Index building (§3.3, Algorithms 1–4), one protocol for every mode and
  * thread count.
  *
  * The input array is the DBuffer: chunk `c` is
  * `data[c·dbSize, min(n, (c+1)·dbSize))`. `cfg.buildThreads` InsertWorkers
  * claim a chunk's series one at a time from one fetch-add cursor and insert
  * them with [[HerculesTree.insert]]. A worker claims only while its HBuffer
  * region has a free slot (each insert takes exactly one); a worker whose
  * region fills, at the start of a chunk or in the middle of one, raises the
  * flush counter. Every worker then parks at the end-of-chunk barrier. Its
  * action is the FlushCoordinator — one thread, all others parked: it decides
  * whether to flush, spills every leaf's buffered series to its spill file,
  * inserts any series left unclaimed on region 0 (a catch-up insert, counted
  * by [[catchUpInserts]]), then resets the cursor to the next chunk.
  *
  * An insert that throws records its exception and its worker still reaches
  * the barrier, whose action then ends the build; [[build]] closes the
  * HBuffer's spill directory and rethrows the first such exception. No
  * worker can wait on a barrier another has left.
  *
  * Deviations from the paper (noted in DESIGN.md): there is no read
  * coordinator and no second barrier, as the input is already in memory and
  * the chunk bounds are computed. Algorithm 2 lets a worker take part in a
  * chunk only when its region holds a whole chunk; claiming per series
  * instead keeps every worker inserting until its region is actually full.
  */
final class ParallelBuilder(cfg: IndexConfig, mode: BuildMode) {
  private var catchUps = 0

  /** Series the FlushCoordinator inserted itself in the last [[build]]. */
  def catchUpInserts: Int = catchUps

  /** Build the tree over `(ids, data)`; returns the tree plus the HBuffer
    * (still holding unflushed leaf data — the IndexWriter consumes it and
    * closes it; a caller that stops here calls `close` itself).
    */
  def build(ids: Array[Long], data: Array[Array[Float]]): (HerculesTree, SeriesStore) = {
    require(ids.length == data.length)
    val n = data.length
    catchUps = 0
    val tree = new HerculesTree(cfg, mode)
    val workers = math.max(1, cfg.buildThreads)
    val dbSize = math.max(1, math.min(cfg.dbSize, math.max(1, n)))
    val totalSlots = if (cfg.hbufferSlots > 0) cfg.hbufferSlots else n + dbSize
    val store = SeriesStore.create(cfg.seriesLength, workers, totalSlots, dbSize)

    val chunks = (n + dbSize - 1) / dbSize
    var chunk = 0 // written only by the barrier action; the barrier publishes it
    def chunkEnd: Int = math.min(n, (chunk + 1) * dbSize)
    val cursor = new AtomicInteger(0)
    val flushCounter = new AtomicInteger(0)
    val failure = new AtomicReference[Throwable]
    def guarded(body: => Unit): Unit =
      try body catch { case e: Throwable => failure.compareAndSet(null, e) }

    val barrier = new CyclicBarrier(workers, () => {
      if (failure.get == null) guarded {
        val end = chunkEnd
        val consumed = cursor.get() >= end
        if (flushCounter.get() >= cfg.flushThreshold || (!consumed && flushCounter.get() > 0)) {
          store.flushAll(tree.root)
          flushCounter.set(0)
        }
        // Catch up series left by full workers: regions were just emptied,
        // and one chunk always fits one region (SeriesStore.create guarantee).
        var i = cursor.getAndIncrement()
        while (i < end) {
          tree.insert(ids(i), data(i), 0, store)
          catchUps += 1
          i = cursor.getAndIncrement()
        }
      }
      chunk = if (failure.get == null) chunk + 1 else chunks
      cursor.set(chunk * dbSize)
    })

    // The barrier needs every worker running at once; Par's pool is an
    // unbounded cached pool, so each worker gets its own thread.
    Par.run(workers) { w =>
      while (chunk < chunks) {
        val end = chunkEnd
        guarded {
          var i = 0
          while (store.freeSlots(w) > 0 && { i = cursor.getAndIncrement(); i < end })
            tree.insert(ids(i), data(i), w, store)
          if (store.freeSlots(w) == 0) flushCounter.incrementAndGet()
        }
        barrier.await()
      }
    }
    if (failure.get != null) { store.close(); throw failure.get }
    (tree, store)
  }
}
