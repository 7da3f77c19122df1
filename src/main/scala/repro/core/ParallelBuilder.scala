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
  * region has a free slot (each insert takes exactly one), then parks at the
  * end-of-chunk barrier. Its action is the FlushCoordinator — one thread, all
  * others parked — and it only flushes: when a series is still to be
  * claimed and at least half the workers' regions, `(workers + 1) / 2`,
  * have no free slot (the paper's 12 of 24 build threads), it appends every
  * leaf's buffered series to the spill log and empties every region (once
  * every series is claimed no insert follows, so they stay in the HBuffer
  * for [[IndexWriter.write]]). It then moves the cursor to the next chunk if
  * this one is consumed; otherwise the workers resume the same chunk from
  * the cursor. A chunk is left unfinished only when every worker stopped on
  * a full region, and then the action has just flushed.
  *
  * An insert that throws records its exception and its worker still reaches
  * the barrier, whose action then ends the build; [[build]] closes the
  * HBuffer's spill log and rethrows the first such exception. No
  * worker can wait on a barrier another has left.
  *
  * Deviations from the paper (noted in DESIGN.md): there is no read
  * coordinator and no second barrier, as the input is already in memory and
  * the chunk bounds are computed. Algorithm 2 lets a worker take part in a
  * chunk only when its region holds a whole chunk; claiming per series
  * instead keeps every worker inserting until its region is actually full.
  */
final class ParallelBuilder(cfg: IndexConfig, mode: BuildMode) {
  /** Build the tree over `(ids, data)`; returns the tree plus the HBuffer
    * (still holding unflushed leaf data — the IndexWriter consumes it and
    * closes it; a caller that stops here calls `close` itself).
    */
  def build(ids: Array[Long], data: Array[Array[Float]]): (HerculesTree, SeriesStore) = {
    require(ids.length == data.length)
    val n = data.length
    val tree = new HerculesTree(cfg, mode)
    val workers = cfg.buildThreads
    val flushAt = (workers + 1) / 2
    val dbSize = math.min(cfg.dbSize, math.max(1, n))
    val totalSlots = if (cfg.hbufferSlots > 0) cfg.hbufferSlots else n + dbSize
    val store = SeriesStore.create(cfg.seriesLength, workers, totalSlots, dbSize)

    val chunks = (n + dbSize - 1) / dbSize
    var chunk = 0 // written only by the barrier action; the barrier publishes it
    def chunkEnd: Int = math.min(n, (chunk + 1) * dbSize)
    val cursor = new AtomicInteger(0)
    val failure = new AtomicReference[Throwable]
    def guarded(body: => Unit): Unit =
      try body catch { case e: Throwable => failure.compareAndSet(null, e) }

    val barrier = new CyclicBarrier(workers, () => {
      if (failure.get == null) guarded {
        if (cursor.get() < n && (0 until workers).count(store.freeSlots(_) == 0) >= flushAt)
          store.flushAll(tree.root)
      }
      if (failure.get != null) chunk = chunks
      else if (cursor.get() >= chunkEnd) { chunk += 1; cursor.set(chunk * dbSize) }
    })

    // The barrier needs every worker running at once; Par's pool is an
    // unbounded cached pool, so each worker gets its own thread.
    Par.run(workers) { w =>
      // One statistic per worker, made on the worker's own thread.
      val sc = new SeriesCtx(cfg.seriesLength)
      while (chunk < chunks) {
        val end = chunkEnd
        guarded {
          var i = 0
          while (store.freeSlots(w) > 0 && { i = cursor.getAndIncrement(); i < end })
            tree.insert(ids(i), sc.load(data(i)), w, store)
        }
        barrier.await()
      }
    }
    if (failure.get != null) { store.close(); throw failure.get }
    (tree, store)
  }
}
