package repro.core

import java.util.concurrent.CyclicBarrier
import java.util.concurrent.atomic.AtomicInteger

/** How inserts synchronize — the three build strategies of the ablation
  * study (Fig. 12a).
  */
sealed trait BuildMode extends Serializable
object BuildMode {
  /** Hercules: concurrent inserts, leaf-only locking, synopses deferred. */
  case object Hercules extends BuildMode
  /** DSTree*P: concurrent inserts locking the whole root-to-leaf path. */
  case object PathLocked extends BuildMode
  /** DSTree*: single-threaded inserts updating path synopses inline. */
  case object Sequential extends BuildMode
}

/** Index building (§3.3, Algorithms 1–4).
  *
  * The coordinator cuts the input into DBuffer chunks of `cfg.dbSize` series
  * and alternates the two buffer parts; InsertWorkers claim series one at a
  * time with a fetch-add cursor and insert them under Algorithm 5. A worker
  * claims only while its HBuffer region has a free slot (each insert takes
  * exactly one); a worker whose region fills, at the start of a chunk or in
  * the middle of one, raises the flush counter and parks at the barrier. At
  * the end-of-chunk barrier, one thread alone (the FlushCoordinator — here
  * the barrier action, all other parties parked) decides whether to flush,
  * spills every leaf's buffered series to its spill file, and
  * single-threadedly inserts any series left unclaimed (a catch-up insert,
  * counted by [[catchUpInserts]]).
  *
  * Deviations from the paper (noted in DESIGN.md): the paper uses two
  * barriers so the read coordinator never blocks during a flush; merging them
  * into one barrier round makes the coordinator idle during flushes but
  * preserves the protocol's structure (single flusher, workers parked,
  * per-chunk cadence). Algorithm 2 lets a worker take part in a chunk only
  * when its region holds a whole chunk; claiming per series instead keeps
  * every worker inserting until its region is actually full. The "file"
  * being read is an in-memory array — the read phase is the substitution for
  * raw-file I/O.
  */
final class ParallelBuilder(cfg: IndexConfig, mode: BuildMode) {
  private var catchUps = 0

  /** Series the FlushCoordinator inserted itself in the last [[build]]. */
  def catchUpInserts: Int = catchUps

  /** Build the tree over `(ids, data)`; returns the tree plus the HBuffer
    * (still holding unflushed leaf data — the IndexWriter consumes it).
    */
  def build(ids: Array[Long], data: Array[Array[Float]]): (HerculesTree, SeriesStore) = {
    require(ids.length == data.length)
    val n = data.length
    catchUps = 0
    val tree = new HerculesTree(cfg)
    val workers = if (mode == BuildMode.Sequential) 1 else math.max(1, cfg.buildThreads)
    val dbSize = math.max(1, math.min(cfg.dbSize, math.max(1, n)))
    val totalSlots = if (cfg.hbufferSlots > 0) cfg.hbufferSlots else n + dbSize
    val store = SeriesStore.create(cfg.seriesLength, workers, totalSlots, dbSize)

    if (workers == 1) {
      var i = 0
      while (i < n) {
        if (store.freeSlots(0) == 0) store.flushAll(tree.root)
        mode match {
          case BuildMode.Sequential => tree.insertSequential(ids(i), data(i), store)
          case _                    => tree.insertConcurrent(ids(i), data(i), 0, store)
        }
        i += 1
      }
      return (tree, store)
    }

    // Shared chunk state; published across rounds by the barrier.
    val chunkStart = Array(0, 0)
    val chunkLen = Array(0, 0)
    val finished = Array(false, false)
    val cursors = Array(new AtomicInteger(0), new AtomicInteger(0))
    val flushCounter = new AtomicInteger(0)
    @volatile var failure: Throwable = null
    var actionToggle = 0 // only touched inside the barrier action

    def insertOne(i: Int, w: Int): Unit = mode match {
      case BuildMode.PathLocked => tree.insertPathLocked(ids(i), data(i), w, store)
      case _                    => tree.insertConcurrent(ids(i), data(i), w, store)
    }

    val barrier: CyclicBarrier = new CyclicBarrier(workers + 1, () => {
      val t = actionToggle
      val len = chunkLen(t)
      val consumed = cursors(t).get() >= len
      if (flushCounter.get() >= cfg.flushThreshold || (!consumed && flushCounter.get() > 0)) {
        store.flushAll(tree.root)
        flushCounter.set(0)
      }
      // Catch up series left by full workers: regions were just emptied,
      // and one chunk always fits one region (SeriesStore.create guarantee).
      var pos = cursors(t).getAndIncrement()
      while (pos < len) {
        insertOne(chunkStart(t) + pos, 0)
        catchUps += 1
        pos = cursors(t).getAndIncrement()
      }
      actionToggle ^= 1
    })

    def workerLoop(w: Int): Unit = {
      var toggle = 0
      while (!finished(toggle)) {
        val len = chunkLen(toggle)
        var claiming = true
        while (claiming) {
          if (store.freeSlots(w) == 0) { flushCounter.incrementAndGet(); claiming = false }
          else {
            val pos = cursors(toggle).getAndIncrement()
            if (pos < len) insertOne(chunkStart(toggle) + pos, w) else claiming = false
          }
        }
        barrier.await()
        toggle ^= 1
      }
    }

    // Fill part 0 with the first chunk (read phase, Algorithm 1 line 15).
    chunkLen(0) = math.min(dbSize, n)
    chunkStart(0) = 0
    cursors(0).set(0)
    finished(0) = n == 0
    var next = chunkLen(0)

    val threads = (0 until workers).map { w =>
      val th = new Thread(() =>
        try workerLoop(w)
        catch { case e: Throwable => if (failure == null) failure = e; barrier.reset() },
        s"insert-worker-$w")
      th.start()
      th
    }

    var toggle = 0
    try {
      while (!finished(toggle)) {
        val other = 1 - toggle
        if (next < n) {
          chunkStart(other) = next
          chunkLen(other) = math.min(dbSize, n - next)
          cursors(other).set(0)
          finished(other) = false
          next += chunkLen(other)
        } else finished(other) = true
        barrier.await()
        toggle ^= 1
      }
    } catch {
      case e: java.util.concurrent.BrokenBarrierException =>
        if (failure == null) throw e
    }
    threads.foreach(_.join())
    if (failure != null) throw failure
    (tree, store)
  }
}
