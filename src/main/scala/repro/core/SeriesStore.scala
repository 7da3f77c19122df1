package repro.core

import java.io.EOFException
import java.nio.ByteBuffer
import java.nio.channels.FileChannel
import java.nio.file.{Files, Path, StandardOpenOption}
import scala.collection.mutable.ArrayBuffer

/** The HBuffer of §3.3: one pre-allocated flat float buffer holding the raw
  * series of all leaves, divided into per-worker bump-allocated regions.
  * Leaves reference it through SBuffer slot lists (`Node.slots`); when a
  * flush is ordered, every leaf's buffered series are appended to that leaf's
  * spill file and all regions reset — exactly the paper's two-level scheme.
  *
  * Allocation is region-local (no synchronization); cross-thread visibility
  * of written floats is provided by the leaf lock under which slots are
  * published (writer stores floats, then adds the slot under the lock).
  */
final class SeriesStore(
    val seriesLen: Int,
    val numWorkers: Int,
    val regionSlots: Int,
    spillRoot: Path,
) {
  require(regionSlots >= 1)

  private val flat = new Array[Float](numWorkers * regionSlots * seriesLen)
  private val slotIds = new Array[Long](numWorkers * regionSlots)
  private val used = new Array[Int](numWorkers)
  private val recordBytes = 8 + 4 * seriesLen
  private var flushes = 0

  /** Remaining slots in worker `w`'s region. */
  def freeSlots(w: Int): Int = regionSlots - used(w)

  /** Copy a series into worker `w`'s region; returns its global slot index. */
  def alloc(w: Int, id: Long, s: Array[Float]): Int = {
    val local = used(w)
    require(local < regionSlots, s"worker $w region overflow")
    used(w) = local + 1
    val slot = w * regionSlots + local
    System.arraycopy(s, 0, flat, slot * seriesLen, seriesLen)
    slotIds(slot) = id
    slot
  }

  /** Materialize the series stored in `slot` (defensive copy). */
  def seriesAt(slot: Int): Array[Float] = {
    val out = new Array[Float](seriesLen)
    System.arraycopy(flat, slot * seriesLen, out, 0, seriesLen)
    out
  }

  /** Original id of the series stored in `slot`. */
  def idAt(slot: Int): Long = slotIds(slot)

  /** Flush every leaf of `root`: append buffered series to the leaf's spill
    * file, clear its SBuffer, then reset all regions. Single-threaded — the
    * FlushCoordinator runs this while all other workers are parked (§3.3.2).
    */
  def flushAll(root: Node): Unit = {
    root.leavesInorder.foreach { leaf =>
      if (leaf.slots != null && leaf.slots.nonEmpty) {
        val slots = leaf.slots
        appendSpill(leaf, slots.length)((buf, r) =>
          putRecord(buf, slotIds(slots(r)), flat, slots(r) * seriesLen))
        slots.clear()
      }
    }
    java.util.Arrays.fill(used, 0)
    flushes += 1
  }

  /** Number of [[flushAll]] calls so far. */
  def flushCount: Int = flushes

  /** Append `(id, series)` records to `leaf`'s spill file in one write. */
  def spill(leaf: Node, records: collection.Seq[(Long, Array[Float])]): Unit =
    appendSpill(leaf, records.length) { (buf, r) =>
      val (id, s) = records(r)
      putRecord(buf, id, s, 0)
    }

  /** The spill file of a leaf (created lazily on first flush). */
  def spillPathFor(leaf: Node): Path = {
    if (leaf.spillFile == null) leaf.spillFile = spillRoot.resolve(s"leaf-${leaf.id}.bin")
    leaf.spillFile
  }

  /** Read a leaf's spilled records (id, series) in append order. */
  def readSpill(leaf: Node): ArrayBuffer[(Long, Array[Float])] = {
    val n = leaf.spilledCount
    val out = new ArrayBuffer[(Long, Array[Float])](n)
    if (n > 0 && leaf.spillFile != null && Files.exists(leaf.spillFile)) {
      val buf = ByteBuffer.allocate(Math.multiplyExact(n, recordBytes))
      val ch = FileChannel.open(leaf.spillFile, StandardOpenOption.READ)
      try {
        while (buf.hasRemaining)
          if (ch.read(buf) < 0) throw new EOFException(s"${leaf.spillFile}: fewer than $n records")
      } finally ch.close()
      buf.flip()
      var r = 0
      while (r < n) { out += getRecord(buf); r += 1 }
    }
    out
  }

  /** All series of a leaf: spilled records first, then in-memory slots. */
  def gather(leaf: Node): ArrayBuffer[(Long, Array[Float])] = {
    val out = readSpill(leaf)
    if (leaf.slots != null) leaf.slots.foreach(slot => out += ((idAt(slot), seriesAt(slot))))
    out
  }

  /** Delete a split node's spill file (children got their own). */
  def dropSpill(leaf: Node): Unit = {
    if (leaf.spillFile != null) { Files.deleteIfExists(leaf.spillFile); leaf.spillFile = null }
    leaf.spilledCount = 0
  }

  /** Delete every spill file left and the spill directory. The store must
    * not spill again; calling it twice is harmless.
    */
  def close(): Unit = if (Files.exists(spillRoot)) {
    val files = Files.list(spillRoot)
    try files.forEach(f => Files.deleteIfExists(f))
    finally files.close()
    Files.deleteIfExists(spillRoot)
  }

  /** Encode `n` records (`put` writes record `r`) and append them to
    * `leaf`'s spill file with one write.
    */
  private def appendSpill(leaf: Node, n: Int)(put: (ByteBuffer, Int) => Unit): Unit = if (n > 0) {
    val buf = ByteBuffer.allocate(Math.multiplyExact(n, recordBytes))
    var r = 0
    while (r < n) { put(buf, r); r += 1 }
    buf.flip()
    val ch = FileChannel.open(spillPathFor(leaf),
      StandardOpenOption.CREATE, StandardOpenOption.WRITE, StandardOpenOption.APPEND)
    try while (buf.hasRemaining) ch.write(buf)
    finally ch.close()
    leaf.spilledCount += n
  }

  /** The spill record codec: a big-endian long id, then the series' floats,
    * byte for byte what `DataOutputStream.writeLong`/`writeFloat` write.
    */
  private def putRecord(buf: ByteBuffer, id: Long, src: Array[Float], off: Int): Unit = {
    buf.putLong(id)
    var i = 0
    while (i < seriesLen) { buf.putInt(java.lang.Float.floatToIntBits(src(off + i))); i += 1 }
  }

  /** Decode the record at `buf`'s position (the inverse of [[putRecord]]). */
  private def getRecord(buf: ByteBuffer): (Long, Array[Float]) = {
    val id = buf.getLong()
    val s = new Array[Float](seriesLen)
    var i = 0
    while (i < seriesLen) { s(i) = buf.getFloat(); i += 1 }
    (id, s)
  }
}

object SeriesStore {

  /** Create a store with a fresh temp spill directory, which [[close]]
    * deletes.
    *
    * @param totalSlots capacity across all workers; rounded up so each region
    *                   holds at least `minRegion` series (the DBuffer chunk),
    *                   as Algorithm 2 requires of a worker that takes part in
    *                   a chunk. The recorded benchmark builds ran on this
    *                   size and its flush schedule (`synth-node`'s 6144-slot
    *                   HBuffer on 4 workers, with 2048-series chunks, holds
    *                   8192 slots); dropping the rounding changes both and
    *                   is a change of its own, to be measured as one.
    */
  def create(seriesLen: Int, numWorkers: Int, totalSlots: Int, minRegion: Int): SeriesStore = {
    val region = math.max(minRegion, (totalSlots + numWorkers - 1) / numWorkers)
    val dir = Files.createTempDirectory("hercules-spill-")
    new SeriesStore(seriesLen, numWorkers, region, dir)
  }
}
