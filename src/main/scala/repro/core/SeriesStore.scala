package repro.core

import java.io.EOFException
import java.nio.ByteBuffer
import java.nio.channels.FileChannel
import java.nio.file.{Files, Path, StandardOpenOption}
import scala.collection.mutable.ArrayBuffer

/** The HBuffer of §3.3: one pre-allocated flat float buffer holding the raw
  * series of all leaves, divided into per-worker bump-allocated regions.
  * Leaves reference it through SBuffer slot lists (`Node.slots`); when a
  * flush is ordered, every leaf's buffered series are appended to the one
  * spill log and all regions reset. A leaf keeps the numbers of its records
  * in the log (`Node.spilled`), so a split hands record numbers to its
  * children just as it hands them SBuffer slots, and no record is written
  * twice.
  *
  * Allocation is region-local (no synchronization); cross-thread visibility
  * of written floats is provided by the leaf lock under which slots are
  * published (writer stores floats, then adds the slot under the lock).
  * Only the FlushCoordinator writes the log, while every worker is parked;
  * reads are positional, so any number of threads may read at once.
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
  /** The spill log, opened by the first flush that writes a record. */
  private var log: FileChannel = _
  private var logged = 0
  /** Records a flush has encoded but not yet written; made by the first flush. */
  private lazy val writeBuf = ByteBuffer.allocate(math.max(1, SeriesStore.WriteBytes / recordBytes) * recordBytes)

  /** The spill log's path. */
  private[core] val logFile: Path = spillRoot.resolve("spill.log")

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

  /** Flush every leaf of `root`: append all buffered series to the spill log,
    * leaf by leaf, give each leaf its records' numbers, clear its SBuffer,
    * then reset all regions. Records are written with one positional write
    * per [[SeriesStore.WriteBytes]] of them. Single-threaded — the
    * FlushCoordinator runs this while all other workers are parked (§3.3.2).
    */
  def flushAll(root: Node): Unit = {
    root.leavesInorder.foreach { leaf =>
      val slots = leaf.slots
      var j = 0
      while (j < slots.length) {
        if (writeBuf.remaining < recordBytes) writeOut()
        val slot = slots(j)
        leaf.spilled += logged + writeBuf.position() / recordBytes
        putRecord(writeBuf, slotIds(slot), flat, slot * seriesLen)
        j += 1
      }
      slots.clear()
    }
    writeOut()
    java.util.Arrays.fill(used, 0)
    flushes += 1
  }

  /** Append the records encoded in `writeBuf` to the log and empty it. */
  private def writeOut(): Unit = if (writeBuf.position() > 0) {
    writeBuf.flip()
    if (log == null)
      log = FileChannel.open(logFile, StandardOpenOption.CREATE_NEW, StandardOpenOption.READ,
        StandardOpenOption.WRITE)
    val n = writeBuf.remaining / recordBytes
    var at = logged.toLong * recordBytes
    while (writeBuf.hasRemaining) at += log.write(writeBuf, at)
    logged += n
    writeBuf.clear()
  }

  /** Number of [[flushAll]] calls so far. */
  def flushCount: Int = flushes

  /** Pass every member of `leaf` to `f` as (id, array, offset of its first
    * point): its spilled records first, in log order, decoded one at a time
    * into a scratch array that is valid only during the call; then its
    * HBuffer slots, in place.
    */
  def foreachMember(leaf: Node)(f: (Long, Array[Float], Int) => Unit): Unit = {
    val recs = leaf.spilled
    if (recs.nonEmpty) {
      val buf = readRecords(recs)
      val scratch = new Array[Float](seriesLen)
      var r = 0
      while (r < recs.length) {
        val id = buf.getLong()
        var i = 0
        while (i < seriesLen) { scratch(i) = buf.getFloat(); i += 1 }
        f(id, scratch, 0)
        r += 1
      }
    }
    val slots = leaf.slots
    var j = 0
    while (j < slots.length) {
      val slot = slots(j)
      f(slotIds(slot), flat, slot * seriesLen)
      j += 1
    }
  }

  /** All series of a leaf as (id, series): spilled records first, then
    * in-memory slots.
    */
  def gather(leaf: Node): ArrayBuffer[(Long, Array[Float])] = {
    val out = new ArrayBuffer[(Long, Array[Float])](leaf.count)
    foreachMember(leaf)((id, src, off) => out += ((id, java.util.Arrays.copyOfRange(src, off, off + seriesLen))))
    out
  }

  /** Delete the spill log and the spill directory. The store must not spill
    * again; calling it twice is harmless.
    */
  def close(): Unit = {
    if (log != null) { log.close(); log = null }
    Files.deleteIfExists(logFile)
    Files.deleteIfExists(spillRoot)
  }

  /** The records numbered `recs` (increasing), read from the log with one
    * positional read per run of consecutive numbers.
    */
  private def readRecords(recs: IntList): ByteBuffer = {
    val buf = ByteBuffer.allocate(Math.multiplyExact(recs.length, recordBytes))
    var j = 0
    while (j < recs.length) {
      var e = j + 1
      while (e < recs.length && recs(e) == recs(e - 1) + 1) e += 1
      buf.limit(e * recordBytes)
      var at = recs(j).toLong * recordBytes
      while (buf.hasRemaining) {
        val got = log.read(buf, at)
        if (got < 0) throw new EOFException(s"$logFile: record ${recs(e - 1)} is past the end")
        at += got
      }
      j = e
    }
    buf.flip()
    buf
  }

  /** The spill record codec: a big-endian long id, then the series' floats,
    * byte for byte what `DataOutputStream.writeLong`/`writeFloat` write.
    */
  private def putRecord(buf: ByteBuffer, id: Long, src: Array[Float], off: Int): Unit = {
    buf.putLong(id)
    var i = 0
    while (i < seriesLen) { buf.putInt(java.lang.Float.floatToIntBits(src(off + i))); i += 1 }
  }
}

object SeriesStore {

  /** Bytes of records a flush encodes before each write to the log: a
    * bounded buffer, whatever the HBuffer's size.
    */
  val WriteBytes: Int = 4 << 20

  /** Create a store with a fresh temp spill directory for its spill log,
    * which [[close]] deletes.
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
