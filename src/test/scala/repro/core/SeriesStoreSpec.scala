package repro.core

import java.io.{ByteArrayOutputStream, DataOutputStream}
import java.lang.Float.{floatToIntBits, intBitsToFloat}
import java.nio.file.Files
import org.scalatest.funsuite.AnyFunSuite

/** The HBuffer's spill record codec: the bytes `DataOutputStream` writes (a
  * big-endian long id, then the floats), read back unchanged.
  */
class SeriesStoreSpec extends AnyFunSuite {

  private val Len = 5
  private val records: Seq[(Long, Array[Float])] = Seq(
    (Long.MaxValue, Array(-0.0f, 0.0f, Float.NaN, Float.MinPositiveValue, Float.MaxValue)),
    (Long.MaxValue - 1, Array(Float.NegativeInfinity, -1.5f, 1e-30f, 3f, -0.0f)),
    (Long.MinValue, Array(Float.PositiveInfinity, -Float.MaxValue, intBitsToFloat(0x7fc00001), 1f, 2f)),
    (-1L, Array.fill(Len)(-0.0f)),
    (0L, Array(1e4f, -1e4f, 0.1f, -0.1f, 7f)),
  )

  private def dataOutputBytes(recs: Seq[(Long, Array[Float])]): Array[Byte] = {
    val bytes = new ByteArrayOutputStream
    val out = new DataOutputStream(bytes)
    recs.foreach { case (id, s) => out.writeLong(id); s.foreach(out.writeFloat) }
    out.close()
    bytes.toByteArray
  }

  private def assertSame(actual: Seq[(Long, Array[Float])], expected: Seq[(Long, Array[Float])]): Unit = {
    assert(actual.map(_._1) == expected.map(_._1))
    actual.zip(expected).foreach { case ((_, a), (id, e)) =>
      assert(a.map(floatToIntBits).toSeq == e.map(floatToIntBits).toSeq, s"record $id")
    }
  }

  test("the spill codec round-trips ids near Long.MaxValue and -0.0f") {
    val store = SeriesStore.create(Len, 1, 8, 1)
    try {
      val leaf = new Node(Array(Len), 0)
      store.spill(leaf, records)
      assert(leaf.spilledCount == records.length)
      assert(Files.readAllBytes(leaf.spillFile).sameElements(dataOutputBytes(records)))
      assertSame(store.readSpill(leaf).toSeq, records)
      store.dropSpill(leaf)
    } finally store.close()
  }

  test("a flush appends HBuffer slots in the same format after earlier records") {
    val store = SeriesStore.create(Len, 1, 8, 1)
    try {
      val leaf = new Node(Array(Len), 0)
      val (spilled, buffered) = records.splitAt(2)
      store.spill(leaf, spilled)
      buffered.foreach { case (id, s) => leaf.slots += store.alloc(0, id, s) }
      assertSame(store.gather(leaf).toSeq, records)
      store.flushAll(leaf)
      assert(store.flushCount == 1 && store.freeSlots(0) == 8)
      assert(leaf.slots.isEmpty && leaf.spilledCount == records.length)
      assert(Files.readAllBytes(leaf.spillFile).sameElements(dataOutputBytes(records)))
      assertSame(store.gather(leaf).toSeq, records)
      store.dropSpill(leaf)
    } finally store.close()
  }
}
