package repro.core

import java.io.{ByteArrayOutputStream, DataOutputStream}
import java.lang.Float.{floatToIntBits, intBitsToFloat}
import java.nio.file.Files
import scala.jdk.CollectionConverters._
import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil

/** The HBuffer's spill log: its record codec writes the bytes
  * `DataOutputStream` writes (a big-endian long id, then the floats) and reads
  * them back unchanged; flushes only append to it, splits only move record
  * numbers, and `close` removes it.
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

  private def seqOf(list: IntList): Seq[Int] = (0 until list.length).map(list(_))

  /** Buffer `recs` in `leaf`'s SBuffer (worker 0's region). */
  private def buffer(store: SeriesStore, leaf: Node, recs: Seq[(Long, Array[Float])]): Unit =
    recs.foreach { case (id, s) => leaf.slots += store.alloc(0, id, s); leaf.count += 1 }

  test("the spill codec round-trips ids near Long.MaxValue and -0.0f") {
    val store = SeriesStore.create(Len, 1, 8, 1)
    try {
      val leaf = new Node(Array(Len), 0)
      buffer(store, leaf, records)
      store.flushAll(leaf)
      assert(seqOf(leaf.spilled) == records.indices)
      assert(Files.readAllBytes(store.logFile).sameElements(dataOutputBytes(records)))
      assertSame(store.gather(leaf).toSeq, records)
    } finally store.close()
  }

  test("a flush appends HBuffer slots in the same format after earlier records") {
    val store = SeriesStore.create(Len, 1, 8, 1)
    try {
      val leaf = new Node(Array(Len), 0)
      val (spilled, buffered) = records.splitAt(2)
      buffer(store, leaf, spilled)
      store.flushAll(leaf)
      buffer(store, leaf, buffered)
      assertSame(store.gather(leaf).toSeq, records)
      store.flushAll(leaf)
      assert(store.flushCount == 2 && store.freeSlots(0) == 8)
      assert(leaf.slots.isEmpty && seqOf(leaf.spilled) == records.indices)
      assert(Files.readAllBytes(store.logFile).sameElements(dataOutputBytes(records)))
      assertSame(store.gather(leaf).toSeq, records)
    } finally store.close()
  }

  test("a flush of more records than one write holds keeps each record and its number") {
    val len = 1024
    val n = 3 * SeriesStore.WriteBytes / (8 + 4 * len) + 5
    val recs = (0 until n).map(i => (i.toLong * 7, Array.tabulate(len)(j => (i * len + j).toFloat)))
    val store = SeriesStore.create(len, 1, n, 1)
    try {
      val (a, b) = (new Node(Array(len), 0), new Node(Array(len), 1))
      recs.zipWithIndex.foreach { case ((id, s), i) =>
        val leaf = if (i % 3 == 0) a else b
        leaf.slots += store.alloc(0, id, s)
        leaf.count += 1
      }
      val root = new Node(Array(len), 2)
      root.isLeaf = false
      root.left = a
      root.right = b
      store.flushAll(root)
      assert(Files.size(store.logFile) == n.toLong * (8 + 4 * len))
      assert(seqOf(a.spilled) ++ seqOf(b.spilled) == (0 until n))
      assertSame(store.gather(a).toSeq ++ store.gather(b).toSeq,
        recs.indices.filter(_ % 3 == 0).map(recs) ++ recs.indices.filter(_ % 3 != 0).map(recs))
    } finally store.close()
  }

  test("a leaf's records survive two flushes and a split, in order") {
    val len = 16
    val cfg = TestUtil.cfg(len, leaf = 8)
    val (ids, data) = TestUtil.dataset(8, len, 5)
    val tree = new HerculesTree(cfg, BuildMode.Hercules)
    val store = SeriesStore.create(len, 1, 64, 1)
    val sc = new SeriesCtx(len)
    def insert(i: Int): Unit = tree.insert(ids(i), sc.load(data(i)), 0, store)
    try {
      (0 until 5).foreach(insert)
      store.flushAll(tree.root)
      (5 until 7).foreach(insert)
      store.flushAll(tree.root)
      insert(7) // the eighth member fills the root, which splits
      assert(!tree.root.isLeaf)
      // Nothing was rewritten: the log holds the 7 spilled records once.
      assert(Files.size(store.logFile) == 7L * (8 + 4 * len))
      val leaves = Seq(tree.root.left, tree.root.right)
      leaves.foreach { leaf =>
        val got = store.gather(leaf)
        assert(got.map(_._1) == got.map(_._1).sorted, s"leaf ${leaf.id} out of order")
        got.foreach { case (id, s) =>
          assert(s.sameElements(data(id.toInt)), s"series $id")
          assert(tree.root.leafFor(new SeriesCtx(s)) eq leaf, s"series $id routes elsewhere")
        }
      }
      assert(leaves.flatMap(l => store.gather(l).map(_._1)).sorted == ids.toSeq)
      assert(leaves.flatMap(l => seqOf(l.spilled)).sorted == (0 until 7))
    } finally store.close()
  }

  /** A build of 600 walks on 3 workers whose HBuffer flushes many times. */
  private def flushingBuild(): (HerculesTree, SeriesStore) = {
    val cfg = TestUtil.cfg(32, 8, 3).copy(dbSize = 24, hbufferSlots = 96)
    val (ids, data) = TestUtil.dataset(600, 32, 99)
    new ParallelBuilder(cfg, BuildMode.Hercules).build(ids, data)
  }

  test("the spill directory holds at most one file") {
    val (_, store) = flushingBuild()
    try {
      assert(store.flushCount > 1)
      val files = Files.list(store.logFile.getParent)
      try assert(files.iterator.asScala.toSeq == Seq(store.logFile))
      finally files.close()
    } finally store.close()
  }

  test("close removes the spill log and its directory") {
    val (_, store) = flushingBuild()
    assert(Files.exists(store.logFile))
    store.close()
    assert(!Files.exists(store.logFile) && !Files.exists(store.logFile.getParent))
    store.close()
  }
}
