package repro.core

import java.nio.file.{Files, Path, Paths}
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration._
import scala.jdk.CollectionConverters._
import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil

/** The parallel build protocol: all modes index the same multiset of series
  * and answer k-NN exactly, with and without forced HBuffer flushes.
  */
class BuilderSpec extends AnyFunSuite {

  /** Build, check the index, and return the build's flush count. */
  private def checkBuild(mode: BuildMode, cfg: IndexConfig, n: Int, seed: Long): Int = {
    val (ids, data) = TestUtil.dataset(n, cfg.seriesLength, seed)
    val (tree, store) = new ParallelBuilder(cfg, mode).build(ids, data)
    val idx = IndexWriter.write(tree, store, threads = cfg.writerThreads)
    assert(idx.nSeries == n, s"indexed ${idx.nSeries} of $n")
    assert(idx.ids.sorted.toSeq == ids.sorted.toSeq, "id multiset changed")
    // exactness over a few queries
    val queries = SeriesGen.queries("walk", "5%", 3, n, cfg.seriesLength, seed)
    queries.zipWithIndex.foreach { case (q, qi) =>
      val res = idx.knn(q, QueryKnobs(k = 3, lmax = 4, threads = 2))
      TestUtil.assertExact(ids, data, q, 3, res, s"mode=$mode q$qi")
    }
    store.flushCount
  }

  for (threads <- Seq(2, 4); seed <- 1 to 2)
    test(s"Hercules concurrent build is exact (threads=$threads seed=$seed)") {
      checkBuild(BuildMode.Hercules, TestUtil.cfg(32, 16, threads), 500, seed)
    }

  for (threads <- Seq(1, 2, 4); seed <- 1 to 2)
    test(s"PathLocked (DSTree*P) build is exact (threads=$threads seed=$seed)") {
      checkBuild(BuildMode.PathLocked, TestUtil.cfg(32, 16, threads), 500, seed)
    }

  for (mode <- Seq[BuildMode](BuildMode.Hercules, BuildMode.PathLocked))
    test(s"forced flush/spill path stays exact ($mode)") {
      // HBuffer of 96 slots across 3 workers with chunks of 24 — many flushes.
      val cfg = TestUtil.cfg(32, 8, 3).copy(dbSize = 24, hbufferSlots = 96)
      assert(checkBuild(mode, cfg, 600, 99) > 0)
    }

  test("forced flush in sequential mode stays exact") {
    val cfg = TestUtil.cfg(32, 8).copy(dbSize = 16, hbufferSlots = 32)
    assert(checkBuild(BuildMode.PathLocked, cfg, 400, 17) > 0)
  }

  test("a one-thread build that flushes many times builds the tree of one that never flushes") {
    val cfg = TestUtil.cfg(256, 64).copy(dbSize = 512)
    val (ids, data) = TestUtil.dataset(16384, 256, 61)
    def build(c: IndexConfig) = new ParallelBuilder(c, BuildMode.Hercules).build(ids, data)
    val (plain, plainStore) = build(cfg)
    val (flushed, flushedStore) = build(cfg.copy(hbufferSlots = 1024))
    try {
      assert(plainStore.flushCount == 0 && flushedStore.flushCount > 10)
      val nodes = plain.root.preorder.zip(flushed.root.preorder)
      assert(plain.root.preorder.length == flushed.root.preorder.length)
      nodes.foreach { case (a, b) =>
        assert(a.isLeaf == b.isLeaf, s"node ${a.id}")
        if (a.isLeaf)
          assert(plainStore.gather(a).map(_._1).toSet == flushedStore.gather(b).map(_._1).toSet, s"leaf ${a.id}")
        else {
          val (x, y) = (a.split, b.split)
          assert(x.vertical == y.vertical && x.childEnds.sameElements(y.childEnds) && x.routeSeg == y.routeSeg &&
            x.useSd == y.useSd && java.lang.Double.compare(x.value, y.value) == 0, s"node ${a.id}")
        }
      }
    } finally { plainStore.close(); flushedStore.close() }
  }

  for (mode <- Seq[BuildMode](BuildMode.Hercules, BuildMode.PathLocked))
    test(s"no flush once every series is claimed ($mode)") {
      // One region of 128 slots and chunks of 64: the region is full after
      // chunks 2 and 4 of 4, but only the flush after chunk 2 precedes an insert.
      val cfg = TestUtil.cfg(32, 8).copy(dbSize = 64, hbufferSlots = 128)
      assert(checkBuild(mode, cfg, 256, 23) == 1)
    }

  test("empty dataset builds an empty index") {
    val idx = HerculesIndex.build(Array.empty, Array.empty, TestUtil.cfg(16))
    assert(idx.nSeries == 0)
    val q = SeriesGen.dataset("walk", 1, 16, 5)(0)
    assert(idx.knn(q, QueryKnobs(k = 3)).isEmpty)
  }

  test("single-series dataset") {
    val (ids, data) = TestUtil.dataset(1, 16, 3)
    val idx = HerculesIndex.build(ids, data, TestUtil.cfg(16))
    val res = idx.knn(data(0), QueryKnobs(k = 1))
    assert(res.length == 1 && res(0).id == 0L && res(0).dist2 == 0.0)
  }

  test("dataset smaller than one chunk") {
    checkBuild(BuildMode.Hercules, TestUtil.cfg(32, 16, 4).copy(dbSize = 1024), 50, 21)
  }

  test("parallel and sequential builds index the same id multiset") {
    val cfg = TestUtil.cfg(32, 16, 4)
    val (ids, data) = TestUtil.dataset(300, 32, 5)
    val a = HerculesIndex.build(ids, data, cfg, BuildMode.Hercules)
    val b = HerculesIndex.build(ids, data, cfg.copy(buildThreads = 1), BuildMode.PathLocked)
    assert(a.ids.sorted.toSeq == b.ids.sorted.toSeq)
    assert(a.nSeries == b.nSeries)
  }

  test("IndexConfig rejects a thread count or DBuffer size below 1 and a negative HBuffer size") {
    val ok = IndexConfig(seriesLength = 8)
    for (bad <- Seq[IndexConfig => IndexConfig](_.copy(buildThreads = 0), _.copy(writerThreads = 0),
                                                _.copy(dbSize = 0), _.copy(hbufferSlots = -1)))
      intercept[IllegalArgumentException](bad(ok))
  }

  test("with hbufferSlots = 0, four workers index every series once") {
    val cfg = TestUtil.cfg(32, 16, 4)
    for (seed <- 1 to 3) {
      val (ids, data) = TestUtil.dataset(3000, 32, seed)
      val (tree, store) = new ParallelBuilder(cfg, BuildMode.Hercules).build(ids, data)
      try assert(tree.root.leavesInorder.map(_.count).sum == 3000, s"seed $seed")
      finally store.close()
    }
  }

  for (mode <- Seq[BuildMode](BuildMode.Hercules, BuildMode.PathLocked))
    test(s"regions smaller than two chunks index every id once, exactly ($mode)") {
      // 4 regions of 48 slots, chunks of 32: workers fill mid-chunk.
      val cfg = TestUtil.cfg(32, 8, 4).copy(dbSize = 32, hbufferSlots = 192)
      val (ids, data) = TestUtil.dataset(1500, 32, 31)
      val builder = new ParallelBuilder(cfg, mode)
      val (_, store) = builder.build(ids, data)
      try {
        assert(store.regionSlots < 2 * cfg.dbSize)
        assert(store.flushCount > 0)
      } finally store.close()
      checkBuild(mode, cfg, 1500, 31)
    }

  for (mode <- Seq[BuildMode](BuildMode.Hercules, BuildMode.PathLocked); threads <- Seq(1, 4))
    test(s"a failing insert fails the build with its own exception ($mode, threads=$threads)") {
      val cfg = TestUtil.cfg(32, 16, threads)
      val (ids, data) = TestUtil.dataset(500, 32, 41)
      data(250) = data(250).take(20)
      val build = Future(new ParallelBuilder(cfg, mode).build(ids, data))(ExecutionContext.global)
      intercept[IndexOutOfBoundsException](Await.result(build, 60.seconds))
    }

  /** The HBuffer spill directories in the temp directory. */
  private def spillDirs(): Set[Path] = {
    val dirs = Files.list(Paths.get(System.getProperty("java.io.tmpdir")))
    try dirs.iterator.asScala.filter(_.getFileName.toString.startsWith("hercules-spill-")).toSet
    finally dirs.close()
  }

  test("neither a flushing build nor a failing one leaves its spill directory") {
    val before = spillDirs()
    val cfg = TestUtil.cfg(32, 8, 3).copy(dbSize = 24, hbufferSlots = 96)
    val (ids, data) = TestUtil.dataset(600, 32, 99)
    val (tree, store) = new ParallelBuilder(cfg, BuildMode.Hercules).build(ids, data)
    assert(IndexWriter.write(tree, store, threads = cfg.writerThreads).nSeries == 600)
    assert(store.flushCount > 0)
    assert(spillDirs() -- before == Set.empty, "after a forced-flush build")
    data(300) = data(300).take(20)
    intercept[IndexOutOfBoundsException](new ParallelBuilder(cfg, BuildMode.Hercules).build(ids, data))
    assert(spillDirs() -- before == Set.empty, "after a failing build")
  }
}
