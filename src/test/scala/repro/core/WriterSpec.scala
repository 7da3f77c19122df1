package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil

/** Index writing: LRDFile layout, LSDFile alignment, synopsis rebuild
  * (HSplitSynopsis + VSplitSynopsis) and subtree counts.
  */
class WriterSpec extends AnyFunSuite {

  private def build(n: Int, threads: Int, writerThreads: Int, seed: Long,
                    mode: BuildMode = BuildMode.Hercules): (HerculesIndex, Array[Long], Array[Array[Float]]) =
    buildOf(TestUtil.dataset(n, 32, seed)._2, threads, writerThreads, mode)

  private def buildOf(data: Array[Array[Float]], threads: Int, writerThreads: Int,
                      mode: BuildMode): (HerculesIndex, Array[Long], Array[Array[Float]]) = {
    val cfg = TestUtil.cfg(data.head.length, 16, threads).copy(writerThreads = writerThreads)
    val ids = Array.tabulate(data.length)(_.toLong)
    (HerculesIndex.build(ids, data, cfg, mode), ids, data)
  }

  test("LRDFile positions are the inorder leaf traversal, contiguous from 0") {
    val (idx, _, _) = build(400, 2, 2, 1)
    var pos = 0
    idx.leaves.foreach { leaf =>
      assert(leaf.filePos == pos)
      pos += leaf.leafSize
    }
    assert(pos == idx.nSeries)
  }

  test("LRDFile contents equal the original series (by id)") {
    val (idx, ids, data) = build(300, 2, 2, 2)
    val byId = ids.zip(data).toMap
    for (i <- 0 until idx.nSeries) {
      val sid = idx.ids(i)
      val orig = byId(sid)
      for (j <- 0 until 32)
        assert(idx.lrd(i * 32 + j) == orig(j), s"series $sid point $j")
    }
  }

  test("LSDFile words match the iSAX of LRDFile series at the same position") {
    val (idx, _, _) = build(300, 2, 2, 3)
    val segs = idx.isax.segments
    for (i <- 0 until idx.nSeries) {
      val s = new Array[Float](32)
      System.arraycopy(idx.lrd, i * 32, s, 0, 32)
      val w = idx.isax.word(s)
      for (j <- 0 until segs)
        assert(idx.lsd(i * segs + j) == w(j), s"pos $i seg $j")
    }
  }

  // Hercules trees get their synopses from the writer, path-locked trees
  // from their inserts, on any thread count; each holds every member's own
  // SeriesCtx statistic exactly, also for noisy flat lines at offset 1e6.
  private val noisyFlat = TestUtil.offsetSet("noisy-flat", 1200, 64, 1e6, 1)
  for ((label, mode, buildThreads, writerThreads, data) <- Seq(
         ("writerThreads=1", BuildMode.Hercules, 4, 1, TestUtil.dataset(500, 32, 4)._2),
         ("writerThreads=4", BuildMode.Hercules, 4, 4, TestUtil.dataset(500, 32, 5)._2),
         ("PathLocked, buildThreads=1", BuildMode.PathLocked, 1, 1, TestUtil.dataset(500, 32, 4)._2),
         ("PathLocked, buildThreads=4", BuildMode.PathLocked, 4, 4, TestUtil.dataset(500, 32, 5)._2),
         ("noisy flat lines at 1e6, writerThreads=4", BuildMode.Hercules, 4, 4, noisyFlat),
         ("noisy flat lines at 1e6, PathLocked, buildThreads=1", BuildMode.PathLocked, 1, 1, noisyFlat)))
    test(s"internal synopses cover every subtree member ($label)") {
      val (idx, _, _) = buildOf(data, buildThreads, writerThreads, mode)
      val len = idx.len
      def walk(n: Node): Unit = {
        for (leaf <- n.leavesInorder; i <- leaf.positions) {
          val sc = new SeriesCtx(java.util.Arrays.copyOfRange(idx.lrd, i * len, (i + 1) * len))
          for (j <- 0 until n.segCount) {
            val m = sc.mean(n.segStart(j), n.ends(j))
            val sd = sc.sd(n.segStart(j), n.ends(j))
            assert(m >= n.muMin(j) && m <= n.muMax(j),
              s"node ${n.id} seg $j mean $m not in [${n.muMin(j)}, ${n.muMax(j)}]")
            assert(sd >= n.sdMin(j) && sd <= n.sdMax(j),
              s"node ${n.id} seg $j sd $sd not in [${n.sdMin(j)}, ${n.sdMax(j)}]")
          }
        }
        if (!n.isLeaf) { walk(n.left); walk(n.right) }
      }
      walk(idx.root)
    }

  test("subtree counts are consistent after writing") {
    val (idx, _, _) = build(400, 2, 2, 6)
    def walk(n: Node): Int =
      if (n.isLeaf) { assert(n.count == n.leafSize); n.count }
      else {
        val c = walk(n.left) + walk(n.right)
        assert(n.count == c, s"node ${n.id}: count ${n.count} != children sum $c")
        c
      }
    assert(walk(idx.root) == idx.nSeries)
  }

  test("sequential (DSTree*) build without writer synopsis pass is also covering") {
    val (idx, _, _) = build(400, 1, 1, 7, BuildMode.PathLocked)
    // the LB must never exceed a member's true distance — covering synopses
    val q = SeriesGen.dataset("walk", 1, 32, 1234)(0)
    val qc = new SeriesCtx(q)
    def walk(n: Node): Unit = {
      val lb2 = Eapca.lb2(qc, n)
      n.leavesInorder.foreach { leaf =>
        (leaf.filePos until leaf.filePos + leaf.leafSize).foreach { i =>
          val d = Dist.ed2Flat(q, idx.lrd, i * 32, Double.PositiveInfinity)
          assert(lb2 <= d + 1e-6)
        }
      }
      if (!n.isLeaf) { walk(n.left); walk(n.right) }
    }
    walk(idx.root)
  }

  test("writer nulls build-time leaf storage") {
    val (idx, _, _) = build(200, 2, 2, 8)
    idx.leaves.foreach(l => assert(l.slots == null))
  }

  test("V-split destroyed segments get correct raw-recomputed synopses") {
    // force many V-splits by starting from a single segment and small leaves
    val cfg = TestUtil.cfg(64, 8, 4).copy(writerThreads = 4)
    val (ids, data) = TestUtil.dataset(400, 64, 9)
    val idx = HerculesIndex.build(ids, data, cfg)
    var vSplits = 0
    def walk(n: Node): Unit = if (!n.isLeaf) {
      if (n.split.vertical) vSplits += 1
      walk(n.left); walk(n.right)
    }
    walk(idx.root)
    assert(vSplits > 0, "dataset produced no V-splits; invariant untested")
    // covered by the synopsis-covering test above, but re-assert on this tree
    val q = SeriesGen.dataset("walk", 1, 64, 77)(0)
    val res = idx.knn(q, QueryKnobs(k = 5, lmax = 2))
    TestUtil.assertExact(ids, data, q, 5, res, "v-split tree")
  }

  /** Run `body` on a thread with a 256 KB stack, which a walk that recursed
    * once per tree level would overflow on a deep tree.
    */
  private def onSmallStack(body: => Unit): Unit = {
    var failure: Throwable = null
    val t = new Thread(null, () => try body catch { case e: Throwable => failure = e }, "small-stack", 256L * 1024)
    t.start()
    t.join()
    failure match {
      case null =>
      case e: StackOverflowError => fail("the stack grew with the tree's depth", e)
      case e => throw e
    }
  }

  test("leavesInorder and the writer walk a chain 100 000 nodes deep") {
    onSmallStack {
      // Each internal node's right child is a leaf holding one series; its
      // left child is the next node of the chain, so a recursive walk could
      // not end in a tail call. Ids follow the leaves' inorder.
      val depth = 100000
      val len = 4
      val cfg = TestUtil.cfg(len)
      val tree = new HerculesTree(cfg, BuildMode.PathLocked)
      val store = SeriesStore.create(len, 1, depth + 1, 1)
      def hold(leaf: Node, id: Long): Unit = {
        leaf.slots += store.alloc(0, id, Array.fill(len)(id.toFloat))
        leaf.count = 1
      }
      var n = tree.root
      for (d <- 0 until depth) {
        val l = new Node(n.ends, 2 * d + 1)
        val r = new Node(n.ends, 2 * d + 2)
        l.parent = n
        r.parent = n
        hold(r, (depth - d).toLong)
        n.split = SplitInfo(vertical = false, n.ends, 0, useSd = false, d.toDouble)
        n.left = l
        n.right = r
        n.isLeaf = false
        n = l
      }
      hold(n, 0L)
      assert(tree.root.leavesInorder.length == depth + 1)
      val idx = IndexWriter.write(tree, store)
      assert(idx.root.count == depth + 1)
      assert(idx.ids.toSeq == (0L to depth.toLong))
      assert(idx.lrd(depth * len) == depth.toFloat && idx.root.left.count == depth)
    }
  }
}
