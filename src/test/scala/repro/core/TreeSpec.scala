package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil

/** Tree structure invariants: routing, splits, segmentation refinement. */
class TreeSpec extends AnyFunSuite {

  /** Build a path-locked tree over `n` walks and pass it, its HBuffer and
    * the data to `body`; the HBuffer is closed afterwards.
    */
  private def withTree(n: Int, len: Int, leaf: Int, seed: Long)(
      body: (HerculesTree, SeriesStore, Array[Array[Float]]) => Unit): Unit =
    withBuild(TestUtil.cfg(len, leaf), BuildMode.PathLocked, TestUtil.dataset(n, len, seed)._2)(body)

  /** Build `data` in `mode` and pass the tree, its HBuffer and the data to
    * `body`; the HBuffer is closed afterwards.
    */
  private def withBuild(cfg: IndexConfig, mode: BuildMode, data: Array[Array[Float]])(
      body: (HerculesTree, SeriesStore, Array[Array[Float]]) => Unit): Unit = {
    val (tree, store) = new ParallelBuilder(cfg, mode).build(Array.tabulate(data.length)(_.toLong), data)
    try body(tree, store, data) finally store.close()
  }

  /** Assert that every member of every internal node's left subtree has its
    * own [[SeriesCtx]] routing statistic `< split.value`, and every right
    * member `>=`; returns the (member, ancestor) pairs checked.
    */
  private def assertRoutingAgrees(tree: HerculesTree, store: SeriesStore): Int = {
    var pairs = 0
    def walk(n: Node, path: List[(SplitInfo, Boolean)]): Unit =
      if (n.isLeaf) store.gather(n).foreach { case (id, s) =>
        val sc = new SeriesCtx(s)
        path.foreach { case (split, left) =>
          val stat = split.statOf(sc)
          assert(if (left) stat < split.value else stat >= split.value,
            s"series $id: stat $stat vs split value ${split.value}, left = $left")
          pairs += 1
        }
      }
      else {
        walk(n.left, (n.split, true) :: path)
        walk(n.right, (n.split, false) :: path)
      }
    walk(tree.root, Nil)
    pairs
  }

  /** Every leaf's synopsis holds each member's [[SeriesCtx]] mean and sd. */
  private def assertLeafSynopsesCover(tree: HerculesTree, store: SeriesStore): Unit =
    tree.root.leavesInorder.foreach { leaf =>
      store.gather(leaf).foreach { case (id, s) =>
        val sc = new SeriesCtx(s)
        for (j <- 0 until leaf.segCount) {
          val m = sc.mean(leaf.segStart(j), leaf.ends(j))
          val sd = sc.sd(leaf.segStart(j), leaf.ends(j))
          assert(m >= leaf.muMin(j) && m <= leaf.muMax(j), s"leaf ${leaf.id} series $id seg $j mean $m")
          assert(sd >= leaf.sdMin(j) && sd <= leaf.sdMax(j), s"leaf ${leaf.id} series $id seg $j sd $sd")
        }
      }
    }

  test("root of an empty tree is a single leaf over the whole length") {
    val tree = new HerculesTree(TestUtil.cfg(32), BuildMode.Hercules)
    assert(tree.root.isLeaf)
    assert(tree.root.ends.toSeq == Seq(32))
    assert(tree.leafCount == 1)
  }

  for (seed <- 1 to 4)
    test(s"every series routes to the leaf that stores it (seed $seed)") {
      withTree(300, 32, 16, seed) { (tree, store, data) =>
        val stored = tree.root.leavesInorder.flatMap(l => store.gather(l)).toMap
        data.zipWithIndex.foreach { case (s, i) =>
          val leaf = tree.root.leafFor(new SeriesCtx(s))
          val members = store.gather(leaf).map(_._1).toSet
          assert(members.contains(i.toLong), s"series $i not in its routed leaf")
        }
        assert(stored.size == 300)
      }
    }

  for (seed <- 1 to 4)
    test(s"leaf sizes stay within capacity after splits (seed $seed)") {
      withTree(400, 32, 16, 10 + seed) { (tree, _, _) =>
        tree.root.leavesInorder.foreach(l => assert(l.count <= 16, s"leaf ${l.id} has ${l.count}"))
        assert(tree.leafCount > 1)
      }
    }

  test("children partition the parent exactly") {
    withTree(200, 32, 16, 42) { (tree, store, _) =>
      def walk(n: Node): Unit =
        if (!n.isLeaf) {
          assert(n.left.parent eq n)
          assert(n.right.parent eq n)
          assert(n.left != null && n.right != null)
          walk(n.left); walk(n.right)
        } else assert(store.gather(n).size == n.count)
      walk(tree.root)
      val total = tree.root.leavesInorder.map(_.count).sum
      assert(total == 200)
    }
  }

  test("child segmentations refine the parent (H same, V one extra)") {
    withTree(500, 32, 16, 7) { (tree, _, _) =>
      var sawV = false
      var sawH = false
      def walk(n: Node): Unit = if (!n.isLeaf) {
        val s = n.split
        if (s.vertical) {
          sawV = true
          assert(s.childEnds.length == n.ends.length + 1)
          assert(n.ends.toSet.subsetOf(s.childEnds.toSet))
        } else {
          sawH = true
          assert(s.childEnds.toSeq == n.ends.toSeq)
        }
        assert(n.left.ends.toSeq == s.childEnds.toSeq)
        assert(n.right.ends.toSeq == s.childEnds.toSeq)
        walk(n.left); walk(n.right)
      }
      walk(tree.root)
      assert(sawH || sawV) // at least one split happened
    }
  }

  test("routing respects the split value on the routing segment") {
    withTree(300, 32, 16, 12) { (tree, store, _) =>
      assert(assertRoutingAgrees(tree, store) > 0)
    }
  }

  // Split choice, routing and synopses read one statistic, so no member sits
  // on the wrong side of an ancestor's split even where `sum2/len − m²`
  // would cancel: noisy flat lines at 1e6, and walks mixed with them at 1e5.
  for ((kind, offset) <- Seq(("noisy-flat", 1e6), ("mixed", 1e5));
       (mode, threads) <- Seq[(BuildMode, Int)]((BuildMode.Hercules, 4), (BuildMode.PathLocked, 1));
       seed <- 1 to 2)
    test(s"members are routed on the statistic their splits were chosen on ($kind at $offset, $mode, seed $seed)") {
      val data = TestUtil.offsetSet(kind, 1200, 64, offset, seed)
      withBuild(TestUtil.cfg(64, 16, threads), mode, data) { (tree, store, _) =>
        assert(tree.leafCount > 1)
        assert(assertRoutingAgrees(tree, store) > 0)
      }
    }

  test("leaf synopses cover their members") {
    withTree(300, 32, 16, 13) { (tree, store, _) => assertLeafSynopsesCover(tree, store) }
  }

  test("leaf synopses cover their members (noisy flat lines at offset 1e6)") {
    withBuild(TestUtil.cfg(64, 16), BuildMode.PathLocked, TestUtil.offsetSet("noisy-flat", 1200, 64, 1e6, 1)) {
      (tree, store, _) => assertLeafSynopsesCover(tree, store)
    }
  }

  test("identical series beyond capacity do not split forever") {
    val cfg = TestUtil.cfg(16, leaf = 4)
    val s = Array.fill(16)(1f)
    val ids = Array.tabulate(20)(_.toLong)
    val data = Array.fill(20)(s.clone)
    val (tree, store) = new ParallelBuilder(cfg, BuildMode.PathLocked).build(ids, data)
    try assert(tree.root.leavesInorder.map(_.count).sum == 20)
    finally store.close()
  }

  /** Build `data` in `mode` on `threads` with a small HBuffer (so the
    * unsplittable leaf is also spilled), check k-NN answers against brute
    * force, and return the tree's failed split attempts.
    */
  private def failedSplitsOf(mode: BuildMode, threads: Int, data: Array[Array[Float]],
                             queries: Seq[Array[Float]]): Int = {
    val cfg = TestUtil.cfg(32, 16, threads).copy(hbufferSlots = 1024)
    val ids = Array.tabulate(data.length)(_.toLong)
    val (tree, store) = new ParallelBuilder(cfg, mode).build(ids, data)
    val failed = tree.failedSplits
    assert(tree.splitAttempts >= failed)
    val idx = IndexWriter.write(tree, store, threads = threads)
    assert(idx.nSeries == data.length)
    queries.zipWithIndex.foreach { case (q, qi) =>
      TestUtil.assertExact(ids, data, q, 5, idx.knn(q, QueryKnobs(k = 5, lmax = 4, threads = 2)), s"$mode q$qi")
    }
    failed
  }

  for ((mode, threads) <- Seq[(BuildMode, Int)]((BuildMode.PathLocked, 1), (BuildMode.Hercules, 4)))
    test(s"8192 identical series make one failed split attempt ($mode)") {
      val s = SeriesGen.seriesForId("walk", 5, 32, 3)
      val data = Array.fill(8192)(s.clone)
      val failed = failedSplitsOf(mode, threads, data, Seq(s, SeriesGen.seriesForId("walk", 6, 32, 3)))
      assert(failed == 1)
    }

  for ((mode, threads) <- Seq[(BuildMode, Int)]((BuildMode.PathLocked, 1), (BuildMode.Hercules, 4)))
    test(s"a 10%-flat mix makes O(1) failed split attempts on the flat leaf ($mode)") {
      // Flat lines z-normalize to all zeros: 800 copies of one series. Only
      // a walk routed into the flat leaf's region makes it try again (8
      // times here; 10 with 3200 flat lines), not each of the 784 flat lines
      // that arrive after the leaf is full.
      val data = Array.tabulate(8000)(i =>
        if (i % 10 == 0) new Array[Float](32) else SeriesGen.seriesForId("walk", i, 32, 4))
      val failed = failedSplitsOf(mode, threads, data, Seq(data(0), data(1), SeriesGen.seriesForId("walk", 9001, 32, 4)))
      assert(failed >= 1 && failed <= 16, s"$failed failed split attempts")
    }

  test("SplitPolicy.choose separates distinguishable data") {
    val data = SeriesGen.dataset("walk", 30, 32, 3).toIndexedSeq
    val node = new Node(Array(32), 0)
    data.foreach(s => node.updateSynopsis(new SeriesCtx(s)))
    val p = SplitPolicy.choose(node, data)
    assert(p.isDefined)
    val left = data.count(s => p.get.goesLeft(new SeriesCtx(s)))
    assert(left > 0 && left < data.length)
  }

  test("SplitPolicy.choose returns None on indistinguishable data") {
    val s = Array.fill(16)(2f)
    val node = new Node(Array(16), 0)
    val data = IndexedSeq.fill(8)(s)
    data.foreach(s => node.updateSynopsis(new SeriesCtx(s)))
    assert(SplitPolicy.choose(node, data).isEmpty)
  }
}
