package repro.core

import scala.collection.mutable.ArrayBuffer

/** Index writing (§3.3.3, Algorithms 6–9).
  *
  * Post-processes every leaf in parallel (fetch-add leaf cursor, one worker
  * per leaf): materializes the leaf's raw series into LRDFile order (inorder
  * leaf traversal). For a Hercules tree it also computes their iSAX words
  * into LSDFile and rebuilds the ancestors' synopses bottom-up —
  * `HSplitSynopsis` merges the leaf synopsis into every ancestor segment that
  * survives intact on the path, while `VSplitSynopsis` recomputes
  * vertically-destroyed segments from the raw series (their min/max cannot
  * be derived from the children's finer segments). Ancestor updates are
  * min/max folds, so they commute and only need a per-node lock. A
  * path-locked tree kept its synopses during inserts and is EAPCA only, so
  * it gets neither.
  */
object IndexWriter {

  /** Materialize `tree` (+ its HBuffer/spill log contents) into a queryable
    * [[HerculesIndex]], then close `store`, deleting its spill log.
    *
    * @param threads WriteIndexWorker count (1 = NoWPara ablation)
    */
  def write(tree: HerculesTree, store: SeriesStore, threads: Int = 1): HerculesIndex = {
    val cfg = tree.cfg
    val len = cfg.seriesLength
    val nodes = tree.root.preorder
    val leaves = nodes.filter(_.isLeaf)
    var pos = 0
    leaves.foreach { leaf =>
      leaf.filePos = pos
      pos += leaf.count
    }
    val n = pos
    val lrd = new Array[Float](n * len)
    val idsArr = new Array[Long](n)
    val isax = ISax(cfg)
    val hercules = tree.mode == BuildMode.Hercules
    val lsd = if (hercules) new Array[Byte](n * isax.segments) else null

    try Par.claim(threads, leaves.length) { (_, j) =>
      processLeaf(leaves(j), store, lrd, idsArr, lsd, isax, len, hercules)
    } finally store.close()

    // WriteIndexTree: fix subtree counts, children before their parent.
    var i = nodes.length - 1
    while (i >= 0) {
      val node = nodes(i)
      if (!node.isLeaf) node.count = node.left.count + node.right.count
      i -= 1
    }

    new HerculesIndex(cfg, tree.root, lrd, idsArr, lsd, n)
  }

  /** ProcessLeaf of Algorithm 7: materialize + summarize + fix ancestors. */
  private def processLeaf(leaf: Node, store: SeriesStore, lrd: Array[Float],
                          idsArr: Array[Long], lsd: Array[Byte], isax: ISax,
                          len: Int, rebuildSynopses: Boolean): Unit = {
    val members = leaf.spilled.length + leaf.slots.length
    require(members == leaf.count, s"leaf ${leaf.id}: $members != ${leaf.count}")
    var i = 0
    store.foreachMember(leaf) { (sid, src, off) =>
      val at = leaf.filePos + i
      System.arraycopy(src, off, lrd, at * len, len)
      idsArr(at) = sid
      if (lsd != null) isax.writeWord(src, off, lsd, at * isax.segments)
      i += 1
    }
    leaf.slots = null
    leaf.spilled = null
    leaf.unsplittableAs = null

    if (rebuildSynopses && leaf.parent != null) {
      // Destroyed ranges to recompute from raw data: (node, segIdx, st, en).
      // A leaf's segmentation refines every ancestor's, so an ancestor's
      // segment survives intact iff the leaf has a segment with its bounds.
      val destroyed = new ArrayBuffer[(Node, Int, Int, Int)]
      var a = leaf.parent
      while (a != null) {
        a.synchronized {
          var k = 0
          while (k < a.segCount) {
            val st = a.segStart(k)
            val en = a.ends(k)
            val mine = java.util.Arrays.binarySearch(leaf.ends, en)
            if (leaf.segStart(mine) == st) // HSplitSynopsis
              a.widen(k, leaf.muMin(mine), leaf.muMax(mine), leaf.sdMin(mine), leaf.sdMax(mine))
            else destroyed += ((a, k, st, en))
            k += 1
          }
        }
        a = a.parent
      }
      if (destroyed.nonEmpty) {
        // VSplitSynopsis: the members' running sums, read in place from
        // LRDFile at every destroyed bound, folded once per distinct
        // destroyed range, then one locked update per node.
        val cuts = destroyed.iterator.flatMap(d => Iterator(d._3, d._4)).toArray.distinct.sorted
        val sums = new Sums(cuts, leaf.count)
        var m = 0
        while (m < leaf.count) { sums.fill(m, lrd, (leaf.filePos + m) * len); m += 1 }
        destroyed.groupBy(d => (d._3, d._4)).foreach { case ((st, en), entries) =>
          val c = new SplitPolicy.Column(sums, st, en)
          entries.foreach { case (node, k, _, _) =>
            node.synchronized(node.widen(k, c.muMin, c.muMax, c.sdMin, c.sdMax))
          }
        }
      }
    }
  }
}
