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

  /** Materialize `tree` (+ its HBuffer/spill contents) into a queryable
    * [[HerculesIndex]], then close `store`, deleting its spill directory.
    *
    * @param threads WriteIndexWorker count (1 = NoWPara ablation)
    */
  def write(tree: HerculesTree, store: SeriesStore, threads: Int = 1): HerculesIndex = {
    val cfg = tree.cfg
    val len = cfg.seriesLength
    val leaves = tree.root.leavesInorder
    var pos = 0
    leaves.foreach { leaf =>
      leaf.filePos = pos
      leaf.leafSize = leaf.count
      pos += leaf.count
    }
    val n = pos
    val lrd = new Array[Float](n * len)
    val idsArr = new Array[Long](n)
    val isax = ISax(cfg)
    val hercules = tree.mode == BuildMode.Hercules
    val lsd = if (hercules) new Array[Byte](n * isax.segments) else null

    try Par.claim(math.max(1, threads), leaves.length) { (_, j) =>
      processLeaf(leaves(j), store, lrd, idsArr, lsd, isax, len, hercules)
    } finally store.close()

    // WriteIndexTree: fix subtree counts (post-order) and drop build state.
    def finish(node: Node): Int =
      if (node.isLeaf) { node.count }
      else {
        node.count = finish(node.left) + finish(node.right)
        node.count
      }
    finish(tree.root)

    new HerculesIndex(cfg, tree.root, lrd, idsArr, lsd, n)
  }

  /** ProcessLeaf of Algorithm 7: materialize + summarize + fix ancestors. */
  private def processLeaf(leaf: Node, store: SeriesStore, lrd: Array[Float],
                          idsArr: Array[Long], lsd: Array[Byte], isax: ISax,
                          len: Int, rebuildSynopses: Boolean): Unit = {
    val vals = store.gather(leaf)
    require(vals.length == leaf.count, s"leaf ${leaf.id}: ${vals.length} != ${leaf.count}")
    var i = 0
    while (i < vals.length) {
      val (sid, s) = vals(i)
      val at = leaf.filePos + i
      System.arraycopy(s, 0, lrd, at * len, len)
      idsArr(at) = sid
      if (lsd != null) System.arraycopy(isax.word(s), 0, lsd, at * isax.segments, isax.segments)
      i += 1
    }
    store.dropSpill(leaf)
    leaf.slots = null
    leaf.unsplittableAs = null

    if (rebuildSynopses && leaf.parent != null) {
      // Segments of this leaf, keyed by their (start, end) range.
      val leafSegs = new java.util.HashMap[Long, Integer]
      var j = 0
      while (j < leaf.segCount) {
        leafSegs.put(leaf.segStart(j).toLong << 32 | leaf.ends(j), j)
        j += 1
      }
      // Destroyed ranges to recompute from raw data: (node, segIdx, st, en).
      val destroyed = new ArrayBuffer[(Node, Int, Int, Int)]
      var a = leaf.parent
      while (a != null) {
        a.synchronized {
          var k = 0
          while (k < a.segCount) {
            val st = a.segStart(k)
            val en = a.ends(k)
            val mine = leafSegs.get(st.toLong << 32 | en)
            if (mine != null) // HSplitSynopsis
              a.widen(k, leaf.muMin(mine), leaf.muMax(mine), leaf.sdMin(mine), leaf.sdMax(mine))
            else destroyed += ((a, k, st, en))
            k += 1
          }
        }
        a = a.parent
      }
      if (destroyed.nonEmpty) {
        // VSplitSynopsis: the members' SeriesCtx read once per distinct
        // destroyed range, folded locally, then one locked update per node.
        val ctxs = vals.map { case (_, s) => new SeriesCtx(s) }
        destroyed.groupBy(d => (d._3, d._4)).foreach { case ((st, en), entries) =>
          var mMin = Double.PositiveInfinity
          var mMax = Double.NegativeInfinity
          var sMin = Double.PositiveInfinity
          var sMax = Double.NegativeInfinity
          ctxs.foreach { sc =>
            val m = sc.mean(st, en)
            val sd = sc.sd(st, en)
            if (m < mMin) mMin = m
            if (m > mMax) mMax = m
            if (sd < sMin) sMin = sd
            if (sd > sMax) sMax = sd
          }
          entries.foreach { case (node, k, _, _) =>
            node.synchronized(node.widen(k, mMin, mMax, sMin, sMax))
          }
        }
      }
    }
  }
}
