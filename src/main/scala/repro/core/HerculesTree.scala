package repro.core

import java.util.concurrent.atomic.AtomicInteger

/** Split-policy selection (§3.2): evaluates every H-split and V-split
  * candidate on the actual leaf contents and keeps the one maximizing the
  * "QoS" *gain* — the reduction, from the undivided node to the weighted
  * children, of the per-segment squared synopsis ranges measured on the
  * candidate's own child segmentation (the DSTree heuristic family: tighter
  * child ranges ⇒ tighter `LB_EAPCA`). Measuring before and after on the
  * same segmentation is what lets V-splits compete fairly with H-splits:
  * z-normalized series are indistinguishable on the whole-series segment
  * (μ=0, σ=1), so the root must discover sub-segment structure.
  *
  * Each segment's per-series mean and sd are computed once, into a `Column`,
  * from running sums that one pass over each member takes at every cut point
  * the candidates read ([[Sums]]); a candidate segmentation is a list of
  * columns (the node's own, with one of them halved for a V-split). The
  * undivided node's QoS is summed once per segmentation, and each candidate
  * scores both children in one pass over the columns. The winner's columns
  * then route the members and give the children's synopses.
  */
object SplitPolicy {

  /** Per-member mean and sd of the segment `[from, until)`, both cut points
    * of `sums`, and their min/max over the members (also [[IndexWriter]]'s
    * VSplitSynopsis fold).
    */
  private[core] final class Column(sums: Sums, from: Int, until: Int) {
    val len: Int = until - from
    val mu = new Array[Double](sums.rho)
    val sd = new Array[Double](sums.rho)
    var muMin, sdMin = Double.PositiveInfinity
    var muMax, sdMax = Double.NegativeInfinity
    locally {
      val a = java.util.Arrays.binarySearch(sums.cuts, from)
      val b = java.util.Arrays.binarySearch(sums.cuts, until)
      require(a >= 0 && b >= 0, s"[$from, $until) is not between cut points")
      var i = 0
      while (i < sums.rho) {
        val m = sums.mean(i, a, b)
        val s = sums.sd(i, a, b)
        mu(i) = m
        sd(i) = s
        if (m < muMin) muMin = m
        if (m > muMax) muMax = m
        if (s < sdMin) sdMin = s
        if (s > sdMax) sdMax = s
        i += 1
      }
    }
  }

  /** The winning split of a node's members and its columns, one per segment
    * of the children's segmentation.
    */
  private[core] final class Choice(val split: SplitInfo, val cols: Array[Column]) {

    /** True iff member `i` belongs to the left child. */
    def goesLeft(i: Int): Boolean = {
      val c = cols(split.routeSeg)
      split.goesLeft(if (split.useSd) c.sd(i) else c.mu(i))
    }

    /** Fold member `i`'s statistics into `child`'s synopsis. */
    def foldInto(child: Node, i: Int): Unit = {
      var j = 0
      while (j < cols.length) {
        val c = cols(j)
        child.widen(j, c.mu(i), c.mu(i), c.sd(i), c.sd(i))
        j += 1
      }
    }
  }

  /** The bounds of `node`'s segments and of their halves, in increasing
    * order: every cut point a candidate's columns read.
    */
  private[core] def cutsOf(node: Node): Array[Int] = {
    val out = Array.newBuilder[Int]
    out += 0
    var seg = 0
    while (seg < node.segCount) {
      val st = node.segStart(seg)
      val en = node.ends(seg)
      if (en - st >= 2) out += (st + en) / 2
      out += en
      seg += 1
    }
    out.result()
  }

  /** `q` plus one segment's QoS term: its length times the squared ranges of
    * mean and sd (nothing when no series fell on this side).
    */
  private def addQos(q: Double, len: Int, muMin: Double, muMax: Double,
                     sdMin: Double, sdMax: Double): Double =
    if (muMin.isPosInfinity) q
    else {
      val dm = muMax - muMin
      val ds = sdMax - sdMin
      q + len * (dm * dm + ds * ds)
    }

  /** Pick the best split for a full leaf holding `series`. */
  def choose(node: Node, series: IndexedSeq[Array[Float]]): Option[SplitInfo] = {
    val sums = new Sums(cutsOf(node), series.length)
    series.indices.foreach(i => sums.fill(i, series(i), 0))
    choose(node, sums).map(_.split)
  }

  /** Pick the best split for a full leaf whose members' running sums at
    * [[cutsOf]] the node are `sums`, or None when they are indistinguishable
    * under every candidate statistic (the leaf is then allowed to exceed
    * capacity instead of splitting forever).
    */
  private[core] def choose(node: Node, sums: Sums): Option[Choice] = {
    val rho = sums.rho
    // Members of the left child, then of the right, each in input order.
    val order = new Array[Int](rho)

    var best: Choice = null
    var bestGain = Double.NegativeInfinity

    def nodeQos(cols: Array[Column]): Double =
      cols.foldLeft(0.0)((q, c) => addQos(q, c.len, c.muMin, c.muMax, c.sdMin, c.sdMax))

    def countBelow(stats: Array[Double], value: Double): Int = {
      var cnt = 0
      var i = 0
      while (i < rho) { if (stats(i) < value) cnt += 1; i += 1 }
      cnt
    }

    /** Min/max of mean and sd over the members `order[from, until)` in
      * column `c`, folded into `q` as one QoS term.
      */
    def addSide(q: Double, c: Column, from: Int, until: Int): Double = {
      val mu = c.mu
      val sd = c.sd
      var muMin, sdMin = Double.PositiveInfinity
      var muMax, sdMax = Double.NegativeInfinity
      var k = from
      while (k < until) {
        val i = order(k)
        val m = mu(i)
        val s = sd(i)
        if (m < muMin) muMin = m
        if (m > muMax) muMax = m
        if (s < sdMin) sdMin = s
        if (s > sdMax) sdMax = s
        k += 1
      }
      addQos(q, c.len, muMin, muMax, sdMin, sdMax)
    }

    def consider(vertical: Boolean, childEnds: Array[Int], cols: Array[Column], before: Double,
                 routeSeg: Int, useSd: Boolean): Unit = {
      val stats = if (useSd) cols(routeSeg).sd else cols(routeSeg).mu
      var i = 0
      var mn = Double.PositiveInfinity
      var mx = Double.NegativeInfinity
      while (i < rho) {
        val v = stats(i)
        if (v < mn) mn = v
        if (v > mx) mx = v
        i += 1
      }
      if (mx <= mn) return // cannot separate on this stat
      var value = (mn + mx) / 2.0 // midrange, as in the paper's H-split
      var leftCnt = countBelow(stats, value)
      if (leftCnt == 0 || leftCnt == rho) {
        // Skewed: midrange leaves a side empty; fall back to the second
        // distinct value so both children are non-empty.
        val distinct = stats.distinct.sorted
        value = distinct(1)
        leftCnt = countBelow(stats, value)
      }
      var l = 0
      var r = leftCnt
      i = 0
      while (i < rho) {
        if (stats(i) < value) { order(l) = i; l += 1 }
        else { order(r) = i; r += 1 }
        i += 1
      }
      // Both children's QoS on the candidate's segmentation, in one pass.
      var qL = 0.0
      var qR = 0.0
      var j = 0
      while (j < cols.length) {
        qL = addSide(qL, cols(j), 0, leftCnt)
        qR = addSide(qR, cols(j), leftCnt, rho)
        j += 1
      }
      val gain = before - (leftCnt.toDouble / rho * qL + (rho - leftCnt).toDouble / rho * qR)
      if (gain > bestGain) {
        bestGain = gain
        best = new Choice(SplitInfo(vertical, childEnds, routeSeg, useSd, value), cols)
      }
    }

    val base = Array.tabulate(node.segCount)(s => new Column(sums, node.segStart(s), node.ends(s)))
    val baseQos = nodeQos(base)
    var seg = 0
    while (seg < node.segCount) {
      val st = node.segStart(seg)
      val en = node.ends(seg)
      consider(vertical = false, node.ends, base, baseQos, seg, useSd = false)
      consider(vertical = false, node.ends, base, baseQos, seg, useSd = true)
      if (en - st >= 2) {
        val mid = (st + en) / 2
        val vEnds = (node.ends.take(seg) :+ mid) ++ node.ends.drop(seg)
        val vCols = (base.take(seg) :+ new Column(sums, st, mid) :+ new Column(sums, mid, en)) ++
          base.drop(seg + 1)
        val vQos = nodeQos(vCols)
        consider(vertical = true, vEnds, vCols, vQos, seg, useSd = false)
        consider(vertical = true, vEnds, vCols, vQos, seg, useSd = true)
        consider(vertical = true, vEnds, vCols, vQos, seg + 1, useSd = false)
        consider(vertical = true, vEnds, vCols, vQos, seg + 1, useSd = true)
      }
      seg += 1
    }
    Option(best)
  }
}

/** The Hercules index tree (§3.2) with the insertion paths of §3.3. The
  * mode picks the one insert path: lock-free routing with leaf-only locking
  * (Algorithm 5) for Hercules, or root-to-leaf path locking that keeps every
  * path synopsis for DSTree*P (and DSTree* on one thread).
  */
final class HerculesTree(val cfg: IndexConfig, val mode: BuildMode) {
  private val nextId = new AtomicInteger(0)
  private val attempts = new AtomicInteger(0)
  private val failed = new AtomicInteger(0)

  /** Root starts as a single-segment leaf over the whole series. */
  val root: Node = newNode(Array(cfg.seriesLength))

  private def newNode(ends: Array[Int]): Node = new Node(ends, nextId.getAndIncrement())

  /** Insert the series loaded in `sc` into `worker`'s HBuffer region, as
    * the mode says. `sc` serves every routing step and synopsis update.
    */
  def insert(id: Long, sc: SeriesCtx, worker: Int, store: SeriesStore): Unit = mode match {
    case BuildMode.Hercules   => insertLeafLocked(id, sc, worker, store)
    case BuildMode.PathLocked => insertPathLocked(root, id, sc, worker, store)
  }

  /** Algorithm 5: route, lock the leaf, re-check leafness, append, and split
    * when full. Only the leaf is locked; internal synopses are deferred to
    * index writing.
    */
  private def insertLeafLocked(id: Long, sc: SeriesCtx, worker: Int, store: SeriesStore): Unit = {
    while (true) {
      val leaf = root.leafFor(sc)
      leaf.synchronized {
        if (leaf.isLeaf) {
          appendToLeaf(leaf, id, sc, worker, store)
          return
        }
      }
      // Lost a race with a split of this leaf: re-route (Algorithm 5 loop).
    }
  }

  /** DSTree*P insert below `n`: holds the monitor of every node from `n`
    * down to the leaf (taken in root→leaf order, so deadlock-free) and
    * updates each internal node's synopsis on the way, the work Hercules
    * defers to index writing (Fig. 12a). A node whose monitor is held cannot
    * split, so the insert never re-routes.
    */
  private def insertPathLocked(n: Node, id: Long, sc: SeriesCtx, worker: Int, store: SeriesStore): Unit =
    n.synchronized {
      if (n.isLeaf) appendToLeaf(n, id, sc, worker, store)
      else {
        n.updateSynopsis(sc)
        insertPathLocked(if (n.split.goesLeft(sc)) n.left else n.right, id, sc, worker, store)
      }
    }

  /** Append under the leaf lock; update the leaf synopsis; split when full.
    * A leaf whose last split attempt failed is not retried while arriving
    * series equal its first member: a copy of a member changes no candidate's
    * min/max, so [[SplitPolicy.choose]] would return None again.
    */
  private def appendToLeaf(leaf: Node, id: Long, sc: SeriesCtx, worker: Int, store: SeriesStore): Unit = {
    leaf.updateSynopsis(sc)
    leaf.slots += store.alloc(worker, id, sc.series)
    leaf.count += 1
    if (leaf.count >= cfg.leafCapacity &&
        (leaf.unsplittableAs == null || !java.util.Arrays.equals(leaf.unsplittableAs, sc.series)))
      splitLeaf(leaf, store)
  }

  /** Split a full leaf (Algorithm 5 lines 9–14): take its members' running
    * sums in one pass each (HBuffer slots in place, spilled records as the
    * log returns them), choose the best policy from them, create two
    * children, and hand each member's SBuffer slot or record number to its
    * child. The winner's columns route the members and give the children's
    * synopses.
    */
  private def splitLeaf(leaf: Node, store: SeriesStore): Unit = {
    attempts.incrementAndGet()
    val spilled = leaf.spilled
    val memSlots = leaf.slots
    val sums = new Sums(SplitPolicy.cutsOf(leaf), spilled.length + memSlots.length)
    var first: Array[Float] = null
    var i = 0
    store.foreachMember(leaf) { (_, src, off) =>
      if (i == 0) first = java.util.Arrays.copyOfRange(src, off, off + cfg.seriesLength)
      sums.fill(i, src, off)
      i += 1
    }
    SplitPolicy.choose(leaf, sums) match {
      case None => // indistinguishable contents: tolerate an oversized leaf
        failed.incrementAndGet()
        leaf.unsplittableAs = first
      case Some(choice) =>
        val l = newNode(choice.split.childEnds)
        val r = newNode(choice.split.childEnds)
        l.parent = leaf
        r.parent = leaf
        // Every member stays where it is, in the log or the HBuffer.
        var m = 0
        while (m < sums.rho) {
          val child = if (choice.goesLeft(m)) l else r
          if (m < spilled.length) child.spilled += spilled(m)
          else child.slots += memSlots(m - spilled.length)
          choice.foldInto(child, m)
          child.count += 1
          m += 1
        }
        leaf.slots = null
        leaf.spilled = null
        leaf.unsplittableAs = null
        leaf.split = choice.split
        leaf.left = l
        leaf.right = r
        leaf.isLeaf = false // volatile store last: publishes the split safely
    }
  }

  /** Split attempts so far, failed ones included. */
  def splitAttempts: Int = attempts.get()

  /** Split attempts that found the leaf unsplittable. */
  def failedSplits: Int = failed.get()

  /** Number of leaves currently in the tree. */
  def leafCount: Int = root.leavesInorder.size
}
