package repro.core

import scala.collection.mutable.ArrayBuffer

/** Split policy of an internal node (§3.2).
  *
  * For an H-split `childEnds` equals the parent segmentation; for a V-split
  * one parent segment is halved. Routing evaluates the mean (or sd) of the
  * child segment `routeSeg` and sends the series left iff `stat < value`.
  *
  * @param vertical  true for a V-split (children gain one segment)
  * @param childEnds children's segmentation (right-exclusive endpoints)
  * @param routeSeg  index into `childEnds` of the segment the split tests
  * @param useSd     route on the standard deviation instead of the mean
  * @param value     split point (midrange or median of the routing stat)
  */
final case class SplitInfo(
    vertical: Boolean,
    childEnds: Array[Int],
    routeSeg: Int,
    useSd: Boolean,
    value: Double,
) {

  /** Routing statistic of the series behind `sc` for this split. */
  def statOf(sc: SeriesCtx): Double = {
    val from = if (routeSeg == 0) 0 else childEnds(routeSeg - 1)
    val until = childEnds(routeSeg)
    if (useSd) sc.sd(from, until) else sc.mean(from, until)
  }

  /** True iff the series behind `sc` belongs to the left child. */
  def goesLeft(sc: SeriesCtx): Boolean = statOf(sc) < value
}

/** A Hercules/DSTree tree node (§3.2, Fig. 2).
  *
  * Every node owns a segmentation `ends` of `[0, seriesLength)` and a
  * synopsis per segment: min/max of the member series' per-segment mean and
  * standard deviation. Leaves additionally own build-time storage: a SBuffer
  * of HBuffer slot indices plus the numbers of their records in the HBuffer's
  * spill log (§3.3), replaced after index writing by a position/extent in
  * LRDFile.
  */
final class Node(val ends: Array[Int], val id: Int) extends Serializable {
  /** Leaf flag; volatile so lock-free routing safely observes splits. */
  @volatile var isLeaf: Boolean = true

  /** Series stored in this leaf (leaves) / in the subtree (after writing). */
  var count: Int = 0

  val segCount: Int = ends.length
  val muMin: Array[Double] = Array.fill(segCount)(Double.PositiveInfinity)
  val muMax: Array[Double] = Array.fill(segCount)(Double.NegativeInfinity)
  val sdMin: Array[Double] = Array.fill(segCount)(Double.PositiveInfinity)
  val sdMax: Array[Double] = Array.fill(segCount)(Double.NegativeInfinity)

  var split: SplitInfo = _
  var left: Node = _
  var right: Node = _
  var parent: Node = _

  // Build-time leaf storage (dropped before serialization by IndexWriter).
  @transient var slots: IntList = new IntList
  /** Numbers of the leaf's spilled records in the spill log, increasing. */
  @transient var spilled: IntList = new IntList
  /** The leaf's first member when its last split attempt failed. */
  @transient var unsplittableAs: Array[Float] = _

  // After index writing: first series index and extent in LRDFile.
  var filePos: Int = -1
  var leafSize: Int = 0

  /** LRDFile positions of a written leaf's series. */
  def positions: Range = filePos until filePos + leafSize

  /** The leaf of this subtree that the split policies route the series
    * behind `sc` to (no locks; relies on `isLeaf` volatile publication of
    * splits).
    */
  def leafFor(sc: SeriesCtx): Node = {
    var n = this
    while (!n.isLeaf) n = if (n.split.goesLeft(sc)) n.left else n.right
    n
  }

  /** Start of segment `i` of this node's segmentation. */
  def segStart(i: Int): Int = if (i == 0) 0 else ends(i - 1)

  /** Fold one member series' per-segment stats into this node's synopsis. */
  def updateSynopsis(sc: SeriesCtx): Unit = {
    var i = 0
    while (i < segCount) {
      val m = sc.mean(segStart(i), ends(i))
      val sd = sc.sd(segStart(i), ends(i))
      widen(i, m, m, sd, sd)
      i += 1
    }
  }

  /** Widen segment `i`'s synopsis to cover means in `[muLo, muHi]` and sds
    * in `[sdLo, sdHi]`: the one min/max fold of every synopsis update.
    */
  def widen(i: Int, muLo: Double, muHi: Double, sdLo: Double, sdHi: Double): Unit = {
    if (muLo < muMin(i)) muMin(i) = muLo
    if (muHi > muMax(i)) muMax(i) = muHi
    if (sdLo < sdMin(i)) sdMin(i) = sdLo
    if (sdHi > sdMax(i)) sdMax(i) = sdHi
  }

  /** Nodes of this subtree in preorder, left child first, found with a loop
    * so that a tree of any depth is walked.
    */
  def preorder: ArrayBuffer[Node] = {
    val out = new ArrayBuffer[Node]
    val stack = new java.util.ArrayDeque[Node]
    stack.push(this)
    while (!stack.isEmpty) {
      val n = stack.pop()
      out += n
      if (!n.isLeaf) { stack.push(n.right); stack.push(n.left) }
    }
    out
  }

  /** Leaves of this subtree, left-to-right (inorder leaf order → LRDFile order). */
  def leavesInorder: ArrayBuffer[Node] = preorder.filter(_.isLeaf)
}

/** A growable list of ints that does not box them: a leaf's SBuffer slots
  * and spill-log record numbers.
  */
final class IntList {
  private var elems = new Array[Int](4)
  private var size = 0

  def length: Int = size
  def isEmpty: Boolean = size == 0
  def nonEmpty: Boolean = size != 0

  def apply(i: Int): Int = {
    if (i >= size) throw new IndexOutOfBoundsException(s"$i of $size")
    elems(i)
  }

  def +=(x: Int): this.type = {
    if (size == elems.length) elems = java.util.Arrays.copyOf(elems, 2 * size)
    elems(size) = x
    size += 1
    this
  }

  def clear(): Unit = size = 0
}
