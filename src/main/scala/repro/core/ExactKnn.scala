package repro.core

import scala.collection.mutable.ArrayBuffer

/** Query answering (§3.4, Algorithms 10–14).
  *
  * Step 1 — approximate search: a priority queue ordered by `LB_EAPCA` guides
  * the traversal; at most `Lmax` leaves are visited with real-distance scans.
  * Step 2 — candidate leaves: the subtrees left in the queue are walked
  * for the leaves the BSF admits, which form LCList (sorted by LRDFile
  * position); if EAPCA pruning is below `EAPCA_TH` a single-thread
  * skip-sequential scan finishes the query.
  * Step 3 — candidate series: parallel workers filter LCList's series with
  * `LB_SAX`, read from a table built once per query, into per-thread
  * SCLists; if SAX pruning is below `SAX_TH` a skip-sequential scan finishes
  * the query.
  * Step 4 — parallel refinement of SCList with early-abandoning real
  * distances and an atomically-updated result set.
  */
object ExactKnn {

  /** Exact k-NN of `q` over `idx` under `knobs` into `results`; fills
    * `stats`.
    */
  def search(idx: HerculesIndex, q: Array[Float], knobs: QueryKnobs, stats: QueryStats,
             results: KnnSet): Array[Neighbor] = {
    require(q.length == idx.cfg.seriesLength)
    val refiner = new Refiner(idx, q, results, stats)
    val pq = new EapcaQueue(new SeriesCtx(q), results)
    pq.push(idx.root)

    // ---- Step 1: Approx-kNN (Algorithm 11) ----
    var visited = 0
    val exactDone = pq.run { (leaf, _) =>
      refiner.scan(leaf.positions)
      visited += 1
      stats.leavesVisited.incrementAndGet()
      visited < knobs.lmax
    }
    if (exactDone) return results.toArray

    // ---- Step 2: FindCandidateLeaves (Algorithm 12) ----
    val lcSorted = pq.collect().sortBy(_._1.filePos)
    stats.candidateLeaves = lcSorted.size
    val eapcaPr = 1.0 - lcSorted.size.toDouble / math.max(1, idx.totalLeaves)
    if (knobs.useThresholds && eapcaPr < knobs.eapcaTh) {
      // Skip-sequential scan in LRDFile order, re-checking each leaf's bound
      // against the evolving BSF.
      lcSorted.foreach { case (leaf, lb2) =>
        if (Refiner.admits(lb2, results.bsf)) refiner.scan(leaf.positions)
      }
      stats.skipSeqEapca = true
      return results.toArray
    }

    // ---- Step 3: FindCandidateSeries (Algorithm 13) ----
    val ranges = lcSorted.map(_._1.positions)
    val locals =
      if (!knobs.useSax || idx.lsd == null) {
        // NoSAX ablation: every series of every candidate leaf goes straight
        // to refinement, carrying its leaf's EAPCA bound.
        refiner.filter(ranges, knobs.threads)((r, _) => lcSorted(r)._2)
      } else {
        val table = idx.isax.queryTable(idx.isax.paa(q))
        val segs = idx.isax.segments
        val found = refiner.filter(ranges, knobs.threads)((_, i) => table.lb2(idx.lsd, i * segs))
        stats.saxChecked.addAndGet(ranges.iterator.map(_.length.toLong).sum)
        val scCount = found.iterator.map(_.size.toLong).sum
        stats.candidateSeries = scCount
        val saxPr = 1.0 - scCount.toDouble / math.max(1L, idx.nSeries.toLong)
        if (knobs.useThresholds && saxPr < knobs.saxTh) {
          // Skip-sequential refinement of SCList in LRDFile order, one thread.
          refiner.refine(Vector(Refiner.inOrder(found)))
          stats.skipSeqSax = true
          return results.toArray
        }
        found
      }

    // ---- Step 4: ComputeResults (Algorithm 14) ----
    refiner.refine(locals)
    results.toArray
  }
}

/** Best-first traversal of an EAPCA tree by squared `LB_EAPCA` (the
  * priority queue of Algorithms 11–12 and of DSTree*'s exact search), with
  * bounds compared to the BSF of `results` without taking roots.
  */
final class EapcaQueue(qc: SeriesCtx, results: KnnSet) {
  import EapcaQueue.Entry
  private val pq = new java.util.PriorityQueue[Entry](64,
    (a: Entry, b: Entry) => java.lang.Double.compare(a.lb2, b.lb2))

  /** Queue `node` if its bound admits it against the current BSF. */
  def push(node: Node): Unit = {
    val lb2 = Eapca.lb2(qc, node)
    if (Refiner.admits(lb2, results.bsf)) pq.add(new Entry(node, lb2))
  }

  /** Poll nodes best first, pushing the children of internal nodes and
    * passing leaves with their bound to `leaf`, which returns false to pause.
    * Returns true once the traversal is over: the queue is empty or its best
    * bound exceeds the BSF, so every node left is pruned.
    */
  def run(leaf: (Node, Double) => Boolean): Boolean = {
    var going = true
    while (going && !pq.isEmpty) {
      val e = pq.poll()
      if (e.lb2 > results.bsf) return true
      if (e.node.isLeaf) going = leaf(e.node, e.lb2)
      else { push(e.node.left); push(e.node.right) }
    }
    pq.isEmpty
  }

  /** Every leaf that the queued nodes' subtrees hold and the BSF admits,
    * with its bound, in no set order; empties the queue. For a BSF that does
    * not move meanwhile (no insert into `results`), these are the leaves
    * that draining [[run]] passes, but without a heap: an explicit stack
    * walks the subtrees, testing each node's bound once, when it is visited.
    */
  def collect(): ArrayBuffer[(Node, Double)] = {
    val out = new ArrayBuffer[(Node, Double)]
    val stack = new java.util.ArrayDeque[Entry](pq)
    pq.clear()
    val bsf = results.bsf
    while (!stack.isEmpty) {
      val e = stack.pop()
      if (Refiner.admits(e.lb2, bsf)) {
        if (e.node.isLeaf) out += ((e.node, e.lb2))
        else {
          stack.push(new Entry(e.node.left, Eapca.lb2(qc, e.node.left)))
          stack.push(new Entry(e.node.right, Eapca.lb2(qc, e.node.right)))
        }
      }
    }
    out
  }
}

object EapcaQueue {
  private final class Entry(val node: Node, val lb2: Double)
}
