package repro.core

/** A materialized Hercules index: the tree (HTree), the raw series in
  * inorder-leaf order (LRDFile), and their iSAX words in the same order
  * (LSDFile). In this reproduction the two "files" are flat in-memory arrays
  * (DESIGN.md §3 — the disk substrate is substituted by access counters).
  */
final class HerculesIndex(
    val cfg: IndexConfig,
    val root: Node,
    val lrd: Array[Float],
    val ids: Array[Long],
    val lsd: Array[Byte],
    val nSeries: Int,
) extends KnnIndex with FlatSeries {

  def len: Int = cfg.seriesLength

  /** iSAX codec matching LSDFile (rebuilt after deserialization). */
  @transient lazy val isax: ISax = ISax(cfg)

  /** Leaves in LRDFile order (rebuilt after deserialization). */
  @transient lazy val leaves: IndexedSeq[Node] = root.leavesInorder.toIndexedSeq

  /** Total leaf count. */
  def totalLeaves: Int = leaves.length

  /** Exact k-NN (Algorithm 10). */
  def knn(q: Array[Float], knobs: QueryKnobs, stats: QueryStats, results: KnnSet): Array[Neighbor] =
    ExactKnn.search(this, q, knobs, stats, results)
}

object HerculesIndex {

  /** One-call build pipeline: parallel build + index writing. */
  def build(ids: Array[Long], data: Array[Array[Float]], cfg: IndexConfig,
            mode: BuildMode = BuildMode.Hercules): HerculesIndex = {
    val (tree, store) = new ParallelBuilder(cfg, mode).build(ids, data)
    IndexWriter.write(tree, store, threads = cfg.writerThreads)
  }
}
