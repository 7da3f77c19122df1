package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalatest.funsuite.AnyFunSuite

/** `SplitPolicy.choose` picks exactly the split its per-candidate predecessor
  * ([[ReferenceSplitPolicy]]) picks: the same kind, segmentation, routing
  * segment and statistic, and a bit-equal split value — or None for both.
  */
class SplitPolicySpec extends AnyFunSuite {

  private val Len = 64

  /** A node segmentation of `[0, Len)` with `m` segments (some of length 1,
    * which admit no V-split).
    */
  private def segmentation(m: Int): Gen[Array[Int]] =
    if (m == 1) Gen.const(Array(Len))
    else Gen.pick(m - 1, 1 until Len).map(cuts => (cuts.sorted :+ Len).toArray)

  private def walk(seed: Long): Array[Float] = SeriesGen.seriesForId("walk", seed, Len, 11)

  /** Leaf contents of one kind: random walks, flat lines (z-normalized and
    * raw), exact duplicates of a few series, or a mix of them all.
    */
  private def leafSeries(rho: Int): Gen[IndexedSeq[Array[Float]]] = for {
    kind <- Gen.oneOf("walk", "flat", "dups", "mixed")
    seed <- Gen.choose(0L, 1L << 40)
    bases <- Gen.choose(1, 4)
    flatShare <- Gen.oneOf(0.1, 0.5)
  } yield {
    val rng = new java.util.Random(seed)
    def flat(i: Int): Array[Float] =
      if (i % 2 == 0) new Array[Float](Len) else Array.fill(Len)((i % 7).toFloat - 3f)
    IndexedSeq.tabulate(rho) { i =>
      kind match {
        case "walk" => walk(seed + i)
        case "flat" => if (rng.nextDouble() < flatShare) flat(0) else flat(i)
        case "dups" => walk(seed + rng.nextInt(bases)).clone
        case _ =>
          val u = rng.nextDouble()
          if (u < flatShare) flat(i) else if (u < 0.75) walk(seed + rng.nextInt(bases)) else walk(seed + i)
      }
    }
  }

  private def same(a: Option[SplitInfo], b: Option[SplitInfo]): Boolean = (a, b) match {
    case (None, None) => true
    case (Some(x), Some(y)) =>
      x.vertical == y.vertical && x.childEnds.sameElements(y.childEnds) && x.routeSeg == y.routeSeg &&
        x.useSd == y.useSd && java.lang.Double.compare(x.value, y.value) == 0
    case _ => false
  }

  private def describe(s: Option[SplitInfo]): String =
    s.fold("None")(p => s"SplitInfo(${p.vertical}, ${p.childEnds.mkString("[", ",", "]")}, " +
      s"${p.routeSeg}, ${p.useSd}, ${p.value})")

  private def check(segCounts: Gen[Int], minSuccessful: Int): Unit = {
    val prop = Prop.forAllNoShrink(for {
      m <- segCounts
      ends <- segmentation(m)
      cap <- Gen.choose(2, 32)
      rho <- Gen.choose(cap, 4 * cap)
      series <- leafSeries(rho)
    } yield (ends, series)) { case (ends, series) =>
      val node = new Node(ends, 0)
      val expected = ReferenceSplitPolicy.choose(node, series)
      val actual = SplitPolicy.choose(node, series)
      Prop(same(expected, actual)) :| s"expected ${describe(expected)}, got ${describe(actual)}"
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(minSuccessful).withInitialSeed(7L), prop)
    assert(result.passed, result.status match {
      case Test.Failed(_, labels) => labels.mkString("; ")
      case other => other.toString
    })
  }

  test("choose matches the reference on one-segment nodes") {
    check(Gen.const(1), 200)
  }

  test("choose matches the reference on nodes with 2 to 11 segments") {
    check(Gen.choose(2, 11), 200)
  }

  test("choose matches the reference on nodes with 12 or more segments") {
    check(Gen.choose(12, 24), 100)
  }

  test("choose matches the reference on the nodes of a build") {
    // Contents as the build meets them: each leaf, and each node whose
    // children are both leaves with the union of their series.
    val ids = Array.tabulate(2000)(_.toLong)
    val data = Array.tabulate(2000)(i => walk(i.toLong))
    val cfg = IndexConfig(seriesLength = Len, leafCapacity = 24, dbSize = 64)
    val (tree, store) = new ParallelBuilder(cfg, BuildMode.PathLocked).build(ids, data)
    try {
      def members(n: Node): IndexedSeq[Array[Float]] =
        n.leavesInorder.flatMap(store.gather).map(_._2).toIndexedSeq
      def walkTree(n: Node): Seq[Node] =
        if (n.isLeaf) Seq(n)
        else (if (n.left.isLeaf && n.right.isLeaf) Seq(n) else Nil) ++ walkTree(n.left) ++ walkTree(n.right)
      val nodes = walkTree(tree.root)
      assert(nodes.exists(_.segCount >= 4))
      nodes.foreach { n =>
        val series = members(n)
        val expected = ReferenceSplitPolicy.choose(n, series)
        val actual = SplitPolicy.choose(n, series)
        assert(same(expected, actual), s"node ${n.id}: expected ${describe(expected)}, got ${describe(actual)}")
      }
    } finally store.close()
  }
}
