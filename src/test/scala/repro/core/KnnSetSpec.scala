package repro.core

import java.util.Random
import org.scalatest.funsuite.AnyFunSuite

/** Bounded k-NN result set: ordering, bound maintenance, tie-breaks. */
class KnnSetSpec extends AnyFunSuite {

  test("empty set has infinite bound and no answers") {
    val s = new KnnSet(3)
    assert(s.bsf.isPosInfinity)
    assert(s.toArray.isEmpty)
  }

  test("fills up to k then evicts the worst") {
    val s = new KnnSet(2)
    assert(s.add(5.0, 1))
    assert(s.add(3.0, 2))
    assert(s.bsf == 5.0)
    assert(s.add(4.0, 3)) // evicts 5.0
    assert(s.bsf == 4.0)
    assert(!s.add(9.0, 4))
    assert(s.toArray.map(_.id).toSeq == Seq(2L, 3L))
  }

  test("ties break on smaller id") {
    val s = new KnnSet(2)
    s.add(1.0, 10)
    s.add(1.0, 5)
    s.add(1.0, 7)
    assert(s.toArray.map(_.id).toSeq == Seq(5L, 7L))
  }

  for (seed <- 1 to 8)
    test(s"matches sorting the full candidate list (seed $seed)") {
      val rng = new Random(seed)
      val cands = Array.fill(200)((rng.nextDouble() * 100, rng.nextInt(1000).toLong))
      val k = 1 + rng.nextInt(10)
      val s = new KnnSet(k)
      cands.foreach { case (d, i) => s.add(d, i) }
      val expect = cands.toSeq.distinct.sortBy { case (d, i) => (d, i) }.take(k)
      val got = s.toArray.toSeq.map(n => (n.dist2, n.id))
      // the set keeps duplicates of (d,id) only once per insertion order; feed distinct
      val s2 = new KnnSet(k)
      expect.foreach { case (d, i) => s2.add(d, i) }
      assert(got.take(expect.length).zip(expect).forall { case ((d1, i1), (d2, i2)) =>
        d1 == d2 && i1 == i2
      })
    }

  test("addAll merges partition results exactly") {
    val parts = Seq(
      Seq(Neighbor(1, 4.0), Neighbor(2, 9.0)),
      Seq(Neighbor(3, 1.0), Neighbor(4, 16.0)),
      Seq(Neighbor(5, 2.25)),
    )
    val s = new KnnSet(3)
    parts.foreach(s.addAll)
    assert(s.toArray.map(_.id).toSeq == Seq(3L, 5L, 1L))
  }

  test("concurrent add keeps the exact top-k") {
    val distinct = (0 until 2000).map(i => (i * 0.5 + 1, i.toLong))
    // every offer ties the kth distance; only the tie-break on id may decide
    val tied = new scala.util.Random(5).shuffle((0L until 2000L).toVector).map(i => (1.0, i))
    for (all <- Seq(distinct, tied)) {
      val s = new KnnSet(5)
      Par.run(4) { t =>
        all.drop(t).grouped(4).foreach(g => g.headOption.foreach { case (d, i) => s.add(d, i) })
      }
      // every element was offered by some thread; expected top-5 = smallest 5 by (dist2, id)
      val expect = all.sorted.take(5).map(_._2)
      assert(s.toArray.map(_.id).toSeq == expect)
    }
  }
}
