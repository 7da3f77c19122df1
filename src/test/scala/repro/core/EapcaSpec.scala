package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil

/** LB_EAPCA: validity against node synopses of arbitrary segmentations. */
class EapcaSpec extends AnyFunSuite {

  private def leafWith(ends: Array[Int], members: Seq[Array[Float]]): Node = {
    val n = new Node(ends, 0)
    members.foreach(s => n.updateSynopsis(new SeriesCtx(s)))
    n
  }

  test("empty node never prunes (lb 0)") {
    val n = new Node(Array(32), 0)
    val q = SeriesGen.dataset("walk", 1, 32, 1)(0)
    assert(Eapca.lb2(new SeriesCtx(q), n) == 0.0)
  }

  test("query inside the synopsis ranges has lb 0") {
    val data = SeriesGen.dataset("walk", 10, 32, 2)
    val n = leafWith(Array(8, 16, 32), data.toSeq)
    assert(Eapca.lb2(new SeriesCtx(data(0)), n) == 0.0)
  }

  for (seed <- 1 to 10; segs <- Seq(Array(32), Array(16, 32), Array(8, 12, 20, 32)))
    test(s"LB_EAPCA lower-bounds true ED for every member (seed $seed, ${segs.length} segs)") {
      val data = SeriesGen.dataset(if (seed % 2 == 0) "walk" else "deep", 25, 32, seed)
      val n = leafWith(segs, data.toSeq)
      val q = SeriesGen.dataset("walk", 1, 32, seed + 77)(0)
      val lb2 = Eapca.lb2(new SeriesCtx(q), n)
      data.foreach { s =>
        val d = TestUtil.ed2(q, s)
        assert(lb2 <= d + 1e-6, s"lb2=$lb2 > ed2=$d")
      }
    }

  test("finer segmentation gives a tighter-or-equal bound on the same members") {
    val data = SeriesGen.dataset("walk", 20, 32, 5)
    val coarse = leafWith(Array(32), data.toSeq)
    val fine = leafWith(Array(8, 16, 24, 32), data.toSeq)
    for (qs <- 50 to 60) {
      val q = new SeriesCtx(SeriesGen.dataset("walk", 1, 32, qs)(0))
      assert(Eapca.lb2(q, coarse) <= Eapca.lb2(q, fine) + 1e-9)
    }
  }

  test("a distant query gets a strictly positive bound") {
    val data = SeriesGen.dataset("walk", 10, 32, 6)
    val n = leafWith(Array(16, 32), data.toSeq)
    val far = Array.fill(32)(100f) // far outside z-normalized walk ranges
    assert(Eapca.lb2(new SeriesCtx(far), n) > 0.0)
  }
}
