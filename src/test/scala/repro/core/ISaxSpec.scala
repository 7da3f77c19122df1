package repro.core

import java.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil

/** iSAX codec: breakpoints, symbols, PAA, and the LB_SAX lower bound. */
class ISaxSpec extends AnyFunSuite {

  private val isax = new ISax(64, 16, 256)

  test("invNormCdf is a valid quantile function") {
    assert(math.abs(ISax.invNormCdf(0.5)) < 1e-9)
    assert(math.abs(ISax.invNormCdf(0.975) - 1.959964) < 1e-4)
    assert(math.abs(ISax.invNormCdf(0.025) + 1.959964) < 1e-4)
    assert(ISax.invNormCdf(0.001) < -3.0 && ISax.invNormCdf(0.999) > 3.0)
  }

  test("breakpoints are strictly increasing and symmetric") {
    val bp = isax.breakpoints
    assert(bp.length == 255)
    bp.sliding(2).foreach(p => assert(p(0) < p(1)))
    bp.indices.foreach(i => assert(math.abs(bp(i) + bp(bp.length - 1 - i)) < 1e-6))
  }

  test("segment boundaries cover [0, n) exactly") {
    for (n <- Seq(16, 17, 64, 96, 100, 128); m <- Seq(4, 16)) {
      val s = new ISax(n, math.min(m, n), 256)
      assert(s.ends.head == 0 && s.ends.last == n)
      s.ends.sliding(2).foreach(p => assert(p(0) < p(1)))
    }
  }

  test("symbolOf maps values to the correct region") {
    assert(isax.symbolOf(-100.0) == 0)
    assert((isax.symbolOf(100.0) & 0xff) == 255)
    for (i <- 0 until 255) {
      val bp = isax.breakpoints(i)
      assert((isax.symbolOf(bp - 1e-9) & 0xff) == i)
      assert((isax.symbolOf(bp + 1e-9) & 0xff) == i + 1)
    }
  }

  test("paa of a constant series is constant") {
    val p = isax.paa(Array.fill(64)(2f))
    assert(p.forall(v => math.abs(v - 2.0) < 1e-6))
  }

  test("word round-trips through symbolOf(paa)") {
    val s = SeriesGen.dataset("walk", 1, 64, 7)(0)
    val p = isax.paa(s)
    val w = isax.word(s)
    p.indices.foreach(i => assert(w(i) == isax.symbolOf(p(i))))
  }

  test("lbSax2 is zero for the series' own word when PAA falls in-region") {
    val s = SeriesGen.dataset("walk", 1, 64, 9)(0)
    val w = isax.word(s)
    assert(isax.lbSax2(isax.paa(s), w, 0) == 0.0)
  }

  for (seed <- 1 to 10)
    test(s"LB_SAX lower-bounds the true squared ED (seed $seed)") {
      val rng = new Random(seed)
      val data = SeriesGen.dataset("walk", 20, 64, seed)
      val q = SeriesGen.dataset("walk", 1, 64, seed + 1000)(0)
      val paaQ = isax.paa(q)
      data.foreach { s =>
        val lb = isax.lbSax2(paaQ, isax.word(s), 0)
        val d = TestUtil.ed2(q, s)
        assert(lb <= d + 1e-6, s"lb=$lb > ed2=$d")
      }
      // also for non-walk shapes
      val g = Array.fill(64)((rng.nextGaussian()).toFloat)
      val lb = isax.lbSax2(paaQ, isax.word(g), 0)
      assert(lb <= TestUtil.ed2(q, g) + 1e-6)
    }

  for (len <- Seq(17, 33, 96))
    test(s"LB_SAX holds for uneven segment lengths (len $len)") {
      val s = new ISax(len, 16, 256)
      val data = SeriesGen.dataset("deep", 10, len, len)
      val q = SeriesGen.dataset("deep", 1, len, len + 5)(0)
      val paaQ = s.paa(q)
      data.foreach { x =>
        assert(s.lbSax2(paaQ, s.word(x), 0) <= TestUtil.ed2(q, x) + 1e-6)
      }
    }

  test("smaller cardinality gives looser (but valid) bounds") {
    val coarse = new ISax(64, 16, 16)
    val fine = new ISax(64, 16, 256)
    val data = SeriesGen.dataset("walk", 15, 64, 3)
    val q = SeriesGen.dataset("walk", 1, 64, 99)(0)
    data.foreach { x =>
      val lbC = coarse.lbSax2(coarse.paa(q), coarse.word(x), 0)
      val lbF = fine.lbSax2(fine.paa(q), fine.word(x), 0)
      val d = TestUtil.ed2(q, x)
      assert(lbC <= d + 1e-6 && lbF <= d + 1e-6)
      assert(lbC <= lbF + 1e-6) // finer alphabet can only tighten
    }
  }

  for (card <- Seq(4, 256))
    test(s"the query table equals lbSax2 for every segment and symbol (len 100, cardinality $card)") {
      val s = new ISax(100, 16, card)
      val rng = new Random(card)
      val bp = s.breakpoints
      // Walk PAAs, PAAs exactly on breakpoints, and PAAs far outside them.
      val paas = Seq.tabulate(3)(i => s.paa(SeriesGen.dataset("walk", 1, 100, card + i)(0))) ++
        Seq.tabulate(3)(i => Array.tabulate(16)(j => bp((i * 16 + j * 7) % bp.length))) :+
        Array.tabulate(16)(j => if (j % 2 == 0) -50.0 else 50.0)
      // Every symbol in every segment, then random words, packed at offsets.
      val words = (0 until card).map(sym => Array.fill(16)(sym.toByte)) ++
        Seq.fill(64)(Array.fill(16)(rng.nextInt(card).toByte))
      val packed = words.flatten.toArray
      paas.foreach { paaQ =>
        val table = s.queryTable(paaQ)
        words.indices.foreach { w =>
          assert(table.lb2(packed, w * 16) == s.lbSax2(paaQ, packed, w * 16),
            s"word ${words(w).map(_ & 0xff).mkString(",")} paa ${paaQ.mkString(",")}")
        }
      }
    }

  // The table reads whole groups of eight symbols per load, then the tail:
  // segment counts below, at and between multiples of 8 (3 and 5 through an
  // index config whose series are shorter than 8 points), words at odd
  // offsets, and symbols >= 128, whose bytes are negative.
  for ((len, segs) <- Seq((3, 3), (5, 5), (64, 8), (64, 12), (100, 16), (100, 20)))
    test(s"the query table equals lbSax2 at every word offset ($segs segments, len $len)") {
      val isax = if (len < 16) ISax(TestUtil.cfg(len)) else new ISax(len, segs, 256)
      assert(isax.segments == segs && isax.cardinality == 256)
      val rng = new Random(len * 31 + segs)
      val paas = Seq.tabulate(4)(i => isax.paa(SeriesGen.dataset("walk", 1, len, segs + i)(0))) :+
        Array.tabulate(segs)(j => if (j % 2 == 0) -50.0 else 50.0)
      val words = Seq(Array.fill(segs)(0.toByte), Array.fill(segs)(255.toByte), Array.fill(segs)(128.toByte),
        Array.tabulate(segs)(j => (128 + 127 * (j % 2)).toByte)) ++
        Seq.fill(40)(Array.fill(segs)(rng.nextInt(256).toByte))
      assert(words.exists(_.exists(b => (b & 0xff) >= 128)))
      for (pad <- 0 to 8) {
        val packed = Array.fill[Byte](pad)(rng.nextInt(256).toByte) ++ words.flatten
        paas.foreach { paaQ =>
          val table = isax.queryTable(paaQ)
          words.indices.foreach { w =>
            val off = pad + w * segs
            assert(table.lb2(packed, off) == isax.lbSax2(paaQ, packed, off),
              s"offset $off word ${words(w).map(_ & 0xff).mkString(",")}")
          }
        }
      }
    }

  /** Raw series of one adversarial family, none z-normalized: flat lines,
    * flat lines with 1e-3 noise, random walks and walks scaled by 1e-4, at
    * `offset`, each followed by a duplicate of itself.
    */
  private def adversarial(kind: String, offset: Double, n: Int, len: Int, rng: Random): Seq[Array[Float]] =
    Seq.fill(n) {
      val level = rng.nextGaussian()
      var walk = 0.0
      val s = Array.tabulate(len) { _ =>
        walk += rng.nextGaussian()
        kind match {
          case "flat"       => offset + level
          case "noisy-flat" => offset + level + 1e-3 * rng.nextGaussian()
          case "walk"       => offset + walk
          case "tiny-walk"  => offset + 1e-4 * walk
        }
      }.map(_.toFloat)
      Seq(s, s.clone())
    }.flatten

  for (kind <- Seq("flat", "noisy-flat", "walk", "tiny-walk"); offset <- Seq(0.0, 1e4, 1e6))
    test(s"the query table's LB_SAX never exceeds the computed distance ($kind at offset $offset)") {
      val rng = new Random(kind.hashCode * 31L + offset.toLong)
      for (len <- Seq(64, 100)) {
        val s = new ISax(len, 16, 256)
        val data = adversarial(kind, offset, 60, len, rng)
        val queries = data.take(10) ++ adversarial(kind, offset, 10, len, rng)
        queries.foreach { q =>
          val table = s.queryTable(s.paa(q))
          data.foreach { x =>
            val lb = table.lb2(s.word(x), 0)
            val d = Dist.ed2Flat(q, x, 0, Double.PositiveInfinity)
            assert(lb <= d, s"len $len: lb $lb > ed2 $d")
          }
        }
      }
    }
}
