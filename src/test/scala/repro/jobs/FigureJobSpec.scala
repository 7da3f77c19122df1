package repro.jobs

import org.scalatest.funsuite.AnyFunSuite

/** FigureJob's argument parsing: a figure name and an optional positive scale. */
class FigureJobSpec extends AnyFunSuite {

  test("parse reads a figure and an optional --scale") {
    assert(FigureJob.parse(Seq("fig6")) == Some(("fig6", 1.0)))
    assert(FigureJob.parse(Seq("fig9-10", "--scale", "0.01")) == Some(("fig9-10", 0.01)))
  }

  test("parse rejects a missing, unparsable, NaN, infinite or non-positive scale") {
    for (bad <- Seq(Seq("--scale"), Seq("--scale", "x"), Seq("--scale", "NaN"), Seq("--scale", "Infinity"),
                    Seq("--scale", "0"), Seq("--scale", "-1")))
      assert(FigureJob.parse("fig6" +: bad).isEmpty, bad.mkString(" "))
  }

  test("parse rejects an unknown figure, a missing figure and an unknown argument") {
    for (bad <- Seq(Seq(), Seq("fig5"), Seq("--scale", "1"), Seq("fig6", "--threads", "2"),
                    Seq("fig6", "extra"), Seq("fig6", "--scale", "1", "extra")))
      assert(FigureJob.parse(bad).isEmpty, bad.mkString(" "))
  }
}
