package repro.jobs

import java.nio.file.Files
import org.scalatest.funsuite.AnyFunSuite

/** QueryJob answers an index only with queries of the generator kind
  * BuildIndexJob recorded for it.
  */
class QueryJobSpec extends AnyFunSuite {

  test("kindFor defaults to the recorded kind and rejects another, naming both") {
    val dir = Files.createTempDirectory("hercules-index-")
    try {
      val at = dir.toString
      intercept[IllegalArgumentException](QueryJob.kindFor(at, None))
      BuildIndexJob.recordKind(at, "walk")
      assert(QueryJob.kindFor(at, None) == "walk")
      assert(QueryJob.kindFor(at, Some("walk")) == "walk")
      val e = intercept[IllegalArgumentException](QueryJob.kindFor(at, Some("seismic")))
      assert(e.getMessage.contains("'walk'") && e.getMessage.contains("'seismic'"), e.getMessage)
    } finally {
      Files.deleteIfExists(dir.resolve(BuildIndexJob.KindFile))
      Files.delete(dir)
    }
  }
}
