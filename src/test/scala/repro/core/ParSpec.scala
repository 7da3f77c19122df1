package repro.core

import java.util.concurrent.atomic.AtomicInteger
import org.scalatest.funsuite.AnyFunSuite

/** The worker pool every parallel step runs on. */
class ParSpec extends AnyFunSuite {

  test("Par.run rethrows a worker's own exception once every worker has ended") {
    val ended = new AtomicInteger(0)
    val e = intercept[IllegalStateException] {
      Par.run(4) { t =>
        if (t == 0) throw new IllegalStateException("worker 0")
        Thread.sleep(50)
        ended.incrementAndGet()
      }
    }
    assert(e.getMessage == "worker 0")
    assert(ended.get == 3)
  }
}
