package repro.core

import java.util.concurrent.ExecutionException
import java.util.concurrent.atomic.AtomicInteger

/** Tiny shared thread-pool helper for the paper's worker-pool patterns. */
object Par {
  private lazy val pool = java.util.concurrent.Executors.newCachedThreadPool(
    (r: Runnable) => { val t = new Thread(r, "repro-par"); t.setDaemon(true); t })

  /** Run `body(0…threads-1)` concurrently and wait for every worker; inline
    * when threads==1. A worker's throw is rethrown, as itself, once all
    * have ended, so a caller's `finally` never runs under a live worker.
    */
  def run(threads: Int)(body: Int => Unit): Unit =
    if (threads <= 1) body(0)
    else {
      val futs = (0 until threads).map(t => pool.submit(new Runnable { def run(): Unit = body(t) }))
      val failures = futs.flatMap { f =>
        try { f.get(); None }
        catch { case e: ExecutionException => Some(e.getCause) }
      }
      failures.headOption.foreach(e => throw e)
    }

  /** Run `threads` workers that claim the items `0…n-1` one at a time from
    * a shared fetch-add cursor, calling `body(worker, item)`, and wait.
    */
  def claim(threads: Int, n: Int)(body: (Int, Int) => Unit): Unit = {
    val cursor = new AtomicInteger(0)
    run(threads) { t =>
      var j = cursor.getAndIncrement()
      while (j < n) { body(t, j); j = cursor.getAndIncrement() }
    }
  }
}
