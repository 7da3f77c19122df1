package repro.core

import java.util.concurrent.atomic.AtomicInteger

/** Tiny shared thread-pool helper for the paper's worker-pool patterns. */
object Par {
  private lazy val pool = java.util.concurrent.Executors.newCachedThreadPool(
    (r: Runnable) => { val t = new Thread(r, "repro-par"); t.setDaemon(true); t })

  /** Run `body(0…threads-1)` concurrently and wait; inline when threads==1. */
  def run(threads: Int)(body: Int => Unit): Unit =
    if (threads <= 1) body(0)
    else {
      val futs = (0 until threads).map(t => pool.submit(new Runnable { def run(): Unit = body(t) }))
      futs.foreach(_.get())
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
