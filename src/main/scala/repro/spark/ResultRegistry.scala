package repro.spark

import org.apache.spark.TaskContext
import repro.core.KnnSet

/** The result sets that the tasks of one [[Distributed.knnBatch]] call share
  * on this JVM: one [[KnnSet]] per query of the call, keyed by the call's
  * id. So every partition of a query on one executor prunes against the
  * best kth distance any of them has found, as the paper's workers share
  * one `Results` set (§3.4). In local mode every partition runs in the
  * driver's JVM and shares; under a cluster master, sharing stops at the
  * executor.
  *
  * An entry lives while a task of its call runs here: the first task
  * makes it, each task counts itself in, and a task completion listener
  * counts it out and drops the entry at zero. The listener runs whether
  * the task succeeds or fails, so no entry outlives its tasks.
  */
private[spark] object ResultRegistry {
  private final class Entry(val sets: Array[KnnSet]) { var tasks = 0 }

  private val calls = new java.util.HashMap[Long, Entry]

  /** The sets of call `call`, made with `queries` sets of `k` answers if no
    * running task of the call holds them; held until the current task
    * completes. Call it on the task's own thread: `TaskContext.get` is null
    * on any other.
    */
  def acquire(call: Long, queries: Int, k: Int): Array[KnnSet] = {
    val ctx = TaskContext.get()
    require(ctx != null, "result sets are acquired on a task's thread")
    val sets = synchronized {
      var e = calls.get(call)
      if (e == null) { e = new Entry(Array.fill(queries)(new KnnSet(k))); calls.put(call, e) }
      e.tasks += 1
      e.sets
    }
    ctx.addTaskCompletionListener[Unit](_ => release(call))
    sets
  }

  private def release(call: Long): Unit = synchronized {
    val e = calls.get(call)
    e.tasks -= 1
    if (e.tasks == 0) calls.remove(call)
  }

  /** Calls whose sets are held now. */
  private[spark] def size: Int = synchronized(calls.size)
}
