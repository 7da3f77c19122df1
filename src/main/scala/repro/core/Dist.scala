package repro.core

/** Euclidean distance kernels.
  *
  * The paper uses hand-written SIMD; here tight scalar loops rely on JIT
  * auto-vectorization — a constant factor shared by every compared method
  * (DESIGN.md §3). Both kernels work on *squared* distances; `ed2` is the
  * brute-force reference, and `ed2Flat` early-abandons as soon as the
  * partial sum exceeds the best-so-far bound (UCR-suite optimization, used
  * by all methods).
  */
object Dist {

  /** Squared Euclidean distance between two series. */
  def ed2(a: Array[Float], b: Array[Float]): Double = {
    var i = 0
    var acc = 0.0
    while (i < a.length) { val d = a(i).toDouble - b(i); acc += d * d; i += 1 }
    acc
  }

  /** Squared ED between `q` and the series stored at `flat[off, off+len)`,
    * early-abandoning against `bound`; may return any value `> bound` once
    * abandoned (checked every 16 points).
    */
  def ed2Flat(q: Array[Float], flat: Array[Float], off: Int, bound: Double): Double = {
    var i = 0
    var acc = 0.0
    val n = q.length
    while (i < n) {
      val lim = math.min(i + 16, n)
      while (i < lim) { val d = q(i).toDouble - flat(off + i); acc += d * d; i += 1 }
      if (acc > bound) return acc
    }
    acc
  }
}
