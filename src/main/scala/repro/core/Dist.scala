package repro.core

/** The Euclidean distance kernel of every method and of `BruteForce`.
  *
  * The paper uses hand-written SIMD; here one scalar loop breaks the serial
  * dependency of a single running sum instead (DESIGN.md §3). Point `i` goes
  * into accumulator `i mod 4`, so the four chains of adds overlap in the
  * pipeline. C2 does not vectorize a one-accumulator sum, because it may not
  * reorder floating-point adds. The kernel works on *squared* distances and
  * early-abandons as soon as the partial sum exceeds the best-so-far bound
  * (UCR-suite optimization, used by all methods). Every caller gets the same
  * summation order, so tied distances are bit-identical across methods. The
  * query is widened to doubles once, by its caller ([[widen]]); widening a
  * float is exact, so the sum is the same as widening point by point.
  */
object Dist {

  /** The query of [[ed2Flat]]: `q`'s points as doubles. */
  def widen(q: Array[Float]): Array[Double] = {
    val out = new Array[Double](q.length)
    var i = 0
    while (i < q.length) { out(i) = q(i); i += 1 }
    out
  }

  /** [[ed2Flat]] of a float query, widened on every call. */
  def ed2Flat(q: Array[Float], flat: Array[Float], off: Int, bound: Double): Double =
    ed2Flat(widen(q), flat, off, bound)

  /** Squared ED between `q` and the series stored at `flat[off, off+len)`,
    * early-abandoning against `bound`; may return any value `> bound` once
    * abandoned (checked after every block of 16 points). Each accumulator
    * only grows and rounding is monotone, so a checked partial sum never
    * exceeds the full sum: a value `<= bound` is never abandoned.
    */
  def ed2Flat(q: Array[Double], flat: Array[Float], off: Int, bound: Double): Double = {
    val n = q.length
    var a0 = 0.0
    var a1 = 0.0
    var a2 = 0.0
    var a3 = 0.0
    var i = 0
    while (i + 16 <= n) {
      val lim = i + 16
      while (i < lim) {
        val d0 = q(i) - flat(off + i)
        val d1 = q(i + 1) - flat(off + i + 1)
        val d2 = q(i + 2) - flat(off + i + 2)
        val d3 = q(i + 3) - flat(off + i + 3)
        a0 += d0 * d0
        a1 += d1 * d1
        a2 += d2 * d2
        a3 += d3 * d3
        i += 4
      }
      val acc = (a0 + a1) + (a2 + a3)
      if (acc > bound) return acc
    }
    while (i < n) { val d = q(i) - flat(off + i); a0 += d * d; i += 1 }
    (a0 + a1) + (a2 + a3)
  }
}
