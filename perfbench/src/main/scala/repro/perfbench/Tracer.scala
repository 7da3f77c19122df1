package repro.perfbench

import java.nio.file.{Files, Path}
import scala.collection.mutable.ArrayBuffer

/** One timed interval. `derived` spans are not timed by the benchmark but
  * placed from a duration the program reports (e.g. `perQueryMs`), at the
  * start of their parent. The layer is the name's first dotted component.
  */
final case class Span(id: Int, parent: Int, name: String, query: Int,
                      startNs: Long, endNs: Long, derived: Boolean) {
  def layer: String = name.takeWhile(_ != '.')
  def durNs: Long = endNs - startNs
}

/** In-memory span recorder; spans are written out when the run ends. */
final class Tracer {
  val spans = new ArrayBuffer[Span]

  /** Time `body` as span `name` under `parent`; `query` ties the spans of one
    * query together (-1 for none). The body gets the span's id, for its
    * children; returns the body's value and the span id.
    */
  def span[T](name: String, parent: Int = -1, query: Int = -1)(body: Int => T): (T, Int) = {
    val id = spans.length
    spans += null
    val t0 = System.nanoTime()
    val out = body(id)
    spans(id) = Span(id, parent, name, query, t0, System.nanoTime(), derived = false)
    (out, id)
  }

  /** Record a derived child of the finished span `parent` lasting `ms`. */
  def derived(name: String, parent: Int, ms: Double, query: Int = -1): Int = {
    val id = spans.length
    val p = spans(parent)
    spans += Span(id, parent, name, query, p.startNs, p.startNs + (ms * 1e6).toLong, derived = true)
    id
  }

  /** Self time per layer, in ms: each span's duration minus the part of it
    * its children cover.
    */
  def selfMsByLayer: Map[String, Double] = {
    val childNs = new Array[Long](spans.length)
    spans.foreach(s => if (s.parent >= 0) childNs(s.parent) += math.min(s.durNs, spans(s.parent).durNs))
    spans.groupBy(_.layer).map { case (layer, ss) =>
      layer -> ss.map(s => math.max(0L, s.durNs - childNs(s.id))).sum / 1e6
    }
  }

  /** Write every span as one JSON line. */
  def write(path: Path): Unit = {
    Files.createDirectories(path.getParent)
    val lines = spans.map(s => Json.obj(Seq("id" -> s.id, "parent" -> s.parent, "name" -> s.name,
      "layer" -> s.layer, "query" -> s.query, "start_ns" -> s.startNs, "end_ns" -> s.endNs,
      "derived" -> s.derived)))
    Files.write(path, lines.mkString("", "\n", "\n").getBytes("UTF-8"))
  }
}
