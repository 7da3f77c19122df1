package repro.perfbench

import java.nio.file.{Files, Path}

/** Benchmark entry point (launched by `perfbench/run.py`):
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *      --work-dir <dir> --out-dir <dir> [--scale <x>]
  * }}}
  *
  * Prints the machine and set-up, every metric with its unit and sample
  * count, and as the last line one JSON object with `correct`, `attempted`,
  * `failed` and `metrics`. `--trace 0` reports the end-to-end metrics,
  * `--trace 1` the per-layer ones and writes the spans under `--out-dir`.
  */
object Main {

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String): String = opts.getOrElse(k, sys.error(s"missing --$k"))
    val w0 = Workloads.byName(opt("workload")).getOrElse(
      sys.error(s"unknown workload ${opt("workload")}; known: ${Workloads.all.map(_.name).mkString(", ")}"))
    val scale = opts.get("scale").fold(1.0)(_.toDouble)
    val w = w0.scaled(scale)
    val seed = opt("seed").toLong
    val seconds = opt("seconds").toDouble
    val trace = opt("trace") == "1"
    val outDir = Path.of(opt("out-dir"))
    val tag = s"${w.name}-seed$seed-trace${if (trace) 1 else 0}"

    val fx = new Fixture(w, seed, opt("work-dir"))
    val env = fx.env(scale, trace)
    Log.phase(s"set up ${w.name}")
    val report =
      try {
        if (trace) Traced.run(fx, seconds, outDir.resolve(s"spans-$tag.jsonl"))
        else EndToEnd.run(fx, seconds, opt("work-dir"))
      } finally fx.close()
    Log.phase("done")

    val failedShare = report.failed.toDouble / math.max(1L, report.attempted)
    println(s"env ${Json.obj(env)}")
    report.lines.foreach(println)
    println(f"${"failed_share"}%-28s ${Json.num(failedShare)}%-24s ${"fraction"}%-10s n=${report.attempted}")
    Files.createDirectories(outDir)
    Files.write(outDir.resolve(s"result-$tag.json"), Json.obj(env ++ Seq(
      "attempted" -> report.attempted, "failed" -> report.failed, "failed_share" -> failedShare,
    ) ++ report.metrics.flatMap(m => Seq(m.name -> m.value, s"${m.name}.samples" -> m.samples))).getBytes("UTF-8"))
    println(report.json)
  }
}

/** Progress lines on standard error, with seconds since the JVM started. */
object Log {
  private val t0 = java.lang.management.ManagementFactory.getRuntimeMXBean.getStartTime
  def phase(what: String): Unit =
    Console.err.println(f"[perfbench ${(System.currentTimeMillis() - t0) / 1000.0}%7.2f s] $what")
}
