package perfbench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

/** Benchmark entry point (forked JVM, started by `perfbench/run.py`).
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *      --out <dir> --metrics <name:unit,...>
  * }}}
  *
  * Sets up `Setups` times (each on a fresh SparkSession), warms up, runs
  * the workload's op in a closed loop for
  * `--seconds` (and at least `MinOps` ops), checks every op and the run's accuracy, and prints a
  * report followed by one JSON line holding the `--metrics` named (the
  * end-to-end or per-layer list of BENCHMARK.json, passed in by run.py).
  * With `--trace 1` every second op is traced, untimed probes run after
  * the loop, and the spans are written to `<out>/trace-<workload>-<seed>.json`.
  */
object Main {
  /** Set-ups per run. `setup_s` is the median of all but the first, which
    * also pays for the JVM's class loading and JIT (4-5 times as long as a
    * later one), so that it does not pull the median onto a half-warm set-up.
    */
  val Setups = 4

  /** Warm-up length: at least the workload's `warmUpOps`, and ops until
    * this much time passed. Timing only warm ops keeps a run's median from
    * mixing a cold first op with warm ones, which made it jump with the
    * number of ops that fit.
    */
  val WarmUpNs = 2_000_000_000L

  /** Timed ops per run, at the least, even past `--seconds`. A `spark-query`
    * op (about 6.5 s) can outlast a short run, and the rate of one query
    * moved half as much again across seeds as that of two. The traced run also
    * needs one traced (odd) and one untraced op.
    */
  val MinOps = 2

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String): String = opts.getOrElse(k, sys.error(s"missing --$k"))
    for (v <- Seq("ABAE_BENCH_SF", "ABAE_BENCH_TRIALS") if sys.env.contains(v))
      sys.error(s"$v is set; it silently rescales Harness, so the benchmark refuses to run")
    val name = opt("workload")
    val seed = opt("seed").toLong
    val seconds = opt("seconds").toDouble
    val trace = opt("trace") == "1"
    val out = Paths.get(opt("out")).toAbsolutePath
    val wanted = opt("metrics").split(",").toSeq.map { m => val Array(k, unit) = m.split(":"); k -> unit }
    val nproc = Runtime.getRuntime.availableProcessors
    val wl = Workload(name, seed)
    val tr = new Tracer
    tr.on = trace

    // ---- set-up, repeated on fresh sessions; the last one is kept
    var spark: SparkSession = null
    val setupS = (1 to Setups).map { r =>
      if (spark != null) spark.stop()
      val t = System.nanoTime()
      tr.span("setup") {
        spark = session(nproc, out)
        wl.setup(spark, r == Setups, tr)
      }
      (System.nanoTime() - t) / 1e9
    }
    val retainedMb = Jvm.retainedMb()
    val sc = spark.sparkContext
    val stats = new SparkStats
    if (trace) sc.addSparkListener(stats)
    println("env " + Json.obj(
      "workload" -> name, "seed" -> seed, "seconds" -> seconds, "trace" -> trace,
      "cores" -> nproc, "master" -> sc.master, "spark" -> spark.version,
      "java" -> System.getProperty("java.version"), "xmx_mb" -> Runtime.getRuntime.maxMemory / (1 << 20),
      "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "aqe" -> spark.conf.get("spark.sql.adaptive.enabled"),
      "setups" -> Setups,
      "ABAE_BENCH_SF" -> "unset", "ABAE_BENCH_TRIALS" -> "unset").s)

    // ---- untimed warm-up, then the timed phase: a closed loop, one op at a time
    val checkFails = ArrayBuffer.empty[String]
    tr.on = false
    val warmUntil = System.nanoTime() + WarmUpNs
    var w = 0
    while (w < wl.warmUpOps || System.nanoTime() < warmUntil) {
      w += 1
      try wl.op(spark, -w, tr).failure.foreach(why => checkFails += s"warm-up op: $why")
      catch { case NonFatal(e) => checkFails += s"warm-up op threw $e" }
    }
    val ops = ArrayBuffer.empty[OpResult]
    val opNs = ArrayBuffer.empty[Long]
    val before = Jvm.snapshot()
    val deadline = before.nanos + (seconds * 1e9).toLong
    while (ops.length < MinOps || System.nanoTime() < deadline) {
      val i = ops.length
      tr.on = trace && i % 2 == 1
      if (trace) sc.setJobGroup(s"op-$i", s"op-$i")
      val t = System.nanoTime()
      val r =
        try tr.span("op")(wl.op(spark, i, tr))
        catch { case NonFatal(e) => OpResult(0, Nil, Some(s"threw $e")) }
      opNs += System.nanoTime() - t
      ops += r
    }
    val after = Jvm.snapshot()
    tr.on = trace
    if (trace) sc.clearJobGroup()

    val failures = ops.zipWithIndex.collect { case (OpResult(_, _, Some(why)), i) => s"op $i: $why" }
    ops.indices.foreach(i => println(f"op $i%d ${opNs(i) / 1e6}%.1f ms digest ${digest(ops(i).values)}"))
    val wallS = (after.nanos - before.nanos) / 1e9
    val trials = ops.map(_.trials).sum
    val metrics = scala.collection.mutable.LinkedHashMap(
      "setup_s" -> Metric(Stats.median(setupS.tail), "s"),
      "query_p50_s" -> Metric(Stats.median(opNs.map(_ / 1e9).toSeq), "s"),
      "trials_per_s" -> Metric(trials / wallS, "1/s"),
      "retained_mb" -> Metric(retainedMb, "MB"))
    val (acc, gateFails) =
      try wl.accuracy(spark, ops.toSeq)
      catch { case NonFatal(e) => (Map.empty[String, Metric], Seq(s"accuracy check threw $e")) }
    metrics ++= acc
    metrics("check.failed_frac") = Metric(failures.size.toDouble / ops.size, "ratio")
    checkFails ++= failures ++= gateFails

    if (trace) {
      val (probeMetrics, probeFails) =
        try wl.probes(spark, tr, stats)
        catch { case NonFatal(e) => (Map.empty[String, Metric], Seq(s"probe threw $e")) }
      metrics ++= probeMetrics
      checkFails ++= probeFails
      stats.settle()
      val summary = tr.summary
      def selfPerCall(span: String, unitNs: Double) =
        summary.get(span).map { case (c, _, self) => self / unitNs / c }
      val opGroups = ops.indices.flatMap(i => stats.group(s"op-$i"))
      def perOp(f: stats.Group => Double) = Option.when(opGroups.nonEmpty)(opGroups.map(f).sum / opGroups.size)
      val (traced, untraced) = ops.indices.partition(_ % 2 == 1)
      val measured = Seq(
        "data.generate_s" -> tr.perParentS("data.generate"),
        "data.collect_s" -> tr.perParentS("data.collect"),
        "data.stratify_s" -> tr.perParentS("data.stratify"),
        "spark.stratify_s" -> selfPerCall("spark.stratify", 1e9),
        "spark.rank_s" -> selfPerCall("spark.rank", 1e9),
        "spark.run_s" -> selfPerCall("spark.run", 1e9),
        "spark.collect_sample_s" -> selfPerCall("spark.collect_sample", 1e9),
        "spark.jobs" -> perOp(_.jobs),
        "spark.stages" -> perOp(_.stages),
        "spark.tasks" -> perOp(_.tasks),
        "spark.shuffle_write_mb" -> perOp(_.shuffleWriteBytes / 1e6),
        "bootstrap.ci_ms" -> selfPerCall("bootstrap.ci", 1e6),
        "groupby.single_ms" -> selfPerCall("groupby.single", 1e6),
        "groupby.multi_ms" -> selfPerCall("groupby.multi", 1e6),
        "combiner.run_ms" -> selfPerCall("combiner.run", 1e6),
        "exp.cpu_util" -> Some((after.cpuNs - before.cpuNs) / 1e9 / (wallS * nproc)),
        "jvm.alloc_kb_per_trial" -> Some(Jvm.allocated(before, after) / 1024.0 / math.max(1, trials)),
        "jvm.gc_ms" -> Some((after.gcMs - before.gcMs).toDouble),
        "jvm.gc_count" -> Some((after.gcCount - before.gcCount).toDouble),
        "trace.overhead_pct" -> Some(
          100.0 * (Stats.median(traced.map(opNs(_).toDouble)) / Stats.median(untraced.map(opNs(_).toDouble)) - 1)))
      val units = wanted.toMap
      for ((k, Some(v)) <- measured if !metrics.contains(k)) metrics(k) = Metric(v, units(k))
      Files.createDirectories(out)
      Files.write(out.resolve(s"trace-$name-$seed.json"), tr.toJson.getBytes(UTF_8))
    }
    spark.stop()

    metrics.foreach { case (k, m) => println(f"metric $k%-28s ${m.value}%.6g ${m.unit}") }
    val missing = wanted.filterNot(w => metrics.contains(w._1))
    missing.foreach { case (k, _) => println(s"metric $k n/a: not exercised by this workload, reported as 0") }
    val reported = wanted.map { case (k, unit) => k -> metrics.getOrElse(k, Metric(0.0, unit)) }
    checkFails.foreach(f => println(s"FAILED $f"))
    val correct = checkFails.isEmpty
    println(Json.obj(
      "correct" -> correct, "attempted" -> ops.size, "failed" -> failures.size,
      "metrics" -> Json.obj(reported.map { case (k, m) => k -> Json.obj("value" -> m.value, "unit" -> m.unit) }: _*)).s)
    sys.exit(if (correct) 0 else 1)
  }

  private def session(nproc: Int, out: java.nio.file.Path): SparkSession =
    SparkSession.builder
      .master(s"local[$nproc]")
      .appName("abae-perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", out.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", out.resolve("spark-warehouse").toString)
      .getOrCreate()

  /** First 16 hex digits of SHA-256 over the values' IEEE-754 bits. */
  def digest(values: Seq[Double]): String = {
    val md = java.security.MessageDigest.getInstance("SHA-256")
    val buf = java.nio.ByteBuffer.allocate(8)
    values.foreach { v => buf.clear(); buf.putLong(java.lang.Double.doubleToLongBits(v)); md.update(buf.array()) }
    md.digest().take(8).map(b => f"${b & 0xff}%02x").mkString
  }
}
