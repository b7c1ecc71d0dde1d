package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.avg
import repro.core._
import repro.data._
import repro.exp.{CoreFigures, Harness}
import repro.metrics.Metrics
import repro.sampling.{PermutationSampler, Rng}
import scala.collection.mutable.ArrayBuffer
import Stats.median

/** Outcome of one timed op: trials it completed, the values its digest
  * covers, and the first failed check (if any).
  */
final case class OpResult(trials: Int, values: Seq[Double], failure: Option[String])

object OpResult {
  def check(trials: Int, values: Seq[Double], checks: (Boolean, String)*): OpResult =
    OpResult(trials, values, checks.collectFirst { case (false, why) => why }
      .orElse(Option.unless(values.forall(java.lang.Double.isFinite))("non-finite value")))
}

final case class Metric(value: Double, unit: String)

/** One benchmark workload. The runner calls `setup` several times (each
  * on a fresh session; `last` marks the one whose inputs the timed phase
  * uses), then `op` for warm-up and in the timed closed loop, then
  * `accuracy` and, on the traced run only, `probes`.
  */
abstract class Workload(val seed: Long) {
  def setup(spark: SparkSession, last: Boolean, tr: Tracer): Unit
  def op(spark: SparkSession, i: Int, tr: Tracer): OpResult

  /** Untimed warm-up ops before the timed phase, at the least. */
  def warmUpOps: Int = 1

  /** Accuracy of the run's outputs (`check.*`) and the gates they must
    * pass; failed gates make the run incorrect.
    */
  def accuracy(spark: SparkSession, ops: Seq[OpResult]): (Map[String, Metric], Seq[String])

  /** Extra untimed calls on the traced run, for layers the ops do not
    * expose. Returns per-layer metrics plus failed equivalence checks.
    */
  def probes(spark: SparkSession, tr: Tracer, stats: SparkStats): (Map[String, Metric], Seq[String])

  /** The seed of op `i`: fresh per op, fixed by the workload seed. */
  protected def opSeed(i: Int): Long = seed * 1_000_003L + i

  /** Shift a data seed by the workload seed (seed 0 keeps the program's own). */
  protected def dataSeed(base: Long): Long = base + 1000L * seed

  /** `df` cached and materialised. */
  protected def cached(df: DataFrame): DataFrame = { val d = df.cache(); d.count(); d }

  /** Time `body` `reps` times; the median in `unitNs` units. */
  protected def timeMedian(reps: Int, unitNs: Double)(body: => Unit): Double =
    median((1 to reps).map { _ => val t = System.nanoTime(); body; (System.nanoTime() - t) / unitNs })
}

object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }
}

object Workload {
  val Budget = 10000
  val Params: AbaeParams = AbaeParams(k = 5)

  def apply(name: String, seed: Long): Workload = name match {
    case "spark-query" => new SparkQuery(seed)
    case "abae-trials" => new AbaeTrials(seed)
    case "ext-trials" => new ExtTrials(seed)
    case other => throw new IllegalArgumentException(s"unknown workload: $other")
  }
}

import Workload.{Budget, Params}

// --------------------------------------------------------------- spark-query

/** The body of `AbaeQueryJob` after set-up: one `AVG … ORACLE LIMIT 10000`
  * query through the Spark engine plus its β = 1000 bootstrap CI, on
  * night-street at paper scale, cached once.
  */
final class SparkQuery(seed: Long) extends Workload(seed) {
  private val profile = Datasets.nightStreet.copy(seed = dataSeed(Datasets.nightStreet.seed))
  private var df: DataFrame = _
  private final case class Query(seed: Long, estimate: Double, ci: Bootstrap.Interval, oracleCalls: Long,
      draws: Vector[StratumDraws])
  private val queries = ArrayBuffer.empty[Query]

  /** Each query compiles fresh generated code (its seed is a literal), and
    * query times kept falling for the first few queries of a JVM.
    */
  override def warmUpOps: Int = 2

  def setup(spark: SparkSession, last: Boolean, tr: Tracer): Unit =
    df = tr.span("data.generate")(cached(Datasets.generate(spark, profile)))

  def op(spark: SparkSession, i: Int, tr: Tracer): OpResult = {
    val qs = opSeed(i)
    val res = tr.span("spark.run")(AbaeSpark.run(df, Budget, Params, qs))
    val rows = tr.span("spark.collect_sample")(res.sampled.select("stratum", "positive", "stat").collect())
    val draws = (1 to Params.k).toVector.map { s =>
      val r = rows.filter(_.getInt(0) == s)
      StratumDraws(r.map(_.getBoolean(1)), r.map(_.getDouble(2)))
    }
    val ci = tr.span("bootstrap.ci")(Bootstrap.ci(draws, 1000, 0.05, Rng.stream(qs, 0)))
    queries += Query(qs, res.estimate, ci, res.oracleCalls, draws)
    OpResult.check(1, Seq(res.estimate, ci.lo, ci.hi, res.oracleCalls.toDouble),
      (res.oracleCalls <= Budget, s"charged ${res.oracleCalls} oracle calls > budget $Budget"),
      (rows.length == res.oracleCalls, s"collected ${rows.length} sampled rows, charged ${res.oracleCalls}"),
      (ci.lo <= ci.hi, s"CI lo ${ci.lo} > hi ${ci.hi}"))
  }

  def accuracy(spark: SparkSession, ops: Seq[OpResult]): (Map[String, Metric], Seq[String]) = {
    val truth = df.filter("positive").agg(avg("stat")).collect()(0).getDouble(0)
    val ests = queries.map(_.estimate).toSeq
    val relErr = ests.map(e => math.abs(e - truth) / math.abs(truth))
    val m = Map(
      "check.rel_rmse" -> Metric(Metrics.rmse(ests, truth) / math.abs(truth), "ratio"),
      "check.ci_coverage" -> Metric(queries.count(_.ci.contains(truth)).toDouble / queries.size, "ratio"),
      "check.ci_rel_width" -> Metric(median(queries.map(_.ci.width).toSeq) / math.abs(truth), "ratio"))
    (m, relErr.zipWithIndex.collect { case (r, i) if r > 0.2 => s"query $i is off by ${r * 100}% of the truth" })
  }

  def probes(spark: SparkSession, tr: Tracer, stats: SparkStats): (Map[String, Metric], Seq[String]) = {
    val sc = spark.sparkContext
    def noop(group: String, d: DataFrame): Unit = {
      sc.setJobGroup(group, group)
      try d.write.format("noop").mode("overwrite").save() finally sc.clearJobGroup()
    }
    val singlePartition = AbaeSpark.stratify(df, Params.k).queryExecution.executedPlan
      .toString.contains("SinglePartition")
    tr.span("spark.stratify")(noop("probe-stratify", AbaeSpark.stratify(df, Params.k)))
    tr.span("spark.rank")(noop("probe-rank",
      AbaeSpark.permutationRanks(AbaeSpark.stratify(df, Params.k), opSeed(0))))

    // The counting Random must give the bit-identical interval.
    val last = queries.last
    val rng = CountingRandom.stream(last.seed, 0)
    val counted = Bootstrap.ci(last.draws, 1000, 0.05, rng)
    stats.settle()
    val m = Map(
      "spark.ntile_single_partition" -> Metric(if (singlePartition) 1 else 0, "bool"),
      "spark.max_task_share" -> Metric(stats.maxTaskShare("probe-stratify"), "ratio"),
      "bootstrap.rng_draws" -> Metric(rng.draws.toDouble, "count"),
      "spark.oracle_calls" -> Metric(median(queries.map(_.oracleCalls.toDouble).toSeq), "count"))
    (m, if (counted == last.ci) Nil else Seq(s"counting Random changed the CI: $counted vs ${last.ci}"))
  }
}

// --------------------------------------------------------------- abae-trials

/** The shape of Figs 2/3/4/9/10/11: `CoreFigures.rmseSweep` over
  * night-street (larger than cache) and amazon-posters (fits in cache).
  */
final class AbaeTrials(seed: Long) extends Workload(seed) {
  /** Trials per cell; one op runs 2 × 6 × 50 trials. */
  private val trials = 50
  private val budgets = Seq(2000, 6000, 10000)
  private val nightStreet: Datasets.Profile = Datasets.nightStreet.copy(seed = dataSeed(Datasets.nightStreet.seed))
  private val profiles = Seq(nightStreet, Datasets.amazonPosters.copy(seed = dataSeed(Datasets.amazonPosters.seed)))
  private var first: Option[Vector[CoreFigures.RmseCell]] = None

  def setup(spark: SparkSession, last: Boolean, tr: Tracer): Unit =
    profiles.foreach(fill(spark, _, last, tr))

  def op(spark: SparkSession, i: Int, tr: Tracer): OpResult = {
    val cells = tr.span("exp.rmse_sweep")(CoreFigures.rmseSweep(spark, budgets, trials, profiles))
    if (first.isEmpty) first = Some(cells)
    OpResult.check(2 * cells.size * trials, cells.flatMap(c => Seq(c.abaeRmse, c.abaeStd, c.unifRmse, c.unifStd)),
      (cells.size == profiles.size * budgets.size, s"${cells.size} cells"),
      (first.contains(cells), "same seeds gave a different table than the first op"))
  }

  def accuracy(spark: SparkSession, ops: Seq[OpResult]): (Map[String, Metric], Seq[String]) = {
    val cells = first.get
    val truth = profiles.map(p => p.name -> Harness.records(spark, p).truth).toMap
    val rel = cells.map(c => c.abaeRmse / math.abs(truth(c.dataset)))
    val gain = cells.map(_.gain)
    val m = Map("check.rel_rmse" -> Metric(rel.max, "ratio"),
      "check.gain_vs_uniform" -> Metric(median(gain), "ratio"))
    (m, (if (rel.max > 0.25) Seq(s"ABAE RMSE is ${rel.max * 100}% of the truth") else Nil) ++
      (if (median(gain) < 0.9) Seq(s"ABAE is worse than uniform sampling (median gain ${median(gain)})") else Nil))
  }

  def probes(spark: SparkSession, tr: Tracer, stats: SparkStats): (Map[String, Metric], Seq[String]) = {
    val strat = Harness.stratified(spark, nightStreet, Params.k)
    val rec = Harness.records(spark, nightStreet)
    val fails = ArrayBuffer.empty[String]
    val reps = 30

    def plainSamplers(s: Long) = Vector.tabulate(Params.k)(j => new PermutationSampler(strat.sizes(j), Rng.stream(s, j)))
    val abaeUs = timeMedian(reps, 1e3) {
      tr.span("core.abae_run")(Abae.run(strat.sizes, new CountingOracle(strat).query _, plainSamplers(7), Budget, Params))
    }

    // Same call through a counting oracle closure, timed samplers and
    // counting Randoms: it must reproduce the convenience entry point.
    val plain = Abae.run(strat, new CountingOracle(strat), Budget, Params, 7)
    var calls = 0L
    var rngs = Vector.empty[CountingRandom]
    var samplers = Vector.empty[TimedSampler]
    val nextNs = (1 to reps).map { _ =>
      calls = 0L
      rngs = Vector.tabulate(Params.k)(j => CountingRandom.stream(7, j))
      samplers = Vector.tabulate(Params.k)(j => new TimedSampler(new PermutationSampler(strat.sizes(j), rngs(j))))
      val inner = new CountingOracle(strat)
      val wrapped = Abae.run(strat.sizes, (s: Int, i: Int) => { calls += 1; inner.query(s, i) }, samplers, Budget, Params)
      if (wrapped.estimate != plain.estimate || !wrapped.allocation.sameElements(plain.allocation))
        fails += s"wrapped Abae.run gave ${wrapped.estimate}, plain ${plain.estimate}"
      if (calls != wrapped.oracleCalls || calls > Budget)
        fails += s"counted $calls oracle calls, result says ${wrapped.oracleCalls}, budget $Budget"
      samplers.map(_.ns).sum / 1e3 / samplers.map(_.calls).sum
    }

    val uniformUs = timeMedian(reps, 1e3) {
      tr.span("core.uniform_run")(UniformSampling.run(rec.n, new FlatOracle(rec).query _, Budget,
        Rng.stream(7, Long.MaxValue / 3)))
    }
    val u = UniformSampling.run(rec.n, new FlatOracle(rec).query _, Budget, CountingRandom.stream(7, Long.MaxValue / 3))
    if (u.estimate != UniformSampling.run(rec, Budget, 7).estimate) fails += "counting Random changed UniformSampling.run"

    val ciMs = timeMedian(3, 1e6)(tr.span("bootstrap.ci")(Bootstrap.ci(plain.draws, 1000, 0.05, Rng.stream(8, 0))))
    val bootRng = CountingRandom.stream(8, 0)
    if (Bootstrap.ci(plain.draws, 1000, 0.05, bootRng) != Bootstrap.ci(plain.draws, 1000, 0.05, Rng.stream(8, 0)))
      fails += "counting Random changed Bootstrap.ci"

    val m = Map(
      "core.abae_run_us" -> Metric(abaeUs, "us"),
      "core.uniform_run_us" -> Metric(uniformUs, "us"),
      "sampling.next_us" -> Metric(median(nextNs), "us"),
      "sampling.rng_draws" -> Metric(rngs.map(_.draws).sum.toDouble, "count"),
      "core.oracle_calls" -> Metric(calls.toDouble, "count"),
      "core.unspent_budget" -> Metric((Budget - calls).toDouble, "count"),
      "bootstrap.ci_ms" -> Metric(ciMs, "ms"),
      "bootstrap.rng_draws" -> Metric(bootRng.draws.toDouble, "count"))
    (m, fails.distinct.toSeq)
  }

  /** Generate, collect and stratify one profile. The last set-up goes
    * through `Harness`, whose cache the figure functions then hit; the
    * earlier ones call the same layers one at a time so the traced run
    * can time each.
    */
  private def fill(spark: SparkSession, p: Datasets.Profile, last: Boolean, tr: Tracer): Unit =
    if (last) tr.span("data.cache_fill")(Harness.stratified(spark, p, Params.k))
    else if (!tr.on) StratifiedLocal(Datasets.local(spark, p), Params.k)
    else {
      val df = tr.span("data.generate")(cached(Datasets.generate(spark, p)))
      val rec = tr.span("data.collect")(LocalRecords.fromDf(df))
      df.unpersist()
      tr.span("data.stratify")(StratifiedLocal(rec, Params.k))
    }
}

// ---------------------------------------------------------------- ext-trials

/** One trial triple per op from the benchmark's own serial loop:
  * single- and multi-oracle GroupBy and proxy combination. Each trial
  * stratifies per call, so here `ntileIndices` is on the timed path.
  */
final class ExtTrials(seed: Long) extends Workload(seed) {
  private val groups = Vector("g1", "g2", "g3", "g4")
  private var single: GroupedRecords = _
  private var multi: GroupedRecords = _
  private var combine: (Array[Boolean], Array[Double], Vector[Array[Double]]) = _
  private val calls = ArrayBuffer.empty[(Long, Long, Long)]
  /** Per op: the 4 + 4 group estimates and the combined estimate. */
  private val estimates = ArrayBuffer.empty[Seq[Double]]

  def setup(spark: SparkSession, last: Boolean, tr: Tracer): Unit = {
    // Untraced: collect straight from the generator. Traced: cache and
    // count first, so generation and collection are timed apart.
    def collected[T](df: DataFrame)(collect: DataFrame => T): T =
      if (!tr.on) collect(df)
      else {
        val d = tr.span("data.generate")(cached(df))
        try tr.span("data.collect")(collect(d)) finally d.unpersist()
      }
    single = collected(ExtDatasets.syntheticGroupBySingle(spark, seed = dataSeed(22)))(ExtDatasets.collectGrouped(_, groups))
    multi = collected(ExtDatasets.syntheticGroupByMulti(spark, seed = dataSeed(23)))(ExtDatasets.collectGrouped(_, groups))
    combine = collected(ExtDatasets.syntheticMultiProxy(spark, seed = dataSeed(24)))(
      ExtDatasets.collectMultiProxy(_, Vector("proxy_p1", "proxy_p2", "proxy_p3")))
  }

  def op(spark: SparkSession, i: Int, tr: Tracer): OpResult = {
    val ts = opSeed(i)
    val s = tr.span("groupby.single")(GroupBy.runSingleOracle(single, 8000, GroupBy.GroupByParams(k = 5), ts))
    val m = tr.span("groupby.multi")(GroupBy.runMultiOracle(multi, 8000, GroupBy.GroupByParams(k = 5), ts))
    val (pos, stat, proxies) = combine
    val c = tr.span("combiner.run")(ProxyCombiner.run(pos, stat, proxies, Budget, Params, ts))
    calls += ((s.oracleCalls, m.oracleCalls, c.oracleCalls))
    val est = s.estimates ++ m.estimates :+ c.estimate
    estimates += est
    OpResult.check(3, est,
      (s.oracleCalls <= 8000, s"single-oracle GroupBy charged ${s.oracleCalls} > 8000"),
      (m.oracleCalls <= 8000, s"multi-oracle GroupBy charged ${m.oracleCalls} > 8000"),
      (c.oracleCalls <= Budget, s"ProxyCombiner charged ${c.oracleCalls} > $Budget"))
  }

  def accuracy(spark: SparkSession, ops: Seq[OpResult]): (Map[String, Metric], Seq[String]) = {
    val (pos, stat, proxies) = combine
    val truths = single.truth ++ multi.truth :+ LocalRecords(proxies.head, pos, stat).truth
    val relRmse = truths.indices.map(j => Metrics.rmse(estimates.map(_(j)).toSeq, truths(j)) / math.abs(truths(j)))
    val worst = estimates.map(_.zip(truths).map { case (e, t) => math.abs(e - t) / math.abs(t) }.max).max
    (Map("check.rel_rmse" -> Metric(relRmse.max, "ratio")),
      if (worst > 0.5) Seq(s"an estimate is off by ${worst * 100}% of its truth") else Nil)
  }

  def probes(spark: SparkSession, tr: Tracer, stats: SparkStats): (Map[String, Metric], Seq[String]) = {
    val ntileMs = timeMedian(3, 1e6)(tr.span("data.ntile")(StratifiedLocal.ntileIndices(single.proxies.head, 5)))
    val (pos, _, proxies) = combine
    val pilot = new PermutationSampler(pos.length, Rng.stream(opSeed(0), 13)).next(Budget / 2)
    val fitMs = timeMedian(3, 1e6)(tr.span("combiner.fit_score")(
      ProxyCombiner.combineScores(proxies, pilot, pilot.map(pos))))
    val m = Map(
      "data.ntile_ms" -> Metric(ntileMs, "ms"),
      "combiner.fit_score_ms" -> Metric(fitMs, "ms"),
      "groupby.oracle_calls" -> Metric(median(calls.map(c => (c._1 + c._2) / 2.0).toSeq), "count"),
      "combiner.oracle_calls" -> Metric(median(calls.map(_._3.toDouble).toSeq), "count"))
    (m, Nil)
  }
}
