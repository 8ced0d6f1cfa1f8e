package perfbench

import scala.util.control.NonFatal

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.baselines.STLink
import repro.core.{Histories, LocalReference, Similarity}
import repro.core.{Metrics => Quality}

/** Input scale: the benchmark's own, or a tiny one the self-test sets directly. */
sealed trait Scale
case object Full extends Scale
case object Tiny extends Scale

final case class Options(workload: Workloads.Workload, seed: Long, seconds: Int, trace: Boolean,
                         scale: Scale, buildDir: String)

object Options {
  val usage = "usage: perfbench.Main --workload <name> --seed <n> --seconds <n> --trace <0|1> " +
    "[--build-dir <dir>]"

  def parse(args: Seq[String]): Either[String, Options] = {
    val kv = args.grouped(2).collect { case Seq(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def get(k: String) = kv.get(k).toRight(s"missing --$k; $usage")
    for {
      name <- get("workload")
      w <- Workloads.byName(name).toRight(
        s"unknown workload $name; one of ${Workloads.all.map(_.name).mkString(", ")}")
      seed <- get("seed").flatMap(s => s.toLongOption.toRight(s"bad --seed $s"))
      secs <- get("seconds").flatMap(s => s.toIntOption.filter(_ > 0).toRight(s"bad --seconds $s"))
      trace <- get("trace").flatMap {
        case "0" => Right(false); case "1" => Right(true); case t => Left(s"bad --trace $t")
      }
    } yield Options(w, seed, secs, trace, Full, kv.getOrElse("build-dir", ".bench_build"))
  }
}

/** Runs one workload and prints a human-readable report, then the result line. */
object Main {
  def main(args: Array[String]): Unit = {
    val opts = Options.parse(args.toSeq) match {
      case Right(o) => o
      case Left(msg) => System.err.println(msg); sys.exit(2)
    }
    val result = Bench.run(opts, println)
    println(result.json)
    sys.exit(0)
  }
}

object Bench {

  /** Spark set-up, pinned here rather than read from `SPARK_*` variables. */
  val Threads: Int = math.min(Runtime.getRuntime.availableProcessors(), 4)
  val ShufflePartitions = 4
  /** Set-ups per run; `setup_s` is their median. */
  val SetupReps = 3
  private val RelTol = 1e-9

  /** The result line, and the traced run's tracer (none with `--trace 0`). */
  final case class Result(json: String, tracer: Option[Tracer])

  def session(o: Options): SparkSession = SparkSession.builder
    .master(s"local[$Threads]")
    .appName("perfbench")
    .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
    .config("spark.sql.autoBroadcastJoinThreshold", "-1")
    .config("spark.ui.enabled", "false")
    .config("spark.driver.host", "127.0.0.1")
    .config("spark.driver.bindAddress", "127.0.0.1")
    .config("spark.local.dir", s"${o.buildDir}/spark-local")
    .config("spark.sql.warehouse.dir", s"${o.buildDir}/spark-warehouse")
    .getOrCreate()

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  private def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime(); val a = body; (a, (System.nanoTime() - t0) / 1e9)
  }

  def run(o: Options, log: String => Unit): Result = {
    val w = o.workload
    val prof = w.profile(o.scale)
    val cfg = w.cfg
    log(s"workload=${w.name} seed=${o.seed} seconds=${o.seconds} trace=${if (o.trace) 1 else 0} " +
      s"scale=${o.scale} warmup=${w.warmup}")

    // ---- set-up: session start, then input generation + materialisation, repeated.
    val (spark, sessionS) = timed(session(o))
    log(s"spark master=${spark.sparkContext.master} " +
      s"shuffle.partitions=${spark.conf.get("spark.sql.shuffle.partitions")} " +
      s"autoBroadcastJoinThreshold=${spark.conf.get("spark.sql.autoBroadcastJoinThreshold")} " +
      s"adaptive=${spark.conf.get("spark.sql.adaptive.enabled")}")
    var frames: Option[(DataFrame, DataFrame)] = None
    val reps = (1 to SetupReps).map { _ =>
      frames.foreach { case (e, i) => e.unpersist(); i.unpersist() }
      val ((sampled, genS), totalS) = timed {
        val g = timed(Inputs.sample(prof, o.seed))
        val e = Histories.recordsDf(spark, g._1.e).cache()
        val i = Histories.recordsDf(spark, g._1.i).cache()
        e.count(); i.count()
        frames = Some((e, i))
        g
      }
      (sampled, genS, totalS)
    }
    val sampled = reps.last._1
    val (dfE, dfI) = frames.get
    val setupS = sessionS + median(reps.map(_._3))
    log(f"setup: session ${sessionS}%.3f s, inputs ${reps.map(r => f"${r._3}%.3f").mkString(" ")} s")

    val problems = scala.collection.mutable.ArrayBuffer.empty[String]
    val fp = sampled.fingerprint
    log(s"inputs ${prof.name}: $fp")
    if (o.scale == Full && o.seed == Inputs.DefaultSeed && Inputs.Expected(prof.name) != fp)
      problems += s"input fingerprint $fp != committed ${Inputs.Expected(prof.name)}"

    // ---- in-core references for the correctness checks.
    val refE = LocalReference.Dataset.fromRecords(sampled.e, cfg.level, cfg.windowSec, cfg.bParam)
    val refI = LocalReference.Dataset.fromRecords(sampled.i, cfg.level, cfg.windowSec, cfg.bParam)
    val bruteComparisons = binComparisons(refE, refI)
    val refScores = scala.collection.mutable.Map.empty[(Long, Long), Double]

    def check(out: Workloads.Outcome, reference: Option[Workloads.Outcome]): Seq[String] = {
      val errs = scala.collection.mutable.ArrayBuffer.empty[String]
      if (!oneToOne(out.links.map(l => (l._1, l._2)))) errs += "links are not one-to-one"
      if (cfg.lsh.isEmpty && out.comparisons != bruteComparisons)
        errs += s"comparisons ${out.comparisons} != in-core count $bruteComparisons"
      if (cfg.lsh.nonEmpty && (out.comparisons <= 0 || out.comparisons > bruteComparisons))
        errs += s"comparisons ${out.comparisons} outside (0, $bruteComparisons]"
      if (cfg.lsh.isEmpty && out.nCandidates != refE.histories.size.toLong * refI.histories.size)
        errs += s"brute-force candidates ${out.nCandidates} != nE * nI"
      for ((u, v, wt) <- out.links) {
        val ref = refScores.getOrElseUpdate((u, v),
          LocalReference.score(refE, refI, u, v, cfg.scoreConfig, cfg.bParam))
        if (!close(wt, ref)) errs += s"link ($u, $v) weight $wt != LocalReference $ref"
      }
      reference.foreach { r =>
        if (out.links.map(l => (l._1, l._2)) != r.links.map(l => (l._1, l._2)))
          errs += s"links differ from the first call (${out.links.size} vs ${r.links.size})"
        else if (!out.links.zip(r.links).forall { case (a, b) => close(a._3, b._3) })
          errs += "link weights differ from the first call"
        if (out.nCandidates != r.nCandidates)
          errs += s"nCandidates ${out.nCandidates} != first call's ${r.nCandidates}"
        if (out.comparisons != r.comparisons)
          errs += s"comparisons ${out.comparisons} != first call's ${r.comparisons}"
      }
      errs.toSeq
    }

    // ---- calls: each one is checked; a throw or a failed check counts as failed.
    var attempted = 0; var failed = 0
    var reference: Option[Workloads.Outcome] = None
    var tracer: Option[Tracer] = None
    def attempt[A](label: String)(body: => A)(errors: A => Seq[String],
                                            describe: A => String): Option[(A, Double)] = {
      attempted += 1
      try {
        val (out, s) = timed(body)
        val errs = errors(out)
        log(f"call $label%-8s $s%8.3f s ${describe(out)}" +
          (if (errs.isEmpty) "" else " FAILED: " + errs.mkString("; ")))
        if (errs.isEmpty) Some((out, s)) else { failed += 1; None }
      } catch {
        case NonFatal(ex) =>
          failed += 1
          log(s"call $label threw ${ex.getClass.getSimpleName}: ${ex.getMessage}")
          None
      }
    }
    /** A checked SLIM call; the first that passes becomes the reference. */
    def link(label: String)(body: => Workloads.Outcome): Option[Double] =
      attempt(label)(body)(check(_, reference), out =>
        s"links=${out.links.size} nCandidates=${out.nCandidates} comparisons=${out.comparisons}")
        .map { case (out, s) => if (reference.isEmpty) reference = Some(out); s }
    def callOnce(): Workloads.Outcome = Workloads.call(spark, w, dfE, dfI)

    val coldS = link("cold")(callOnce())
    (1 to w.warmup).foreach(k => link(s"warmup$k")(callOnce()))

    val values: Seq[(String, Double)] =
      if (!o.trace) {
        val samples = scala.collection.mutable.ArrayBuffer.empty[Double]
        val deadline = System.nanoTime() + o.seconds * 1000000000L
        var k = 0
        while (k == 0 || (System.nanoTime() < deadline && k < 1000)) {
          k += 1
          link(s"timed$k")(callOnce()).foreach(samples += _)
        }
        val f1 = reference.map(r => Quality.prf(r.links.map(l => (l._1, l._2)), sampled.truth).f1)
        log(s"link_s samples=${samples.size}: ${samples.map(s => f"$s%.3f").mkString(" ")}")
        Seq(
          "link_s" -> median(samples.toSeq),
          "cold_link_s" -> coldS.getOrElse(Double.NaN),
          "setup_s" -> setupS,
          "f1" -> f1.getOrElse(Double.NaN),
          "comparisons" -> reference.map(_.comparisons.toDouble).getOrElse(Double.NaN),
        )
      } else {
        val tr = new Tracer(spark.sparkContext)
        tracer = Some(tr)
        link("listened")(tr.span("call")(callOnce()))
        var traced: Option[Workloads.Traced] = None
        link("traced") {
          val t = Workloads.traced(tr, w, dfE, dfI, sampled.truth)
          traced = Some(t); t.outcome
        }
        val stComparisons = recordComparisons(sampled, STLink.Config().windowSec)
        val st = attempt("stlink")(Workloads.tracedStLink(spark, tr, dfE, dfI))(r =>
          Seq(Option.when(!oneToOne(r.links))("ST-Link links are not one-to-one"),
            Option.when(r.comparisons != stComparisons)(
              s"ST-Link comparisons ${r.comparisons} != in-core count $stComparisons")).flatten,
          r => s"links=${r.links.size} k=${r.kUsed} l=${r.lUsed} comparisons=${r.comparisons}")
        tr.drain()
        val spans = tr.all
        log(spanTable(spans))
        for (root <- spans if root.name == "trace" || root.name == "stlink.run")
          log(sqlTable(root.name, tr.sqlByCallSite(root)))
        val (windowNs, distNs) =
          try kernels(refE, refI, sampled.truth, cfg.scoreConfig, o.buildDir, log)
          catch { case NonFatal(ex) => problems += s"kernel timing failed: $ex"; (Double.NaN, Double.NaN) }
        val counts = traced.map(_.counts).getOrElse(Map.empty) ++ st.map { case (r, _) =>
          Map("stlink.k" -> r.kUsed.toDouble, "stlink.l" -> r.lUsed.toDouble) }.getOrElse(Map.empty)
        layerValues(spans, tr, counts, windowNs, distNs, median(reps.map(_._2)),
          sampled.e.size + sampled.i.size)
      }

    val failFrac = failed.toDouble / attempted
    val correct = failed == 0 && problems.isEmpty && values.forall(v => !v._2.isNaN)
    problems.foreach(p => log(s"PROBLEM: $p"))
    log(table(values :+ ("fail_frac" -> failFrac)))
    spark.stop()
    Result(Report.resultJson(correct, attempted, failed, values), tracer)
  }

  private def oneToOne(links: Seq[(Long, Long)]): Boolean =
    links.map(_._1).distinct.size == links.size && links.map(_._2).distinct.size == links.size

  private def close(a: Double, b: Double): Boolean =
    a == b || math.abs(a - b) <= RelTol * math.max(math.abs(a), math.abs(b))

  /** The §5.3 brute-force cost: per window, E's bins times I's bins. */
  private def binComparisons(e: LocalReference.Dataset, i: LocalReference.Dataset): Long = {
    def perWindow(d: LocalReference.Dataset) = d.histories.values.flatMap(_.map { case (w, cells) =>
      w -> cells.size.toLong }).groupMapReduce(_._1)(_._2)(_ + _)
    val (pe, pi) = (perWindow(e), perWindow(i))
    pe.map { case (w, n) => n * pi.getOrElse(w, 0L) }.sum
  }

  /** ST-Link's cost: per window, E's records times I's records. */
  private def recordComparisons(s: Inputs.Sampled, windowSec: Long): Long = {
    def perWindow(rs: Seq[Inputs.Rec]) = rs.groupMapReduce(r => math.floorDiv(r._2, windowSec))(_ => 1L)(_ + _)
    val (pe, pi) = (perWindow(s.e), perWindow(s.i))
    pe.map { case (w, n) => n * pi.getOrElse(w, 0L) }.sum
  }

  private val MB = 1024.0 * 1024.0

  /** Per-layer values from the spans. A layer off the workload's path has no
    * span and reports 0.
    */
  private def layerValues(spans: Seq[Tracer.Span], tr: Tracer, counts: Map[String, Double],
                          windowNs: Double, distNs: Double, generateS: Double,
                          records: Int): Seq[(String, Double)] = {
    def named(names: String*) = spans.filter(s => names.contains(s.name))
    def secs(names: String*) = named(names: _*).map(_.seconds).sum
    def total(names: String*)(f: Tracer.Span => Long) = named(names: _*).map(f).sum.toDouble
    val hist = Seq("histories.build", "histories.norms")
    val call = named("call").headOption
    val root = named("trace").headOption
    val v = Map(
      "histories.build_s" -> secs("histories.build"),
      "histories.norms_s" -> secs("histories.norms"),
      "histories.tasks" -> total(hist: _*)(_.tasks),
      "histories.shuffle_write_mb" -> total(hist: _*)(_.shuffleWriteBytes) / MB,
      "lsh.signature_s" -> secs("lsh.candidatePairs"),
      "slim.candidates_s" -> secs("slim.candidates"),
      "slim.collect_s" -> secs("slim.collect"),
      "slim.driver_s" -> named("trace").map(t => t.seconds - tr.jobCoveredMs(t) / 1000.0).sum,
      "similarity.score_s" -> secs("similarity.scoreEdges"),
      "similarity.tasks" -> total("similarity.scoreEdges")(_.tasks),
      "similarity.shuffle_write_mb" -> total("similarity.scoreEdges")(_.shuffleWriteBytes) / MB,
      "similarity.window_score_ns" -> windowNs,
      "grid.min_distance_ns" -> distNs,
      "matching.greedy_s" -> secs("matching.greedy"),
      "gmm.fit_s" -> secs("gmm.fit"),
      "stlink.wall_s" -> secs("stlink.run"),
      "stlink.spark_jobs" -> total("stlink.run")(_.jobs),
      "stlink.tasks" -> total("stlink.run")(_.tasks),
      "stlink.shuffle_write_mb" -> total("stlink.run")(_.shuffleWriteBytes) / MB,
      "spark.jobs" -> total("call")(_.jobs),
      "spark.stages" -> total("call")(_.stages),
      "spark.tasks" -> total("call")(_.tasks),
      "spark.shuffle_write_mb" -> total("call")(_.shuffleWriteBytes) / MB,
      "spark.task_run_s" -> total("call")(_.taskRunMs) / 1000.0,
      "spark.gc_s" -> total("call")(_.gcMs) / 1000.0,
      "mobility.generate_s" -> generateS,
      "mobility.records" -> records.toDouble,
      "trace.overhead_s" -> (for (r <- root; c <- call) yield r.seconds - c.seconds).getOrElse(0.0),
    ) ++ counts
    Report.perLayer.map(d => d.name -> v.getOrElse(d.name, 0.0))
  }

  /** ns/op of the in-core kernels over the shared windows of the true pairs,
    * timed in a default-JIT JVM of their own.
    */
  private def kernels(e: LocalReference.Dataset, i: LocalReference.Dataset, truth: Map[Long, Long],
                      sc: Similarity.ScoreConfig, dir: String, log: String => Unit): (Double, Double) = {
    def bins(d: LocalReference.Dataset, win: Long, cells: Map[Long, Long]) =
      cells.keys.toVector.sorted.map(c => Similarity.Bin(c, d.idf.getOrElse((win, c), 0.0)))
    val windows = for {
      (u, v) <- truth.toVector.sorted
      hu <- e.histories.get(u).toVector
      hv <- i.histories.get(v).toVector
      win <- hu.keySet.intersect(hv.keySet).toVector.sorted
    } yield (bins(e, win, hu(win)), bins(i, win, hv(win)))
    val t = Kernels.timeInChild(Kernels.Input(windows, sc), dir)
    log(f"kernels (default JIT): ${windows.size} shared windows, ${t.cellPairs} cell pairs, " +
      f"checksum ${t.checksum}%.6g")
    (t.windowScoreNs, t.minDistanceNs)
  }

  private def spanTable(spans: Seq[Tracer.Span]): String = {
    def depth(s: Tracer.Span): Int = s.parent.map(depth(_) + 1).getOrElse(0)
    val rows = spans.map { s =>
      f"  ${"  " * depth(s) + s.name}%-28s ${s.seconds}%9.3f ${Tracer.selfSeconds(s, spans)}%9.3f " +
        f"${s.jobs}%5d ${s.stages}%6d ${s.tasks}%6d ${s.shuffleWriteBytes / MB}%9.3f ${s.taskRunMs / 1000.0}%8.3f"
    }
    val header = f"spans: ${"name"}%-28s ${"total_s"}%9s ${"self_s"}%9s ${"jobs"}%5s " +
      f"${"stages"}%6s ${"tasks"}%6s ${"shuf_MB"}%9s ${"run_s"}%8s"
    (header +: rows).mkString("\n")
  }

  private def sqlTable(root: String, execs: Seq[Tracer.SqlExec]): String =
    (s"$root: SQL executions by call site (wall ms, jobs, tasks):" +: execs.map(x =>
      f"  ${x.description}%-44s ${x.wallMs}%7d ${x.jobs}%4d ${x.tasks}%6d")).mkString("\n")

  private def table(values: Seq[(String, Double)]): String = {
    val better = (Report.endToEnd ++ Report.perLayer ++ Report.reportOnly).map(d => d.name -> d.better).toMap
    ("metrics:" +: values.map { case (n, v) =>
      f"  $n%-30s ${v}%18.6f ${Report.unitOf(n)}%-6s ${better.getOrElse(n, "")}"
    }).mkString("\n")
  }
}
