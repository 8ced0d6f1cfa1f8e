package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.core.{Lsh, Slim}
import repro.exp.Experiments
import repro.exp.Experiments._

/** Shared bootstrap for the spark-submit entrypoints (one object per
  * evaluation table, DESIGN.md T1–T10).
  *
  * Usage: `spark-submit --class repro.jobs.JobT1 repro.jar [scale]`
  * where `scale` (default 1.0) multiplies entity counts — scale 1.0 targets a
  * single beefy node; bench suites run the same harness smaller.
  */
object Jobs {
  def session(name: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions",
        sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .getOrCreate()

  def scaleArg(args: Array[String]): Double =
    args.headOption.map(_.toDouble).getOrElse(1.0)

  def n(base: Int, scale: Double): Int = math.max(8, (base * scale).toInt)
}

/** T1 (Fig 4): Cab accuracy/cost vs spatio-temporal level. */
object JobT1 {
  def main(args: Array[String]): Unit = {
    val s = Jobs.scaleArg(args); val spark = Jobs.session("slim-t1")
    val sc = cabScenario(spark, n = Jobs.n(130, s), recsPerEntity = 1000, days = 7,
      rho = 0.5, p = 0.5)
    val rows = spatioTemporalSweep(spark, sc, Seq(8, 12, 16, 20), Seq(5, 15, 90, 360))
    Experiments.printTable(s"T1 Fig4 ${sc.name}",
      Seq("level", "winMin", "precision", "recall", "f1", "alibiPairs", "comparisons"),
      rows.map(r => Seq(r.level, r.windowMin, r.precision, r.recall, r.f1,
        r.alibiPairs, r.comparisons)))
    spark.stop()
  }
}

/** T2 (Fig 5): SM accuracy/cost vs spatio-temporal level. */
object JobT2 {
  def main(args: Array[String]): Unit = {
    val s = Jobs.scaleArg(args); val spark = Jobs.session("slim-t2")
    val sc = smScenario(spark, n = Jobs.n(1500, s), recsPerEntity = 24, days = 26,
      rho = 0.5, p = 0.5)
    val rows = spatioTemporalSweep(spark, sc, Seq(8, 12, 16, 20), Seq(15, 90, 360))
    Experiments.printTable(s"T2 Fig5 ${sc.name}",
      Seq("level", "winMin", "precision", "recall", "f1", "alibiPairs", "comparisons"),
      rows.map(r => Seq(r.level, r.windowMin, r.precision, r.recall, r.f1,
        r.alibiPairs, r.comparisons)))
    spark.stop()
  }
}

/** T3 (Fig 6): GMM fit and stop threshold per spatial level (w = 90 min). */
object JobT3 {
  def main(args: Array[String]): Unit = {
    val s = Jobs.scaleArg(args); val spark = Jobs.session("slim-t3")
    val sc = cabScenario(spark, n = Jobs.n(130, s), recsPerEntity = 1000, days = 7,
      rho = 0.5, p = 0.5)
    val rows = gmmThresholdStudy(spark, sc, Seq(4, 8, 12, 16))
    Experiments.printTable(s"T3 Fig6 ${sc.name}",
      Seq("level", "mu1", "mu2", "s1", "s2", "c1", "threshold", "sep", "prec", "rec"),
      rows.map(r => Seq(r.level, r.mu1, r.mu2, r.sigma1, r.sigma2, r.c1,
        r.threshold, r.separation, r.precision, r.recall)))
    spark.stop()
  }
}

/** T4 (Fig 7): sensitivity to inclusion probability and intersection ratio. */
object JobT4 {
  def main(args: Array[String]): Unit = {
    val s = Jobs.scaleArg(args); val spark = Jobs.session("slim-t4")
    val cab = sensitivity(spark,
      (rho, p) => cabScenario(spark, Jobs.n(130, s), 1000, 7, rho, p),
      Seq(0.3, 0.5, 0.7), Seq(0.1, 0.25, 0.5, 0.9))
    val sm = sensitivity(spark,
      (rho, p) => smScenario(spark, Jobs.n(1500, s), 30, 26, rho, p),
      Seq(0.3, 0.5, 0.7), Seq(0.3, 0.5, 0.8))
    for ((name, rows) <- Seq("Cab" -> cab, "SM" -> sm))
      Experiments.printTable(s"T4 Fig7 $name",
        Seq("rho", "p", "avgRecords", "f1", "elapsedMs"),
        rows.map(r => Seq(r.rho, r.p, r.avgRecords, r.f1, r.elapsedMs)))
    spark.stop()
  }
}

/** T5 (Fig 8): LSH accuracy/speed-up vs signature level and step size. */
object JobT5 {
  def main(args: Array[String]): Unit = {
    val s = Jobs.scaleArg(args); val spark = Jobs.session("slim-t5")
    val cfg = Slim.SlimConfig()
    for ((name, sc) <- Seq(
      "Cab" -> cabScenario(spark, Jobs.n(130, s), 1000, 7, 0.5, 0.5),
      "SM" -> smScenario(spark, Jobs.n(1500, s), 24, 26, 0.5, 0.5))) {
      val grid = for (lvl <- Seq(10, 12, 14, 16); step <- Seq(12, 24, 48))
        yield Lsh.LshConfig(t = 0.6, sigLevel = lvl, stepWindows = step, numBuckets = 4096)
      val rows = lshSweep(spark, sc, cfg, grid)
      Experiments.printTable(s"T5 Fig8 $name ${sc.name}",
        Seq("sigLevel", "step", "relF1", "speedup", "candidates"),
        rows.map(r => Seq(r.lsh.sigLevel, r.lsh.stepWindows, r.relF1, r.speedup, r.candidates)))
    }
    spark.stop()
  }
}

/** T6 (Fig 9): speed-up vs hash bucket count per LSH threshold. */
object JobT6 {
  def main(args: Array[String]): Unit = {
    val s = Jobs.scaleArg(args); val spark = Jobs.session("slim-t6")
    val cfg = Slim.SlimConfig()
    for ((name, sc) <- Seq(
      "Cab" -> cabScenario(spark, Jobs.n(130, s), 1000, 7, 0.5, 0.5),
      "SM" -> smScenario(spark, Jobs.n(1500, s), 24, 26, 0.5, 0.5))) {
      val grid = for (t <- Seq(0.4, 0.6, 0.8); b <- Seq(1 << 8, 1 << 12, 1 << 15, 1 << 18))
        yield Lsh.LshConfig(t = t, sigLevel = 16, stepWindows = 48, numBuckets = b)
      val rows = lshSweep(spark, sc, cfg, grid)
      Experiments.printTable(s"T6 Fig9 $name ${sc.name}",
        Seq("t", "buckets", "relF1", "speedup"),
        rows.map(r => Seq(r.lsh.t, r.lsh.numBuckets, r.relF1, r.speedup)))
    }
    spark.stop()
  }
}

/** T7 (Fig 10): ablation study. */
object JobT7 {
  def main(args: Array[String]): Unit = {
    val s = Jobs.scaleArg(args); val spark = Jobs.session("slim-t7")
    val sc = cabScenario(spark, Jobs.n(130, s), 1000, 7, 0.5, 0.5)
    val rows = ablation(spark, sc, Seq(8, 12, 16, 20, 24), Seq(5, 15, 90, 360, 720))
    for (axis <- Seq("level", "windowMin")) {
      val vals = rows.filter(_.axis == axis).map(_.value).distinct.sorted
      Experiments.printTable(s"T7 Fig10 ${sc.name}: F1 by $axis",
        axis +: AblationVariants.map(_._1),
        vals.map(v => v +: AblationVariants.map { case (nm, _) =>
          rows.find(r => r.axis == axis && r.value == v && r.variant == nm).get.f1
        }))
    }
    spark.stop()
  }
}

/** T8 (Fig 11a/b): SLIM vs SLIM-noLSH vs ST-Link vs GM. */
object JobT8 {
  def main(args: Array[String]): Unit = {
    val s = Jobs.scaleArg(args); val spark = Jobs.session("slim-t8")
    val rows = comparison(spark,
      recs => cabScenario(spark, Jobs.n(130, s), recs / 0.6, 7, 0.5, 0.6),
      Seq(20.0, 80.0, 165.0, 330.0, 660.0),
      lsh = repro.core.Lsh.LshConfig(t = 0.5, sigLevel = 14, stepWindows = 48))
    Experiments.printTable("T8 Fig11ab",
      Seq("algo", "avgRecords", "hitPrec@40", "f1", "elapsedMs", "comparisons"),
      rows.map(r => Seq(r.algo, r.avgRecords, r.hitPrec40, r.f1, r.elapsedMs,
        r.comparisons)))
    spark.stop()
  }
}

/** T9 (Fig 11c/d): SLIM vs ST-Link at scale. */
object JobT9 {
  def main(args: Array[String]): Unit = {
    val s = Jobs.scaleArg(args); val spark = Jobs.session("slim-t9")
    val rows = comparisonScale(spark,
      (recs, rho) => cabScenario(spark, Jobs.n(130, s), recs / 0.6, 7, rho, 0.6),
      Seq(500.0, 1000.0, 2000.0), Seq(0.3, 0.7),
      lsh = repro.core.Lsh.LshConfig(t = 0.5, sigLevel = 14, stepWindows = 48))
    Experiments.printTable("T9 Fig11cd",
      Seq("algo", "rho", "avgRecords", "f1", "elapsedMs", "comparisons"),
      rows.map(r => Seq(r.algo, r.rho, r.avgRecords, r.f1, r.elapsedMs, r.comparisons)))
    spark.stop()
  }
}

/** T10 (§3.3): automatic spatial-level tuning. */
object JobT10 {
  def main(args: Array[String]): Unit = {
    val s = Jobs.scaleArg(args); val spark = Jobs.session("slim-t10")
    val rows = tuningStudy(spark,
      Seq(
        "cab" -> cabScenario(spark, Jobs.n(130, s), 1000, 7, 0.5, 0.5),
        "sm" -> smScenario(spark, Jobs.n(1000, s), 24, 26, 0.5, 0.5)),
      windowSec = 900, levels = Seq(6, 8, 10, 12, 14, 16, 18))
    Experiments.printTable("T10 auto-tuning",
      Seq("dataset", "chosenLevel", "curve"),
      rows.map(r => Seq(r.dataset, r.chosenLevel,
        r.curve.map { case (l, v) => f"$l:$v%.3f" }.mkString(" "))))
    spark.stop()
  }
}
