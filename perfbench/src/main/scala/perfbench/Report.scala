package perfbench

/** Every metric the benchmark reports, with its unit and better direction.
  * `BENCHMARK.json` lists the same names; the self-test keeps them in step.
  */
object Report {

  final case class Def(name: String, unit: String, better: String)

  private def lower(name: String, unit: String) = Def(name, unit, "lower")
  private def higher(name: String, unit: String) = Def(name, unit, "higher")

  /** Printed with `--trace 0`. */
  val endToEnd: Seq[Def] = Seq(
    lower("link_s", "s"),
    lower("cold_link_s", "s"),
    lower("setup_s", "s"),
    higher("f1", "ratio"),
    lower("comparisons", "count"),
  )

  /** Printed with `--trace 1`. Every `lsh` metric is 0 on a brute-force
    * workload, which does not call [[repro.core.Lsh]]; its candidates are
    * under `slim` and `similarity`.
    */
  val perLayer: Seq[Def] = Seq(
    lower("histories.build_s", "s"),
    lower("histories.norms_s", "s"),
    lower("histories.tasks", "count"),
    lower("histories.shuffle_write_mb", "MB"),
    lower("histories.bins", "count"),
    lower("lsh.signature_s", "s"),
    lower("lsh.sig_len", "count"),
    lower("lsh.bands", "count"),
    lower("lsh.rows", "count"),
    lower("lsh.candidates", "count"),
    lower("lsh.candidate_frac", "ratio"),
    higher("lsh.true_pair_recall", "ratio"),
    lower("slim.candidates_s", "s"),
    lower("slim.candidate_partitions", "count"),
    lower("slim.collect_s", "s"),
    lower("slim.edges_to_driver", "count"),
    lower("slim.driver_s", "s"),
    lower("similarity.score_s", "s"),
    lower("similarity.tasks", "count"),
    lower("similarity.shuffle_write_mb", "MB"),
    lower("similarity.scored_pairs", "count"),
    lower("similarity.positive_edges", "count"),
    higher("similarity.positive_frac", "ratio"),
    lower("similarity.alibi_pairs", "count"),
    lower("similarity.window_score_ns", "ns"),
    lower("grid.min_distance_ns", "ns"),
    lower("matching.greedy_s", "s"),
    lower("matching.edges_in", "count"),
    higher("matching.matched", "count"),
    lower("gmm.fit_s", "s"),
    lower("gmm.threshold", "score"),
    higher("gmm.expected_f1", "ratio"),
    lower("stlink.wall_s", "s"),
    lower("stlink.spark_jobs", "count"),
    lower("stlink.tasks", "count"),
    lower("stlink.shuffle_write_mb", "MB"),
    lower("stlink.k", "count"),
    lower("stlink.l", "count"),
    lower("spark.jobs", "count"),
    lower("spark.stages", "count"),
    lower("spark.tasks", "count"),
    lower("spark.shuffle_write_mb", "MB"),
    lower("spark.task_run_s", "s"),
    lower("spark.gc_s", "s"),
    lower("mobility.generate_s", "s"),
    lower("mobility.records", "count"),
    lower("trace.overhead_s", "s"),
  )

  /** Reported but not listed in `BENCHMARK.json`, whose metrics must never
    * read 0: `fail_frac` is 0 on a healthy run, so the result line carries it
    * as `attempted` and `failed`.
    */
  val reportOnly: Seq[Def] = Seq(lower("fail_frac", "ratio"))

  def unitOf(name: String): String =
    (endToEnd ++ perLayer ++ reportOnly).find(_.name == name).map(_.unit).getOrElse("")

  /** The result line: `{"correct", "attempted", "failed", "metrics"}`. */
  def resultJson(correct: Boolean, attempted: Int, failed: Int,
                 values: Seq[(String, Double)]): String = {
    val ms = values.map { case (n, v) =>
      // A metric a failed run could not measure prints as 0; `correct` is false then.
      val num = if (v.isNaN) "0" else if (unitOf(n) == "count") v.toLong.toString else v.toString
      s""""$n": {"value": $num, "unit": "${unitOf(n)}"}"""
    }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}
