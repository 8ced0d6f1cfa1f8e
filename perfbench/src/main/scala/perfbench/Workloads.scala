package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.baselines.STLink
import repro.core._

/** The benchmark's workloads and the two ways each one is called: through
  * [[Slim.link]] (timed), and step by step with a span around each module call
  * (traced). The traced run also times the ST-Link baseline on the same input.
  */
object Workloads {

  /** What one call produced: links as (u, v, weight) sorted by (u, v). */
  final case class Outcome(links: Seq[(Long, Long, Double)], nCandidates: Long, comparisons: Long)

  /** @param warmup calls after the cold call that `link_s` does not sample */
  final case class Workload(name: String, profile: Scale => Inputs.Profile, cfg: Slim.SlimConfig,
                            warmup: Int)

  val all: Seq[Workload] = Seq(
    // Dense cab windows and the cross-product candidate stage.
    Workload("cab-brute", Inputs.cab, Slim.SlimConfig(), warmup = 1),
    // Many sparse entities through LSH: T6's accuracy-preserving SM setting.
    Workload("sm-lsh", Inputs.sm, Slim.SlimConfig(lsh = Some(
      Lsh.LshConfig(t = 0.6, sigLevel = 12, stepWindows = 24))), warmup = 1),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  private def sorted(links: Seq[(Long, Long, Double)]) = links.sortBy(l => (l._1, l._2))

  /** One untraced call of [[Slim.link]]. */
  def call(spark: SparkSession, w: Workload, e: DataFrame, i: DataFrame): Outcome = {
    val r = Slim.link(spark, e, i, w.cfg)
    Outcome(sorted(r.links), r.nCandidates, r.comparisons)
  }

  /** Numbers the traced call produces besides its spans. */
  final case class Traced(outcome: Outcome, counts: Map[String, Double])

  /** ST-Link with its default configuration on the workload's input, as one
    * span; its SQL executions are split afterwards by call site.
    */
  def tracedStLink(spark: SparkSession, tr: Tracer, e: DataFrame, i: DataFrame): STLink.Result =
    tr.span("stlink.run")(STLink.run(spark, e, i, STLink.Config()))

  /** The traced SLIM call: the public functions in [[Slim.link]]'s order,
    * materialised where it materialises, each inside a span.
    */
  def traced(tr: Tracer, w: Workload, e: DataFrame, i: DataFrame,
             truth: Map[Long, Long]): Traced = {
    val cfg = w.cfg
    val (histE, histI, nE, nI, cand, nCandidates, scored, stats, edges, matched, threshold, gmm,
      sizing) = tr.span("trace") {
      val (histE, histI, nE, nI) = tr.span("histories.build") {
        val he = Histories.build(e, cfg.level, cfg.windowSec).cache()
        val hi = Histories.build(i, cfg.level, cfg.windowSec).cache()
        (he, hi, Histories.nEntities(he), Histories.nEntities(hi))
      }
      val (binsE, binsI, lensE, lensI) = tr.span("histories.norms") {
        (Histories.binsByWindow(histE, Histories.idf(histE, nE)),
          Histories.binsByWindow(histI, Histories.idf(histI, nI)),
          Histories.lengthNorm(histE, cfg.bParam), Histories.lengthNorm(histI, cfg.bParam))
      }
      val (candidates, sizing) = cfg.lsh match {
        case Some(l) =>
          val (c, sigLen, b, r) = tr.span("lsh.candidatePairs")(
            Lsh.candidatePairs(e, i, l, cfg.windowSec))
          (c, Map("lsh.sig_len" -> sigLen.toDouble, "lsh.bands" -> b.toDouble,
            "lsh.rows" -> r.toDouble))
        case None => (Slim.allPairsCandidates(e, i), Map.empty[String, Double])
      }
      val (cand, nCandidates) = tr.span("slim.candidates") {
        val c = candidates.cache(); (c, c.count())
      }
      val (scored, stats) = tr.span("similarity.scoreEdges") {
        val s = Similarity.scoreEdges(binsE, binsI, cand, lensE, lensI, cfg.scoreConfig).cache()
        (s, s.agg(
          coalesce(sum("comparisons"), lit(0L)).as("comps"),
          coalesce(sum(when(col("alibis") > 0, 1L).otherwise(0L)), lit(0L)).as("alibiPairs"),
        ).first())
      }
      val edges = tr.span("slim.collect") {
        scored.filter(col("score") > 0).select("uid", "vid", "score").collect()
          .map(r => Matching.Edge(r.getLong(0), r.getLong(1), r.getDouble(2))).toSeq
      }
      val matched = tr.span("matching.greedy")(Matching.greedy(edges))
      val (threshold, gmm) = tr.span("gmm.fit") {
        val weights = matched.map(_.w).toArray
        if (weights.length < 4) (Double.NegativeInfinity, None)
        else {
          val g = Gmm.fit(weights)
          (Gmm.selectThreshold(g, weights.min, weights.max), Some(g))
        }
      }
      (histE, histI, nE, nI, cand, nCandidates, scored, stats, edges, matched, threshold, gmm,
        sizing)
    }
    val links = matched.filter(_.w >= threshold).map(x => (x.u, x.v, x.w))

    // Row counts and candidate recall read the caches after the trace closes.
    // The `lsh` counts exist only when LSH chose the candidates.
    val lshCounts = if (cfg.lsh.isEmpty) Map.empty[String, Double] else {
      val candSet = cand.select("uid", "vid").collect().map(r => (r.getLong(0), r.getLong(1))).toSet
      Map(
        "lsh.candidates" -> nCandidates.toDouble,
        "lsh.candidate_frac" -> nCandidates.toDouble / (nE.toDouble * nI),
        "lsh.true_pair_recall" ->
          (if (truth.isEmpty) 1.0 else truth.count(candSet.contains).toDouble / truth.size))
    }
    val scoredPairs = scored.count().toDouble
    val counts = Map(
      "histories.bins" -> (histE.count() + histI.count()).toDouble,
      "slim.candidate_partitions" -> cand.rdd.getNumPartitions.toDouble,
      "slim.edges_to_driver" -> edges.size.toDouble,
      "similarity.scored_pairs" -> scoredPairs,
      "similarity.positive_edges" -> edges.size.toDouble,
      "similarity.positive_frac" -> (if (scoredPairs == 0) 0.0 else edges.size / scoredPairs),
      "similarity.alibi_pairs" -> stats.getLong(1).toDouble,
      "matching.edges_in" -> edges.size.toDouble,
      "matching.matched" -> matched.size.toDouble,
      "gmm.threshold" -> (if (threshold.isInfinite) 0.0 else threshold),
      "gmm.expected_f1" -> gmm.map(g => Gmm.expectedPrf(g, threshold)._3).getOrElse(0.0),
    ) ++ sizing ++ lshCounts
    scored.unpersist(); cand.unpersist(); histE.unpersist(); histI.unpersist()
    Traced(Outcome(sorted(links), nCandidates, stats.getLong(0)), counts)
  }
}
