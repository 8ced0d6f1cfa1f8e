package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** End-to-end SLIM pipeline (paper Alg. 1 + §3.2 + §4).
  *
  * Stages, all DataFrame transformations until the per-edge reduction:
  *  1. mobility histories + idf + BM25 length norms per dataset;
  *  2. candidate pairs from dominating-cell banding LSH; brute force has no
  *     candidate table and scores every pair that shares a window;
  *  3. similarity join on the shared window key with MNN/MFN window scoring;
  *  4. (driver) greedy maximum-weight bipartite matching;
  *  5. (driver) GMM stop-threshold over matched edge weights; links above the
  *     threshold are the output.
  */
object Slim {

  /** Full pipeline configuration. Defaults mirror the paper's (§5.1): 15-min
    * windows, b = 0.5, max speed 2 km/min. The default spatial level is 14 —
    * our grid's ~equivalent of the paper's S2 level 12 (DESIGN S1).
    */
  final case class SlimConfig(
      level: Int = 14,
      windowSec: Long = 900,
      bParam: Double = 0.5,
      speedKmPerMin: Double = 2.0,
      pairing: Similarity.Pairing = Similarity.MnnWithMfn,
      useIdf: Boolean = true,
      useNorm: Boolean = true,
      lsh: Option[Lsh.LshConfig] = None,
  ) {
    def scoreConfig: Similarity.ScoreConfig = Similarity.ScoreConfig(
      runawayKm = Proximity.runawayKm(windowSec, speedKmPerMin),
      pairing = pairing, useIdf = useIdf, useNorm = useNorm)
  }

  /** Pipeline output plus the cost/diagnostic counters the evaluation plots.
    *
    * @param links            final linkage (u, v, weight), above threshold
    * @param matched          full matching before thresholding
    * @param threshold        GMM stop threshold (-inf when degenerate)
    * @param gmm              the fitted mixture, when one was fitted
    * @param nCandidates      candidate pairs entering the similarity join
    * @param comparisons      bin-pair distance computations performed (the
    *                         paper's "pairwise record comparisons" cost)
    * @param alibiEntityPairs scored pairs containing >= 1 alibi bin pair
    * @param elapsedMs        wall time of stages 1–5
    */
  final case class SlimResult(
      links: Seq[(Long, Long, Double)],
      matched: Seq[Matching.Edge],
      threshold: Double,
      gmm: Option[Gmm.Gmm2],
      nCandidates: Long,
      comparisons: Long,
      alibiEntityPairs: Long,
      elapsedMs: Long,
  )

  /** Cross product of the two entity id sets. Not used by the pipeline; kept
    * for the traced call of the benchmark harness (`perfbench/`).
    */
  def allPairsCandidates(recordsE: DataFrame, recordsI: DataFrame): DataFrame = {
    val e = recordsE.select(col("id").as("uid")).distinct()
    val i = recordsI.select(col("id").as("vid")).distinct()
    e.crossJoin(i)
  }

  /** Stages 1–3: passes the rows of [[Similarity.scoreEdges]] and the
    * candidate count (`nE * nI` for brute force) to `use`, then releases the
    * caches it made. `None`, without calling `use`, when a side is empty.
    */
  def withScores[A](recordsE: DataFrame, recordsI: DataFrame, cfg: SlimConfig)
                   (use: (DataFrame, Long) => A): Option[A] = {
    val histE = Histories.build(recordsE, cfg.level, cfg.windowSec).cache()
    val histI = Histories.build(recordsI, cfg.level, cfg.windowSec).cache()
    try {
      val nE = Histories.nEntities(histE)
      val nI = Histories.nEntities(histI)
      Option.when(nE > 0 && nI > 0) {
        val binsE = Histories.binsByWindow(histE, Histories.idf(histE, nE))
        val binsI = Histories.binsByWindow(histI, Histories.idf(histI, nI))
        val lensE = Histories.lengthNorm(histE, cfg.bParam)
        val lensI = Histories.lengthNorm(histI, cfg.bParam)
        val candidates = cfg.lsh.map(l =>
          Lsh.candidatePairs(recordsE, recordsI, l, cfg.windowSec)._1.cache())
        val scored = Similarity.scoreEdges(binsE, binsI, candidates, lensE, lensI,
          cfg.scoreConfig).cache()
        try use(scored, candidates.fold(nE * nI)(_.count()))
        finally { scored.unpersist(); candidates.foreach(_.unpersist()) }
      }
    } finally { histE.unpersist(); histI.unpersist() }
  }

  /** Run SLIM over two location datasets `(id, ts, lat, lon)`. An empty side
    * gives an empty result: no links, no candidates, threshold -inf.
    */
  def link(spark: SparkSession, recordsE: DataFrame, recordsI: DataFrame,
           cfg: SlimConfig): SlimResult = {
    val t0 = System.nanoTime()
    def elapsedMs = (System.nanoTime() - t0) / 1000000L
    withScores(recordsE, recordsI, cfg) { (scored, nCandidates) =>
      val stats = scored.agg(
        coalesce(sum("comparisons"), lit(0L)).as("comps"),
        coalesce(sum(when(col("alibis") > 0, 1L).otherwise(0L)), lit(0L)).as("alibiPairs"),
      ).first()

      val edges = scored.filter(col("score") > 0)
        .select("uid", "vid", "score").collect()
        .map(r => Matching.Edge(r.getLong(0), r.getLong(1), r.getDouble(2))).toSeq

      val matched = Matching.greedy(edges)
      val (threshold, gmm) = Gmm.stopThreshold(matched.map(_.w).toArray)
      val links = matched.filter(_.w >= threshold).map(e => (e.u, e.v, e.w))
      SlimResult(links, matched, threshold, gmm, nCandidates,
        stats.getLong(0), stats.getLong(1), elapsedMs)
    }.getOrElse(SlimResult(Nil, Nil, Double.NegativeInfinity, None, 0L, 0L, 0L, elapsedMs))
  }
}
