package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.mobility.MobilityGen

/** The DataFrame similarity join cross-checked against [[LocalReference]]. */
class SimilarityPipelineSpec extends SparkSpec {

  private val Level = 13
  private val WindowSec = 900L
  private val BParam = 0.5
  private val Base = Slim.SlimConfig(level = Level, windowSec = WindowSec, bParam = BParam)

  private def toScores(scored: DataFrame): Map[(Long, Long), Double] =
    scored.select("uid", "vid", "score").collect()
      .map(r => ((r.getLong(0), r.getLong(1)), r.getDouble(2))).toMap

  /** Brute-force scores through the pipeline's stages 1–3. */
  private def scoreAll(recordsE: DataFrame, recordsI: DataFrame,
                       cfg: Slim.SlimConfig): Map[(Long, Long), Double] =
    Slim.withScores(recordsE, recordsI, cfg)((scored, _) => toScores(scored)).get

  /** Scores of the pairs in a candidate table. */
  private def scoreCandidates(recordsE: DataFrame, recordsI: DataFrame, cfg: Slim.SlimConfig,
                              candidates: DataFrame): Map[(Long, Long), Double] = {
    val histE = Histories.build(recordsE, Level, WindowSec)
    val histI = Histories.build(recordsI, Level, WindowSec)
    toScores(Similarity.scoreEdges(
      Histories.binsByWindow(histE, Histories.idf(histE, Histories.nEntities(histE))),
      Histories.binsByWindow(histI, Histories.idf(histI, Histories.nEntities(histI))),
      Some(candidates), Histories.lengthNorm(histE, BParam), Histories.lengthNorm(histI, BParam),
      cfg.scoreConfig))
  }

  /** In-core scores of every pair, kept by `keep`, that shares a window. */
  private def localScoreAll(rowsE: Seq[(Long, Long, Double, Double)],
                            rowsI: Seq[(Long, Long, Double, Double)],
                            cfg: Similarity.ScoreConfig,
                            keep: ((Long, Long)) => Boolean = _ => true)
      : Map[(Long, Long), Double] = {
    val dsE = LocalReference.Dataset.fromRecords(rowsE, Level, WindowSec, BParam)
    val dsI = LocalReference.Dataset.fromRecords(rowsI, Level, WindowSec, BParam)
    (for {
      (u, hu) <- dsE.histories; (v, hv) <- dsI.histories
      if keep((u, v)) && hu.keySet.exists(hv.contains)
    } yield (u, v) -> LocalReference.score(dsE, dsI, u, v, cfg, BParam)).toMap
  }

  /** Same pairs, and scores within 1e-6 relative. */
  private def assertAgree(spark1: Map[(Long, Long), Double],
                          local: Map[(Long, Long), Double]): Unit = {
    assert(spark1.keySet == local.keySet)
    for ((k, b) <- local) {
      val a = spark1(k)
      assert(math.abs(a - b) < 1e-6 * math.max(1.0, math.abs(b)), s"pair $k: spark=$a local=$b")
    }
  }

  private def genPair(n: Int, recs: Int, p: Double) = {
    val ground = MobilityGen.ground(spark,
      MobilityGen.cabConfig(nEntities = n * 2, recordsPerEntity = recs, days = 2))
    MobilityGen.samplePair(ground, n = n, intersectRatio = 0.5, inclusionProb = p)
  }

  private def collectRows(df: DataFrame) =
    df.collect().map(r => (r.getLong(0), r.getLong(1), r.getDouble(2), r.getDouble(3))).toSeq

  for (pairing <- Seq(Similarity.MnnWithMfn, Similarity.MnnOnly, Similarity.AllPairs)) {
    test(s"scoreEdges equals LocalReference ($pairing)") {
      val pair = genPair(10, 60, 0.7)
      val cfg = Base.copy(pairing = pairing)
      val (rowsE, rowsI) = (collectRows(pair.e), collectRows(pair.i))
      val bruteForce = scoreAll(pair.e, pair.i, cfg)
      assertAgree(bruteForce, localScoreAll(rowsE, rowsI, cfg.scoreConfig))
      // A candidate table restricts the output to its pairs that share a
      // window: the full cross product gives the brute-force rows. The filter
      // does not depend on the pairing, so it is checked on the default only.
      if (pairing == Similarity.MnnWithMfn) {
        val all = Slim.allPairsCandidates(pair.e, pair.i)
        assertAgree(scoreCandidates(pair.e, pair.i, cfg, all), bruteForce)
        val inSubset = (k: (Long, Long)) => (k._1 + k._2) % 3 == 0
        val subset = localScoreAll(rowsE, rowsI, cfg.scoreConfig, inSubset)
        assert(subset.nonEmpty && subset.size < bruteForce.size)
        assertAgree(scoreCandidates(pair.e, pair.i, cfg,
          all.filter((col("uid") + col("vid")) % 3 === 0)), subset)
      }
    }
  }

  test("scoreEdges equals LocalReference without idf and norm") {
    val pair = genPair(8, 50, 0.7)
    val cfg = Base.copy(useIdf = false, useNorm = false)
    assertAgree(
      scoreAll(pair.e, pair.i, cfg),
      localScoreAll(collectRows(pair.e), collectRows(pair.i), cfg.scoreConfig))
  }

  test("true pairs outscore impostors on generated data") {
    val pair = genPair(12, 80, 0.8)
    val scores = scoreAll(pair.e, pair.i, Base)
    var wins = 0; var total = 0
    for ((u, v) <- pair.truth) {
      val own = scores.getOrElse((u, v), 0.0)
      val bestOther = scores.collect { case ((`u`, w), s) if w != v => s }
        .foldLeft(0.0)(math.max)
      total += 1; if (own > bestOther) wins += 1
    }
    assert(total > 0 && wins.toDouble / total >= 0.8, s"$wins of $total true pairs ranked first")
  }

  test("alibi counting: cross-city pairs carry alibis, co-located pairs do not") {
    // Two entities in SF, one in Sydney, sharing the same windows.
    val sf1 = (0 until 20).map(i => (1L, i * 900L + 10, 37.77 + (i % 3) * 0.01, -122.42))
    val sf2 = (0 until 20).map(i => (101L, i * 900L + 500, 37.77 + (i % 3) * 0.01, -122.42))
    val syd = (0 until 20).map(i => (102L, i * 900L + 500, -33.87, 151.21))
    val e = Histories.recordsDf(spark, sf1)
    val i = Histories.recordsDf(spark, sf2 ++ syd)
    val histE = Histories.build(e, Level, WindowSec)
    val histI = Histories.build(i, Level, WindowSec)
    val binsE = Histories.binsByWindow(histE, Histories.idf(histE, 1))
    val binsI = Histories.binsByWindow(histI, Histories.idf(histI, 2))
    val scored = Similarity.scoreEdges(binsE, binsI, None,
      Histories.lengthNorm(histE, BParam), Histories.lengthNorm(histI, BParam),
      // idf off: with one entity per dataset every bin's idf is ln(1/1) = 0,
      // which would zero all contributions — proximity sign is under test here
      Similarity.ScoreConfig(runawayKm = 30.0, useIdf = false))
      .collect().map(r => (r.getLong(1), r.getDouble(2), r.getLong(4))).toSeq
    val toSf = scored.find(_._1 == 101L).get
    val toSyd = scored.find(_._1 == 102L).get
    assert(toSf._3 == 0 && toSf._2 > 0, "co-located pair: no alibis, positive score")
    assert(toSyd._3 > 0 && toSyd._2 < 0, "cross-city pair: alibis and negative score")
  }

  test("comparisons column counts bin-pair distance computations") {
    val e = Histories.recordsDf(spark, Seq((1L, 0L, 10.0, 10.0), (1L, 10L, 10.1, 10.0)))
    val i = Histories.recordsDf(spark, Seq((2L, 20L, 10.0, 10.0), (2L, 30L, 10.2, 10.0),
      (2L, 1000L, 10.0, 10.0)))
    val histE = Histories.build(e, Level, WindowSec)
    val histI = Histories.build(i, Level, WindowSec)
    val scored = Similarity.scoreEdges(
      Histories.binsByWindow(histE, Histories.idf(histE, 1)),
      Histories.binsByWindow(histI, Histories.idf(histI, 1)), None,
      Histories.lengthNorm(histE, BParam), Histories.lengthNorm(histI, BParam),
      Similarity.ScoreConfig(runawayKm = 30.0)).collect()
    // window 0: E has 2 bins, I has 3 distinct cells... I's bins in window 0:
    // cells at 10.0 and 10.2 -> 2 bins (the ts=1000 record is window 1).
    // window 1: E has no bins -> no row. Total comparisons = 2*2 = 4.
    assert(scored.map(_.getLong(3)).sum == 4)
  }
}
