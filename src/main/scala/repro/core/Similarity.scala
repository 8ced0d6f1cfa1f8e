package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._

import scala.collection.mutable

/** Mobility history similarity (paper §3.1, Eq. 2, Alg. 1).
  *
  * Per shared temporal window, the bins of the two entities are paired by the
  * pairing function N (mutually nearest neighbours, computed greedily: take
  * the globally closest remaining cross pair, retire both bins, repeat until
  * the smaller side is exhausted). Each pair contributes
  * `P(e, i) * min(idf(e), idf(i))`; the per-entity-pair sum is then divided by
  * the BM25-style length norms `L(u) * L(v)`.
  *
  * The optional mutually-furthest-neighbour (MFN) pass re-pairs the same bins
  * by *largest* distance and adds a pair's contribution only when it is
  * negative (an alibi) and the pair was not already counted by MNN — the
  * paper's double-counting guard.
  */
object Similarity {

  /** How bins within a shared window are paired before aggregation. */
  sealed trait Pairing
  /** Paper default: MNN pairs plus the MFN alibi pass (Alg. 1). */
  case object MnnWithMfn extends Pairing
  /** Ablation: MNN pairs only (Fig. 10 "MNN"). */
  case object MnnOnly extends Pairing
  /** Ablation: full cross product of same-window bins (Fig. 10 "All Pairs"). */
  case object AllPairs extends Pairing

  /** Scoring configuration shared by the in-core and DataFrame paths.
    *
    * @param runawayKm runaway distance R for the similarity window width
    * @param pairing   bin pairing strategy (ablations)
    * @param useIdf    include the min-idf multiplier (Fig. 10 "No IDF" off)
    * @param useNorm   divide by L(u)L(v) (Fig. 10 "No Normalization" off)
    */
  final case class ScoreConfig(
      runawayKm: Double,
      pairing: Pairing = MnnWithMfn,
      useIdf: Boolean = true,
      useNorm: Boolean = true,
  )

  /** A leaf time-location bin restricted to one window: the cell plus the
    * smaller of its two dataset idf values' inputs (each side carries its own
    * dataset's idf; `min` is taken per pair at scoring time).
    */
  final case class Bin(cell: Long, idf: Double)

  /** Unnormalized per-window aggregation result.
    *
    * @param raw         sum of `P * minIdf` over the counted pairs
    * @param comparisons number of cell-distance computations performed — the
    *                    "pairwise record comparisons" cost metric of §5
    * @param alibiPairs  counted pairs with negative proximity
    */
  final case class WindowScore(raw: Double, comparisons: Long, alibiPairs: Long)

  /** Greedy mutual pairing. Returns (indexU, indexV, distanceKm) triples.
    * `nearest = true` picks globally closest pairs first (N); false picks the
    * furthest first (N'). Ties break on (cellU, cellV) for determinism.
    */
  def mutualPairs(us: IndexedSeq[Long], vs: IndexedSeq[Long], nearest: Boolean): Seq[(Int, Int, Double)] = {
    if (us.isEmpty || vs.isEmpty) return Nil
    val all = mutable.ArrayBuffer.empty[(Double, Int, Int)]
    var i = 0
    while (i < us.length) {
      var j = 0
      while (j < vs.length) {
        all += ((Grid.minDistanceKm(us(i), vs(j)), i, j)); j += 1
      }
      i += 1
    }
    val sorted = all.sortBy { case (d, a, b) =>
      (if (nearest) d else -d, us(a), vs(b))
    }
    val usedU = new Array[Boolean](us.length)
    val usedV = new Array[Boolean](vs.length)
    val out = mutable.ArrayBuffer.empty[(Int, Int, Double)]
    val target = math.min(us.length, vs.length)
    val it = sorted.iterator
    while (out.size < target && it.hasNext) {
      val (d, a, b) = it.next()
      if (!usedU(a) && !usedV(b)) { usedU(a) = true; usedV(b) = true; out += ((a, b, d)) }
    }
    out.toSeq
  }

  /** Aggregate one shared window's bins into an unnormalized contribution. */
  def windowScore(us: IndexedSeq[Bin], vs: IndexedSeq[Bin], cfg: ScoreConfig): WindowScore = {
    if (us.isEmpty || vs.isEmpty) return WindowScore(0.0, 0L, 0L)
    val uc = us.map(_.cell); val vc = vs.map(_.cell)
    def weight(a: Int, b: Int): Double =
      if (cfg.useIdf) math.min(us(a).idf, vs(b).idf) else 1.0
    def prox(d: Double): Double = Proximity.proximity(d, cfg.runawayKm)

    var raw = 0.0; var alibis = 0L
    val comparisons = us.length.toLong * vs.length.toLong
    cfg.pairing match {
      case AllPairs =>
        for (a <- uc.indices; b <- vc.indices) {
          val p = prox(Grid.minDistanceKm(uc(a), vc(b)))
          raw += p * weight(a, b)
          if (p < 0) alibis += 1
        }
      case MnnOnly | MnnWithMfn =>
        val mnn = mutualPairs(uc, vc, nearest = true)
        val counted = mutable.Set.empty[(Int, Int)]
        for ((a, b, d) <- mnn) {
          val p = prox(d)
          raw += p * weight(a, b)
          if (p < 0) alibis += 1
          counted += ((a, b))
        }
        if (cfg.pairing == MnnWithMfn) {
          for ((a, b, d) <- mutualPairs(uc, vc, nearest = false) if !counted((a, b))) {
            val p = prox(d)
            if (p < 0) { raw += p * weight(a, b); alibis += 1 } // only alibi deltas (Alg. 1)
          }
        }
    }
    WindowScore(raw, comparisons, alibis)
  }

  /** DataFrame edge scoring: the windowed similarity join.
    *
    * @param binsE      `(id, win, bins)` from [[Histories.binsByWindow]] (dataset E)
    * @param binsI      same for dataset I
    * @param candidates `(uid, vid)` pairs to score (LSH output), or `None` for
    *                   brute force: every pair of entities that shares a window
    * @param lensE      `(id, nbins, lnorm)` from [[Histories.lengthNorm]] (E)
    * @param lensI      same for I
    * @return one row per (candidate) pair that shares at least one window:
    *         `(uid, vid, score, comparisons, alibis)`. The caller applies
    *         Alg. 1's "if S > 0" edge filter — the unfiltered rows carry the
    *         comparison counts (the §5 cost metric) and alibi counts.
    */
  def scoreEdges(binsE: DataFrame, binsI: DataFrame, candidates: Option[DataFrame],
                 lensE: DataFrame, lensI: DataFrame, cfg: ScoreConfig): DataFrame = {
    val scoreUdf = udf { (u: Seq[Row], v: Seq[Row]) =>
      val ub = u.map(r => Bin(r.getLong(0), r.getDouble(1))).toIndexedSeq
      val vb = v.map(r => Bin(r.getLong(0), r.getDouble(1))).toIndexedSeq
      val ws = windowScore(ub, vb, cfg)
      (ws.raw, ws.comparisons, ws.alibiPairs)
    }
    val e = binsE.select(col("id").as("uid"), col("win"), col("bins").as("ubins"))
    val i = binsI.select(col("id").as("vid"), col("win"), col("bins").as("vbins"))
    val perWindow = (candidates match { // blocking join: only shared windows survive
      case Some(c) => c.join(e, Seq("uid")).join(i, Seq("vid", "win"))
      case None    => e.join(i, Seq("win"))
    }).withColumn("ws", scoreUdf(col("ubins"), col("vbins")))
    val aggregated = perWindow
      .groupBy("uid", "vid")
      .agg(
        sum(col("ws._1")).as("raw"),
        sum(col("ws._2")).as("comparisons"),
        sum(col("ws._3")).as("alibis"),
      )
    val lE = lensE.select(col("id").as("uid"), col("lnorm").as("ulen"))
    val lI = lensI.select(col("id").as("vid"), col("lnorm").as("vlen"))
    val scored =
      if (cfg.useNorm)
        aggregated.join(lE, "uid").join(lI, "vid")
          .withColumn("score", col("raw") / (col("ulen") * col("vlen")))
      else aggregated.withColumn("score", col("raw"))
    scored.select("uid", "vid", "score", "comparisons", "alibis")
  }

  /** `scoreEdges` with `Some(candidates)`. */
  def scoreEdges(binsE: DataFrame, binsI: DataFrame, candidates: DataFrame,
                 lensE: DataFrame, lensI: DataFrame, cfg: ScoreConfig): DataFrame =
    scoreEdges(binsE, binsI, Some(candidates), lensE, lensI, cfg)
}
