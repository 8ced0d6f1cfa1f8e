package repro.core

import org.apache.spark.sql.DataFrame

import repro.SparkSpec
import repro.mobility.MobilityGen

/** End-to-end SLIM pipeline: does it actually link the planted entities? */
class SlimIntegrationSpec extends SparkSpec {

  private lazy val ground = MobilityGen.ground(spark,
    MobilityGen.cabConfig(nEntities = 60, recordsPerEntity = 200, days = 2)).cache()
  private lazy val pair = MobilityGen.samplePair(ground, n = 25, intersectRatio = 0.5,
    inclusionProb = 0.6)
  private val cfg = Slim.SlimConfig(level = 14, windowSec = 900)

  private lazy val bf = Slim.link(spark, pair.e, pair.i, cfg)

  test("brute-force SLIM recovers the planted linkage with high F1") {
    val m = Metrics.prf(bf.links.map(l => (l._1, l._2)), pair.truth)
    assert(m.f1 >= 0.85, s"F1 ${m.f1} (P=${m.precision} R=${m.recall}, truth=${pair.truth.size})")
  }

  test("brute force considers every entity pair") {
    val nE = pair.e.select("id").distinct().count()
    val nI = pair.i.select("id").distinct().count()
    assert(bf.nCandidates == nE * nI)
  }

  test("brute force gives the same result at 4 shuffle partitions") {
    val key = "spark.sql.shuffle.partitions"
    val before = spark.conf.get(key)
    val expected = bf // forced at the suite's partition count before the switch
    spark.conf.set(key, "4")
    val at4 = try Slim.link(spark, pair.e, pair.i, cfg) finally spark.conf.set(key, before)
    def sorted(r: Slim.SlimResult) = r.links.sortBy(l => (l._1, l._2))
    assert(sorted(at4).map(l => (l._1, l._2)) == sorted(expected).map(l => (l._1, l._2)))
    sorted(at4).zip(sorted(expected)).foreach { case (a, b) =>
      assert(math.abs(a._3 - b._3) <= 1e-9 * math.max(1.0, math.abs(b._3)), s"$a vs $b")
    }
    assert(at4.nCandidates == expected.nCandidates && at4.comparisons == expected.comparisons &&
      at4.alibiEntityPairs == expected.alibiEntityPairs)
  }

  test("stop threshold cuts false positives from the full matching") {
    // With intersection 0.5, the full matching must contain false links;
    // the GMM threshold should remove most of them without losing true ones.
    val matchedPrf = Metrics.prf(bf.matched.map(e => (e.u, e.v)), pair.truth)
    val linkedPrf = Metrics.prf(bf.links.map(l => (l._1, l._2)), pair.truth)
    assert(bf.links.size <= bf.matched.size)
    assert(linkedPrf.precision >= matchedPrf.precision,
      s"threshold should not hurt precision: ${linkedPrf.precision} vs ${matchedPrf.precision}")
  }

  test("all emitted links respect the one-to-one constraint") {
    assert(bf.links.map(_._1).distinct.size == bf.links.size)
    assert(bf.links.map(_._2).distinct.size == bf.links.size)
  }

  test("link weights are positive and sorted consistently with the matching") {
    assert(bf.links.forall(_._3 > 0))
    assert(bf.links.forall(_._3 >= bf.threshold))
  }

  test("LSH SLIM preserves most of the brute-force F1 with fewer comparisons") {
    val lshCfg = cfg.copy(lsh = Some(Lsh.LshConfig(t = 0.5, sigLevel = 14,
      stepWindows = 8, numBuckets = 4096)))
    val lsh = Slim.link(spark, pair.e, pair.i, lshCfg)
    val bfF1 = Metrics.prf(bf.links.map(l => (l._1, l._2)), pair.truth).f1
    val lshF1 = Metrics.prf(lsh.links.map(l => (l._1, l._2)), pair.truth).f1
    assert(lsh.nCandidates < bf.nCandidates,
      s"LSH should prune candidates: ${lsh.nCandidates} vs ${bf.nCandidates}")
    assert(lsh.comparisons < bf.comparisons)
    assert(lshF1 >= 0.6 * bfF1, s"relative F1 ${lshF1 / bfF1}")
  }

  test("ablations change the scores as designed") {
    val noNorm = Slim.link(spark, pair.e, pair.i, cfg.copy(useNorm = false))
    val noIdf = Slim.link(spark, pair.e, pair.i, cfg.copy(useIdf = false))
    val allPairs = Slim.link(spark, pair.e, pair.i, cfg.copy(pairing = Similarity.AllPairs))
    val base = bf.matched.map(e => ((e.u, e.v), e.w)).toMap
    def weights(r: Slim.SlimResult) = r.matched.map(e => ((e.u, e.v), e.w)).toMap
    assert(weights(noNorm) != base)
    assert(weights(noIdf) != base)
    assert(weights(allPairs) != base)
    // All-pairs over-counts: its raw sums dominate the MNN-paired ones on
    // shared keys (same normalization).
    val ap = weights(allPairs)
    val shared = ap.keySet.intersect(base.keySet)
    assert(shared.nonEmpty)
    assert(shared.count(k => ap(k) >= base(k) - 1e-9).toDouble / shared.size > 0.9)
  }

  test("degenerate input: no shared windows yields no links") {
    val e = Histories.recordsDf(spark, Seq((1L, 0L, 10.0, 10.0), (1L, 900L, 10.0, 10.0),
      (1L, 1800L, 10.0, 10.0), (1L, 2700L, 10.0, 10.0), (1L, 3600L, 10.0, 10.0),
      (1L, 4500L, 10.0, 10.0)))
    val i = Histories.recordsDf(spark, Seq((2L, 100000L, 10.0, 10.0), (2L, 100900L, 10.0, 10.0),
      (2L, 101800L, 10.0, 10.0), (2L, 102700L, 10.0, 10.0), (2L, 103600L, 10.0, 10.0),
      (2L, 104500L, 10.0, 10.0)))
    val r = Slim.link(spark, e, i, cfg)
    assert(r.links.isEmpty && r.comparisons == 0)
    // An empty side: an empty result, not a failed idf or length norm.
    val none = e.limit(0)
    for ((a, b) <- Seq((e, none), (none, i))) {
      val out = Slim.link(spark, a, b, cfg)
      assert(out.links.isEmpty && out.matched.isEmpty && out.nCandidates == 0 &&
        out.comparisons == 0 && out.threshold == Double.NegativeInfinity)
    }
  }

  test("self-linkage sanity: the full matching at intersection 1.0 is near-perfect") {
    // At intersection ratio 1.0 every matched edge should be a true link.
    // The GMM stop threshold is *not* applied here: with no false-link
    // cluster the 2-component fit splits the single true cluster and cuts
    // genuine links — the paper's method presumes the two-cluster setting
    // (§3.2) and never evaluates identical entity sets.
    val selfPair = MobilityGen.samplePair(ground, n = 15, intersectRatio = 1.0,
      inclusionProb = 0.7)
    val r = Slim.link(spark, selfPair.e, selfPair.i, cfg)
    val m = Metrics.prf(r.matched.map(e => (e.u, e.v)), selfPair.truth)
    assert(m.f1 >= 0.9, s"self-linkage matching F1 ${m.f1}")
  }

  test("brute-force comparison counter equals the in-core bin-pair count") {
    // Sum over windows of (#E bins) * (#I bins): every bin pair of a shared
    // window is compared once under brute force.
    def binsPerWindow(records: DataFrame): Map[Long, Long] = {
      val rows = records.collect().toSeq
        .map(r => (r.getLong(0), r.getLong(1), r.getDouble(2), r.getDouble(3)))
      LocalReference.Dataset.fromRecords(rows, cfg.level, cfg.windowSec).histories
        .values.flatMap(_.map { case (w, cells) => (w, cells.size.toLong) })
        .groupMapReduce(_._1)(_._2)(_ + _)
    }
    val (be, bi) = (binsPerWindow(pair.e), binsPerWindow(pair.i))
    val expected = be.map { case (w, n) => n * bi.getOrElse(w, 0L) }.sum
    assert(expected > 0 && expected == bf.comparisons)
  }
}
