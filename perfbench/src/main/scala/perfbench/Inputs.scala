package perfbench

import scala.util.hashing.MurmurHash3

import repro.mobility.MobilityGen

/** Benchmark inputs: two sampled location datasets and their ground truth.
  *
  * Ground records come from [[MobilityGen.entityRecords]], which is pure per
  * entity id. The paper's §5.1 sampling (entity overlap `rho`, per-record
  * inclusion probability `p`, the "more than 5 records" floor) is applied here
  * with a hash of `(id, ts, seed, side)` rather than Spark's `rand`, so the
  * inputs are the same for any core count or partitioning. The ground
  * trajectories are fixed per profile; the seed only drives the sampling.
  */
object Inputs {

  type Rec = (Long, Long, Double, Double) // (id, ts, lat, lon)

  /** One input profile: ground generator plus sampling parameters. */
  final case class Profile(name: String, gen: MobilityGen.GenConfig, n: Int,
                           rho: Double, p: Double, minRecords: Int = 5)

  /** Both sampled datasets. Dataset I's ids are offset by
    * [[MobilityGen.IdOffset]], as in [[MobilityGen.samplePair]].
    */
  final case class Sampled(e: IndexedSeq[Rec], i: IndexedSeq[Rec], truth: Map[Long, Long]) {
    /** Records per side, truth size and a hash of the sorted records. */
    def fingerprint: String = {
      def h(rs: IndexedSeq[Rec]) = MurmurHash3.orderedHash(rs.sorted.map { case (id, ts, la, lo) =>
        (id, ts, java.lang.Double.doubleToLongBits(la), java.lang.Double.doubleToLongBits(lo))
      })
      f"e=${e.size} i=${i.size} truth=${truth.size} hash=${h(e)}%08x${h(i)}%08x"
    }
  }

  /** Cab-like: one dense city, few entities with hundreds of records each. */
  def cab(scale: Scale): Profile = {
    val (n, ground) = if (scale == Tiny) (6, 60.0) else (60, 250.0)
    Profile("cab", MobilityGen.cabConfig(nEntities = 2 * n, recordsPerEntity = ground, days = 2),
      n, rho = 0.5, p = 0.6)
  }

  /** SM-like: many cities, many entities with a few dozen records each. */
  def sm(scale: Scale): Profile = {
    val n = if (scale == Tiny) 40 else 1000
    Profile("sm", MobilityGen.smConfig(nEntities = 2 * n, recordsPerEntity = 24, days = 8),
      n, rho = 0.5, p = 0.6)
  }

  /** Fingerprints of the full-scale inputs at [[DefaultSeed]]; a run at that
    * seed whose inputs differ is reported as incorrect.
    */
  val DefaultSeed = 1L
  val Expected: Map[String, String] = Map(
    "cab" -> "e=8919 i=8890 truth=30 hash=88a4760ab5d7e9c9",
    "sm" -> "e=14523 i=14252 truth=500 hash=1f81a46cccf54e1d",
  )

  /** Keep record `(id, ts)` on a side with probability `p`, independently per
    * side and seed.
    */
  private def kept(id: Long, ts: Long, seed: Long, side: Int, p: Double): Boolean = {
    val h = MurmurHash3.productHash((id, ts, seed, side))
    (h & 0x7fffffffL).toDouble / 0x80000000L.toDouble < p
  }

  def sample(prof: Profile, seed: Long): Sampled = {
    val common = math.round(prof.rho * prof.n).toInt
    val loI = prof.n - common
    val hiI = 2 * prof.n - common
    val ground = (0 until hiI).map(id => id.toLong -> MobilityGen.entityRecords(id, prof.gen)).toMap

    def side(lo: Int, hi: Int, s: Int, offset: Long): IndexedSeq[Rec] =
      (lo until hi).flatMap { id =>
        val rs = ground(id.toLong).filter(r => kept(r.id, r.ts, seed, s, prof.p))
        if (rs.size > prof.minRecords) rs.map(r => (r.id + offset, r.ts, r.lat, r.lon)) else Nil
      }

    val e = side(0, prof.n, 0, 0L)
    val i = side(loI, hiI, 1, MobilityGen.IdOffset)
    val idsI = i.map(_._1).toSet
    val truth = e.map(_._1).distinct
      .filter(u => u >= loI && idsI.contains(u + MobilityGen.IdOffset))
      .map(u => u -> (u + MobilityGen.IdOffset)).toMap
    Sampled(e, i, truth)
  }
}
