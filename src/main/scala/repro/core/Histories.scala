package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.expressions.UserDefinedFunction

/** Mobility history construction (paper §2.3) as DataFrame transformations.
  *
  * A location dataset is a DataFrame with columns
  * `(id: Long, ts: Long /*epoch seconds*/, lat: Double, lon: Double)`.
  * Its mobility histories are the leaf-level time-location bins:
  * `(id, win, cell, cnt)` where `win = floor(ts / windowSec)` and `cell` is
  * the [[Grid]] cell id of `(lat, lon)` at the configured spatial level.
  */
object Histories {

  /** Expected input schema of a location dataset. */
  val RecordColumns: Seq[String] = Seq("id", "ts", "lat", "lon")

  /** UDF mapping (lat, lon) to a packed Grid cell id at `level`. */
  def cellUdf(level: Int): UserDefinedFunction =
    udf((lat: Double, lon: Double) => Grid.cellOf(lat, lon, level))

  /** Leaf-level time-location bins: one row per (id, win, cell) with the
    * record count `cnt`. This is the DataFrame equivalent of the leaf level of
    * the paper's mobility history tree.
    */
  def build(records: DataFrame, level: Int, windowSec: Long): DataFrame = {
    require(windowSec > 0, "windowSec must be positive")
    records
      .select(
        col("id"),
        floor(col("ts") / windowSec).cast("long").as("win"),
        cellUdf(level)(col("lat"), col("lon")).as("cell"),
      )
      .groupBy("id", "win", "cell")
      .agg(count(lit(1)).as("cnt"))
  }

  /** Inverse document frequency of each time-location bin (paper Eq. 3):
    * `idf(e) = ln(|U| / |{u : e in H_u}|)` over the given history set.
    * Output: `(win, cell, idf)`.
    */
  def idf(hist: DataFrame, nEntities: Long): DataFrame = {
    require(nEntities > 0, "need a positive entity count")
    hist
      .groupBy("win", "cell")
      .agg(countDistinct("id").as("df"))
      .select(col("win"), col("cell"), log(lit(nEntities.toDouble) / col("df")).as("idf"))
  }

  /** BM25-style history length normalization (paper Eq. 2):
    * `L(u) = (1-b) + b * |H_u| / avg|H|`. Output: `(id, nbins, lnorm)`.
    */
  def lengthNorm(hist: DataFrame, b: Double): DataFrame = {
    require(b >= 0 && b <= 1, s"b=$b out of [0,1]")
    val sizes = hist.groupBy("id").agg(count(lit(1)).as("nbins"))
    val avg = sizes.agg(org.apache.spark.sql.functions.avg("nbins")).first().getDouble(0)
    sizes.select(col("id"), col("nbins"),
      (lit(1.0 - b) + lit(b) * col("nbins") / lit(avg)).as("lnorm"))
  }

  /** Bins of one entity per window with the per-bin idf attached and collected
    * into a list — the unit the per-window MNN/MFN scoring consumes.
    * Output: `(id, win, bins: array<struct<cell:long, idf:double>>)`.
    */
  def binsByWindow(hist: DataFrame, idfDf: DataFrame): DataFrame =
    hist
      .join(idfDf, Seq("win", "cell"))
      .groupBy("id", "win")
      .agg(collect_list(struct(col("cell"), col("idf"))).as("bins"))

  /** Convenience: number of distinct entities in a history set. */
  def nEntities(hist: DataFrame): Long = hist.select("id").distinct().count()

  /** Convenience for tests: a records DataFrame from an in-memory list. */
  def recordsDf(spark: SparkSession, rows: Seq[(Long, Long, Double, Double)]): DataFrame = {
    import spark.implicits._
    rows.toDF("id", "ts", "lat", "lon")
  }
}
