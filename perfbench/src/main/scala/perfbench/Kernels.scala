package perfbench

import java.io.{File, FileInputStream, FileOutputStream, ObjectInputStream, ObjectOutputStream}
import java.util.concurrent.TimeUnit

import scala.io.Source

import repro.core.{Grid, Similarity}

/** In-core timings of [[Similarity.windowScore]] and [[Grid.minDistanceKm]].
  *
  * The Spark runs use the C1 compiler only (see `run.py`), but these kernels
  * are where C2's inlining and escape analysis matter most. So the traced run
  * writes the kernels' inputs to a file and times them in a JVM of its own,
  * under the default tiered JIT and with no Spark code competing for the
  * compiler threads.
  */
object Kernels {

  /** The shared windows of the true pairs, as (E's bins, I's bins). */
  final case class Input(windows: Vector[(Vector[Similarity.Bin], Vector[Similarity.Bin])],
                         sc: Similarity.ScoreConfig)

  final case class Timing(windowScoreNs: Double, minDistanceNs: Double, cellPairs: Int,
                          checksum: Double)

  private val WarmupNs = 500000000L
  private val SampleNs = 100000000L
  private val Samples = 5
  private val ChildTimeoutS = 120L

  /** Time `input` in a child JVM under the default JIT, and wait for it. */
  def timeInChild(input: Input, dir: String): Timing = {
    val file = new File(dir, "kernels.bin")
    val result = new File(dir, "kernels.out")
    file.getParentFile.mkdirs()
    val out = new ObjectOutputStream(new FileOutputStream(file))
    try out.writeObject(input) finally out.close()
    val java = ProcessHandle.current().info().command().orElse("java")
    val proc = new ProcessBuilder(java, "-Xmx512m", "-cp", System.getProperty("java.class.path"),
      "perfbench.Kernels", file.getPath)
      .redirectOutput(result).redirectError(ProcessBuilder.Redirect.INHERIT).start()
    try {
      if (!proc.waitFor(ChildTimeoutS, TimeUnit.SECONDS)) sys.error("kernel JVM timed out")
      require(proc.exitValue() == 0, s"kernel JVM exited with ${proc.exitValue()}")
    } finally {
      proc.destroyForcibly()
      proc.waitFor()
    }
    val src = Source.fromFile(result)
    val lines = try src.getLines().toList finally src.close()
    lines.lastOption.map(_.split(' ').map(_.toDouble)) match {
      case Some(Array(w, d, n, c)) => Timing(w, d, n.toInt, c)
      case _ => sys.error(s"kernel JVM printed no timing: ${lines.mkString("\n")}")
    }
  }

  /** Child entry point: `perfbench.Kernels <input file>`; prints
    * `windowScoreNs minDistanceNs cellPairs checksum`.
    */
  def main(args: Array[String]): Unit = {
    val in = new ObjectInputStream(new FileInputStream(args(0)))
    val input = try in.readObject().asInstanceOf[Input] finally in.close()
    val t = time(input)
    println(s"${t.windowScoreNs} ${t.minDistanceNs} ${t.cellPairs} ${t.checksum}")
  }

  /** ns per operation: a warm-up, then the median of a few fixed-length samples. */
  def time(input: Input): Timing = {
    val windows = input.windows
    val pairs = windows.flatMap { case (a, b) => for (x <- a; y <- b) yield (x.cell, y.cell) }
    val (us, vs) = (pairs.map(_._1).toArray, pairs.map(_._2).toArray)
    var sink = 0.0
    def nsPerOp(body: => Int): Double = {
      def loop(ns: Long): Double = {
        var n = 0L; val t0 = System.nanoTime()
        while (System.nanoTime() - t0 < ns) n += body
        (System.nanoTime() - t0).toDouble / n
      }
      loop(WarmupNs)
      val s = Seq.fill(Samples)(loop(SampleNs)).sorted
      s(Samples / 2)
    }
    if (windows.isEmpty) return Timing(0.0, 0.0, 0, 0.0)
    val windowNs = nsPerOp {
      windows.foreach { case (a, b) => sink += Similarity.windowScore(a, b, input.sc).raw }
      windows.size
    }
    val distNs = nsPerOp {
      var k = 0
      while (k < us.length) { sink += Grid.minDistanceKm(us(k), vs(k)); k += 1 }
      us.length
    }
    Timing(windowNs, distNs, us.length, sink)
  }
}
