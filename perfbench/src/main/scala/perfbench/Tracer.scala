package perfbench

import java.util.concurrent.{ConcurrentHashMap, CountDownLatch, TimeUnit}

import scala.jdk.CollectionConverters._

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.ui.{SparkListenerSQLExecutionEnd, SparkListenerSQLExecutionStart}

/** Spans around calls into the pipeline's modules, plus a [[SparkListener]]
  * that charges Spark work to the span that submitted it.
  *
  * A span is opened on the driver thread and published as a Spark local
  * property, so every job submitted inside it carries the span's id; stages
  * and tasks are charged through their job. Listener events arrive on Spark's
  * listener-bus thread, so [[drain]] must be called before reading counters.
  */
final class Tracer(sc: SparkContext) extends SparkListener {
  import Tracer._

  private val spans = new ConcurrentHashMap[Int, Span]()
  private var open: List[Span] = Nil
  private val stageSpan = new ConcurrentHashMap[Int, Span]()
  private val jobRecs = new ConcurrentHashMap[Int, JobRec]()
  private val execs = new ConcurrentHashMap[Long, SqlExec]()
  private val stageExec = new ConcurrentHashMap[Int, SqlExec]()
  @volatile private var drained: Option[(String, CountDownLatch)] = None

  sc.addSparkListener(this)

  def all: Seq[Span] = spans.values.asScala.toSeq.sortBy(_.id)

  /** Run `body` inside a new child span of the innermost open span. */
  def span[A](name: String)(body: => A): A = {
    val s = new Span(spans.size, name, open.headOption, System.nanoTime())
    spans.put(s.id, s)
    open = s :: open
    sc.setLocalProperty(SpanKey, s.id.toString)
    try body
    finally {
      s.endNs = System.nanoTime()
      open = open.tail
      sc.setLocalProperty(SpanKey, open.headOption.map(_.id.toString).orNull)
    }
  }

  /** Wait until the listener has seen every event posted so far: a marker job
    * goes through the same ordered bus, after all earlier events.
    */
  def drain(): Unit = {
    val token = java.util.UUID.randomUUID().toString
    val latch = new CountDownLatch(1)
    drained = Some((token, latch))
    sc.setLocalProperty(DrainKey, token)
    val saved = sc.getLocalProperty(SpanKey)
    sc.setLocalProperty(SpanKey, null)
    try sc.parallelize(Seq(1), 1).count()
    finally { sc.setLocalProperty(DrainKey, null); sc.setLocalProperty(SpanKey, saved) }
    require(latch.await(60, TimeUnit.SECONDS), "Spark listener bus did not drain")
  }

  /** SQL executions started inside `root`'s subtree, by call site. */
  def sqlByCallSite(root: Span): Seq[SqlExec] =
    execs.values.asScala.toSeq.filter(_.span.exists(_.within(root))).sortBy(-_.wallMs)

  /** Milliseconds of `root`'s interval during which at least one of its jobs ran. */
  def jobCoveredMs(root: Span): Long = {
    val iv = jobRecs.values.asScala.toSeq
      .filter(j => j.span.within(root) && j.endMs >= j.startMs).map(j => (j.startMs, j.endMs)).sorted
    var covered = 0L; var curS = -1L; var curE = -1L
    for ((a, b) <- iv) {
      if (a > curE) { if (curE > curS) covered += curE - curS; curS = a; curE = b }
      else curE = math.max(curE, b)
    }
    if (curE > curS) covered += curE - curS
    covered
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val props = Option(e.properties)
    for ((token, latch) <- drained; p <- props if p.getProperty(DrainKey) == token) latch.countDown()
    val exec = props.flatMap(p => Option(p.getProperty("spark.sql.execution.id")))
      .flatMap(id => Option(execs.get(id.toLong)))
    exec.foreach(_.jobs += 1)
    for (p <- props; id <- Option(p.getProperty(SpanKey)); s <- Option(spans.get(id.toInt))) {
      s.jobs += 1
      jobRecs.put(e.jobId, new JobRec(s, e.time))
      exec.foreach(x => if (x.span.isEmpty) x.span = Some(s))
      e.stageIds.foreach { st =>
        stageSpan.putIfAbsent(st, s)
        exec.foreach(stageExec.putIfAbsent(st, _))
      }
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    Option(jobRecs.get(e.jobId)).foreach(_.endMs = e.time)

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
    Option(stageSpan.get(e.stageInfo.stageId)).foreach(_.stages += 1)

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val m = Option(e.taskMetrics)
    val shuffle = m.map(_.shuffleWriteMetrics.bytesWritten).getOrElse(0L)
    Option(stageSpan.get(e.stageId)).foreach { s =>
      s.tasks += 1
      s.shuffleWriteBytes += shuffle
      s.taskRunMs += m.map(_.executorRunTime).getOrElse(0L)
      s.gcMs += m.map(_.jvmGCTime).getOrElse(0L)
    }
    Option(stageExec.get(e.stageId)).foreach { x => x.tasks += 1; x.shuffleWriteBytes += shuffle }
  }

  override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
    case s: SparkListenerSQLExecutionStart =>
      execs.put(s.executionId, new SqlExec(s.description, s.time))
    case s: SparkListenerSQLExecutionEnd =>
      Option(execs.get(s.executionId)).foreach(_.endMs = s.time)
    case _ =>
  }
}

object Tracer {
  private val SpanKey = "perfbench.span"
  private val DrainKey = "perfbench.drain"

  /** One traced call. Counters are written by the listener-bus thread only. */
  final class Span(val id: Int, val name: String, val parent: Option[Span], val startNs: Long) {
    @volatile var endNs: Long = startNs
    @volatile var jobs, stages, tasks, shuffleWriteBytes, taskRunMs, gcMs = 0L

    def seconds: Double = (endNs - startNs) / 1e9
    def within(root: Span): Boolean = this.eq(root) || parent.exists(_.within(root))
  }

  private final class JobRec(val span: Span, val startMs: Long) {
    @volatile var endMs: Long = -1L
  }

  /** One SQL execution, named by its call site (e.g. `count at X.scala:88`),
    * charged to the span of its first job.
    */
  final class SqlExec(val description: String, val startMs: Long) {
    @volatile var span: Option[Span] = None
    @volatile var endMs: Long = startMs
    @volatile var jobs, tasks, shuffleWriteBytes = 0L
    def wallMs: Long = endMs - startMs
  }

  /** Span duration minus the part of its interval its children cover
    * (children are sequential, so their durations add).
    */
  def selfSeconds(s: Span, all: Seq[Span]): Double =
    s.seconds - all.filter(_.parent.exists(_.eq(s))).map(_.seconds).sum
}
