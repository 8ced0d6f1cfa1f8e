package perfbench

import java.io.File

import scala.jdk.CollectionConverters._

import com.fasterxml.jackson.databind.{JsonNode, ObjectMapper}
import org.scalatest.funsuite.AnyFunSuite

/** Self-test of the benchmark's emitter at tiny scale: the result line parses,
  * carries every metric `BENCHMARK.json` declares with the declared unit, and
  * the tracer charges Spark work only to the span that was open when it ran.
  */
class EmitterSpec extends AnyFunSuite {

  private val mapper = new ObjectMapper()
  private val declared: JsonNode = mapper.readTree(new File("../BENCHMARK.json"))

  private def run(workload: String, trace: Boolean): Bench.Result =
    Bench.run(Options(Workloads.byName(workload).get, 3L, 1, trace, Tiny, "target/selftest"), _ => ())

  private def metricsOf(r: Bench.Result): JsonNode = {
    val json = mapper.readTree(r.json)
    assert(json.fieldNames().asScala.toSet == Set("correct", "attempted", "failed", "metrics"))
    assert(json.get("correct").asBoolean(), r.json)
    assert(json.get("attempted").asInt() >= 1)
    assert(json.get("failed").asInt() == 0)
    json.get("metrics")
  }

  private def assertDeclared(metrics: JsonNode, kind: String, defs: Seq[Report.Def]): Unit = {
    val decl = declared.get(kind).elements().asScala.toSeq
    assert(decl.map(_.get("name").asText()) == defs.map(_.name))
    for ((d, m) <- decl.zip(defs)) {
      assert(d.get("unit").asText() == m.unit, m.name)
      assert(d.get("better").asText() == m.better, m.name)
    }
    assert(metrics.fieldNames().asScala.toSeq == defs.map(_.name))
    for (m <- defs) {
      val v = metrics.get(m.name)
      assert(v.get("unit").asText() == m.unit, m.name)
      assert(v.get("value").isNumber, m.name)
    }
  }

  test("workloads match BENCHMARK.json") {
    assert(declared.get("workloads").elements().asScala.map(_.get("name").asText()).toSeq ==
      Workloads.all.map(_.name))
  }

  test("end-to-end result line: parses, every declared metric with its unit") {
    val m = metricsOf(run("cab-brute", trace = false))
    assertDeclared(m, "end_to_end", Report.endToEnd)
    for (n <- Seq("link_s", "cold_link_s", "setup_s", "comparisons"))
      assert(m.get(n).get("value").asDouble() > 0, n)
  }

  test("traced result line: every per-layer metric; Spark work fits in its span") {
    val r = run("sm-lsh", trace = true)
    val m = metricsOf(r)
    assertDeclared(m, "per_layer", Report.perLayer)
    val tr = r.tracer.get
    val spans = tr.all
    val root = spans.find(_.name == "trace").get
    val inside = spans.filter(_.within(root))
    assert(inside.size > 5)
    for (n <- Seq("histories.build", "slim.candidates", "similarity.scoreEdges", "slim.collect"))
      assert(inside.exists(s => s.name == n && s.jobs > 0 && s.tasks > 0), n)
    // A job or task charged to the wrong span would fall outside its wall time.
    // Listener times are whole milliseconds: allow 1 ms per job, plus clock skew.
    for (s <- inside) {
      val wallMs = s.seconds * 1000 + 5 + spans.filter(_.within(s)).map(_.jobs).sum
      assert(tr.jobCoveredMs(s) <= wallMs, s.name)
      assert(s.taskRunMs <= wallMs * Bench.Threads, s.name)
    }
    for (n <- Seq("lsh.signature_s", "stlink.wall_s", "spark.jobs", "stlink.spark_jobs"))
      assert(m.get(n).get("value").asDouble() > 0, n)
  }
}
