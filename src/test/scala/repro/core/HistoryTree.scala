package repro.core

import scala.collection.mutable

/** In-core mobility history tree (paper §2.3, DESIGN S2).
  *
  * The temporal domain `[winMin, winMax]` (leaf-window indices) is organized
  * as a balanced binary segment tree. Each leaf holds the set of spatial cell
  * ids the entity visited during that window; each non-leaf holds the
  * occurrence counts of the cell ids in its subtree. Space is O(#bins log W).
  *
  * The non-leaf counts give O(log W)-node *dominating grid cell* queries: the
  * cell with the highest record count in an arbitrary window range — exactly
  * what the LSH signature construction (§4) needs. The Spark pipeline computes
  * the same answers with a `groupBy` at query-window granularity
  * ([[Lsh.signatures]]); `LshSparkSpec` asserts both agree. The pipeline
  * never queries the tree, so it is kept in test scope as that reference.
  */
final class HistoryTree private (
    val winMin: Long,
    val winMax: Long,
    root: HistoryTree.Node,
) {

  /** Cell -> record count aggregated over leaf windows in [from, to]
    * (inclusive, leaf-window indices).
    */
  def counts(from: Long, to: Long): Map[Long, Long] = {
    val acc = mutable.Map.empty[Long, Long]
    HistoryTree.query(root, winMin, winMax, math.max(from, winMin), math.min(to, winMax), acc)
    acc.toMap
  }

  /** Dominating cell over [from, to]: the cell with the highest record count,
    * ties broken by the smallest cell id; None when the range has no records.
    */
  def dominatingCell(from: Long, to: Long): Option[Long] = {
    val cs = counts(from, to)
    if (cs.isEmpty) None
    else Some(cs.toSeq.minBy { case (cell, cnt) => (-cnt, cell) }._1)
  }

  /** Distinct (window, cell) bins at the leaves — the history's bin set H_u. */
  def leafBins: Seq[(Long, Long)] = {
    val acc = mutable.ArrayBuffer.empty[(Long, Long)]
    HistoryTree.collectLeaves(root, winMin, winMax, acc)
    acc.toSeq
  }
}

object HistoryTree {

  private[core] sealed trait Node
  private[core] final case class Leaf(cells: Map[Long, Long]) extends Node
  private[core] final case class Inner(counts: Map[Long, Long], left: Node, right: Node) extends Node
  private[core] case object Empty extends Node

  /** Build from raw (windowIndex, cellId) observations; duplicates accumulate
    * counts. The tree spans [winMin, winMax] of the observations (or the
    * explicit span, so that histories from one dataset share a time domain).
    */
  def build(obs: Seq[(Long, Long)], span: Option[(Long, Long)] = None): HistoryTree = {
    require(obs.nonEmpty || span.isDefined, "empty history needs an explicit span")
    val (lo, hi) = span.getOrElse((obs.map(_._1).min, obs.map(_._1).max))
    require(lo <= hi, s"bad span [$lo,$hi]")
    val byWin: Map[Long, Map[Long, Long]] =
      obs.groupBy(_._1).view.mapValues(_.groupBy(_._2).view.mapValues(_.size.toLong).toMap).toMap

    def mk(a: Long, b: Long): Node =
      if (a == b) byWin.get(a).map(Leaf.apply).getOrElse(Empty)
      else {
        val mid = a + (b - a) / 2
        val (l, r) = (mk(a, mid), mk(mid + 1, b))
        (l, r) match {
          case (Empty, Empty) => Empty
          case _              => Inner(merge(countsOf(l), countsOf(r)), l, r)
        }
      }
    new HistoryTree(lo, hi, mk(lo, hi))
  }

  private def countsOf(n: Node): Map[Long, Long] = n match {
    case Leaf(c)         => c
    case Inner(c, _, _)  => c
    case Empty           => Map.empty
  }

  private def merge(a: Map[Long, Long], b: Map[Long, Long]): Map[Long, Long] =
    b.foldLeft(a) { case (m, (k, v)) => m.updated(k, m.getOrElse(k, 0L) + v) }

  private def query(n: Node, a: Long, b: Long, from: Long, to: Long,
                    acc: mutable.Map[Long, Long]): Unit = {
    if (from > to || from > b || to < a) return
    n match {
      case Empty => ()
      case _ if from <= a && b <= to =>
        countsOf(n).foreach { case (k, v) => acc.updateWith(k)(o => Some(o.getOrElse(0L) + v)) }
      case Leaf(_) => () // leaf outside full coverage is impossible once a==b
      case Inner(_, l, r) =>
        val mid = a + (b - a) / 2
        query(l, a, mid, from, to, acc)
        query(r, mid + 1, b, from, to, acc)
    }
  }

  private def collectLeaves(n: Node, a: Long, b: Long,
                            acc: mutable.ArrayBuffer[(Long, Long)]): Unit = n match {
    case Empty => ()
    case Leaf(cells) => cells.keys.foreach(c => acc += ((a, c)))
    case Inner(_, l, r) =>
      val mid = a + (b - a) / 2
      collectLeaves(l, a, mid, acc)
      collectLeaves(r, mid + 1, b, acc)
  }
}
