package perfbench

import scala.collection.mutable

/** In-memory span recorder for the traced run.
  *
  * A span wraps one public call the benchmark makes into the program and
  * records its name, parent span, start and end. Nothing is written until
  * the run ends. When `on` is false, `span` runs its body with no
  * bookkeeping, so the untraced run pays one branch per call.
  */
final class Tracer {
  var on: Boolean = false

  private val names = mutable.ArrayBuffer.empty[String]
  private val parents = mutable.ArrayBuffer.empty[Int]
  private val starts = mutable.ArrayBuffer.empty[Long]
  private val ends = mutable.ArrayBuffer.empty[Long]
  private var current = -1

  def span[T](name: String)(body: => T): T =
    if (!on) body
    else {
      val id = names.length
      names += name
      parents += current
      starts += System.nanoTime()
      ends += 0L
      val parent = current
      current = id
      try body
      finally {
        ends(id) = System.nanoTime()
        current = parent
      }
    }

  /** Per span name: (calls, total ns, self ns). Self time is a span's
    * duration minus the durations of its direct children; spans on one
    * thread nest and never overlap, so the children's sum is exactly the
    * part of the interval they cover.
    */
  def summary: Map[String, (Int, Long, Long)] = {
    val dur = Array.tabulate(names.length)(i => ends(i) - starts(i))
    val childNs = new Array[Long](names.length)
    for (i <- dur.indices if parents(i) >= 0) childNs(parents(i)) += dur(i)
    names.indices.groupBy(names(_)).map { case (n, ids) =>
      n -> ((ids.length, ids.map(dur(_)).sum, ids.map(i => dur(i) - childNs(i)).sum))
    }
  }

  /** Median over parent spans of the summed duration of the `name` spans
    * directly under each parent, in seconds. With one parent span per
    * set-up repetition, this is a per-repetition time.
    */
  def perParentS(name: String): Option[Double] = {
    val byParent = names.indices.filter(names(_) == name).groupBy(parents(_)).values
      .map(ids => ids.map(i => ends(i) - starts(i)).sum / 1e9).toSeq
    Option.when(byParent.nonEmpty)(Stats.median(byParent))
  }

  /** Every span as JSON: the raw record plus the per-name summary. */
  def toJson: String = {
    val t0 = if (starts.isEmpty) 0L else starts.min
    val spans = names.indices.map { i =>
      Json.obj("id" -> i, "name" -> names(i), "parent" -> parents(i),
        "start_us" -> (starts(i) - t0) / 1000, "dur_us" -> (ends(i) - starts(i)) / 1000)
    }
    val summ = summary.toSeq.sortBy(_._1).map { case (n, (c, tot, self)) =>
      Json.obj("name" -> n, "calls" -> c, "total_ms" -> tot / 1e6, "self_ms" -> self / 1e6)
    }
    Json.obj("summary" -> Json.arr(summ: _*), "spans" -> Json.arr(spans: _*)).s
  }
}

/** Minimal JSON writer: numbers, strings, booleans, and nested values. */
object Json {
  final case class Raw(s: String)

  def value(v: Any): Raw = v match {
    case r: Raw => r
    case s: String => Raw(quote(s))
    case b: Boolean => Raw(b.toString)
    case d: Double => Raw(if (java.lang.Double.isFinite(d)) java.lang.Double.toString(d) else "null")
    case i: Int => Raw(i.toString)
    case l: Long => Raw(l.toString)
    case other => Raw(quote(other.toString))
  }

  def obj(kv: (String, Any)*): Raw =
    Raw(kv.map { case (k, v) => quote(k) + ": " + value(v).s }.mkString("{", ", ", "}"))

  def arr(vs: Any*): Raw = Raw(vs.map(value(_).s).mkString("[", ", ", "]"))

  def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    (b += '"').toString
  }
}
