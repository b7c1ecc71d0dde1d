package perfbench

import java.lang.management.ManagementFactory
import org.apache.spark.scheduler._
import repro.sampling.{Rng, StratumSampler}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** A `scala.util.Random` that counts the 32-bit draws behind every call.
  * Seeded like `Rng.stream(master, stream)`, so it yields the identical
  * sequence and can be passed where the program would build its own.
  */
final class CountingRandom(seed: Long) extends scala.util.Random(new CountingRandom.Source(seed)) {
  def draws: Long = self.asInstanceOf[CountingRandom.Source].draws
}

object CountingRandom {
  final class Source(seed: Long) extends java.util.Random(seed) {
    var draws = 0L
    override protected def next(bits: Int): Int = { draws += 1; super.next(bits) }
  }

  /** Same seed derivation as `Rng.stream`. */
  def stream(master: Long, stream: Long): CountingRandom =
    new CountingRandom(Rng.scramble(master ^ (stream * 0x9e3779b97f4a7c15L)))
}

/** Wraps a stratum sampler and accumulates the time spent in `next`. */
final class TimedSampler(inner: StratumSampler) extends StratumSampler {
  var ns = 0L
  var calls = 0
  def populationSize: Int = inner.populationSize
  def drawn: Int = inner.drawn
  def next(count: Int): Array[Int] = {
    val t = System.nanoTime()
    val out = inner.next(count)
    ns += System.nanoTime() - t
    calls += 1
    out
  }
}

/** Spark scheduler counts, attributed to the job group that was active
  * when each job started. Events arrive on Spark's listener thread, so
  * readers call `settle` first.
  */
final class SparkStats extends SparkListener {
  final class Group {
    var jobs = 0
    var stages = 0
    var tasks = 0
    var shuffleWriteBytes = 0L
    val taskMs = mutable.Map.empty[Int, mutable.ArrayBuffer[Long]]
    var lastResultStage: Option[Int] = None
  }

  private val groups = mutable.Map.empty[String, Group]
  private val stageGroup = mutable.Map.empty[Int, String]
  private var started = 0
  private var ended = 0

  def group(name: String): Option[Group] = synchronized(groups.get(name))

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    started += 1
    val g = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("")
    val grp = groups.getOrElseUpdate(g, new Group)
    grp.jobs += 1
    e.stageInfos.foreach(s => stageGroup(s.stageId) = g)
    if (e.stageInfos.nonEmpty) grp.lastResultStage = Some(e.stageInfos.map(_.stageId).max)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized { ended += 1 }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    stageGroup.get(e.stageInfo.stageId).flatMap(groups.get).foreach(_.stages += 1)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageGroup.get(e.stageId).flatMap(groups.get).foreach { g =>
      g.tasks += 1
      Option(e.taskMetrics).foreach(m => g.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten)
      g.taskMs.getOrElseUpdate(e.stageId, mutable.ArrayBuffer.empty) += e.taskInfo.duration
    }
  }

  /** Wait (at most 10 s) until every started job has ended and the task
    * counts stop changing.
    */
  def settle(): Unit = {
    def snapshot = synchronized((started, ended, groups.values.map(_.tasks).sum))
    val deadline = System.nanoTime() + 10_000_000_000L
    var last = snapshot
    var stable = 0
    while (stable < 3 && System.nanoTime() < deadline) {
      Thread.sleep(50)
      val now = snapshot
      if (now == last && now._1 == now._2) stable += 1 else stable = 0
      last = now
    }
  }

  /** The longest task's share of all task time in the last result stage
    * of a job group; 1.0 means one task did all of that stage's work.
    */
  def maxTaskShare(name: String): Double = synchronized {
    val share = for {
      g <- groups.get(name)
      stage <- g.lastResultStage
      ms <- g.taskMs.get(stage) if ms.sum > 0
    } yield ms.max.toDouble / ms.sum
    share.getOrElse(0.0)
  }
}

/** Process-level JVM counters read at the edges of the timed phase. */
object Jvm {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val os = ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]

  final case class Snapshot(nanos: Long, cpuNs: Long, gcMs: Long, gcCount: Long, alloc: Map[Long, Long])

  def snapshot(): Snapshot = {
    val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala
    val ids = threads.getAllThreadIds
    val bytes = threads.getThreadAllocatedBytes(ids)
    Snapshot(System.nanoTime(), os.getProcessCpuTime,
      gcs.map(_.getCollectionTime).sum, gcs.map(_.getCollectionCount).sum,
      ids.zip(bytes).filter(_._2 >= 0).toMap)
  }

  /** Bytes allocated between two snapshots, over every thread alive at the
    * second (threads that ended in between are not counted).
    */
  def allocated(a: Snapshot, b: Snapshot): Long =
    b.alloc.map { case (id, v) => v - a.alloc.getOrElse(id, 0L) }.sum

  /** Heap in use after a forced full collection, in MB: the least of three
    * collections 100 ms apart, so that garbage Spark's background threads
    * make meanwhile is not counted (a single collection sometimes read 8 MB high).
    */
  def retainedMb(): Double = {
    val mem = ManagementFactory.getMemoryMXBean
    (1 to 3).map { r =>
      if (r > 1) Thread.sleep(100)
      System.gc()
      mem.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
    }.min
  }
}
