package perfbench

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import scala.collection.mutable

object SparkLayer {

  /** Local-mode session with `threads` executor threads. Spark's scratch and
    * warehouse directories go under `localDir`, inside the checkout. */
  def start(threads: Int, localDir: String): SparkSession = {
    val s = SparkSession.builder()
      .master(s"local[$threads]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"$localDir/local")
      .config("spark.sql.warehouse.dir", s"$localDir/warehouse")
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  /** Runs `body` with its Spark jobs tagged by `group`. */
  def inGroup[A](spark: SparkSession, group: String)(body: => A): A = {
    val sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try body finally sc.clearJobGroup()
  }
}

/** One finished Spark task: its stage, wall time and result size. */
final case class Task(stage: Int, millis: Long, resultBytes: Long)

/** Task metrics per job group, from the listener bus. */
final class TaskListener extends SparkListener {
  private val jobGroup = mutable.HashMap.empty[Int, String]
  private val stageGroup = mutable.HashMap.empty[Int, String]
  private val ended = mutable.HashSet.empty[Int]
  private val tasks = mutable.HashMap.empty[String, mutable.ArrayBuffer[Task]]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val g = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("")
    jobGroup(e.jobId) = g
    e.stageIds.foreach(stageGroup(_) = g)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized { ended += e.jobId }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val g = stageGroup.getOrElse(e.stageId, "")
    val bytes = Option(e.taskMetrics).map(_.resultSize).getOrElse(0L)
    tasks.getOrElseUpdate(g, mutable.ArrayBuffer.empty) += Task(e.stageId, e.taskInfo.duration, bytes)
  }

  private var drains = 0

  /** Blocks until the bus has delivered every event of the jobs run so
    * far: runs a one-task marker job and waits for its end, which the
    * ordered bus delivers after all earlier events. */
  def drain(spark: SparkSession): Unit = {
    drains += 1
    val group = s"drain-$drains"
    SparkLayer.inGroup(spark, group)(spark.sparkContext.parallelize(Seq(1), 1).count())
    val deadline = System.nanoTime() + 30L * 1000000000L
    def done: Boolean = synchronized { jobGroup.exists { case (j, g) => g == group && ended(j) } }
    while (!done) {
      if (System.nanoTime() > deadline) throw new IllegalStateException("Spark listener bus stalled")
      Thread.sleep(2)
    }
  }

  def jobs(group: String): Int = synchronized { jobGroup.count(_._2 == group) }

  def tasksOf(group: String): Seq[Task] = synchronized { tasks.get(group).map(_.toList).getOrElse(Nil) }
}
