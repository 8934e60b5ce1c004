package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.TableRunners

/** spark-submit entrypoints, one per evaluation table. Each prints the
  * reproduced table and writes it under target/bench-results/.
  *
  *   spark-submit --class repro.jobs.Table3Job repro.jar
  */
private object Jobs {
  def session(): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro-jobs")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}

object Table1Job {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session()
    try TableRunners.table1(spark) finally spark.stop()
  }
}

object Table2Job {
  def main(args: Array[String]): Unit = { TableRunners.table2(); () }
}

object Table3Job {
  def main(args: Array[String]): Unit = { TableRunners.table3(); () }
}

object Table4Job {
  def main(args: Array[String]): Unit = { TableRunners.table4(); () }
}

object Table5Job {
  def main(args: Array[String]): Unit = { TableRunners.table5(); () }
}

object Table6Job {
  def main(args: Array[String]): Unit = { TableRunners.table6(); () }
}

object Table7Job {
  def main(args: Array[String]): Unit = { TableRunners.table7(); () }
}
