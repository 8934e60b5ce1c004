package repro

import org.apache.spark.sql.functions._

/** Provided infrastructure: the DuckDB Oracle's ability to catch wrong
  * results (not just run queries).
  */
class InfraSpec extends SparkSpec {

  test("Oracle passes on an equivalent aggregate") {
    import spark.implicits._
    val df = Seq((1, 2.0), (1, 3.0), (2, 5.0)).toDF("k", "v")
    // Oracle stages tables as VARCHAR columns: cast on the DuckDB side.
    Oracle.assertEquivalent(
      df.groupBy("k").agg(sum("v").as("s")),
      "SELECT k, sum(CAST(v AS DOUBLE)) AS s FROM t GROUP BY k",
      "t" -> df)
  }

  test("Oracle rejects a wrong result") {
    import spark.implicits._
    val df = Seq((1, 2.0), (2, 5.0)).toDF("k", "v")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(
        df.select($"k", ($"v" + 1).as("v")), // off by one
        "SELECT k, v FROM t",
        "t" -> df)
    }
  }

  test("Oracle rejects mismatched column sets") {
    import spark.implicits._
    val df = Seq((1, 2.0)).toDF("k", "v")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(
        df.select($"k".as("wrong")),
        "SELECT k FROM t",
        "t" -> df)
    }
  }
}
