package perfbench

import repro.core.AdjGraph
import repro.graphgen.GraphGen

/** One benchmark workload: a `repro.bench.Datasets` analog at a radius h.
  *
  * @param dataset    the Datasets entry whose generator call `gen` repeats
  *                   (None when the workload has no Datasets entry)
  * @param graphSeed  the generator seed of that entry
  * @param instances  relabeled copies of the graph one run averages over
  * @param recorded   label-invariant facts at `graphSeed`
  * @param warm       a smaller graph of the same family, run untimed so
  *                   that the JIT has compiled every measured path
  */
final case class Workload(name: String, dataset: Option[String], h: Int,
                          graphSeed: Long, instances: Int, recorded: Recorded,
                          gen: Long => AdjGraph, warm: () => AdjGraph)

object Workloads {

  val all: Seq[Workload] = Seq(
    Workload("comm-dense-h3",
      Some("caAs"), 3, 6L, 6, Recorded(586, 38),
      s => GraphGen.communities(35, 40, 0.38, 0.002, s),
      () => GraphGen.communities(12, 40, 0.38, 0.002, 1L)),
    Workload("hub-ba-h3",
      Some("hyves"), 3, 12L, 3, Recorded(1201, 539),
      s => GraphGen.ba(6000, 10, 2, s),
      () => GraphGen.ba(3000, 10, 2, 1L)),
    Workload("road-grid-h4",
      None, 4, 10L, 5, Recorded(18, 15),
      s => GraphGen.gridRoad(400, 400, 0.75, s),
      () => GraphGen.gridRoad(200, 200, 0.75, 1L)),
  )

  def apply(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload $name; known: ${all.map(_.name).mkString(", ")}"))

  /** Instance `i` of run seed `seed`: `g` with its ids cyclically shifted
    * and, with probability 1/2, reflected. Seed 0 keeps the ids, so it is
    * the Datasets analog itself. A shift keeps neighbouring ids neighbours,
    * so the id locality of the generator (grid rows, community blocks) and
    * with it the cache behaviour survive; the tie-breaking order of every
    * bucket queue changes, which is what moves h-LB+UB's work.
    */
  def relabel(g: AdjGraph, seed: Long, i: Int): AdjGraph = {
    val n = g.n
    val (off, rev) =
      if (seed == 0) (0, false)
      else { val r = new scala.util.Random(seed * 1000003L + i); (r.nextInt(n), r.nextBoolean()) }
    def id(v: Int): Int = { val s = (v + off) % n; if (rev) n - 1 - s else s }
    AdjGraph.fromEdges(n, g.edges.iterator.map { case (a, b) => (id(a), id(b)) })
  }
}
