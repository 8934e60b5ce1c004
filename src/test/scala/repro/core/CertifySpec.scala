package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graphgen.GraphGen

/** [[Certify]] accepts the decompositions and rejects every mutation of
  * them that matters: any single core index moved by ±1, and a peel order
  * along which core decreases. (Swapping vertices of equal core may pass.)
  */
class CertifySpec extends AnyFunSuite {

  private val graphs = Seq(
    ("figure1", 2, GraphGen.figure1),
    ("er-40", 2, GraphGen.randomConnected(40, 4.0, 7)),
    ("ba-50", 3, GraphGen.ba(50, 3, 2, 5)))

  for ((name, h, g) <- graphs) {
    val r = KHCore.decompose(g, h)

    test(s"Certify accepts h-LB+UB on $name (h=$h)") {
      assert(r.core.toSeq == NaiveCore.decompose(g, h).toSeq)
      assert(Certify.check(g, h, r.core, r.order).isEmpty)
    }

    test(s"Certify rejects every single core index moved by 1 on $name (h=$h)") {
      for (v <- 0 until g.n; delta <- Seq(-1, 1)) {
        val bad = r.core.clone()
        bad(v) += delta
        assert(Certify.check(g, h, bad, r.order).isDefined, s"vertex $v moved by $delta")
      }
    }

    test(s"Certify rejects an order along which core decreases on $name (h=$h)") {
      val order = r.order
      val i = order.indices.find(i => r.core(order(i)) < r.core(order.last)).get
      val bad = order.clone()
      bad(i) = order.last
      bad(order.length - 1) = order(i)
      assert(Certify.check(g, h, r.core, bad).exists(_.startsWith("core decreases")))
    }
  }

  test("Certify rejects an order that is not a permutation") {
    val g = GraphGen.figure1
    val r = KHCore.decompose(g, 2)
    val bad = r.order.clone()
    bad(1) = bad(0)
    assert(Certify.check(g, 2, r.core, bad).exists(_.contains("permutation")))
  }
}
