//! Integration tests reproducing the paper's worked examples, figures and the
//! qualitative content of its theorems (see EXPERIMENTS.md for the index).

use cqdet::core::paths::{
    derivation_to_q_walk, is_q_walk, non_determinacy_witness, path_schema, reduce_q_walk,
};
use cqdet::linalg::{cone_contains, interior_cone_point};
use cqdet::prelude::*;
use cqdet::query::eval::{eval_boolean_ucq, eval_cq};
use cqdet::structure::Structure;

fn cq(text: &str) -> ConjunctiveQuery {
    parse_query(text).expect("valid query").disjuncts()[0].clone()
}

/// EX-2: set-determinacy does not imply bag-determinacy (Example 2).
#[test]
fn example_2_bag_counterexample() {
    let schema = Schema::with_relations([("P", 2), ("R", 2), ("S", 2)]);
    let q = parse_query("q(x) :- P(u,x), R(x,y), S(y,z)").unwrap();
    let v1 = parse_query("v1(x) :- P(u,x), R(x,y)").unwrap();
    let v2 = parse_query("v2(x) :- R(x,y), S(y,z)").unwrap();
    let mut d = Structure::new(schema.clone());
    d.add("P", &[0, 1]);
    d.add("R", &[1, 2]);
    d.add("R", &[1, 3]);
    d.add("S", &[2, 4]);
    d.add("S", &[3, 5]);
    let mut d2 = Structure::new(schema.clone());
    d2.add("P", &[0, 1]);
    d2.add("P", &[6, 1]);
    d2.add("R", &[1, 2]);
    d2.add("S", &[2, 4]);
    d2.add("S", &[2, 5]);
    // The views agree as bags…
    assert_eq!(
        eval_cq(&v1.disjuncts()[0], &schema, &d),
        eval_cq(&v1.disjuncts()[0], &schema, &d2)
    );
    assert_eq!(
        eval_cq(&v2.disjuncts()[0], &schema, &d),
        eval_cq(&v2.disjuncts()[0], &schema, &d2)
    );
    // …but the query does not: V does not bag-determine q.
    assert_ne!(
        eval_cq(&q.disjuncts()[0], &schema, &d),
        eval_cq(&q.disjuncts()[0], &schema, &d2)
    );
    // Under set semantics the two structures also agree on the views and on q
    // (both satisfy everything), consistent with V →_set q.
    assert_eq!(
        eval_cq(&q.disjuncts()[0], &schema, &d).support(),
        eval_cq(&q.disjuncts()[0], &schema, &d2).support()
    );
}

/// EX-3: bag-determinacy does not imply set-determinacy (Example 3, UCQs).
#[test]
fn example_3_set_counterexample() {
    let schema = Schema::with_relations([("P", 1), ("R", 1)]);
    let q = parse_query("q() :- R(x)").unwrap();
    let v1 = parse_query("v1() :- P(x)").unwrap();
    let v2 = parse_query("v2() :- P(x) | R(x)").unwrap();

    // Bag semantics: q(D) = v2(D) − v1(D) for every D (here: a few samples).
    for (p_count, r_count) in [(0u64, 0u64), (1, 0), (0, 3), (2, 5), (4, 1)] {
        let mut d = Structure::new(schema.clone());
        for i in 0..p_count {
            d.add("P", &[i]);
        }
        for i in 0..r_count {
            d.add("R", &[100 + i]);
        }
        let qv = Int::from_nat(eval_boolean_ucq(&q, &schema, &d));
        let v1v = Int::from_nat(eval_boolean_ucq(&v1, &schema, &d));
        let v2v = Int::from_nat(eval_boolean_ucq(&v2, &schema, &d));
        assert_eq!(qv, v2v - v1v, "q = v2 − v1 under bag semantics");
    }

    // Set semantics: {P(a)} and {P(a), R(b)} agree on both views (satisfied /
    // satisfied) but disagree on q — so V does not set-determine q.
    let mut e1 = Structure::new(schema.clone());
    e1.add("P", &[0]);
    let mut e2 = e1.clone();
    e2.add("R", &[1]);
    let sat = |u: &UnionQuery, s: &Structure| !eval_boolean_ucq(u, &schema, s).is_zero();
    assert_eq!(sat(&v1, &e1), sat(&v1, &e2));
    assert_eq!(sat(&v2, &e1), sat(&v2, &e2));
    assert_ne!(sat(&q, &e1), sat(&q, &e2));
}

/// EX-13 + Lemma 15: the q-walk induced by the paper's derivation reduces to q.
#[test]
fn example_13_q_walk() {
    let q = PathQuery::from_compact("ABCD");
    let views = vec![
        PathQuery::from_compact("ABC"),
        PathQuery::from_compact("BC"),
        PathQuery::from_compact("BCD"),
    ];
    let analysis = decide_path_determinacy(&views, &q);
    assert!(analysis.determined, "Example 13 is determined");
    let steps = analysis.derivation.unwrap();
    let walk = derivation_to_q_walk(&views, &steps);
    assert!(is_q_walk(&walk, &q));
    let reduced = reduce_q_walk(&walk);
    assert_eq!(
        reduced,
        q.letters()
            .iter()
            .map(|l| (l.clone(), 1i8))
            .collect::<Vec<_>>()
    );
}

/// THEOREM 1: on path queries, the decision coincides with set-semantics
/// determinacy (Fact 10) — and undetermined instances have explicit witnesses.
#[test]
fn theorem_1_path_decision_and_witnesses() {
    let cases: Vec<(&str, Vec<&str>, bool)> = vec![
        ("AB", vec!["A", "B"], true),
        ("AB", vec!["A"], false),
        ("ABCD", vec!["ABC", "BC", "BCD"], true),
        ("ABCD", vec!["ABC", "BCD"], false),
        ("AAA", vec!["A"], true),
        ("ABAB", vec!["AB"], true),
        ("ABA", vec!["AB", "BA"], false),
        ("", vec!["A"], true),
    ];
    for (q, vs, expected) in cases {
        let q = PathQuery::from_compact(q);
        let views: Vec<PathQuery> = vs.iter().map(|v| PathQuery::from_compact(v)).collect();
        let analysis = decide_path_determinacy(&views, &q);
        assert_eq!(analysis.determined, expected, "q={q}, V={vs:?}");
        if !expected {
            let (d, d2) = non_determinacy_witness(&views, &q).unwrap();
            let schema = path_schema(&views, &q);
            for v in &views {
                assert_eq!(
                    eval_cq(&v.to_cq("v"), &schema, &d),
                    eval_cq(&v.to_cq("v"), &schema, &d2),
                    "view {v} must agree on the Appendix B pair"
                );
            }
            assert_ne!(
                eval_cq(&q.to_cq("q"), &schema, &d),
                eval_cq(&q.to_cq("q"), &schema, &d2)
            );
        }
    }
}

/// ABA with V = {AB, BA}: the prefix graph has edges ε—AB and A—ABA, so ABA is
/// reachable only if A is; A is reachable only via … nothing.  Sanity-check a
/// subtle case against the brute-force baseline converted to boolean queries.
#[test]
fn path_decision_agrees_with_bruteforce_on_small_cases() {
    let q = PathQuery::from_compact("AB");
    let views = [PathQuery::from_compact("A")];
    // Not determined: the brute-force search over boolean versions must find a
    // counterexample among small structures (the Appendix B pair has 6 elements).
    let bool_views: Vec<ConjunctiveQuery> = views
        .iter()
        .map(|v| ConjunctiveQuery::boolean("v", v.to_cq("v").atoms().to_vec()))
        .collect();
    let bool_q = ConjunctiveQuery::boolean("q", q.to_cq("q").atoms().to_vec());
    let outcome = brute_force_search(&bool_views, &bool_q, 3, 200_000);
    assert!(outcome.refuted());
}

/// FIG-1 / Example 39 + Example 42: the matrix the paper prints is singular,
/// and inside span_ℕ(W) the two basis queries are locked in a fixed ratio.
#[test]
fn figure_1_singular_matrix() {
    let m_w = QMat::from_i64_rows(&[&[2, 4], &[1, 2]]);
    assert!(!m_w.is_nonsingular());
    for a in 0..5i64 {
        for b in 0..5i64 {
            let answers = m_w.mul_vec(&QVec::from_i64s(&[a, b]));
            assert_eq!(answers[0], Rat::from_i64(2).mul_ref(&answers[1]));
        }
    }
}

/// FIG-2 / Example 54: the evaluation matrix is nonsingular, the cone has a
/// rational interior point, and the generators (columns) lie in the cone.
#[test]
fn figure_2_cone_and_p() {
    let m = QMat::from_i64_rows(&[&[1, 4], &[1, 2]]);
    assert!(m.is_nonsingular());
    let p = interior_cone_point(&m).expect("nonsingular");
    assert!(cone_contains(&m, &p));
    assert_eq!(p, QVec::from_i64s(&[5, 3]));
    assert!(cone_contains(&m, &QVec::from_i64s(&[1, 1])));
    assert!(cone_contains(&m, &QVec::from_i64s(&[4, 2])));
    assert!(!cone_contains(&m, &QVec::from_i64s(&[4, 1])));
    assert!(!cone_contains(&m, &QVec::from_i64s(&[0, 3])));
    // Points of P are points of C.
    for a in 0..4i64 {
        for b in 0..4i64 {
            let point = m.mul_vec(&QVec::from_i64s(&[a, b]));
            assert!(cone_contains(&m, &point));
        }
    }
}

/// EX-32: the span relationship gives the rewriting q(D) = v1(D)³ / v2(D).
#[test]
fn example_32_rewriting() {
    let q = cq("q() :- R(e0x,e0y), R(l0,l0), R(p0x,p0y), R(p0y,p0z), R(p1x,p1y), R(p1y,p1z)");
    let v1 = cq("v1() :- R(ae0x,ae0y), R(ae1x,ae1y), R(al0,al0), R(ap0x,ap0y), R(ap0y,ap0z), R(ap1x,ap1y), R(ap1y,ap1z), R(ap2x,ap2y), R(ap2y,ap2z)");
    let v2 = cq("v2() :- R(b0x,b0y), R(b1x,b1y), R(b2x,b2y), R(b3x,b3y), R(b4x,b4y), R(bl0,bl0), R(bl1,bl1), R(bp0x,bp0y), R(bp0y,bp0z), R(bp1x,bp1y), R(bp1y,bp1z), R(bp2x,bp2y), R(bp2y,bp2z), R(bp3x,bp3y), R(bp3y,bp3z), R(bp4x,bp4y), R(bp4y,bp4z), R(bp5x,bp5y), R(bp5y,bp5z), R(bp6x,bp6y), R(bp6y,bp6z)");
    let views = vec![v1, v2];
    let analysis = decide_bag_determinacy(&views, &q).unwrap();
    assert!(analysis.determined);
    assert_eq!(analysis.basis_size(), 3);
    let coeffs = analysis.coefficients.clone().unwrap();
    assert_eq!(coeffs[0], Rat::from_i64(3));
    assert_eq!(coeffs[1], Rat::from_i64(-1));
    // Spot-check the rewriting numerically: q(D) · v2(D) = v1(D)³ on a sample D.
    let schema = analysis.schema.clone();
    let mut d = Structure::new(schema.clone());
    d.add("R", &[0, 1]);
    d.add("R", &[1, 1]);
    d.add("R", &[1, 2]);
    d.add("R", &[3, 0]);
    let qv = cqdet::query::eval::eval_boolean_cq(&q, &schema, &d);
    let v1v = cqdet::query::eval::eval_boolean_cq(&views[0], &schema, &d);
    let v2v = cqdet::query::eval::eval_boolean_cq(&views[1], &schema, &d);
    assert!(!v2v.is_zero());
    assert_eq!(qv.mul_ref(&v2v), v1v.pow(3));
}

/// COR-33: among connected queries, only literal membership determines.
#[test]
fn corollary_33_connected_case() {
    let q = cq("q() :- R(x,y), R(y,z), R(z,x)"); // a triangle
    let triangle_again = cq("v0() :- R(a,b), R(b,c), R(c,a)");
    let edge = cq("v1() :- R(x,y)");
    let path2 = cq("v2() :- R(x,y), R(y,z)");
    // Not determined by connected views that are not isomorphic to q…
    let res = decide_bag_determinacy(&[edge.clone(), path2.clone()], &q).unwrap();
    assert!(!res.determined);
    // …but determined as soon as (a copy of) q itself is among the views.
    let res2 = decide_bag_determinacy(&[edge, path2, triangle_again], &q).unwrap();
    assert!(res2.determined);
}

/// THEOREM 3 corollary: for boolean CQs, bag-determinacy is strictly stronger
/// than set-determinacy (the paper states this as a corollary of the proof).
#[test]
fn bag_strictly_stronger_than_set_for_boolean_cqs() {
    // V = {edge}, q = 2-path: under set semantics V determines q on *boolean*
    // answers?  No — but bag non-determinacy is what Theorem 3 decides, and
    // the strictness is witnessed by instances like q ⊆_set v with q ∉ span:
    // here every structure satisfying q satisfies v, yet bag counts diverge.
    let q = cq("q() :- R(x,y), R(y,z)");
    let v = cq("v() :- R(x,y)");
    let res = decide_bag_determinacy(std::slice::from_ref(&v), &q).unwrap();
    assert!(!res.determined);
    // The witness pair realises the strictness concretely.
    let w = build_counterexample(&res, &q, &CancelToken::none()).unwrap();
    assert!(w.verify(&[v], &q));
}
