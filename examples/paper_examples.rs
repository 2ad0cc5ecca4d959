//! Reproduce every worked example and both figures of the paper,
//! printing the objects the paper shows (this is the companion binary to
//! `EXPERIMENTS.md` §FIG-1, §FIG-2, §EX-*).
//!
//! Run with `cargo run --example paper_examples`.

use cqdet::core::paths::{non_determinacy_witness, path_schema};
use cqdet::linalg::{cone_contains, interior_cone_point};
use cqdet::prelude::*;
use cqdet::query::eval::{eval_boolean_ucq, eval_cq};
use cqdet::structure::Structure;

fn cq(text: &str) -> ConjunctiveQuery {
    parse_query(text).expect("valid query").disjuncts()[0].clone()
}

/// Figure 1 / Example 39: the evaluation matrix `M_W` of the figure's pair
/// `w1, w2` is singular, so `W` itself cannot serve as a good basis.
///
/// The structures in Fig. 1 are only drawn, not listed, so we reproduce the
/// *matrix* the paper prints (`M_W(i,j) = |hom(wᵢ, wⱼ)| = [[2,4],[1,2]]`) and
/// the consequence spelled out in Example 42: on every structure
/// `D = a·w1 + b·w2 ∈ span_ℕ(W)` the answers are locked in the fixed ratio
/// `w1(D) = 2·w2(D)`, so no counterexample pair can live inside `span_ℕ(W)`.
fn figure_1() {
    println!("--- Figure 1 / Example 39: a singular M_W ---");
    let m_w = QMat::from_i64_rows(&[&[2, 4], &[1, 2]]);
    println!("M_W =\n{m_w}");
    println!("nonsingular: {}", m_w.is_nonsingular());
    println!("answers on D = a·w1 + b·w2 (rows: a,b = 0..3):");
    for a in 0..4i64 {
        for b in 0..4i64 {
            let answers = m_w.mul_vec(&QVec::from_i64s(&[a, b]));
            print!("  ({},{})", answers[0], answers[1]);
        }
        println!();
    }
    println!("w1(D) = 2·w2(D) on every D ∈ span_N(W)  →  W is not a usable basis (Example 42).");
}

/// Figure 2 / Example 54: the cone C and the answer set P for a *nonsingular*
/// evaluation matrix, rendered as ASCII.
fn figure_2() {
    println!("\n--- Figure 2 / Example 54: the cone C and the set P ---");
    // M_S = [[1,4],[1,2]] (columns are the answer vectors of s1, s2).
    let m = QMat::from_i64_rows(&[&[1, 4], &[1, 2]]);
    println!("M_S =\n{m}");
    println!("nonsingular: {}", m.is_nonsingular());
    let p = interior_cone_point(&m).expect("M_S is nonsingular");
    println!("a rational interior point of C: {p}");
    // ASCII plot: x = answer to w1, y = answer to w2; '#' = in C, '*' = in P.
    let in_p = |x: i64, y: i64| -> bool {
        // P = {M·u : u ∈ ℕ²}: search small coefficients.
        for a in 0..=x.max(y) {
            for b in 0..=x.max(y) {
                if a + 4 * b == x && a + 2 * b == y {
                    return true;
                }
            }
        }
        false
    };
    let height = 8i64;
    let width = 17i64;
    for y in (0..=height).rev() {
        let mut line = String::new();
        for x in 0..=width {
            let inside = cone_contains(&m, &QVec::from_i64s(&[x, y]));
            let ch = if in_p(x, y) {
                '*'
            } else if inside {
                '·'
            } else {
                ' '
            };
            line.push(ch);
        }
        println!("w2={y:>2} |{line}");
    }
    println!("       +{}", "-".repeat((width + 1) as usize));
    println!("        w1 = 0..{width}   (* ∈ P,  · ∈ C\\P)");
}

/// Example 2: set-determinacy does not imply bag-determinacy.
fn example_2() {
    println!("\n--- Example 2: V →_set q but V ↛_bag q ---");
    let schema = Schema::with_relations([("P", 2), ("R", 2), ("S", 2)]);
    let q = parse_query("q(x) :- P(u,x), R(x,y), S(y,z)").unwrap();
    let v1 = parse_query("v1(x) :- P(u,x), R(x,y)").unwrap();
    let v2 = parse_query("v2(x) :- R(x,y), S(y,z)").unwrap();
    // A counterexample pair for bag semantics: the views count |P⋈R| and
    // |R⋈S| per x, which cannot recover |P⋈R⋈S| = #P(·,x)·Σ_y R(x,y)·#S(y,·).
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
    for (name, view) in [("v1", &v1), ("v2", &v2)] {
        let a = eval_cq(&view.disjuncts()[0], &schema, &d);
        let b = eval_cq(&view.disjuncts()[0], &schema, &d2);
        println!("  {name}(D) = {name}(D') as bags? {}", a == b);
    }
    let qa = eval_cq(&q.disjuncts()[0], &schema, &d);
    let qb = eval_cq(&q.disjuncts()[0], &schema, &d2);
    println!("  q(D) = q(D') as bags? {}   ({} vs {})", qa == qb, qa, qb);
}

/// Example 3: bag-determinacy does not imply set-determinacy (needs UCQs).
fn example_3() {
    println!("\n--- Example 3: V →_bag q but V ↛_set q (UCQ views) ---");
    let schema = Schema::with_relations([("P", 1), ("R", 1)]);
    let q = parse_query("q() :- R(x)").unwrap();
    let v1 = parse_query("v1() :- P(x)").unwrap();
    let v2 = parse_query("v2() :- P(x) | R(x)").unwrap();
    // Under bag semantics q(D) = v2(D) − v1(D) for every D; check on a sample.
    let mut d = Structure::new(schema.clone());
    d.add("P", &[0]);
    d.add("P", &[1]);
    d.add("R", &[2]);
    d.add("R", &[3]);
    d.add("R", &[4]);
    let qv = eval_boolean_ucq(&q, &schema, &d);
    let v1v = eval_boolean_ucq(&v1, &schema, &d);
    let v2v = eval_boolean_ucq(&v2, &schema, &d);
    println!("  on a sample D: q(D) = {qv}, v1(D) = {v1v}, v2(D) = {v2v}");
    println!(
        "  q(D) = v2(D) − v1(D)? {}",
        Int::from_nat(qv) == Int::from_nat(v2v) - Int::from_nat(v1v)
    );
    // Under set semantics the views cannot distinguish {P(a)} from {P(a),R(b)}.
    let mut e1 = Structure::new(schema.clone());
    e1.add("P", &[0]);
    let mut e2 = Structure::new(schema.clone());
    e2.add("P", &[0]);
    e2.add("R", &[1]);
    let sat = |u: &UnionQuery, s: &Structure| !eval_boolean_ucq(u, &schema, s).is_zero();
    println!(
        "  set semantics: views agree on E1/E2? {}   q agrees? {}",
        sat(&v1, &e1) == sat(&v1, &e2) && sat(&v2, &e1) == sat(&v2, &e2),
        sat(&q, &e1) == sat(&q, &e2)
    );
}

/// Example 32 / the (⇐) direction of the Main Lemma: a span relationship
/// yields a rewriting.
fn example_32() {
    println!("\n--- Example 32: q⃗ = 3·v⃗1 − v⃗2 gives q(D) = v1(D)³/v2(D) ---");
    let q = cq("q() :- R(e0x,e0y), R(l0,l0), R(p0x,p0y), R(p0y,p0z), R(p1x,p1y), R(p1y,p1z)");
    let v1 = cq("v1() :- R(ae0x,ae0y), R(ae1x,ae1y), R(al0,al0), R(ap0x,ap0y), R(ap0y,ap0z), R(ap1x,ap1y), R(ap1y,ap1z), R(ap2x,ap2y), R(ap2y,ap2z)");
    let v2 = cq("v2() :- R(b0x,b0y), R(b1x,b1y), R(b2x,b2y), R(b3x,b3y), R(b4x,b4y), R(bl0,bl0), R(bl1,bl1), R(bp0x,bp0y), R(bp0y,bp0z), R(bp1x,bp1y), R(bp1y,bp1z), R(bp2x,bp2y), R(bp2y,bp2z), R(bp3x,bp3y), R(bp3y,bp3z), R(bp4x,bp4y), R(bp4y,bp4z), R(bp5x,bp5y), R(bp5y,bp5z), R(bp6x,bp6y), R(bp6y,bp6z)");
    let views = vec![v1, v2];
    let analysis = decide_bag_determinacy(&views, &q).unwrap();
    println!("  determined: {}", analysis.determined);
    println!("  {}", analysis.rewriting(&views).unwrap());
}

/// Example 42: the basis W itself is not good enough — its evaluation matrix
/// can be singular, which is why Section 6 builds a different basis S.
fn example_42() {
    println!("\n--- Example 42: why W itself cannot serve as the basis S ---");
    let q = cq("q() :- R(x,y), R(y,z)");
    let v = cq("v() :- R(x,y)");
    let analysis = decide_bag_determinacy(std::slice::from_ref(&v), &q).unwrap();
    println!(
        "  determined: {} (so a counterexample exists)",
        analysis.determined
    );
    let witness = build_counterexample(&analysis, &q, &CancelToken::none()).unwrap();
    println!("  the good basis replaces W; evaluation matrix:");
    print!("{}", witness.evaluation_matrix);
    println!(
        "  nonsingular: {}",
        witness.evaluation_matrix.is_nonsingular()
    );
    println!("  verified counterexample: {}", witness.verify(&[v], &q));
}

/// Appendix B witness for a path-query instance (the proof device of Lemma 11 (⇒)).
fn appendix_b() {
    println!("\n--- Appendix B: the D = q+q vs rewired D' pair ---");
    let q = PathQuery::from_compact("AB");
    let views = vec![PathQuery::from_compact("A")];
    let (d, d2) = non_determinacy_witness(&views, &q).unwrap();
    let schema = path_schema(&views, &q);
    println!("  D  = {d}");
    println!("  D' = {d2}");
    println!(
        "  q distinguishes them: {}",
        eval_cq(&q.to_cq("q"), &schema, &d) != eval_cq(&q.to_cq("q"), &schema, &d2)
    );
}

fn main() {
    figure_1();
    figure_2();
    example_2();
    example_3();
    example_32();
    example_42();
    appendix_b();
}
