//! Quickstart: decide bag-semantics determinacy for a handful of boolean
//! conjunctive queries and print the analysis.
//!
//! Run with `cargo run --example quickstart`.

use cqdet::prelude::*;

fn cq(text: &str) -> ConjunctiveQuery {
    parse_query(text).expect("valid query").disjuncts()[0].clone()
}

fn main() {
    println!("== cqdet quickstart ==\n");

    // A tiny warehouse schema: Orders(customer, order), Ships(order, warehouse).
    let v1 = cq("v1() :- Orders(c,o), Ships(o,w)");
    let v2 = cq("v2() :- Ships(o,w)");
    let q_good = cq("q1() :- Orders(c,o), Ships(o,w), Ships(o2,w2)");
    let q_bad = cq("q2() :- Orders(c,o), Ships(o,w), Ships(o,w2)");

    for (label, q) in [
        ("q1 (join × extra shipment)", q_good),
        ("q2 (double shipment of one order)", q_bad),
    ] {
        let views = vec![v1.clone(), v2.clone()];
        let analysis = decide_bag_determinacy(&views, &q).expect("boolean CQs");
        println!("query {label}");
        println!("  determined under bag semantics: {}", analysis.determined);
        println!(
            "  retained views (q ⊆_set v):     {:?}",
            analysis.retained_views
        );
        println!("  basis size k = {}", analysis.basis_size());
        println!("  q⃗ = {}", analysis.query_vector);
        match analysis.rewriting(&views) {
            Some(rw) => println!("  rewriting: {rw}"),
            None => {
                println!("  no rewriting exists; building a counterexample …");
                let witness = build_counterexample(&analysis, &q, &CancelToken::none())
                    .expect("instance is not determined");
                let (y, y2) = witness.answer_vectors();
                println!(
                    "  counterexample answer vectors on the basis queries:\n    D  ↦ {:?}\n    D' ↦ {:?}",
                    y.iter().map(|n| n.to_string()).collect::<Vec<_>>(),
                    y2.iter().map(|n| n.to_string()).collect::<Vec<_>>(),
                );
                println!(
                    "  q(D) = {}   vs   q(D') = {}",
                    witness.eval_on_d(&q),
                    witness.eval_on_d_prime(&q)
                );
                assert!(witness.verify(&views, &q));
            }
        }
        println!();
    }
}
