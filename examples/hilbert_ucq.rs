//! Theorem 2: the reduction from Hilbert's Tenth Problem to bag-determinacy of
//! boolean UCQs, run on the Pythagorean instance x² + y² − z² = 0.
//!
//! Run with `cargo run --example hilbert_ucq`.

use cqdet::hilbert::structures::{bounded_refutation, verify_counterexample};
use cqdet::prelude::*;
use cqdet::query::eval::eval_boolean_ucq;

fn main() {
    let instance =
        DiophantineInstance::from_terms(&[(1, &[("x", 2)]), (1, &[("y", 2)]), (-1, &[("z", 2)])]);
    println!("Diophantine instance: {instance}");

    let encoding = encode(&instance);
    println!("\nencoded schema: {}", encoding.schema);
    println!("query q = {}", encoding.query);
    for v in &encoding.views {
        println!("view {}  ({} disjunct(s))", v.name(), v.len());
    }
    println!(
        "total CQ disjuncts across views: {}",
        encoding.total_disjuncts()
    );

    println!("\nsearching for a solution with unknowns ≤ 5 …");
    match bounded_refutation(&instance, 5, || false).expect("never stopped") {
        Some((enc, d, d_prime)) => {
            println!("solution found → the encoded view set does NOT determine q.");
            println!("D  = {d}");
            println!("D' = {d_prime}");
            println!(
                "verified counterexample: {}",
                verify_counterexample(&enc, &d, &d_prime)
            );
            for v in &enc.views {
                println!(
                    "  {}(D) = {}   {}(D') = {}",
                    v.name(),
                    eval_boolean_ucq(v, &enc.schema, &d),
                    v.name(),
                    eval_boolean_ucq(v, &enc.schema, &d_prime)
                );
            }
            println!(
                "  q(D) = {}   q(D') = {}",
                eval_boolean_ucq(&enc.query, &enc.schema, &d),
                eval_boolean_ucq(&enc.query, &enc.schema, &d_prime)
            );
        }
        None => println!("no solution in the box — nothing can be concluded (Theorem 2!)"),
    }

    // An instance with no solution over ℕ: x + 1 = 0.
    let unsolvable = DiophantineInstance::from_terms(&[(1, &[("x", 1)]), (1, &[])]);
    println!("\nDiophantine instance: {unsolvable}");
    println!(
        "bounded search up to 50: {:?} — the encoded instance is determined, \
         but no algorithm can certify that in general (that is Theorem 2).",
        matches!(bounded_refutation(&unsolvable, 50, || false), Ok(None))
    );
}
