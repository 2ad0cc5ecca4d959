//! Batch engine walkthrough: decide a fleet of tasks sharing one view pool
//! through a single `DecisionSession`, print the per-task certificates and
//! the cross-request cache statistics, and compare against one-shot calls.
//!
//! Run with `cargo run --release --example batch_session`.

use cqdet::prelude::*;
use std::time::Instant;

fn cq(text: &str) -> ConjunctiveQuery {
    parse_query(text).expect("valid query").disjuncts()[0].clone()
}

fn main() {
    println!("== cqdet batch session ==\n");

    // One pool of views, shared by every task — the regime the session
    // caches target.  (Real deployments would parse a task file instead;
    // see `cqdet batch --help` and cqdet::engine::taskfile.)
    let views = vec![
        cq("v1() :- R(x,y)"),
        cq("v2() :- R(x,y), R(y,z)"),
        cq("v3() :- R(x,y), R(u,w)"),
    ];
    let queries = [
        "q0() :- R(x,y), R(u,w)",                 // determined: 2·v1
        "q1() :- R(x,y), R(y,z), R(a,b)",         // determined: v2 + v1
        "q2() :- R(x,y), R(y,z), R(z,w)",         // not determined (3-path)
        "q3() :- R(x,y), R(u,w), R(a,b), R(c,d)", // determined: 4·v1
    ];
    let tasks: Vec<Task> = (0..16)
        .map(|i| Task {
            id: format!("t{i}"),
            views: views.clone(),
            query: cq(queries[i % queries.len()]).with_name(format!("q{i}")),
        })
        .collect();

    // One-shot baseline: every call pays freezing/canonization/gates anew.
    let start = Instant::now();
    for task in &tasks {
        decide_bag_determinacy(&task.views, &task.query).expect("boolean CQs");
    }
    let fresh = start.elapsed();

    // The session: caches shared across all 16 tasks (and across the
    // per-task witness constructions for the undetermined ones).
    let session = DecisionSession::new();
    let start = Instant::now();
    let report = session.decide_batch(
        &tasks,
        &CancelToken::none(),
        &Budget::none(),
        &SessionConfig::default(),
    );
    let shared = start.elapsed();

    for record in &report.records {
        println!(
            "{:>4}  {:<14}  verified: {:?}",
            record.id,
            record.status.as_str(),
            record.verified
        );
        if let Some(rewriting) = &record.rewriting {
            println!("      {rewriting}");
        }
        if let Some(cert) = &record.counterexample {
            let render = |v: &[Nat]| {
                v.iter()
                    .map(|n| n.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            println!(
                "      counterexample answers: w⃗(D)=[{}] ≠ w⃗(D′)=[{}]",
                render(&cert.answers_d),
                render(&cert.answers_d_prime)
            );
        }
    }

    let stats = report.stats;
    println!("\nsession caches after the batch:");
    println!(
        "  frozen bodies {} hits / {} misses, gates {} / {}, span bases {} / {}",
        stats.frozen_hits,
        stats.frozen_misses,
        stats.gate_hits,
        stats.gate_misses,
        stats.span_hits,
        stats.span_misses
    );
    println!("  {} isomorphism classes interned", stats.iso_classes);
    println!(
        "\none-shot calls {:.2} ms  vs  shared session {:.2} ms (incl. witnesses)",
        fresh.as_secs_f64() * 1e3,
        shared.as_secs_f64() * 1e3
    );
    assert!(report.all_verified(), "every certificate re-verifies");
}
