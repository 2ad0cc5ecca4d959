//! View-selection scenario: which analytics counting queries can be answered
//! exactly from a set of materialised *count* views?
//!
//! Under bag semantics a boolean CQ is a COUNT(*) aggregate of a join — the
//! bread and butter of analytics dashboards.  A view set determines a query
//! exactly when the dashboard can be served from the materialised counts alone,
//! for *every* possible database state.  This example runs the Theorem 3
//! decision procedure over a small catalogue of candidate dashboards and
//! reports which ones are servable, together with the rewriting.
//!
//! Run with `cargo run --example view_selection`.

use cqdet::prelude::*;

fn cq(text: &str) -> ConjunctiveQuery {
    parse_query(text).expect("valid query").disjuncts()[0].clone()
}

fn main() {
    // Schema: Follows(user, user), Posts(user, post), Likes(user, post).
    let views = vec![
        cq("follows_count()      :- Follows(a,b)"),
        cq("posts_count()        :- Posts(u,p)"),
        cq("likes_count()        :- Likes(u,p)"),
        cq("self_follow_count()  :- Follows(a,a)"),
        cq("engagement_count()   :- Posts(u,p), Likes(v,p)"),
    ];

    let dashboards = vec![
        (
            "pairs of (follow, post) events",
            cq("d1() :- Follows(a,b), Posts(u,p)"),
        ),
        (
            "engagement × total likes",
            cq("d2() :- Posts(u,p), Likes(v,p), Likes(w,q)"),
        ),
        ("likes on own posts", cq("d3() :- Posts(u,p), Likes(u,p)")),
        (
            "follow chains of length 2",
            cq("d4() :- Follows(a,b), Follows(b,c)"),
        ),
        (
            "triple product of base counts",
            cq("d5() :- Follows(a,b), Posts(u,p), Likes(v,q)"),
        ),
        (
            "self-follows times posts",
            cq("d6() :- Follows(a,a), Posts(u,p)"),
        ),
    ];

    println!("== which dashboards are exactly answerable from the materialised counts? ==\n");
    let mut servable = 0;
    for (label, q) in &dashboards {
        let analysis = decide_bag_determinacy(&views, q).expect("boolean CQs");
        let verdict = if analysis.determined { "YES" } else { "no " };
        println!("[{verdict}] {label}");
        if let Some(rw) = analysis.rewriting(&views) {
            println!("       {rw}");
            servable += 1;
        } else {
            // For non-servable dashboards, exhibit two database states that
            // the views cannot tell apart but the dashboard can.
            let witness =
                build_counterexample(&analysis, q, &CancelToken::none()).expect("not determined");
            println!(
                "       counterexample: q(D) = {} but q(D') = {} while all views agree",
                witness.eval_on_d(q),
                witness.eval_on_d_prime(q)
            );
            assert!(witness.verify(&views, q));
        }
    }
    println!(
        "\n{servable}/{} dashboards are exactly servable from the views.",
        dashboards.len()
    );
}
