//! Allocation budgets of the freeze path, of program parsing, of a warm
//! session cycle, of rendering its answer and of certifying a
//! counterexample.
//!
//! A counting global allocator (per-thread counters, so concurrently
//! running tests do not disturb each other) measures two steps of a
//! decide-mix planted request (`decide_workload(16, 4, true, 1)`):
//!
//! * freezing the 16 views and the query through a fresh
//!   `DecisionContext::frozen` while holding every `Arc<FrozenQuery>` —
//!   the allocations made, and the blocks still live afterwards (what the
//!   frozen cache frees again on eviction);
//! * `parse_program` of the instance's program text;
//!
//! and each operation of a warm session-churn cycle on the 64-view
//! `delta_workload` session: `view_add`, `redecide`, `view_remove`, and
//! the `views().to_vec()` copy a certified `redecide` record takes; and
//! rendering the wire line of a warm 65-view `redecide` answer
//! (`render_redecide_responses`); and certifying the undetermined chain
//! instance with a basis of 8 (`chain_instance(7)`) the way the engine
//! does: build, arithmetic check, `verify`, answer vectors.
//!
//! The bounds sit well below the figures of the code each change replaced
//! (see EXPERIMENTS §FLAT, §SESSION, §RENDER and §TABLE) and above today's,
//! so a change that brings per-fact, per-row, per-view-copy, per-entry or
//! per-base-count blocks back fails here.

use cqdet_core::witness::{build_counterexample, check_certificate_arithmetic};
use cqdet_core::{decide_bag_determinacy, Budget, CancelToken, DecisionContext, MutableSession};
use cqdet_query::cq::common_schema;
use cqdet_query::ConjunctiveQuery;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the counters are
// const-initialized thread-locals without destructors, so touching them
// never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A move to a new block: one allocation, one free.
        bump(&ALLOCS);
        bump(&FREES);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Run `f` and return its result, the allocations it made and the blocks
/// it left live (allocations minus frees), on this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, i64) {
    let (a0, f0) = (ALLOCS.with(Cell::get), FREES.with(Cell::get));
    let out = f();
    let (a1, f1) = (ALLOCS.with(Cell::get), FREES.with(Cell::get));
    (out, a1 - a0, (a1 - a0) as i64 - (f1 - f0) as i64)
}

fn instance() -> (Vec<ConjunctiveQuery>, ConjunctiveQuery) {
    cqdet_bench::decide_workload(16, 4, true, 1)
}

#[test]
fn freezing_a_planted_instance_stays_within_its_block_budget() {
    let (views, query) = instance();
    let all: Vec<&ConjunctiveQuery> = views.iter().chain(std::iter::once(&query)).collect();
    let schema = common_schema(&all).unwrap();
    let cx = DecisionContext::new();
    let (held, allocs, live) = counted(|| {
        all.iter()
            .map(|q| cx.frozen(&schema, q))
            .collect::<Vec<_>>()
    });
    assert_eq!(held.len(), 17);
    println!("freeze: {allocs} allocations, {live} live blocks");
    assert!(allocs <= 1_700, "{allocs} allocations (budget 1,700)");
    assert!(live <= 700, "{live} live blocks (budget 700)");
}

#[test]
fn parsing_a_planted_program_stays_within_its_budget() {
    let (views, query) = instance();
    let text = views
        .iter()
        .chain(std::iter::once(&query))
        .map(ConjunctiveQuery::to_string)
        .collect::<Vec<_>>()
        .join("\n");
    let (parsed, allocs, _) = counted(|| cqdet_service::parse_program(&text, query.name()));
    let (parsed_views, parsed_query) = parsed.expect("the program parses");
    assert_eq!((parsed_views, parsed_query), (views, query));
    println!("parse_program: {allocs} allocations");
    assert!(allocs <= 800, "{allocs} allocations (budget 800)");
}

#[test]
fn a_warm_session_cycle_pays_for_the_change_only() {
    let (views, query, extras) = cqdet_bench::delta_workload(
        cqdet_bench::DELTA_SESSION_VIEWS,
        cqdet_bench::DELTA_CHURN_VIEWS,
    );
    let (ctl, nb) = (CancelToken::none(), Budget::none());
    let cx = DecisionContext::new();
    let mut session = MutableSession::open(&cx, views, query, 8, &ctl, &nb).unwrap();
    let extra = extras[0].clone();
    let removed = cqdet_bench::DELTA_SESSION_VIEWS;
    // One untimed cycle warms every cache the timed one touches.
    session.view_add(&cx, extra.clone(), &ctl, &nb).unwrap();
    session.redecide(&cx, &ctl, &nb).unwrap();
    session.view_remove(&cx, removed, &ctl, &nb).unwrap();
    session.redecide(&cx, &ctl, &nb).unwrap();

    let ((), add, _) = counted(|| session.view_add(&cx, extra, &ctl, &nb).unwrap());
    let (got, redecide, _) = counted(|| session.redecide(&cx, &ctl, &nb).unwrap());
    assert!(got.determined);
    let (copy, to_vec, _) = counted(|| session.views().to_vec());
    assert_eq!(copy.len(), removed + 1);
    drop(copy);
    let ((), remove, _) = counted(|| session.view_remove(&cx, removed, &ctl, &nb).unwrap());
    println!(
        "session cycle: view_add {add}, redecide {redecide}, view_remove {remove}, \
         views().to_vec() {to_vec} allocations"
    );
    assert!(add <= 400, "view_add: {add} allocations (budget 400)");
    assert!(
        redecide <= 300,
        "redecide: {redecide} allocations (budget 300)"
    );
    assert!(
        remove <= 400,
        "view_remove: {remove} allocations (budget 400)"
    );
    assert!(
        to_vec <= 4,
        "views().to_vec(): {to_vec} allocations (budget 4)"
    );
}

#[test]
fn rendering_a_warm_redecide_answer_stays_within_its_budget() {
    let (response, _) = cqdet_bench::render_redecide_responses();
    let (line, allocs, _) = counted(|| response.render());
    assert!(line.contains("\"type\":\"redecide\""), "{line}");
    println!("render: {allocs} allocations, {} bytes", line.len());
    assert!(allocs <= 40, "render: {allocs} allocations (budget 40)");
}

#[test]
fn certifying_the_basis_8_chain_stays_within_its_budget() {
    let (views, query) = cqdet_bench::chain_instance(7);
    let analysis = decide_bag_determinacy(&views, &query).unwrap();
    assert_eq!(analysis.basis_size(), 8);
    let ((ok, (d, d_prime)), allocs, _) = counted(|| {
        let witness = build_counterexample(&analysis, &query, &CancelToken::none()).unwrap();
        let ok =
            check_certificate_arithmetic(&witness, &analysis) && witness.verify(&views, &query);
        (ok, witness.answer_vectors())
    });
    assert!(ok, "the certificate checks");
    assert_ne!(d, d_prime);
    println!("certify basis-8 chain: {allocs} allocations");
    // 56,504 here, 62,839 through the hom memo the table replaced; the
    // perturbation's exact solves make up most of either figure.
    assert!(
        allocs <= 60_000,
        "certify: {allocs} allocations (budget 60,000)"
    );
}
