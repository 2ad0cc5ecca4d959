//! # cqdet — Determinacy of Real (Bag-Semantics) Conjunctive Queries
//!
//! A faithful, executable reproduction of *"Determinacy of Real Conjunctive
//! Queries. The Boolean Case"* (PODS 2022): given a set of views `V` and a
//! query `q`, does knowing the **multiset** answers of the views on a database
//! determine the multiset answer of the query?
//!
//! The facade crate re-exports the whole workspace:
//!
//! * [`bigint`] — arbitrary-precision integers (homomorphism counts overflow
//!   machine words immediately),
//! * [`linalg`] — exact rational linear algebra (the Main Lemma is a span test
//!   in ℚ^k),
//! * [`structure`] — relational structures, homomorphism counting, the
//!   structure algebra of Lovász's Lemma 4,
//! * [`query`] — conjunctive queries, UCQs, path queries, a small parser and
//!   bag-semantics evaluation,
//! * [`core`] — the decision procedure of Theorem 3, counterexample
//!   construction, the path-query results of Theorem 1 and a brute-force
//!   baseline,
//! * [`engine`] — the batch decision engine: long-lived sessions with
//!   cross-request caches, task files, JSON certificates,
//! * [`service`] — the unified typed request/response API: `Engine::submit`
//!   over every workload family, the typed error hierarchy, per-request
//!   deadlines, and the `cqdet serve` JSON-lines server,
//! * [`parallel`] — the [`prelude::CancelToken`] deadline/cancellation
//!   primitive and the [`prelude::Budget`] fuel ledger — together the
//!   request context every request-path entry point takes — plus the
//!   serving pool's queue and the hardware-thread count that sizes it,
//! * [`hilbert`] — the Theorem 2 reduction from Hilbert's Tenth Problem
//!   (undecidability for boolean UCQs).
//!
//! `ARCHITECTURE.md` at the workspace root maps every paper object (Lemma 4
//! structure algebra, Definition 27 basis, the Main Lemma span test,
//! Theorems 1–3) to the module implementing it, with the crate dependency
//! diagram.
//!
//! ## Quickstart — one instance
//!
//! ```
//! use cqdet::prelude::*;
//!
//! // Two materialised views and a query, all boolean conjunctive queries.
//! let v1 = parse_query("v1() :- Orders(c, o), Ships(o, w)").unwrap();
//! let v2 = parse_query("v2() :- Ships(o, w)").unwrap();
//! let q = parse_query("q() :- Orders(c, o), Ships(o, w), Ships(o2, w2)").unwrap();
//!
//! let views = vec![v1.disjuncts()[0].clone(), v2.disjuncts()[0].clone()];
//! let query = q.disjuncts()[0].clone();
//!
//! let analysis = decide_bag_determinacy(&views, &query).unwrap();
//! assert!(analysis.determined);
//! // … and the analysis explains why: q(D) = v1(D)·v2(D).
//! assert!(analysis.rewriting(&views).unwrap().contains("v1(D)"));
//! ```
//!
//! ## Quickstart — a batch of instances
//!
//! Real workloads are fleets of `(views, query)` tasks sharing views.  A
//! [`engine::DecisionSession`] owns cross-request caches (frozen bodies,
//! canonical keys, containment gates), so a batch
//! gates each isomorphism class once; every task comes back
//! with a re-verified certificate that serializes to JSON.
//!
//! ```
//! use cqdet::prelude::*;
//!
//! let file = parse_task_file(
//!     "
//!     v1() :- R(x,y)
//!     v2() :- R(x,y), R(y,z)
//!     q1() :- R(x,y), R(u,w)            # determined: 2·v1
//!     q2() :- R(x,y), R(y,z), R(z,w)    # not determined
//!     task a: q1 <- v1 v2
//!     task b: q2 <- *
//!     ",
//! )
//! .unwrap();
//!
//! // One deadline and one fuel budget bound the whole batch; none here.
//! let session = DecisionSession::new();
//! let report = session.decide_batch(
//!     &file.tasks,
//!     &CancelToken::none(),
//!     &Budget::none(),
//!     &SessionConfig::default(),
//! );
//! assert!(report.all_verified());
//! assert_eq!(report.records[0].status, TaskStatus::Determined);
//! assert_eq!(report.records[1].status, TaskStatus::NotDetermined);
//! // Each record is a JSON-lines certificate …
//! let line = report.records[1].render();
//! assert!(line.contains("\"counterexample\""));
//! // … and the session counted its cache traffic.  A frozen body is kept
//! // from its second sighting on: both tasks froze v1 and v2 once, so the
//! // second freeze admitted them, but nothing could hit yet …
//! assert_eq!(report.stats.frozen_hits, 0);
//! assert!(report.stats.frozen_usage.entries > 0);
//! // … while the same batch again finds them in the cache.
//! let again = session.decide_batch(
//!     &file.tasks,
//!     &CancelToken::none(),
//!     &Budget::none(),
//!     &SessionConfig::default(),
//! );
//! assert!(again.stats.frozen_hits > 0);
//! ```
//!
//! ## Quickstart — the serving facade
//!
//! Every workload family answers through one typed entry point,
//! [`service::Engine::submit`] — the code path shared by all CLI
//! subcommands and the `cqdet serve` JSON-lines server.  Requests carry an
//! id (echoed on the response) and an optional deadline, checked at the
//! pipeline's stage boundaries:
//!
//! ```
//! use cqdet::prelude::*;
//!
//! let engine = Engine::new();
//! let response = engine.submit(Request {
//!     id: "r1".into(),
//!     deadline_ms: Some(5_000),
//!     budget: None,
//!     kind: RequestKind::Decide {
//!         program: "v1() :- R(x,y)\nv2() :- R(x,y), R(y,z)\nq() :- R(x,y), R(u,w)".into(),
//!         query: "q".into(),
//!         witness: true,
//!     },
//! });
//! let Response::Decide { record, .. } = response else { panic!() };
//! assert_eq!(record.status, TaskStatus::Determined);
//! assert_eq!(record.verified, Some(true));
//! // The wire form is one JSON line, version-stamped:
//! assert!(record.render().starts_with("{\"version\":1,"));
//!
//! // Failures are typed — here a parse error with line/column/token:
//! let bad = engine.submit(Request {
//!     id: "r2".into(),
//!     deadline_ms: None,
//!     budget: None,
//!     kind: RequestKind::Decide {
//!         program: "q() : R(x,y)".into(),
//!         query: "q".into(),
//!         witness: false,
//!     },
//! });
//! let Response::Error { error, .. } = bad else { panic!() };
//! assert_eq!(error.code(), "parse");
//! ```
//!
//! ## The `cqdet` CLI
//!
//! The same functionality ships as a binary (`cargo run --release --bin
//! cqdet -- --help`); every subcommand routes through
//! [`service::Engine::submit`]:
//!
//! ```text
//! cqdet decide  program.cq --query q --json   # one instance → JSON certificate
//! cqdet batch   tasks.cqb                     # task file → JSON-lines + cache stats
//! cqdet explain program.cq                    # the pipeline, narrated step by step
//! cqdet path    ABCD ABC BC BCD               # Theorem 1 (path queries)
//! cqdet hilbert 6 +2:x,y -12:                 # Theorem 2 reduction
//! cqdet serve   [--tcp ADDR]                  # the JSON-lines server
//! cqdet stats   --tcp ADDR                    # a running server's counters
//! ```
//!
//! Task files declare a pool of definitions (one boolean CQ per line) and
//! then `task <id>: <query> <- <view> <view> ...` lines (`*` = every
//! definition except the query); see [`engine::taskfile`] for the grammar
//! and `README.md` for the full protocol specification (request/response
//! schema, error taxonomy, deadline semantics).

pub use cqdet_bigint as bigint;
pub use cqdet_core as core;
pub use cqdet_engine as engine;
pub use cqdet_hilbert as hilbert;
pub use cqdet_linalg as linalg;
pub use cqdet_parallel as parallel;
pub use cqdet_query as query;
pub use cqdet_service as service;
pub use cqdet_structure as structure;

/// Everything most programs need, in one import.
pub mod prelude {
    pub use cqdet_bigint::{Int, Nat};
    pub use cqdet_core::{
        brute_force_search, build_counterexample, decide_bag_determinacy,
        decide_bag_determinacy_in, decide_path_determinacy, BagDeterminacy, Counterexample,
        DecisionContext,
    };
    pub use cqdet_engine::{
        parse_task_file, DecisionSession, SessionConfig, Task, TaskRecord, TaskStatus,
    };
    pub use cqdet_hilbert::{encode, DiophantineInstance, Monomial};
    pub use cqdet_linalg::{QMat, QVec, Rat};
    pub use cqdet_parallel::{Budget, CancelToken};
    pub use cqdet_query::{parse_queries, parse_query, ConjunctiveQuery, PathQuery, UnionQuery};
    pub use cqdet_service::{BudgetSpec, CqdetError, Engine, Request, RequestKind, Response};
    pub use cqdet_structure::{Schema, Structure};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let q = parse_query("q() :- R(x,y)").unwrap();
        let v = parse_query("v() :- R(x,y)").unwrap();
        let res =
            decide_bag_determinacy(&[v.disjuncts()[0].clone()], &q.disjuncts()[0].clone()).unwrap();
        assert!(res.determined);
    }
}
