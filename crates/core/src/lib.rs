//! Bag-semantics query determinacy — the paper's contribution, executable.
//!
//! The central question (Definition 1): given a set of views `V` and a query
//! `q`, does `v(D) = v(D′)` for all `v ∈ V` (as **multisets**) imply
//! `q(D) = q(D′)`?  We write `V ⟶_bag q`.
//!
//! * [`boolean`] — the decision procedure of **Theorem 3**: bag-determinacy of
//!   boolean conjunctive queries is decidable, via the Main Lemma
//!   (`V₀ ⟶_bag q` iff `q⃗ ∈ span{v⃗ : v ∈ V}` over the component basis `W`).
//! * [`witness`] — the constructive half of the proof (Sections 5–7): when the
//!   span test fails, build a certified counterexample pair `D, D′`.
//! * [`paths`] — **Theorem 1**: for path queries, bag- and set-determinacy
//!   coincide and are characterised by reachability in the prefix graph
//!   `G_{q,V}`; includes the q-walk machinery and the Appendix B witness.
//! * [`bruteforce`] — a bounded exhaustive baseline (the "algorithm" one would
//!   use without the paper); used for cross-validation and as the benchmark
//!   baseline.
//! * [`session`] — cross-request caches ([`DecisionContext`]) behind the
//!   request entry point [`decide_bag_determinacy_in`], which also takes the
//!   request's deadline ([`CancelToken`]) and fuel ([`Budget`]): batches of
//!   related instances share frozen bodies, canonical keys, components and
//!   containment gates (the substrate of the `cqdet-engine` batch engine).
//!
//! Each request-path operation has one public body taking the request
//! context — `(ctl, budget)` at pipeline level, one `&mut Gas` at kernel
//! level.  The only context-free forms are the one-shot facades
//! [`decide_bag_determinacy`] and [`build_counterexample`].

// Request-reachable code must fail as typed errors, never panics: a serving
// process (`cqdet serve`) survives whatever a request throws at it.  Tests
// and benches are exempt (`cfg_attr(not(test), …)`); the few justified
// library sites carry individual `#[allow]`s with their invariant spelled
// out.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod boolean;
pub mod bruteforce;
pub mod delta;
pub mod paths;
pub mod session;
pub mod witness;

pub use boolean::{
    decide_bag_determinacy, decide_bag_determinacy_in, BagDeterminacy, DeterminacyError,
};
pub use bruteforce::{brute_force_search, BruteForceOutcome};
pub use delta::{DeltaCounters, MutableSession, DEFAULT_CHECKPOINT_INTERVAL};
pub use paths::{
    decide_path_determinacy, derivation_path, prefix_graph, DerivationStep, PathAnalysis,
};
pub use session::{ContextStats, DecisionContext, FrozenQuery, SessionSnapshot};
pub use witness::{build_counterexample, build_counterexample_ctl, Counterexample, WitnessError};

pub use cqdet_bigint::{Int, Nat};
pub use cqdet_cache::{snapshot::SnapshotError, CacheUsage};
pub use cqdet_linalg::{QMat, QVec, Rat};
pub use cqdet_parallel::{Budget, CancelToken};
pub use cqdet_query::{ConjunctiveQuery, PathQuery, UnionQuery};
pub use cqdet_structure::{Schema, Structure};
