//! Conjunctive queries, unions of conjunctive queries and path queries.
//!
//! A conjunctive query `Φ = ∃y⃗ φ(x⃗, y⃗)` is a conjunction of relational atoms
//! over free variables `x⃗` and existential variables `y⃗` (Section 2.1).  Under
//! **bag semantics** (the subject of the paper) the result `Φ(D)` is the
//! multiset whose multiplicity at `a⃗` is the number of homomorphisms of the
//! frozen body into `D` sending `x⃗` to `a⃗`; a boolean query (no free
//! variables) simply counts homomorphisms, `q(D) = |hom(q, D)|`.
//!
//! This crate provides:
//!
//! * [`ConjunctiveQuery`], [`UnionQuery`] and [`PathQuery`] — the three query
//!   classes the paper studies,
//! * a small Datalog-style parser ([`parse_query`]) and pretty-printer,
//! * bag- and set-semantics evaluation ([`eval`]),
//! * set-semantics containment of boolean queries (`q ⊆_set q'` iff
//!   `hom(q', q) ≠ ∅`),
//! * random workload generators used by the benchmark harness.

// Request-reachable code must fail as typed errors, never panics; tests are
// exempt, justified sites carry individual `#[allow]`s with the invariant.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![forbid(unsafe_code)]

pub mod cq;
pub mod eval;
pub mod generator;
pub mod parse;
pub mod path;
pub mod ucq;

pub use cq::{ArityConflict, Atom, ConjunctiveQuery};
pub use eval::{eval_boolean_cq, eval_boolean_ucq, eval_cq, BagAnswers};
pub use generator::QueryGenerator;
pub use parse::{parse_queries, parse_query, ParseQueryError};
pub use path::PathQuery;
pub use ucq::UnionQuery;

pub use cqdet_structure::{Schema, Structure};
