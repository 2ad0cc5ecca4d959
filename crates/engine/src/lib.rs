//! # cqdet-engine — the batch decision engine
//!
//! The decision procedure of Theorem 3 (`cqdet-core`) answers one
//! `(views, query)` instance; real workloads are **fleets** of instances
//! sharing views, schemas and isomorphism classes.  This crate turns the
//! one-shot procedure into a serving engine:
//!
//! * [`DecisionSession`] — a long-lived session owning the cross-request
//!   caches (a `cqdet_core::DecisionContext`, which owns its byte
//!   governor), so a batch of N tasks reusing the same views freezes,
//!   canonizes, decomposes and gates each isomorphism class **once per
//!   session** instead of once per task;
//! * [`DecisionSession::decide_batch`] — the task fan-out: one scoped
//!   thread per task (`cqdet-parallel`), the per-view fan-out inside each
//!   task running inline on its worker;
//! * [`TaskRecord`] — the full per-task certificate (span coefficients +
//!   rewriting when determined; the `Counterexample` answer vectors,
//!   re-verified via `check_certificate_arithmetic`, when not), rendered
//!   as a JSON-lines record by [`TaskRecord::render_into`];
//! * [`taskfile`] — the line-oriented batch task-file format of the
//!   `cqdet batch` subcommand;
//! * [`json`] — the dependency-free JSON writer, tree and parser behind the
//!   certificates (no crates.io access in this sandbox, hence no serde).
//!
//! See `ARCHITECTURE.md` at the workspace root for how the engine sits on
//! top of the paper-faithful layers, and the crate-level quickstart on
//! [`DecisionSession`] for a complete example.

// Request-reachable code must fail as typed errors, never panics (the
// `cqdet serve` process outlives any request).  Tests are exempt; justified
// library sites carry individual `#[allow]`s.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![forbid(unsafe_code)]

pub mod json;
pub mod session;
pub mod taskfile;

pub use json::{Json, JsonError};
pub use session::{
    BatchReport, DecisionSession, SessionConfig, Task, TaskRecord, TaskStatus, WitnessRecord,
    WIRE_FORMAT_VERSION,
};
pub use taskfile::{parse_task_file, TaskFile, TaskFileError};
