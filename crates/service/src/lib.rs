//! # cqdet-service — the unified typed request/response API
//!
//! Everything the workspace can do — bag determinacy (Theorem 3), batches,
//! path queries (Theorem 1), the Hilbert-Tenth reduction (Theorem 2),
//! narrated explanations, statistics — behind **one** typed protocol:
//!
//! * [`Request`] / [`RequestKind`] — one variant per workload family, with
//!   JSON-lines decoding (ids for pipelining, optional `deadline_ms`);
//! * [`Response`] — typed payloads (certificate records, analyses,
//!   witnesses) with a wire JSON projection;
//! * [`CqdetError`] — the typed error hierarchy (`parse` with line/column/
//!   token and caret rendering, `schema`, `resource_exhausted`, `deadline`,
//!   `internal`) every lower-layer error converts into;
//! * [`Engine`] — the facade: `Engine::submit(Request) -> Response` over a
//!   long-lived [`cqdet_engine::DecisionSession`], with per-request
//!   deadlines checked at pipeline stage boundaries (gate → basis → span →
//!   witness) and panic containment;
//! * [`serve`] / [`reactor`] — the JSON-lines server (`cqdet serve`):
//!   stdin/stdout and TCP transports over one shared engine.  TCP is an
//!   event-driven reactor feeding a fixed worker pool, with admission
//!   control (in-flight budget, typed `resource_exhausted` shedding),
//!   round-robin fairness, and graceful shutdown.
//!
//! The `cqdet` binary is a thin transport over this crate: every subcommand
//! constructs a [`Request`] and goes through [`Engine::submit`] — one code
//! path, every scenario.
//!
//! ```
//! use cqdet_service::{Engine, Request, RequestKind, Response};
//!
//! let engine = Engine::new();
//! let response = engine.submit(Request {
//!     id: "r1".into(),
//!     deadline_ms: Some(5_000),
//!     budget: None,
//!     kind: RequestKind::Decide {
//!         program: "v() :- R(x,y)\nq() :- R(x,y), R(u,w)".into(),
//!         query: "q".into(),
//!         witness: true,
//!     },
//! });
//! let Response::Decide { record, .. } = response else { panic!() };
//! assert_eq!(record.status, cqdet_engine::TaskStatus::Determined);
//! // The same response, as its JSON-lines wire form:
//! assert!(record.render().contains("\"version\":1"));
//! ```

// The serving layer is the last line of defence: requests must come back as
// typed errors, never panics.  Tests are exempt.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
// The reactor's `poll(2)` call in `sys` is the crate's only `unsafe` code.
#![deny(unsafe_code)]

pub mod engine;
pub mod error;
pub mod frame;
pub mod reactor;
pub mod request;
pub mod response;
pub mod serve;
pub mod sessions;
#[allow(unsafe_code)]
mod sys;

pub use engine::{parse_monomial, parse_program, Engine, EngineCounters};
pub use error::CqdetError;
pub use frame::{FrameBuffer, FrameError};
pub use request::{BudgetSpec, Request, RequestKind, PROTOCOL_VERSION};
pub use response::{counters_json, error_json, HilbertRefutation, Response};
pub use serve::{failpoint_names, respond_to_line, serve_lines, serve_tcp, ServeOptions};
pub use sessions::{SessionRegistry, SessionSlot, DEFAULT_MAX_SESSIONS, DEFAULT_SESSION_TTL};
