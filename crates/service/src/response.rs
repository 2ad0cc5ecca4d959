//! Typed responses: one variant per request family, echoing the request id,
//! with wire JSON projections.
//!
//! A response on the wire is one JSON object per line with the envelope
//! `{"version":1,"id":...,"type":...}` plus the payload members of its
//! variant:
//!
//! * `decide` — the full certificate record ([`cqdet_engine::TaskRecord`]);
//! * `batch` — `records` (array of certificate records), `stats`, and a
//!   `deadline_exceeded` flag when the shared deadline cut the batch short
//!   (completed records survive — partial, not void);
//! * `path` — the Theorem 1 outcome, derivation steps or Appendix B witness;
//! * `hilbert` — the encoding summary and the bounded refutation, if found;
//! * `explain` — the narration as one text member;
//! * `stats` — session cache counters plus the server's request count;
//! * `shutdown` — an acknowledgement;
//! * `error` / `timeout` — the typed [`CqdetError`]; a
//!   [`CqdetError::Deadline`] renders with type `timeout`, everything else
//!   with type `error`.
//!
//! In process, the variants carry the **typed** payloads (records, analyses,
//! parsed queries), so front ends — the CLI included — render without
//! re-parsing.  [`Response::render`] is the one emitter of the wire line: it
//! writes every member straight into one `String` (a `redecide` record's
//! 65 × 64 multiplicity table goes digit by digit into the line, with no
//! per-entry string or value tree).  [`Response::to_json`] parses those
//! bytes back for consumers that inspect a response.

use crate::engine::EngineCounters;
use crate::error::CqdetError;
use crate::request::PROTOCOL_VERSION;
use cqdet_core::{ContextStats, PathAnalysis};
use cqdet_engine::json::{write_arr, write_str, ObjectWriter};
use cqdet_engine::{Json, TaskRecord};
use cqdet_query::{ConjunctiveQuery, PathQuery};
use cqdet_structure::Structure;

/// A bounded refutation found by a `hilbert` request: the counterexample
/// pair and its verification outcome.
#[derive(Debug, Clone)]
pub struct HilbertRefutation {
    /// The structure `D`.
    pub d: Structure,
    /// The structure `D′`.
    pub d_prime: Structure,
    /// Outcome of `verify_counterexample` on the pair.
    pub verified: bool,
}

/// A typed response.  See the [module docs](self) for the wire shape.
#[derive(Debug)]
pub enum Response {
    /// Answer to a `decide` request.
    Decide {
        /// The request id, echoed.
        id: String,
        /// The full certificate record.
        record: Box<TaskRecord>,
        /// The parsed views, in program order (in-process only).
        views: Vec<ConjunctiveQuery>,
        /// The parsed query (in-process only).
        query: Box<ConjunctiveQuery>,
    },
    /// Answer to a `batch` request.
    Batch {
        /// The request id, echoed.
        id: String,
        /// One certificate record per task, in task-file order.
        records: Vec<TaskRecord>,
        /// Session cache counters after the batch.
        stats: ContextStats,
        /// Whether the request's deadline expired mid-batch (some records
        /// then carry `timeout_stage`; completed ones are intact).
        deadline_exceeded: bool,
        /// Whether the request's shared fuel budget ran out mid-batch (some
        /// records then carry `fuel_exhausted`; completed ones are intact).
        fuel_exhausted: bool,
    },
    /// Answer to a `path` request.
    Path {
        /// The request id, echoed.
        id: String,
        /// The parsed query word.
        query: PathQuery,
        /// The parsed view words.
        views: Vec<PathQuery>,
        /// The Theorem 1 analysis (derivation steps when determined).
        analysis: PathAnalysis,
        /// The Appendix B witness pair when not determined.
        witness: Option<(Structure, Structure)>,
    },
    /// Answer to a `hilbert` request.
    Hilbert {
        /// The request id, echoed.
        id: String,
        /// The instance, rendered.
        instance: String,
        /// Number of views in the Theorem 2 encoding.
        views: usize,
        /// Total CQ disjuncts across the encoding.
        disjuncts: usize,
        /// The encoding's schema, rendered.
        schema: String,
        /// The search bound that was used.
        bound: u64,
        /// The refutation, when one exists within the bound.
        refutation: Option<HilbertRefutation>,
    },
    /// Answer to an `explain` request: the narration.
    Explain {
        /// The request id, echoed.
        id: String,
        /// The full narration (the `cqdet explain` stdout).
        text: String,
    },
    /// Answer to a `stats` request.
    Stats {
        /// The request id, echoed.
        id: String,
        /// Session cache counters.
        stats: ContextStats,
        /// Requests served by this engine so far (this one included).
        requests: u64,
        /// Per-reason robustness counters (timeouts, contained panics,
        /// shed load, …).
        counters: EngineCounters,
    },
    /// Answer to a `session_open` request.
    SessionOpen {
        /// The request id, echoed.
        id: String,
        /// The freshly allocated session id (the handle every later
        /// mutation addresses).
        session: u64,
        /// The session's view names, program order.
        views: Vec<String>,
        /// The session's query name.
        query: String,
    },
    /// Answer to a `view_add` / `view_remove` request.
    SessionDelta {
        /// The request id, echoed.
        id: String,
        /// The target session id, echoed.
        session: u64,
        /// Which mutation ran: `"view_add"` or `"view_remove"` (doubles as
        /// the wire `type`).
        action: &'static str,
        /// The session's view names *after* the mutation.
        views: Vec<String>,
        /// The session's cumulative delta counters (adds, removes,
        /// fast removals, replays, rebuilds) — how the echelon was
        /// repaired is observable, not guessed.
        counters: cqdet_core::DeltaCounters,
    },
    /// Answer to a `redecide` request: the full certificate record against
    /// the session's current view set.
    SessionDecide {
        /// The request id, echoed.
        id: String,
        /// The target session id, echoed.
        session: u64,
        /// The full certificate record (same schema as `decide`).
        record: Box<TaskRecord>,
    },
    /// Acknowledgement of a `session_close` request.
    SessionClosed {
        /// The request id, echoed.
        id: String,
        /// The closed session id, echoed.
        session: u64,
    },
    /// Acknowledgement of a `shutdown` request.
    Shutdown {
        /// The request id, echoed.
        id: String,
    },
    /// A failed request: the typed error, echoing the id when one was
    /// decodable.
    Error {
        /// The request id, when the request got far enough to have one.
        id: Option<String>,
        /// What went wrong.
        error: CqdetError,
    },
}

impl Response {
    /// The echoed request id (`None` only for undecodable requests).
    pub fn id(&self) -> Option<&str> {
        match self {
            Response::Decide { id, .. }
            | Response::Batch { id, .. }
            | Response::Path { id, .. }
            | Response::Hilbert { id, .. }
            | Response::Explain { id, .. }
            | Response::SessionOpen { id, .. }
            | Response::SessionDelta { id, .. }
            | Response::SessionDecide { id, .. }
            | Response::SessionClosed { id, .. }
            | Response::Stats { id, .. }
            | Response::Shutdown { id } => Some(id),
            Response::Error { id, .. } => id.as_deref(),
        }
    }

    /// The wire `"type"` string (`"timeout"` for deadline errors).
    pub fn type_str(&self) -> &'static str {
        match self {
            Response::Decide { .. } => "decide",
            Response::Batch { .. } => "batch",
            Response::Path { .. } => "path",
            Response::Hilbert { .. } => "hilbert",
            Response::Explain { .. } => "explain",
            Response::SessionOpen { .. } => "session_open",
            Response::SessionDelta { action, .. } => action,
            Response::SessionDecide { .. } => "redecide",
            Response::SessionClosed { .. } => "session_close",
            Response::Stats { .. } => "stats",
            Response::Shutdown { .. } => "shutdown",
            Response::Error { error, .. } => match error {
                CqdetError::Deadline { .. } => "timeout",
                _ => "error",
            },
        }
    }

    /// Whether this is an error (or timeout) response.
    pub fn is_error(&self) -> bool {
        matches!(self, Response::Error { .. })
    }

    /// The wire line of this response (the envelope plus the payload),
    /// without the trailing newline.  Every member is written straight
    /// into the line ([`cqdet_engine::json::ObjectWriter`]); only the cold
    /// statistics and error members pass through a [`Json`] value.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut o = ObjectWriter::open(&mut out);
        o.int("version", PROTOCOL_VERSION);
        match self.id() {
            Some(id) => o.str("id", id),
            None => o.null("id"),
        };
        o.str("type", self.type_str());
        match self {
            Response::Decide { record, .. } => record.render_into(o.key("record")),
            Response::Batch {
                records,
                stats,
                deadline_exceeded,
                fuel_exhausted,
                ..
            } => {
                write_arr(o.key("records"), records, |out, r| r.render_into(out));
                o.json("stats", &context_stats_json(stats));
                if *deadline_exceeded {
                    o.bool("deadline_exceeded", true);
                }
                if *fuel_exhausted {
                    o.bool("fuel_exhausted", true);
                }
            }
            Response::Path {
                query,
                views,
                analysis,
                witness,
                ..
            } => {
                o.str("query", &query.to_string());
                write_arr(o.key("views"), views, |out, v| {
                    write_str(out, &v.to_string())
                });
                o.bool("determined", analysis.determined);
                if let Some(steps) = &analysis.derivation {
                    write_arr(o.key("derivation"), steps, |out, s| {
                        let mut m = ObjectWriter::open(out);
                        m.uint("view", s.view as u64)
                            .int("sign", s.sign as i64)
                            .uint("from_len", s.from_len as u64)
                            .uint("to_len", s.to_len as u64);
                        m.close();
                    });
                }
                if let Some((d, d_prime)) = witness {
                    let mut w = ObjectWriter::open(o.key("witness"));
                    w.str("d", &d.to_string())
                        .str("d_prime", &d_prime.to_string());
                    w.close();
                }
            }
            Response::Hilbert {
                instance,
                views,
                disjuncts,
                schema,
                bound,
                refutation,
                ..
            } => {
                o.str("instance", instance)
                    .uint("views", *views as u64)
                    .uint("disjuncts", *disjuncts as u64)
                    .str("schema", schema)
                    .uint("bound", *bound);
                match refutation {
                    Some(r) => {
                        let mut m = ObjectWriter::open(o.key("refutation"));
                        m.str("d", &r.d.to_string())
                            .str("d_prime", &r.d_prime.to_string())
                            .bool("verified", r.verified);
                        m.close();
                    }
                    None => {
                        o.null("refutation");
                    }
                }
            }
            Response::Explain { text, .. } => {
                o.str("text", text);
            }
            Response::Stats {
                stats,
                requests,
                counters,
                ..
            } => {
                o.json("stats", &context_stats_json(stats))
                    .uint("requests", *requests)
                    .json("counters", &counters_json(counters));
            }
            Response::SessionOpen {
                session,
                views,
                query,
                ..
            } => {
                o.uint("session", *session);
                write_arr(o.key("views"), views, |out, v| write_str(out, v));
                o.str("query", query);
            }
            Response::SessionDelta {
                session,
                views,
                counters,
                ..
            } => {
                o.uint("session", *session);
                write_arr(o.key("views"), views, |out, v| write_str(out, v));
                let mut c = ObjectWriter::open(o.key("delta_counters"));
                c.uint("adds", counters.adds)
                    .uint("removes", counters.removes)
                    .uint("redecides", counters.redecides)
                    .uint("fast_removals", counters.fast_removals)
                    .uint("replays", counters.replays)
                    .uint("rebuilds", counters.rebuilds);
                c.close();
            }
            Response::SessionDecide {
                session, record, ..
            } => {
                o.uint("session", *session);
                record.render_into(o.key("record"));
            }
            Response::SessionClosed { session, .. } => {
                o.uint("session", *session);
            }
            Response::Shutdown { .. } => {}
            Response::Error { error, .. } => {
                o.json("error", &error_json(error));
            }
        }
        o.close();
        out
    }

    /// The response as a [`Json`] tree: [`Response::render`]'s bytes,
    /// parsed (one emitter; the tree is for consumers that inspect members).
    pub fn to_json(&self) -> Json {
        Json::from_rendered(&self.render())
    }
}

/// The wire JSON of a [`CqdetError`]: the stable `code` plus the variant's
/// structured members and a rendered `message`.
pub fn error_json(error: &CqdetError) -> Json {
    let mut members: Vec<(String, Json)> = vec![("code".into(), Json::str(error.code()))];
    match error {
        CqdetError::Parse {
            line, col, token, ..
        } => {
            members.push(("line".into(), Json::num(*line as i64)));
            members.push(("col".into(), Json::num(*col as i64)));
            if !token.is_empty() {
                members.push(("token".into(), Json::str(token)));
            }
        }
        CqdetError::Deadline { stage } => {
            members.push(("stage".into(), Json::str(stage)));
        }
        CqdetError::ResourceExhausted { spent, limit, .. } => {
            // Fuel exhaustion carries its ledger so clients can resubmit
            // with an informed budget; capacity errors carry neither.
            if let Some(spent) = spent {
                members.push(("spent".into(), Json::num(*spent as i64)));
            }
            if let Some(limit) = limit {
                members.push(("limit".into(), Json::num(*limit as i64)));
            }
        }
        CqdetError::Schema { .. } | CqdetError::Internal { .. } => {}
    }
    members.push(("message".into(), Json::str(error.to_string())));
    Json::Obj(members)
}

/// The session cache counters as the wire `stats` member: the flat
/// hit/miss tallies, the interned class count, each governed cache's full
/// counter block (occupancy plus hit/miss/eviction tallies) and the
/// context's byte ledger.
fn context_stats_json(stats: &ContextStats) -> Json {
    let usage = |u: &cqdet_cache::CacheUsage| {
        Json::obj([
            ("hits", Json::num(u.hits as i64)),
            ("misses", Json::num(u.misses as i64)),
            ("evictions", Json::num(u.evictions as i64)),
            ("entries", Json::num(u.entries as i64)),
            ("bytes", Json::num(u.bytes as i64)),
            ("cap", Json::num(u.cap as i64)),
        ])
    };
    Json::obj([
        ("frozen_hits", Json::num(stats.frozen_hits as i64)),
        ("frozen_misses", Json::num(stats.frozen_misses as i64)),
        ("gate_hits", Json::num(stats.gate_hits as i64)),
        ("gate_misses", Json::num(stats.gate_misses as i64)),
        ("iso_classes", Json::num(stats.iso_classes as i64)),
        ("frozen_usage", usage(&stats.frozen_usage)),
        ("gate_usage", usage(&stats.gate_usage)),
        ("governed_bytes", Json::num(stats.governed_bytes as i64)),
    ])
}

/// The wire JSON of the per-reason robustness counters (the `"counters"`
/// member of `stats` responses).
pub fn counters_json(counters: &EngineCounters) -> Json {
    Json::obj([
        ("timeouts", Json::num(counters.timeouts as i64)),
        ("fuel_exhausted", Json::num(counters.fuel_exhausted as i64)),
        (
            "panics_contained",
            Json::num(counters.panics_contained as i64),
        ),
        (
            "shed_connections",
            Json::num(counters.shed_connections as i64),
        ),
        ("shed_requests", Json::num(counters.shed_requests as i64)),
        (
            "oversized_requests",
            Json::num(counters.oversized_requests as i64),
        ),
        ("accept_retries", Json::num(counters.accept_retries as i64)),
        (
            "snapshot_loaded",
            Json::num(counters.snapshot_loaded as i64),
        ),
        (
            "snapshot_rejected",
            Json::num(counters.snapshot_rejected as i64),
        ),
        ("sessions_open", Json::num(counters.sessions_open as i64)),
        (
            "sessions_reaped",
            Json::num(counters.sessions_reaped as i64),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_envelope_distinguishes_timeouts() {
        let timeout = Response::Error {
            id: Some("r1".into()),
            error: CqdetError::Deadline {
                stage: "gate".into(),
            },
        };
        let json = timeout.to_json();
        assert_eq!(json.get("type").unwrap().as_str(), Some("timeout"));
        assert_eq!(json.get("id").unwrap().as_str(), Some("r1"));
        let err = json.get("error").unwrap();
        assert_eq!(err.get("code").unwrap().as_str(), Some("deadline"));
        assert_eq!(err.get("stage").unwrap().as_str(), Some("gate"));

        let plain = Response::Error {
            id: None,
            error: CqdetError::schema("nope"),
        };
        let json = plain.to_json();
        assert_eq!(json.get("type").unwrap().as_str(), Some("error"));
        assert_eq!(json.get("id"), Some(&Json::Null));
        // Every envelope carries the protocol version and round-trips.
        assert_eq!(json.get("version").unwrap().as_u64(), Some(1));
        assert_eq!(Json::parse(&json.render()).unwrap(), json);
    }

    /// `to_json` is the parse of `render`'s bytes: on every variant (each
    /// error code included) the parse succeeds, and the tree renders back
    /// to the same bytes.
    #[test]
    fn every_variant_renders_parseable_json() {
        use crate::engine::Engine;
        use crate::request::{Request, RequestKind};
        use std::collections::BTreeSet;

        let engine = Engine::new();
        let submit = |kind| {
            engine.submit(Request {
                id: "v\"1".into(),
                deadline_ms: None,
                budget: None,
                kind,
            })
        };
        let program = "v() :- R(x,y)\nq() :- R(x,y), R(y,z)";
        let mut responses = vec![
            submit(RequestKind::Decide {
                program: program.into(),
                query: "q".into(),
                witness: true,
            }),
            submit(RequestKind::Batch {
                tasks: "v1() :- R(x,y)\nq1() :- R(x,y), R(u,v)\nq2() :- R(x,y), R(y,z)\n\
                        task t1: q1 <- v1\ntask t2: q2 <- v1"
                    .into(),
                witnesses: true,
                verify: true,
            }),
            submit(RequestKind::Path {
                query: "ABCD".into(),
                views: vec!["ABC".into(), "BC".into(), "BCD".into()],
            }),
            submit(RequestKind::Path {
                query: "ABC".into(),
                views: vec!["AB".into()],
            }),
            submit(RequestKind::Hilbert {
                bound: 5,
                monomials: vec!["+1:x^2".into(), "+1:y^2".into(), "-1:z^2".into()],
            }),
            submit(RequestKind::Explain {
                program: program.into(),
                query: "q".into(),
            }),
            submit(RequestKind::SessionOpen {
                program: program.into(),
                query: "q".into(),
                checkpoint_interval: None,
            }),
            submit(RequestKind::ViewAdd {
                session: 1,
                view: "w() :- R(x,y), R(y,z)".into(),
            }),
            submit(RequestKind::Redecide {
                session: 1,
                witness: true,
            }),
            submit(RequestKind::ViewRemove {
                session: 1,
                view: "w".into(),
            }),
            submit(RequestKind::SessionClose { session: 1 }),
            submit(RequestKind::Stats),
            submit(RequestKind::Shutdown),
        ];
        for error in [
            CqdetError::Parse {
                line: 2,
                col: 5,
                token: "\u{1}".into(),
                message: "unexpected input".into(),
            },
            CqdetError::schema("nope"),
            CqdetError::ResourceExhausted {
                what: "steps".into(),
                spent: Some(12_345),
                limit: Some(7),
            },
            CqdetError::resource("connection slots"),
            CqdetError::Deadline {
                stage: "gate".into(),
            },
            CqdetError::internal("boom"),
        ] {
            responses.push(Response::Error { id: None, error });
        }
        let mut types = BTreeSet::new();
        for response in &responses {
            let line = response.render();
            let tree = Json::parse(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
            assert_eq!(tree, response.to_json());
            assert_eq!(tree.render(), line);
            assert_eq!(
                tree.get("type").unwrap().as_str(),
                Some(response.type_str())
            );
            types.insert(response.type_str());
        }
        let variants = [
            "batch",
            "decide",
            "error",
            "explain",
            "hilbert",
            "path",
            "redecide",
            "session_close",
            "session_open",
            "shutdown",
            "stats",
            "timeout",
            "view_add",
            "view_remove",
        ];
        assert_eq!(types, BTreeSet::from(variants));
    }

    #[test]
    fn parse_errors_carry_position_on_the_wire() {
        let e = CqdetError::Parse {
            line: 3,
            col: 7,
            token: "junk".into(),
            message: "unexpected input after atom".into(),
        };
        let json = error_json(&e);
        assert_eq!(json.get("line").unwrap().as_u64(), Some(3));
        assert_eq!(json.get("col").unwrap().as_u64(), Some(7));
        assert_eq!(json.get("token").unwrap().as_str(), Some("junk"));
    }
}
