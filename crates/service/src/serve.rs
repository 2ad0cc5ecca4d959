//! The long-lived JSON-lines server: `cqdet serve`.
//!
//! Two dependency-free transports speak the same protocol
//! ([`crate::request`] / [`crate::response`], one JSON object per line):
//!
//! * [`serve_lines`] — stdin/stdout (or any `BufRead`/`Write` pair): the
//!   zero-setup mode, also what CI smoke-tests pipe requests through;
//! * [`serve_tcp`] — the event-driven core (see [`crate::reactor`]): a
//!   non-blocking readiness-polling reactor owns all connection I/O and
//!   feeds a fixed worker pool through a bounded queue, with a global
//!   in-flight admission budget ([`ServeOptions::inflight_budget`]),
//!   round-robin per-connection fairness, and typed `resource_exhausted`
//!   load-shedding.  Every connection talks to the **same** [`Engine`], so
//!   the session caches (frozen bodies, containment gates, span bases, the
//!   hom memo) are shared across connections — exactly the cross-request
//!   regime the session caches were built for.
//!
//! Error containment: a malformed line, a request outside the decidable
//! fragment, an expired deadline or even a panicking worker each produce a
//! typed error/timeout **response** on the same connection — never a dropped
//! connection, never a dead server.
//!
//! Graceful shutdown: a `shutdown` request (on any connection) is
//! acknowledged, the accept loop stops accepting, every connection finishes
//! its in-flight request and drains the lines it has already read, and
//! [`serve_tcp`] returns once all handlers have exited.

use crate::engine::Engine;
use crate::error::CqdetError;
use crate::request::{BudgetSpec, Request};
use crate::response::Response;
use cqdet_engine::Json;
use cqdet_failpoint::fail_point;
use std::io::{self, BufRead, Write};
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Duration;

/// Knobs of the TCP transport.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Maximum concurrently served connections; an accept beyond the cap is
    /// answered with one `resource_exhausted` error response and closed.
    pub max_connections: usize,
    /// Maximum bytes one request line may span; a connection that exceeds
    /// it (e.g. an endless stream with no newline) is answered with one
    /// `resource_exhausted` error response and closed, bounding per-
    /// connection memory.
    pub max_request_bytes: usize,
    /// Default fuel budget installed on the engine when serving starts:
    /// applied to every request that carries no `budget` member of its own
    /// (the `--fuel-steps` / `--fuel-bytes` serve flags).
    pub default_budget: Option<BudgetSpec>,
    /// Cap on the exponential backoff the accept loop sleeps after a
    /// *transient* accept error (aborted handshakes under load); the first
    /// retry waits 1 ms, doubling up to this cap, reset on any successful
    /// accept.
    pub accept_backoff_max: Duration,
    /// Worker threads the reactor dispatches requests to; `0` sizes the
    /// pool from `cqdet_parallel::max_parallelism()`.
    pub worker_threads: usize,
    /// Global admission budget: the maximum number of requests admitted
    /// (dispatched or queued) but not yet answered, across all
    /// connections.  A frame arriving over budget is *shed* — answered
    /// immediately with a typed `resource_exhausted` error, never stalled
    /// or dropped.
    pub inflight_budget: usize,
    /// Total byte budget across every governed session cache (the
    /// `--cache-bytes` serve flag): split between the frozen-body,
    /// containment-gate, span-basis, hom-count and candidate caches, with
    /// the total doubling as a global memory watermark.  Over-budget
    /// entries are evicted and recomputed on demand — a tiny cap degrades
    /// throughput, never correctness.  `None` keeps the per-cache defaults.
    pub cache_bytes: Option<u64>,
    /// Warm-start snapshot path (the `--snapshot` serve flag): loaded at
    /// boot (a missing, corrupted or truncated file is a counted cold
    /// start, never a failed boot) and rewritten atomically when the serve
    /// loop exits.
    pub snapshot_path: Option<PathBuf>,
    /// Idle time-to-live of mutable decision sessions: a session untouched
    /// this long is reaped on the next sweep (any session or stats
    /// request), its bytes discharged from the governed ledger.
    pub session_ttl: Duration,
    /// Cap on concurrently open mutable sessions; an open beyond the cap
    /// (after reaping) is answered with a typed `resource_exhausted` error.
    pub max_sessions: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            // Connections mostly wait on pipelined request I/O while the
            // engine fans work out internally, so over-subscribe the cores.
            max_connections: cqdet_parallel::max_parallelism().saturating_mul(4).max(8),
            // Generous: task files are text, and the biggest legitimate
            // requests (bulk batches) are a few MiB.
            max_request_bytes: 64 << 20,
            default_budget: None,
            accept_backoff_max: Duration::from_millis(100),
            worker_threads: 0,
            // Far above any honest pipelining depth, low enough to refuse
            // an unbounded backlog long before memory pressure.
            inflight_budget: 4096,
            cache_bytes: None,
            snapshot_path: None,
            session_ttl: crate::sessions::DEFAULT_SESSION_TTL,
            max_sessions: crate::sessions::DEFAULT_MAX_SESSIONS,
        }
    }
}

/// Every fault-injection seam reachable from a served request, for chaos
/// harnesses to cycle through (see `cqdet-failpoint`).  Grouped by layer:
/// reactor core, connection I/O, line handling, engine dispatch, decision
/// stages, session cache internals, cache governance.  `serve/shed` only
/// fires on the admission-control shed path, so the generic chaos matrix
/// (which drives ordinary under-budget traffic) exercises it via a
/// dedicated over-budget scenario rather than this list's round-trip
/// probe; likewise `cache/evict` only fires while a byte cap forces
/// evictions (arm it with a tiny [`ServeOptions::cache_bytes`]), and the
/// `snapshot/*` seams fire at boot/shutdown rather than per request, so
/// they get their own save/corrupt/reload scenarios.  The `session/open`,
/// `session/mutate` and `session/replay` seams fire only on mutable-session
/// requests (`session_open`, `view_add`, `view_remove`), so the generic
/// matrix skips them too; the dedicated session chaos scenario drives them
/// with real mutation traffic and asserts apply-or-rollback atomicity.
pub fn failpoint_names() -> &'static [&'static str] {
    &[
        "serve/poll",
        "serve/dispatch",
        "serve/shed",
        "serve/conn/read",
        "serve/conn/write",
        "serve/parse",
        "serve/emit",
        "engine/submit",
        "decide/gate",
        "decide/basis",
        "decide/span",
        "session/lock",
        "session/cache-insert",
        "session/open",
        "session/mutate",
        "session/replay",
        "cache/evict",
        "snapshot/save",
        "snapshot/load",
    ]
}

/// Boot-time engine policy of the TCP transport: install the default
/// fuel budget, apply the cache byte budget, warm-start from the snapshot
/// (missing/corrupt → counted cold start, never a failed boot).
pub(crate) fn boot_engine(engine: &Engine, options: &ServeOptions) {
    if options.default_budget.is_some() {
        engine.set_default_budget(options.default_budget);
    }
    if let Some(bytes) = options.cache_bytes {
        engine.set_cache_bytes(Some(bytes));
    }
    engine.set_session_ttl(options.session_ttl);
    engine.set_max_sessions(options.max_sessions);
    if let Some(path) = &options.snapshot_path {
        let _ = engine.warm_start(path);
    }
}

/// Exit-time persistence of the TCP transport: rewrite the snapshot
/// atomically.  Best effort — a failed or faulted save never blocks the
/// server from exiting.
pub(crate) fn persist_engine(engine: &Engine, options: &ServeOptions) {
    if let Some(path) = &options.snapshot_path {
        let _ = engine.save_snapshot_quiet(path);
    }
}

/// Decode one request line and produce its response.  Blank lines produce
/// `None`.  The id is echoed on error responses whenever the line was at
/// least a JSON object with an `"id"` member.
pub fn respond_to_line(engine: &Engine, line: &str) -> Option<Response> {
    let line = line.trim();
    if line.is_empty() {
        return None;
    }
    fail_point!("serve/parse", |msg: String| Some(Response::Error {
        id: None,
        error: CqdetError::internal(msg),
    }));
    Some(match Json::parse(line) {
        Err(e) => Response::Error {
            id: None,
            error: e.into(),
        },
        Ok(json) => {
            let id = json.get("id").and_then(Json::as_str).map(str::to_string);
            match Request::from_json(&json) {
                Ok(request) => engine.submit(request),
                Err(error) => Response::Error { id, error },
            }
        }
    })
}

/// Decode, dispatch and render one line to its wire JSON, containing
/// panics from *any* layer under it (the parse seam, engine dispatch, JSON
/// rendering, the emit seam): a panic becomes a typed internal-error line,
/// never a dead connection.  `(rendered, shutdown)`; `None` for blank lines.
/// The reactor's worker pool runs exactly this per job.
pub(crate) fn render_line(engine: &Engine, line: &str) -> Option<(String, bool)> {
    let rendered = catch_unwind(AssertUnwindSafe(|| {
        let response = respond_to_line(engine, line)?;
        let done = matches!(response, Response::Shutdown { .. });
        fail_point!("serve/emit", |msg: String| Some((
            Response::Error {
                id: None,
                error: CqdetError::internal(msg),
            }
            .to_json()
            .render(),
            done,
        )));
        Some((response.to_json().render(), done))
    }));
    match rendered {
        Ok(out) => out,
        Err(_) => {
            engine.note_panic_contained();
            let response = Response::Error {
                id: None,
                error: CqdetError::internal("response handling panicked"),
            };
            Some((response.to_json().render(), false))
        }
    }
}

/// Serve JSON-lines over an arbitrary reader/writer pair (the stdio
/// transport).  Returns the number of requests answered.  The loop ends on
/// EOF or after acknowledging a `shutdown` request.  Input is read as raw
/// bytes (invalid UTF-8 is replaced, answered as a parse error, and the
/// loop continues — a malformed line must never kill the server).
pub fn serve_lines<R: BufRead, W: Write>(
    engine: &Engine,
    mut reader: R,
    mut writer: W,
) -> io::Result<u64> {
    let mut served = 0u64;
    let mut buf = Vec::new();
    loop {
        buf.clear();
        if reader.read_until(b'\n', &mut buf)? == 0 {
            break; // EOF
        }
        let line = String::from_utf8_lossy(&buf);
        let Some((rendered, shutdown)) = render_line(engine, &line) else {
            continue;
        };
        let done = shutdown || engine.shutdown_requested();
        writer.write_all(rendered.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        served += 1;
        if done {
            break;
        }
    }
    Ok(served)
}

/// Serve the protocol on a TCP listener bound to `addr` (e.g.
/// `127.0.0.1:0` for an ephemeral port).  `on_ready` receives the bound
/// address before the first accept — front ends print their "serving" line
/// from it, tests learn the ephemeral port.  Returns after a graceful
/// shutdown with the number of requests answered.
///
/// This runs the event-driven reactor core ([`crate::reactor`]).
pub fn serve_tcp<F: FnOnce(SocketAddr)>(
    engine: &Engine,
    addr: &str,
    options: &ServeOptions,
    on_ready: F,
) -> io::Result<u64> {
    crate::reactor::serve_tcp_reactor(engine, addr, options, on_ready)
}

/// Answer an accepted connection beyond [`ServeOptions::max_connections`]
/// with one typed `resource_exhausted` line.
pub(crate) fn reject_connection(mut stream: TcpStream) -> io::Result<()> {
    let response = Response::Error {
        id: None,
        error: CqdetError::resource("connection slots (try again shortly)"),
    };
    stream.write_all(response.to_json().render().as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const PROGRAM: &str = "v() :- R(x,y)\\nq() :- R(x,y), R(u,w)";

    #[test]
    fn stdio_transport_answers_and_shuts_down() {
        let engine = Engine::new();
        let input = format!(
            "{}\n\n{}\n{}\n",
            format_args!(r#"{{"id":"r1","type":"decide","program":"{PROGRAM}"}}"#),
            r#"{"id":"r2","type":"stats"}"#,
            r#"{"id":"r3","type":"shutdown"}"#,
        );
        let mut out = Vec::new();
        let served = serve_lines(&engine, Cursor::new(input), &mut out).unwrap();
        assert_eq!(served, 3);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        let first = Json::parse(lines[0]).unwrap();
        assert_eq!(first.get("id").unwrap().as_str(), Some("r1"));
        assert_eq!(first.get("type").unwrap().as_str(), Some("decide"));
        assert_eq!(
            first.get("record").unwrap().get("status").unwrap().as_str(),
            Some("determined")
        );
        let last = Json::parse(lines[2]).unwrap();
        assert_eq!(last.get("type").unwrap().as_str(), Some("shutdown"));
        assert!(engine.shutdown_requested());
    }

    #[test]
    fn malformed_lines_get_error_responses_not_disconnects() {
        let engine = Engine::new();
        let input = "this is not json\n{\"id\":\"ok\",\"type\":\"stats\"}\n";
        let mut out = Vec::new();
        let served = serve_lines(&engine, Cursor::new(input), &mut out).unwrap();
        assert_eq!(served, 2, "the bad line answered, the loop continued");
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let err = Json::parse(lines[0]).unwrap();
        assert_eq!(err.get("type").unwrap().as_str(), Some("error"));
        assert_eq!(
            err.get("error").unwrap().get("code").unwrap().as_str(),
            Some("parse")
        );
        let ok = Json::parse(lines[1]).unwrap();
        assert_eq!(ok.get("type").unwrap().as_str(), Some("stats"));
    }

    #[test]
    fn invalid_utf8_gets_an_error_response_not_a_dead_server() {
        let engine = Engine::new();
        let mut input: Vec<u8> = b"\xff\xfe not utf-8\n".to_vec();
        input.extend_from_slice(b"{\"id\":\"ok\",\"type\":\"stats\"}\n");
        let mut out = Vec::new();
        let served = serve_lines(&engine, Cursor::new(input), &mut out).unwrap();
        assert_eq!(served, 2, "the bad bytes answered, the loop continued");
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let err = Json::parse(lines[0]).unwrap();
        assert_eq!(err.get("type").unwrap().as_str(), Some("error"));
        let ok = Json::parse(lines[1]).unwrap();
        assert_eq!(ok.get("type").unwrap().as_str(), Some("stats"));
    }

    #[test]
    fn unknown_type_echoes_the_request_id() {
        let engine = Engine::new();
        let response = respond_to_line(&engine, r#"{"id":"who","type":"frobnicate"}"#).unwrap();
        assert_eq!(response.id(), Some("who"));
        assert!(response.is_error());
        assert!(respond_to_line(&engine, "   ").is_none());
    }
}
