//! The [`Engine`] facade: one long-lived entry point for every workload.
//!
//! `Engine::submit(Request) -> Response` is the single code path behind all
//! six CLI subcommands *and* the JSON-lines server: it owns a
//! [`DecisionSession`] (the shared cross-request caches of PR 3/4), turns a
//! request's `deadline_ms` into a [`CancelToken`] checked at the pipeline's
//! stage boundaries, routes each [`RequestKind`] to its workload family, and
//! converts every failure — malformed input, fragment violations, expired
//! deadlines, even worker panics — into a typed [`Response::Error`].
//! Submitting never panics and never blocks past the deadline by more than
//! one pipeline stage.

use crate::error::CqdetError;
use crate::request::{BudgetSpec, Request, RequestKind};
use crate::response::{HilbertRefutation, Response};
use crate::sessions::SessionRegistry;
use cqdet_core::witness::{build_counterexample, check_certificate_arithmetic};
use cqdet_core::{decide_path_determinacy, paths, MutableSession, SessionSnapshot};
use cqdet_engine::{DecisionSession, SessionConfig, Task};
use cqdet_failpoint::fail_point;
use cqdet_hilbert::{encode, DiophantineInstance, Monomial};
use cqdet_parallel::{Budget, CancelToken};
use cqdet_query::{parse_queries, ConjunctiveQuery, PathQuery, UnionQuery};
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// Monotone per-reason robustness counters of an [`Engine`], surfaced on
/// `stats` responses (and the `cqdet stats` subcommand): how often the
/// serving process *survived* something — shed load, contained a panic,
/// stopped a runaway request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Requests answered with a `timeout` response (expired deadline),
    /// batch tasks cut short by the shared deadline included.
    pub timeouts: u64,
    /// Requests (or batch tasks) stopped by an exhausted fuel budget.
    pub fuel_exhausted: u64,
    /// Worker panics caught and converted into typed `internal` errors.
    pub panics_contained: u64,
    /// Connections shed at the [`crate::ServeOptions::max_connections`] cap.
    pub shed_connections: u64,
    /// Individual requests shed by admission control at the
    /// [`crate::ServeOptions::inflight_budget`] cap — each one answered
    /// with a typed `resource_exhausted` error, never stalled or dropped.
    pub shed_requests: u64,
    /// Request lines rejected for exceeding
    /// [`crate::ServeOptions::max_request_bytes`].
    pub oversized_requests: u64,
    /// Transient accept-loop errors absorbed by backoff instead of taking
    /// the server down.
    pub accept_retries: u64,
    /// Warm-start snapshots loaded successfully at boot.
    pub snapshot_loaded: u64,
    /// Warm-start snapshots *rejected* — corruption, truncation, version
    /// skew, I/O failure or an armed `snapshot/load` fault.  Every
    /// rejection is a cold start, never a panic or a wedged server.
    pub snapshot_rejected: u64,
    /// Mutable decision sessions currently open (a gauge, not a tally).
    pub sessions_open: u64,
    /// Sessions reaped so far: idle-TTL sweeps plus byte-pressure
    /// evictions by the governed registry cache.
    pub sessions_reaped: u64,
}

/// The atomic cells behind [`EngineCounters`].
#[derive(Default)]
struct CounterCells {
    timeouts: AtomicU64,
    fuel_exhausted: AtomicU64,
    panics_contained: AtomicU64,
    shed_connections: AtomicU64,
    shed_requests: AtomicU64,
    oversized_requests: AtomicU64,
    accept_retries: AtomicU64,
    snapshot_loaded: AtomicU64,
    snapshot_rejected: AtomicU64,
}

/// The unified serving engine.  See the [module docs](self) and the crate
/// quickstart.
///
/// ```
/// use cqdet_service::{Engine, Request, RequestKind, Response};
///
/// let engine = Engine::new();
/// let response = engine.submit(Request {
///     id: "r1".into(),
///     deadline_ms: None,
///     budget: None,
///     kind: RequestKind::Decide {
///         program: "v() :- R(x,y)\nq() :- R(x,y), R(u,w)".into(),
///         query: "q".into(),
///         witness: false,
///     },
/// });
/// let Response::Decide { record, .. } = response else { panic!() };
/// assert_eq!(record.status, cqdet_engine::TaskStatus::Determined);
/// ```
pub struct Engine {
    session: DecisionSession,
    /// Open mutable decision sessions (the `session_open` … family); their
    /// immutable substrate — frozen bodies, gate verdicts, interned
    /// classes — lives in `session`'s shared context, so a warm-start
    /// snapshot's gate verdicts serve reopened sessions too.
    sessions: SessionRegistry,
    shutdown: AtomicBool,
    /// Write ends of the wake sockets of the reactors serving this engine
    /// ([`Engine::add_waker`]): [`Engine::request_shutdown`] writes a byte
    /// to each, so a reactor blocked in `poll` sees the flag at once.
    wakers: Mutex<Vec<UnixStream>>,
    requests: AtomicU64,
    counters: CounterCells,
    /// Default fuel budget applied to requests that carry no `budget`
    /// member of their own (the `--fuel-steps`/`--fuel-bytes` serve flags).
    default_budget: Mutex<Option<BudgetSpec>>,
}

impl Default for Engine {
    /// An engine over a fresh [`DecisionSession`] whose governor the
    /// mutable-session registry charges too, without the env policy.
    fn default() -> Engine {
        let session = DecisionSession::default();
        let sessions = SessionRegistry::new(session.context().governor());
        Engine {
            session,
            sessions,
            shutdown: AtomicBool::default(),
            wakers: Mutex::default(),
            requests: AtomicU64::default(),
            counters: CounterCells::default(),
            default_budget: Mutex::default(),
        }
    }
}

impl Engine {
    /// An engine over a fresh [`DecisionSession`] with default policy.
    /// `CQDET_CACHE_BYTES=<n>` in the environment installs a total cache
    /// budget of `n` bytes ([`Engine::set_cache_bytes`]).
    pub fn new() -> Engine {
        let engine = Engine::default();
        engine.apply_env_policy();
        engine
    }

    fn apply_env_policy(&self) {
        if let Some(bytes) = std::env::var("CQDET_CACHE_BYTES")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
        {
            self.set_cache_bytes(Some(bytes));
        }
    }

    /// Install (or, with `None`, restore the defaults of) a total byte
    /// budget over every governed session cache: the frozen-body and
    /// containment-gate caches take 10% each, and the total doubles as
    /// the watermark of this engine's
    /// governor, which the mutable-session registry charges too —
    /// over-budget entries are evicted (and recomputed on re-use), never
    /// refused.  Another engine in the same process is unaffected.
    pub fn set_cache_bytes(&self, total: Option<u64>) {
        self.session.context().set_cache_bytes(total);
    }

    /// The underlying session (cache statistics, direct library access).
    pub fn session(&self) -> &DecisionSession {
        &self.session
    }

    /// Whether a `shutdown` request has been accepted.  Serve loops poll
    /// this to stop accepting and drain.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Raise the shutdown flag programmatically (the `shutdown` request's
    /// effect without a connection): serve loops stop accepting and drain
    /// in-flight work.  The flag is raised before any reactor is woken, so
    /// a reactor that drains its wake socket and then reads the flag never
    /// misses it.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let wakers = self.wakers.lock().unwrap_or_else(PoisonError::into_inner);
        for mut waker in wakers.iter() {
            // `WouldBlock` means the socket is full of wakeups already.
            let _ = waker.write(&[1]);
        }
    }

    /// Register a copy of a reactor's nonblocking wake socket (write end)
    /// with [`Engine::request_shutdown`]; returns the copy's descriptor
    /// for [`Engine::remove_waker`].
    pub(crate) fn add_waker(&self, wake: &UnixStream) -> io::Result<RawFd> {
        let waker = wake.try_clone()?;
        let fd = waker.as_raw_fd();
        self.wakers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(waker);
        Ok(fd)
    }

    /// Deregister (and close) the wake socket copy [`Engine::add_waker`]
    /// returned `fd` for.
    pub(crate) fn remove_waker(&self, fd: RawFd) {
        self.wakers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|waker| waker.as_raw_fd() != fd);
    }

    /// Requests submitted so far.
    pub fn request_count(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// A snapshot of the per-reason robustness counters.
    pub fn counters(&self) -> EngineCounters {
        let c = &self.counters;
        EngineCounters {
            timeouts: c.timeouts.load(Ordering::Relaxed),
            fuel_exhausted: c.fuel_exhausted.load(Ordering::Relaxed),
            panics_contained: c.panics_contained.load(Ordering::Relaxed),
            shed_connections: c.shed_connections.load(Ordering::Relaxed),
            shed_requests: c.shed_requests.load(Ordering::Relaxed),
            oversized_requests: c.oversized_requests.load(Ordering::Relaxed),
            accept_retries: c.accept_retries.load(Ordering::Relaxed),
            snapshot_loaded: c.snapshot_loaded.load(Ordering::Relaxed),
            snapshot_rejected: c.snapshot_rejected.load(Ordering::Relaxed),
            sessions_open: self.sessions.open_count(),
            sessions_reaped: self.sessions.reaped_count(),
        }
    }

    /// Retarget the mutable-session idle TTL (the `--session-ttl-ms` serve
    /// flag).
    pub fn set_session_ttl(&self, ttl: Duration) {
        self.sessions.set_ttl(ttl);
    }

    /// Retarget the cap on concurrently open mutable sessions (the
    /// `--max-sessions` serve flag).
    pub fn set_max_sessions(&self, n: usize) {
        self.sessions.set_max_sessions(n);
    }

    /// The default fuel budget for requests without a `budget` member.
    pub fn default_budget(&self) -> Option<BudgetSpec> {
        // Budget state is plain data: recover the value on poisoning rather
        // than propagating a paniced writer.
        match self.default_budget.lock() {
            Ok(guard) => *guard,
            Err(poisoned) => *poisoned.into_inner(),
        }
    }

    /// Install (or clear) the default fuel budget.
    pub fn set_default_budget(&self, budget: Option<BudgetSpec>) {
        match self.default_budget.lock() {
            Ok(mut guard) => *guard = budget,
            Err(poisoned) => *poisoned.into_inner() = budget,
        }
    }

    pub(crate) fn note_shed_connection(&self) {
        self.counters
            .shed_connections
            .fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_shed_request(&self) {
        self.counters.shed_requests.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_oversized_request(&self) {
        self.counters
            .oversized_requests
            .fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_accept_retry(&self) {
        self.counters.accept_retries.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_panic_contained(&self) {
        self.counters
            .panics_contained
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Persist the session's warm-start state (its containment-gate
    /// verdicts) to `path` atomically:
    /// the checksummed envelope is written to a temp file, fsynced, then
    /// renamed — a crash mid-save leaves the previous snapshot intact.
    /// Returns the number of entries written.
    pub fn save_snapshot(&self, path: &Path) -> Result<usize, CqdetError> {
        fail_point!("snapshot/save", |msg: String| Err(CqdetError::internal(
            msg
        )));
        let snap = self.session.context().export_snapshot();
        let entries = snap.len();
        cqdet_cache::snapshot::save_atomic(path, &snap.to_payload())
            .map_err(|e| CqdetError::internal(format!("snapshot save failed: {e}")))?;
        Ok(entries)
    }

    /// Load a warm-start snapshot from `path` into the session caches.
    /// Any failure — unreadable file, bad magic, version skew, truncation,
    /// checksum mismatch, malformed interior, an armed `snapshot/load`
    /// fault — bumps `snapshot_rejected` and returns a typed error: the
    /// caller keeps its cold (but fully correct) caches.  Success bumps
    /// `snapshot_loaded` and returns the number of entries installed.
    pub fn load_snapshot(&self, path: &Path) -> Result<usize, CqdetError> {
        let loaded: Result<usize, CqdetError> = (|| {
            fail_point!("snapshot/load", |msg: String| Err(CqdetError::internal(
                msg
            )));
            let payload = cqdet_cache::snapshot::open(path)
                .map_err(|e| CqdetError::internal(format!("snapshot rejected: {e}")))?;
            let snap = SessionSnapshot::from_payload(&payload)
                .map_err(|e| CqdetError::internal(format!("snapshot rejected: {e}")))?;
            Ok(self.session.context().install_snapshot(snap))
        })();
        match loaded {
            Ok(n) => {
                self.counters
                    .snapshot_loaded
                    .fetch_add(1, Ordering::Relaxed);
                Ok(n)
            }
            Err(e) => {
                self.counters
                    .snapshot_rejected
                    .fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Boot-time warm start: a missing snapshot is an ordinary first boot
    /// (quiet cold start, no counter); any load failure **or panic** is
    /// contained into a counted cold start.  Never fails the boot.
    pub fn warm_start(&self, path: &Path) -> Option<usize> {
        if !path.exists() {
            return None;
        }
        match catch_unwind(AssertUnwindSafe(|| self.load_snapshot(path))) {
            Ok(Ok(n)) => Some(n),
            Ok(Err(_)) => None,
            Err(_) => {
                // The panic pre-empted load_snapshot's own bookkeeping.
                self.note_panic_contained();
                self.counters
                    .snapshot_rejected
                    .fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Shutdown-time persistence: best effort, panics contained — a failed
    /// or faulted save must never block the server from exiting (the next
    /// boot simply starts cold, or from the previous intact snapshot).
    pub fn save_snapshot_quiet(&self, path: &Path) -> bool {
        match catch_unwind(AssertUnwindSafe(|| self.save_snapshot(path))) {
            Ok(Ok(_)) => true,
            Ok(Err(_)) => false,
            Err(_) => {
                self.note_panic_contained();
                false
            }
        }
    }

    /// Submit one request and get its response.  Never panics: workload
    /// panics are caught and become typed [`CqdetError::Internal`] errors
    /// (`&self` stays usable — all session caches recover from poisoning).
    pub fn submit(&self, request: Request) -> Response {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let Request {
            id,
            deadline_ms,
            budget,
            kind,
        } = request;
        let ctl = match deadline_ms {
            Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
            None => CancelToken::none(),
        };
        let budget = budget
            .or_else(|| self.default_budget())
            .map(BudgetSpec::to_budget)
            .unwrap_or_else(Budget::none);
        let outcome = catch_unwind(AssertUnwindSafe(|| self.dispatch(&id, kind, &ctl, &budget)));
        let response = match outcome {
            Ok(Ok(response)) => response,
            Ok(Err(error)) => Response::Error {
                id: Some(id),
                error,
            },
            Err(payload) => {
                self.counters
                    .panics_contained
                    .fetch_add(1, Ordering::Relaxed);
                let message = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "worker panicked".to_string()
                };
                Response::Error {
                    id: Some(id),
                    error: CqdetError::Internal {
                        message: format!("request handler panicked: {message}"),
                    },
                }
            }
        };
        if let Response::Error { error, .. } = &response {
            match error {
                CqdetError::Deadline { .. } => {
                    self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                }
                // Fuel exhaustion carries its ledger; capacity-style
                // resource errors (no accounting) are counted where they
                // occur (shed connections, oversized lines).
                CqdetError::ResourceExhausted { spent: Some(_), .. } => {
                    self.counters.fuel_exhausted.fetch_add(1, Ordering::Relaxed);
                }
                _ => {}
            }
        }
        response
    }

    fn dispatch(
        &self,
        id: &str,
        kind: RequestKind,
        ctl: &CancelToken,
        budget: &Budget,
    ) -> Result<Response, CqdetError> {
        fail_point!("engine/submit", |msg: String| Err(CqdetError::internal(
            msg
        )));
        // A deadline of zero (or one that passed while queued) fails fast at
        // the submit boundary instead of starting work it cannot finish.
        ctl.check("submit").map_err(|e| CqdetError::Deadline {
            stage: e.stage.to_string(),
        })?;
        match kind {
            RequestKind::Decide {
                program,
                query,
                witness,
            } => self.decide(id, &program, &query, witness, ctl, budget),
            RequestKind::Batch {
                tasks,
                witnesses,
                verify,
            } => self.batch(id, &tasks, witnesses, verify, ctl, budget),
            RequestKind::Path { query, views } => self.path(id, &query, &views),
            RequestKind::Hilbert { bound, monomials } => self.hilbert(id, bound, &monomials, ctl),
            RequestKind::Explain { program, query } => {
                self.explain(id, &program, &query, ctl, budget)
            }
            RequestKind::SessionOpen {
                program,
                query,
                checkpoint_interval,
            } => self.session_open(id, &program, &query, checkpoint_interval, ctl, budget),
            RequestKind::ViewAdd { session, view } => {
                self.session_mutate(id, session, &view, true, ctl, budget)
            }
            RequestKind::ViewRemove { session, view } => {
                self.session_mutate(id, session, &view, false, ctl, budget)
            }
            RequestKind::Redecide { session, witness } => {
                self.session_redecide(id, session, witness, ctl, budget)
            }
            RequestKind::SessionClose { session } => {
                self.sessions.close(session)?;
                Ok(Response::SessionClosed {
                    id: id.to_string(),
                    session,
                })
            }
            RequestKind::Stats => {
                // A stats probe also sweeps idle sessions, so TTL expiry is
                // observable without waiting for the next session request.
                self.sessions.reap_idle();
                Ok(Response::Stats {
                    id: id.to_string(),
                    stats: self.session.stats(),
                    requests: self.request_count(),
                    counters: self.counters(),
                })
            }
            RequestKind::Shutdown => {
                self.request_shutdown();
                Ok(Response::Shutdown { id: id.to_string() })
            }
        }
    }

    fn decide(
        &self,
        id: &str,
        program: &str,
        query_name: &str,
        witness: bool,
        ctl: &CancelToken,
        budget: &Budget,
    ) -> Result<Response, CqdetError> {
        let (views, query) = parse_program(program, query_name)?;
        // The record's task id is the query's name — the same convention the
        // CLI has always used, so certificates stay byte-comparable.
        let task = Task {
            id: query_name.to_string(),
            views,
            query,
        };
        let config = SessionConfig {
            witnesses: witness,
            verify: true,
            ..Default::default()
        };
        // A stop before the analysis (a schema violation, exhausted fuel,
        // an expired deadline) is a typed error; a witness-stage timeout
        // still answers with the partial record.
        let analysis = self
            .session
            .decide_budgeted(&task.views, &task.query, ctl, budget)?;
        let record = self
            .session
            .record_from_outcome(&task, Ok(analysis), ctl, &config);
        // The response carries the task's own views and query, moved.
        let Task { views, query, .. } = task;
        Ok(Response::Decide {
            id: id.to_string(),
            record: Box::new(record),
            views,
            query: Box::new(query),
        })
    }

    fn session_open(
        &self,
        id: &str,
        program: &str,
        query_name: &str,
        checkpoint_interval: Option<u64>,
        ctl: &CancelToken,
        budget: &Budget,
    ) -> Result<Response, CqdetError> {
        let (views, query) = parse_program(program, query_name)?;
        let interval = checkpoint_interval
            .map(|k| k as usize)
            .unwrap_or(cqdet_core::DEFAULT_CHECKPOINT_INTERVAL);
        let cx = self.session.context();
        // Opening validates the instance and warms the shared immutable
        // caches (frozen bodies, gate verdicts, class ids) — which is also
        // why a warm-start snapshot benefits reopened sessions.
        let opened = MutableSession::open(cx, views, query, interval, ctl, budget)?;
        let view_names = opened
            .views()
            .iter()
            .map(|v| v.name().to_string())
            .collect();
        let query_name = opened.query().name().to_string();
        let slot = self.sessions.insert(opened)?;
        Ok(Response::SessionOpen {
            id: id.to_string(),
            session: slot.id,
            views: view_names,
            query: query_name,
        })
    }

    /// Shared body of `view_add` / `view_remove`: resolve the session, run
    /// the mutation under its own lock (unrelated requests never wait), and
    /// re-publish its governed byte cost.
    fn session_mutate(
        &self,
        id: &str,
        session: u64,
        view: &str,
        add: bool,
        ctl: &CancelToken,
        budget: &Budget,
    ) -> Result<Response, CqdetError> {
        let slot = self.sessions.lookup(session)?;
        let cx = self.session.context();
        let mut guard = slot.lock();
        if add {
            let parsed = parse_view_definition(view)?;
            let name = parsed.name();
            if guard.views().iter().any(|v| v.name() == name) || guard.query().name() == name {
                return Err(CqdetError::schema(format!(
                    "a definition named {name:?} already exists in session {session} \
                     (view names must stay unique so view_remove is unambiguous)"
                )));
            }
            guard.view_add(cx, parsed, ctl, budget)?;
        } else {
            let index = guard
                .views()
                .iter()
                .position(|v| v.name() == view)
                .ok_or_else(|| {
                    CqdetError::schema(format!("no view named {view:?} in session {session}"))
                })?;
            guard.view_remove(cx, index, ctl, budget)?;
        }
        self.sessions.publish(&slot, &guard);
        Ok(Response::SessionDelta {
            id: id.to_string(),
            session,
            action: if add { "view_add" } else { "view_remove" },
            views: guard.views().iter().map(|v| v.name().to_string()).collect(),
            counters: guard.counters(),
        })
    }

    fn session_redecide(
        &self,
        id: &str,
        session: u64,
        witness: bool,
        ctl: &CancelToken,
        budget: &Budget,
    ) -> Result<Response, CqdetError> {
        let slot = self.sessions.lookup(session)?;
        let cx = self.session.context();
        let mut guard = slot.lock();
        let outcome = guard.redecide(cx, ctl, budget);
        // An interrupted redecide keeps its (consistent, resumable)
        // echelon, so the byte cost is re-published on every outcome.
        self.sessions.publish(&slot, &guard);
        let analysis = outcome?;
        let task = Task {
            id: guard.query().name().to_string(),
            views: guard.views().to_vec(),
            query: guard.query().clone(),
        };
        drop(guard);
        let config = SessionConfig {
            witnesses: witness,
            verify: true,
            ..Default::default()
        };
        // The same certification machinery as one-shot decide: rewriting
        // re-verification, witness construction, the full record schema.
        let record = self
            .session
            .record_from_outcome(&task, Ok(analysis), ctl, &config);
        Ok(Response::SessionDecide {
            id: id.to_string(),
            session,
            record: Box::new(record),
        })
    }

    fn batch(
        &self,
        id: &str,
        tasks_text: &str,
        witnesses: bool,
        verify: bool,
        ctl: &CancelToken,
        budget: &Budget,
    ) -> Result<Response, CqdetError> {
        let file = cqdet_engine::parse_task_file(tasks_text)?;
        let config = SessionConfig {
            witnesses,
            verify,
            ..Default::default()
        };
        // One budget for the whole batch: the limit bounds *total* decision
        // work, so a runaway task drains the ledger for its siblings.
        let report = self.session.decide_batch(&file.tasks, ctl, budget, &config);
        let deadline_exceeded = report.records.iter().any(|r| r.timeout_stage.is_some());
        let fuel_exhausted = report
            .records
            .iter()
            .filter(|r| r.fuel_exhausted.is_some())
            .count() as u64;
        // Batch-internal stoppages surface as record members, not an error
        // response — count them here so the stats ledger still sees them.
        self.counters
            .fuel_exhausted
            .fetch_add(fuel_exhausted, Ordering::Relaxed);
        Ok(Response::Batch {
            id: id.to_string(),
            records: report.records,
            stats: report.stats,
            deadline_exceeded,
            fuel_exhausted: fuel_exhausted > 0,
        })
    }

    fn path(&self, id: &str, query: &str, views: &[String]) -> Result<Response, CqdetError> {
        if views.is_empty() {
            return Err(CqdetError::schema("path needs at least one view word"));
        }
        let q = PathQuery::from_compact(query);
        let vs: Vec<PathQuery> = views.iter().map(|w| PathQuery::from_compact(w)).collect();
        let analysis = decide_path_determinacy(&vs, &q);
        let witness = if analysis.determined {
            None
        } else {
            Some(paths::non_determinacy_witness(&vs, &q).ok_or_else(|| {
                CqdetError::internal("no Appendix B witness for an undetermined path instance")
            })?)
        };
        Ok(Response::Path {
            id: id.to_string(),
            query: q,
            views: vs,
            analysis,
            witness,
        })
    }

    fn hilbert(
        &self,
        id: &str,
        bound: u64,
        monomials: &[String],
        ctl: &CancelToken,
    ) -> Result<Response, CqdetError> {
        if monomials.is_empty() {
            return Err(CqdetError::schema("hilbert needs at least one monomial"));
        }
        let parsed = monomials
            .iter()
            .map(|m| parse_monomial(m))
            .collect::<Result<Vec<_>, _>>()?;
        let instance = DiophantineInstance::new(parsed);
        let encoding = encode(&instance);
        // The `(bound+1)^n` box search is the only unbounded step; it
        // honors the request deadline.
        let refutation =
            cqdet_hilbert::structures::bounded_refutation(&instance, bound, || ctl.is_expired())
                .map_err(|_| CqdetError::Deadline {
                    stage: "hilbert".to_string(),
                })?
                .map(|(enc, d, d_prime)| {
                    let verified =
                        cqdet_hilbert::structures::verify_counterexample(&enc, &d, &d_prime);
                    HilbertRefutation {
                        d,
                        d_prime,
                        verified,
                    }
                });
        Ok(Response::Hilbert {
            id: id.to_string(),
            instance: instance.to_string(),
            views: encoding.views.len(),
            disjuncts: encoding.total_disjuncts(),
            schema: encoding.schema.to_string(),
            bound,
            refutation,
        })
    }

    fn explain(
        &self,
        id: &str,
        program: &str,
        query_name: &str,
        ctl: &CancelToken,
        budget: &Budget,
    ) -> Result<Response, CqdetError> {
        let (views, query) = parse_program(program, query_name)?;
        let text = self.explain_text(&views, &query, ctl, budget)?;
        Ok(Response::Explain {
            id: id.to_string(),
            text,
        })
    }

    /// The full `explain` narration (the pipeline, step by step).  One
    /// String, newline-terminated — exactly what `cqdet explain` prints.
    fn explain_text(
        &self,
        views: &[ConjunctiveQuery],
        query: &ConjunctiveQuery,
        ctl: &CancelToken,
        budget: &Budget,
    ) -> Result<String, CqdetError> {
        let analysis = self.session.decide_budgeted(views, query, ctl, budget)?;
        let mut out = String::new();
        // Infallible writes: `write!` to a String cannot fail.
        let w = &mut out;
        let _ = writeln!(w, "# Instance");
        let _ = writeln!(w, "schema: {}", analysis.schema);
        let _ = writeln!(w, "query:  {query}");
        for v in views {
            let _ = writeln!(w, "view:   {v}");
        }
        let _ = writeln!(w);
        let _ = writeln!(
            w,
            "# Step 1 — retention gate (Definition 25: q ⊆_set v ⇔ hom(v,q) ≠ ∅)"
        );
        for (i, v) in views.iter().enumerate() {
            let kept = analysis.retained_views.contains(&i);
            let _ = writeln!(
                w,
                "  {} {}: {}",
                if kept { "✓" } else { "✗" },
                v.name(),
                if kept { "retained" } else { "dropped" }
            );
        }
        let _ = writeln!(w);
        let _ = writeln!(
            w,
            "# Step 2 — basis W (Definition 27): {} pairwise non-isomorphic connected component(s)",
            analysis.basis_size()
        );
        for (k, basis_w) in analysis.basis.iter().enumerate() {
            let _ = writeln!(w, "  w{k} = {basis_w}");
        }
        let _ = writeln!(w);
        let _ = writeln!(w, "# Step 3 — vector representations (Definition 29)");
        let _ = writeln!(w, "  q⃗ = {}", analysis.query_vector);
        for (pos, &vi) in analysis.retained_views.iter().enumerate() {
            let _ = writeln!(w, "  {}⃗ = {}", views[vi].name(), analysis.view_vectors[pos]);
        }
        let _ = writeln!(w);
        let _ = writeln!(w, "# Step 4 — Main Lemma span test: q⃗ ∈ span_ℚ{{v⃗}} ?");
        if analysis.determined {
            let _ = writeln!(w, "  YES — determined.  Coefficients:");
            let coefficients = analysis.coefficients.as_ref().ok_or_else(|| {
                CqdetError::internal("determined analysis carries no coefficients")
            })?;
            for (pos, &vi) in analysis.retained_views.iter().enumerate() {
                let _ = writeln!(w, "    α_{} = {}", views[vi].name(), coefficients[pos]);
            }
            if let Some(rewriting) = analysis.rewriting(views) {
                let _ = writeln!(w, "  rewriting: {rewriting}");
            }
        } else {
            let _ = writeln!(
                w,
                "  NO — not determined.  Constructing the counterexample (Sections 5–7):"
            );
            let witness = build_counterexample(&analysis, query, ctl)?;
            let _ = writeln!(
                w,
                "  z⃗ = {}   (⊥ to every v⃗, ⟨z⃗,q⃗⟩ ≠ 0 — Fact 5)",
                witness.z
            );
            let _ = writeln!(w, "  t  = {}   (perturbation factor, Lemma 57)", witness.t);
            let (d, dp) = witness.answer_vectors();
            let render = |v: &[cqdet_bigint::Nat]| {
                v.iter()
                    .map(|n| n.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let _ = writeln!(w, "  answer vectors (w⃗ evaluated on D and D′):");
            let _ = writeln!(w, "    w⃗(D)  = [{}]", render(&d));
            let _ = writeln!(w, "    w⃗(D′) = [{}]", render(&dp));
            let _ = writeln!(w, "  D  = {}", witness.d);
            let _ = writeln!(w, "  D' = {}", witness.d_prime);
            let (q_d, q_dp) = (witness.eval_on_d(query), witness.eval_on_d_prime(query));
            let _ = writeln!(w, "  q(D) = {q_d} ≠ {q_dp} = q(D′)");
            let _ = writeln!(
                w,
                "  certificate arithmetic verified: {}",
                check_certificate_arithmetic(&witness, &analysis)
            );
            let verified = witness.verify(views, query);
            let _ = writeln!(
                w,
                "  symbolic verification (all views agree, q differs): {verified}"
            );
        }
        Ok(out)
    }
}

/// Parse a program text into `(views, query)`: the definition named
/// `query_name` is the query, everything else is a view — the shared
/// front end of the `decide` and `explain` families.
pub fn parse_program(
    text: &str,
    query_name: &str,
) -> Result<(Vec<ConjunctiveQuery>, ConjunctiveQuery), CqdetError> {
    let program = parse_queries(text)?;
    let mut views = Vec::with_capacity(program.len());
    let mut query = None;
    for u in program {
        if !u.is_single_cq() {
            return Err(CqdetError::schema(format!(
                "{} is a union query; Theorem 3 handles conjunctive queries \
                 (unions are undecidable — Theorem 2)",
                u.name()
            )));
        }
        // Exactly one disjunct, moved out of the parsed union.
        if u.name() == query_name {
            query = u.into_disjuncts().pop();
        } else {
            views.extend(u.into_disjuncts());
        }
    }
    let query = query.ok_or_else(|| {
        CqdetError::schema(format!("no definition named {query_name:?} in the program"))
    })?;
    // A relation used with two arities leaves the program without a
    // schema: malformed, like a union above.
    let all: Vec<&ConjunctiveQuery> = views.iter().chain([&query]).collect();
    cqdet_query::cq::common_schema(&all).map_err(cqdet_core::DeterminacyError::ConflictingArity)?;
    Ok((views, query))
}

/// Parse the `view` member of a `view_add` request: exactly one
/// conjunctive definition, same syntax as a `program` line.
fn parse_view_definition(text: &str) -> Result<ConjunctiveQuery, CqdetError> {
    let program = parse_queries(text)?;
    match <[UnionQuery; 1]>::try_from(program) {
        Ok([u]) if u.is_single_cq() => Ok(u.into_disjuncts().remove(0)),
        Ok([u]) => Err(CqdetError::schema(format!(
            "{} is a union query; views must be conjunctive",
            u.name()
        ))),
        Err(_) => Err(CqdetError::schema(
            "the view member must contain exactly one definition",
        )),
    }
}

/// Parse `"+2:x^1,y^3"` / `"-12:"` into a monomial (the `hilbert` request's
/// wire syntax, shared with the CLI).
pub fn parse_monomial(text: &str) -> Result<Monomial, CqdetError> {
    let (coeff, vars) = text.split_once(':').ok_or_else(|| {
        CqdetError::schema(format!(
            "monomial {text:?} must look like coeff:var^deg,..."
        ))
    })?;
    let coefficient: i64 = coeff
        .parse()
        .map_err(|_| CqdetError::schema(format!("bad coefficient {coeff:?}")))?;
    // `Monomial::new` panics on a zero coefficient or degree (documented
    // precondition); requests must be rejected with a typed error instead.
    if coefficient == 0 {
        return Err(CqdetError::schema(format!(
            "monomial {text:?} has coefficient 0"
        )));
    }
    let mut degrees = Vec::new();
    for part in vars.split(',').filter(|p| !p.trim().is_empty()) {
        let (name, degree) = match part.split_once('^') {
            Some((n, d)) => (
                n.trim().to_string(),
                d.trim()
                    .parse::<u32>()
                    .map_err(|_| CqdetError::schema(format!("bad degree in {part:?}")))?,
            ),
            None => (part.trim().to_string(), 1),
        };
        if degree == 0 {
            return Err(CqdetError::schema(format!(
                "unknown {name:?} in monomial {text:?} has degree 0 \
                 (omit it instead)"
            )));
        }
        degrees.push((name, degree));
    }
    let borrowed: Vec<(&str, u32)> = degrees.iter().map(|(n, d)| (n.as_str(), *d)).collect();
    Ok(Monomial::new(coefficient, &borrowed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqdet_engine::TaskStatus;

    const PROGRAM: &str = "v1() :- R(x,y)\nv2() :- R(x,y), R(y,z)\nq() :- R(x,y), R(u,w)\n";

    fn submit(engine: &Engine, kind: RequestKind) -> Response {
        engine.submit(Request {
            id: "r".into(),
            deadline_ms: None,
            budget: None,
            kind,
        })
    }

    #[test]
    fn decide_request_round_trips_through_the_engine() {
        let engine = Engine::new();
        let response = submit(
            &engine,
            RequestKind::Decide {
                program: PROGRAM.into(),
                query: "q".into(),
                witness: false,
            },
        );
        let Response::Decide {
            record,
            views,
            query,
            ..
        } = response
        else {
            panic!("expected a decide response");
        };
        assert_eq!(record.status, TaskStatus::Determined);
        assert_eq!(record.id, "q", "task id is the query name");
        assert_eq!(views.len(), 2);
        assert_eq!(query.name(), "q");
        assert_eq!(engine.request_count(), 1);
    }

    #[test]
    fn parse_errors_come_back_typed_with_position() {
        let engine = Engine::new();
        let response = submit(
            &engine,
            RequestKind::Decide {
                program: "v() :- R(x,y)\nq() : R(x,y)\n".into(),
                query: "q".into(),
                witness: false,
            },
        );
        let Response::Error { id, error } = response else {
            panic!("expected an error response");
        };
        assert_eq!(id.as_deref(), Some("r"));
        assert!(
            matches!(error, CqdetError::Parse { line: 2, .. }),
            "{error:?}"
        );
    }

    /// The schema error of a decide of `program`'s query `q`, which must
    /// be a typed `error` response, not a record saying `status:"error"`.
    fn decide_schema_error(program: &str) -> String {
        let response = submit(
            &Engine::new(),
            RequestKind::Decide {
                program: program.into(),
                query: "q".into(),
                witness: true,
            },
        );
        assert_eq!(response.type_str(), "error", "{program:?}");
        let Response::Error { error, .. } = response else {
            panic!("{program:?}: expected an error response");
        };
        assert_eq!(error.code(), "schema", "{program:?}: {error}");
        error.to_string()
    }

    #[test]
    fn non_boolean_views_are_typed_schema_errors() {
        let message = decide_schema_error("v(x) :- R(x,y)\nq() :- R(x,y)\n");
        assert!(message.contains("view v is not boolean"), "{message}");
    }

    #[test]
    fn nullary_relations_are_typed_schema_errors() {
        let message = decide_schema_error("v() :- R(x,y)\nq() :- R(x,y), P()\n");
        assert!(message.contains("relation P has arity 0"), "{message}");
    }

    #[test]
    fn zero_deadline_times_out_at_the_submit_boundary() {
        let engine = Engine::new();
        let response = engine.submit(Request {
            id: "t".into(),
            deadline_ms: Some(0),
            budget: None,
            kind: RequestKind::Decide {
                program: PROGRAM.into(),
                query: "q".into(),
                witness: false,
            },
        });
        let Response::Error { error, .. } = &response else {
            panic!("expected a timeout");
        };
        assert_eq!(error.code(), "deadline");
        assert_eq!(response.type_str(), "timeout");
    }

    #[test]
    fn stats_then_shutdown() {
        let engine = Engine::new();
        let _ = submit(
            &engine,
            RequestKind::Decide {
                program: PROGRAM.into(),
                query: "q".into(),
                witness: false,
            },
        );
        let Response::Stats {
            requests, stats, ..
        } = submit(&engine, RequestKind::Stats)
        else {
            panic!("expected stats");
        };
        assert_eq!(requests, 2);
        assert!(stats.frozen_misses > 0);
        assert!(!engine.shutdown_requested());
        let Response::Shutdown { .. } = submit(&engine, RequestKind::Shutdown) else {
            panic!("expected shutdown ack");
        };
        assert!(engine.shutdown_requested());
    }

    #[test]
    fn explain_matches_the_one_shot_pipeline() {
        let engine = Engine::new();
        let Response::Explain { text, .. } = submit(
            &engine,
            RequestKind::Explain {
                program: PROGRAM.into(),
                query: "q".into(),
            },
        ) else {
            panic!("expected explain");
        };
        for needle in [
            "# Step 1",
            "retention gate",
            "# Step 2",
            "# Step 3",
            "Main Lemma span test",
            "YES — determined",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn path_and_hilbert_requests_answer() {
        let engine = Engine::new();
        let Response::Path {
            analysis, witness, ..
        } = submit(
            &engine,
            RequestKind::Path {
                query: "AB".into(),
                views: vec!["A".into(), "AB".into()],
            },
        )
        else {
            panic!("expected path");
        };
        assert!(analysis.determined);
        assert!(witness.is_none());

        let Response::Hilbert { refutation, .. } = submit(
            &engine,
            RequestKind::Hilbert {
                bound: 4,
                monomials: vec!["+1:x".into(), "-2:".into()],
            },
        ) else {
            panic!("expected hilbert");
        };
        // x = 2 solves x - 2 = 0 within the box → refuted and verified.
        let refutation = refutation.expect("x=2 is within the bound");
        assert!(refutation.verified);
    }

    #[test]
    fn degenerate_monomials_are_rejected_not_panicked() {
        // `Monomial::new` panics on zero coefficients/degrees; the request
        // path must reject them with a typed schema error instead.
        let engine = Engine::new();
        for bad in ["+0:x", "+1:x^0", "0:"] {
            let response = submit(
                &engine,
                RequestKind::Hilbert {
                    bound: 2,
                    monomials: vec![bad.into()],
                },
            );
            let Response::Error { error, .. } = response else {
                panic!("{bad:?} must be rejected");
            };
            assert_eq!(error.code(), "schema", "{bad:?}: {error}");
        }
    }

    #[test]
    fn hilbert_box_search_honors_the_deadline() {
        // a + b + c + d + e + f + 1 = 0 has no solution in ℕ, so only the
        // deadline ends the 10⁶-assignment box search at bound 9.
        let engine = Engine::new();
        let mut monomials: Vec<String> = ["a", "b", "c", "d", "e", "f"]
            .iter()
            .map(|x| format!("+1:{x}"))
            .collect();
        monomials.push("+1:".into());
        let response = engine.submit(Request {
            id: "h".into(),
            deadline_ms: Some(1),
            budget: None,
            kind: RequestKind::Hilbert {
                bound: 9,
                monomials,
            },
        });
        let Response::Error { error, .. } = &response else {
            panic!("expected a timeout, got {:?}", response.type_str());
        };
        assert_eq!(error.code(), "deadline");
        assert_eq!(response.type_str(), "timeout");
        assert_eq!(engine.counters().timeouts, 1);
    }

    #[test]
    fn session_lifecycle_matches_one_shot_decide() {
        let engine = Engine::new();
        let Response::SessionOpen { session, views, .. } = submit(
            &engine,
            RequestKind::SessionOpen {
                program: PROGRAM.into(),
                query: "q".into(),
                checkpoint_interval: None,
            },
        ) else {
            panic!("expected a session_open response");
        };
        assert_eq!(views, ["v1", "v2"]);
        assert_eq!(engine.counters().sessions_open, 1);

        // redecide and one-shot decide produce byte-identical certificates.
        let one_shot = |program: &str| {
            let Response::Decide { record, .. } = submit(
                &engine,
                RequestKind::Decide {
                    program: program.into(),
                    query: "q".into(),
                    witness: true,
                },
            ) else {
                panic!("expected a decide response");
            };
            record
        };
        let redecide = || {
            let Response::SessionDecide { record, .. } = submit(
                &engine,
                RequestKind::Redecide {
                    session,
                    witness: true,
                },
            ) else {
                panic!("expected a redecide response");
            };
            record
        };
        assert_eq!(redecide().render(), one_shot(PROGRAM).render());

        // Mutate: add a view, drop one, and stay byte-identical throughout.
        let Response::SessionDelta { views, action, .. } = submit(
            &engine,
            RequestKind::ViewAdd {
                session,
                view: "v3() :- R(x,y), R(y,z), R(z,w)".into(),
            },
        ) else {
            panic!("expected a view_add response");
        };
        assert_eq!(action, "view_add");
        assert_eq!(views, ["v1", "v2", "v3"]);
        assert_eq!(
            redecide().render(),
            one_shot(
                "v1() :- R(x,y)\nv2() :- R(x,y), R(y,z)\n\
                 v3() :- R(x,y), R(y,z), R(z,w)\nq() :- R(x,y), R(u,w)\n"
            )
            .render()
        );
        let Response::SessionDelta { views, .. } = submit(
            &engine,
            RequestKind::ViewRemove {
                session,
                view: "v1".into(),
            },
        ) else {
            panic!("expected a view_remove response");
        };
        assert_eq!(views, ["v2", "v3"]);
        assert_eq!(
            redecide().render(),
            one_shot(
                "v2() :- R(x,y), R(y,z)\nv3() :- R(x,y), R(y,z), R(z,w)\n\
                 q() :- R(x,y), R(u,w)\n"
            )
            .render()
        );

        // Unknown names and duplicate adds are typed schema errors.
        let Response::Error { error, .. } = submit(
            &engine,
            RequestKind::ViewRemove {
                session,
                view: "v1".into(),
            },
        ) else {
            panic!("removing a removed view must fail");
        };
        assert_eq!(error.code(), "schema");
        let Response::Error { error, .. } = submit(
            &engine,
            RequestKind::ViewAdd {
                session,
                view: "v2() :- S(x,y)".into(),
            },
        ) else {
            panic!("duplicate view names must be rejected");
        };
        assert_eq!(error.code(), "schema");

        // Close releases the state; the id stops resolving.
        let Response::SessionClosed { .. } = submit(&engine, RequestKind::SessionClose { session })
        else {
            panic!("expected a session_close ack");
        };
        assert_eq!(engine.counters().sessions_open, 0);
        let Response::Error { error, .. } = submit(
            &engine,
            RequestKind::Redecide {
                session,
                witness: false,
            },
        ) else {
            panic!("a closed session must not resolve");
        };
        assert!(error.to_string().contains("unknown session"), "{error}");
    }

    /// A decide over relation `R{i}`: the 2-path query is not determined by
    /// the edge view, so `witness` builds and verifies a counterexample.
    fn chain_decide(i: usize, witness: bool) -> RequestKind {
        RequestKind::Decide {
            program: format!("v() :- R{i}(x,y)\nq() :- R{i}(x,y), R{i}(y,z)\n"),
            query: "q".into(),
            witness,
        }
    }

    #[test]
    fn two_engines_keep_separate_ledgers() {
        let capped = Engine::default();
        capped.set_cache_bytes(Some(64 * 1024));
        let uncapped = Engine::default();
        for i in 0..4 {
            let _ = submit(&capped, chain_decide(i, true));
        }
        let evictions = |s: &cqdet_core::ContextStats| {
            [s.frozen_usage, s.gate_usage]
                .iter()
                .map(|u| u.evictions)
                .sum::<u64>()
        };
        let before = capped.session().stats();
        assert!(before.governed_bytes > 0);

        // Fill the uncapped engine: witnesses, fresh relations, a session.
        for i in 0..40 {
            let Response::Decide { record, .. } = submit(&uncapped, chain_decide(i, true)) else {
                panic!("expected a decide response");
            };
            assert_eq!(record.verified, Some(true));
        }
        let Response::SessionOpen { .. } = submit(
            &uncapped,
            RequestKind::SessionOpen {
                program: PROGRAM.into(),
                query: "q".into(),
                checkpoint_interval: None,
            },
        ) else {
            panic!("expected a session_open ack");
        };
        let filled = uncapped.session().stats();
        assert!(filled.governed_bytes > before.governed_bytes);

        let after = capped.session().stats();
        assert_eq!(after.governed_bytes, before.governed_bytes);
        assert_eq!(evictions(&after), evictions(&before));
    }

    #[test]
    fn distinct_decides_leave_the_frozen_cache_empty() {
        // Every body of the stream is seen once, so none is admitted and
        // none is evicted — a capped engine churns nothing either.
        for cap in [None, Some(64 * 1024)] {
            let engine = Engine::default();
            engine.set_cache_bytes(cap);
            for i in 0..40 {
                let Response::Decide { record, .. } = submit(&engine, chain_decide(i, true)) else {
                    panic!("expected a decide response");
                };
                assert_eq!(record.verified, Some(true));
            }
            let frozen = engine.session().stats().frozen_usage;
            assert_eq!((frozen.entries, frozen.evictions), (0, 0), "{frozen:?}");
            assert_eq!((frozen.hits, frozen.misses), (0, 80), "{frozen:?}");
        }
    }

    #[test]
    fn a_64_kib_engine_hits_on_the_third_identical_decide() {
        // 10% of 64 KiB is a frozen cap of 6553 bytes: sixteen slices of
        // it would each be smaller than one entry, so the cache routes to
        // fewer shards and an admitted body stays.
        let engine = Engine::default();
        engine.set_cache_bytes(Some(64 * 1024));
        let frozen = |engine: &Engine| engine.session().stats().frozen_usage;
        let _ = submit(&engine, chain_decide(0, false));
        assert_eq!((frozen(&engine).hits, frozen(&engine).entries), (0, 0));
        let _ = submit(&engine, chain_decide(0, false));
        assert_eq!((frozen(&engine).hits, frozen(&engine).entries), (0, 2));
        let _ = submit(&engine, chain_decide(0, false));
        let third = frozen(&engine);
        assert_eq!((third.hits, third.misses), (2, 4), "{third:?}");
        assert_eq!(third.evictions, 0);
    }

    #[test]
    fn engine_shares_caches_across_requests() {
        let engine = Engine::new();
        for _ in 0..3 {
            let _ = submit(
                &engine,
                RequestKind::Decide {
                    program: PROGRAM.into(),
                    query: "q".into(),
                    witness: false,
                },
            );
        }
        let stats = engine.session().stats();
        assert!(
            stats.frozen_hits > 0,
            "repeated requests must hit the session caches: {stats:?}"
        );
    }
}
