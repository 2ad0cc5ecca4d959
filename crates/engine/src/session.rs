//! The batch decision engine: [`DecisionSession`] / [`DecisionSession::decide_batch`].
//!
//! A session wraps a [`DecisionContext`] (the cross-request caches of
//! `cqdet-core`: frozen bodies, canonical keys, components, containment
//! gates, the session iso-class table); the policy knobs of a run
//! ([`SessionConfig`]) travel with each call, next to the request's
//! deadline and fuel budget.  `decide_batch` runs its tasks in input order
//! against the one shared context, so a view shared by many tasks is
//! frozen and gated once, while each certificate counts its own base
//! table.  A batch runs on the thread that submitted it; a server's
//! parallelism comes from its worker pool, one request per worker.
//!
//! Every task produces a [`TaskRecord`] carrying the **full certificate**:
//!
//! * determined — the rational span coefficients realising
//!   `q(D) = Π vᵢ(D)^{αᵢ}` plus the rendered rewriting, re-verified by
//!   recomputing `q⃗ = Σ αᵢ·v⃗ᵢ` in exact arithmetic;
//! * not determined — the [`Counterexample`] of Sections 5–7 with its
//!   answer vectors, re-verified via
//!   [`check_certificate_arithmetic`] (and, by default, the full symbolic
//!   `v(D) = v(D′) ∧ q(D) ≠ q(D′)` check).
//!
//! Records render to JSON-lines ([`TaskRecord::render_into`], see the
//! field list there), straight into the response line through the
//! [`crate::json`] writer; bigints travel as decimal strings so certificates
//! survive a round trip exactly.  [`TaskRecord::to_json`] is the parsed
//! tree of those bytes, for consumers that inspect a record.

use crate::json::{write_arr, write_str, write_uint, Json, ObjectWriter};
use cqdet_bigint::Nat;
use cqdet_core::decide_bag_determinacy_in;
use cqdet_core::witness::{build_counterexample, check_certificate_arithmetic, WitnessConfig};
use cqdet_core::{
    BagDeterminacy, ContextStats, Counterexample, DecisionContext, DeterminacyError, WitnessError,
};
use cqdet_linalg::Rat;
use cqdet_parallel::{Budget, CancelToken, Exhausted};
use cqdet_query::ConjunctiveQuery;

/// Version of the JSON certificate wire format.  Emitted as the first
/// `"version"` member of every [`TaskRecord::render_into`] record;
/// consumers must treat records with a larger version as potentially
/// carrying unknown members.
///
/// History: `1` — the PR 3/4 record schema plus the explicit version field
/// itself (earlier records carried no version and are read as version 1).
pub const WIRE_FORMAT_VERSION: i64 = 1;

/// One decision request: does `views ⟶_bag query`?
#[derive(Debug, Clone)]
pub struct Task {
    /// Caller-chosen identifier, echoed in the task's record.
    pub id: String,
    /// The views `V₀` (boolean CQs).
    pub views: Vec<ConjunctiveQuery>,
    /// The query `q` (a boolean CQ).
    pub query: ConjunctiveQuery,
}

/// Batch policy knobs.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Build a [`Counterexample`] for undetermined tasks (default `true`).
    /// Without it, undetermined records still carry the analysis (retained
    /// views, basis, vectors) but no constructive witness.
    pub witnesses: bool,
    /// Re-verify certificates semantically: the exact span identity for
    /// determined tasks is always checked; with `verify` the undetermined
    /// side additionally runs the full symbolic
    /// `v(D) = v(D′) ∧ q(D) ≠ q(D′)` evaluation on top of
    /// [`check_certificate_arithmetic`] (default `true`).
    pub verify: bool,
    /// Unread; kept only for the `perfbench` replay, which still sets it.
    #[doc(hidden)]
    pub witness: WitnessConfig,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            witnesses: true,
            verify: true,
            witness: WitnessConfig::default(),
        }
    }
}

/// The outcome class of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskStatus {
    /// `V₀ ⟶_bag q` — the record carries coefficients and a rewriting.
    Determined,
    /// `V₀ ⟶̸_bag q` — the record carries the counterexample certificate
    /// (when witness construction is enabled and succeeded).
    NotDetermined,
    /// The instance was rejected (non-boolean query, nullary relation, …).
    Error,
}

impl TaskStatus {
    /// The JSON wire string of this status.
    pub fn as_str(self) -> &'static str {
        match self {
            TaskStatus::Determined => "determined",
            TaskStatus::NotDetermined => "not_determined",
            TaskStatus::Error => "error",
        }
    }
}

/// The full per-task result: analysis, certificate, verification outcome.
#[derive(Debug, Clone)]
pub struct TaskRecord {
    /// The task's id.
    pub id: String,
    /// The query's name.
    pub query_name: String,
    /// The view names, in task order.
    pub view_names: Vec<String>,
    /// Outcome class.
    pub status: TaskStatus,
    /// The full analysis (absent only for [`TaskStatus::Error`]).
    pub analysis: Option<BagDeterminacy>,
    /// Rendered rewriting `q(D) = Π vᵢ(D)^{αᵢ}` (determined tasks).
    pub rewriting: Option<String>,
    /// The constructive counterexample with its answer vectors
    /// (undetermined tasks, when enabled).
    pub counterexample: Option<WitnessRecord>,
    /// Certificate re-verification outcome: `Some(true)` when every check
    /// that ran passed, `Some(false)` when one failed, `None` when there was
    /// nothing to verify (errors; undetermined tasks without witnesses).
    pub verified: Option<bool>,
    /// Error message ([`TaskStatus::Error`], or a failed witness search on
    /// an otherwise-undetermined task).
    pub error: Option<String>,
    /// When the task's [`CancelToken`] expired, the pipeline stage at whose
    /// boundary the expiry was observed (`"gate"`, `"basis"`, `"span"`,
    /// `"witness/…"`); `None` for tasks that ran to completion.  A timed-out
    /// decision is a [`TaskStatus::Error`] record; a timeout during witness
    /// construction leaves a partial [`TaskStatus::NotDetermined`] record
    /// (analysis present, certificate absent).
    pub timeout_stage: Option<&'static str>,
    /// When the task's fuel [`Budget`] ran out inside a decision kernel:
    /// which ledger (`"steps"` or `"bytes"`), the total charged and the
    /// limit.  Such a task is a [`TaskStatus::Error`] record; the work done
    /// stays in the session caches, so resubmitting with a larger budget
    /// resumes rather than restarts.
    pub fuel_exhausted: Option<Exhausted>,
}

/// A constructed counterexample together with everything its record
/// renders: the answer vectors, counted once through the session's caches
/// when the witness is built (rendering never counts), and the arithmetic
/// check's outcome.
#[derive(Debug, Clone)]
pub struct WitnessRecord {
    /// The counterexample of Sections 5–7.
    pub witness: Counterexample,
    /// `w⃗(D)`: the basis queries' answers on `D`.
    pub answers_d: Vec<Nat>,
    /// `w⃗(D′)`: the basis queries' answers on `D′`.
    pub answers_d_prime: Vec<Nat>,
    /// Outcome of [`check_certificate_arithmetic`] alone; distinct from
    /// [`TaskRecord::verified`], which also folds in the optional symbolic
    /// check.
    pub arithmetic_verified: bool,
}

impl TaskRecord {
    /// An empty [`TaskStatus::Error`] record of `task`: the shape of a task
    /// that stopped before its analysis, before its message is filled in.
    pub fn new_error(task: &Task) -> TaskRecord {
        TaskRecord {
            id: task.id.clone(),
            query_name: task.query.name().to_string(),
            view_names: task.views.iter().map(|v| v.name().to_string()).collect(),
            status: TaskStatus::Error,
            analysis: None,
            rewriting: None,
            counterexample: None,
            verified: None,
            error: None,
            timeout_stage: None,
            fuel_exhausted: None,
        }
    }
}

/// The result of a batch run: per-task records plus the session cache
/// counters observed after the run.
#[derive(Debug)]
pub struct BatchReport {
    /// One record per task, in input order.
    pub records: Vec<TaskRecord>,
    /// Session cache statistics (cumulative over the session's lifetime).
    pub stats: ContextStats,
}

impl BatchReport {
    /// Number of records with the given status.
    pub fn count(&self, status: TaskStatus) -> usize {
        self.records.iter().filter(|r| r.status == status).count()
    }

    /// Whether every certificate that was checked verified successfully.
    pub fn all_verified(&self) -> bool {
        self.records.iter().all(|r| r.verified != Some(false))
    }
}

/// A long-lived batch decision engine: owns the cross-request caches and
/// decides task lists against them.  See the [module docs](self).
///
/// ```
/// use cqdet_engine::{DecisionSession, SessionConfig, Task};
/// use cqdet_parallel::{Budget, CancelToken};
/// use cqdet_query::parse_query;
///
/// let cq = |t: &str| parse_query(t).unwrap().disjuncts()[0].clone();
/// let v = cq("v() :- R(x,y)");
/// let tasks: Vec<Task> = (0..4)
///     .map(|i| Task {
///         id: format!("t{i}"),
///         views: vec![v.clone()],
///         query: cq("q() :- R(x,y), R(u,w)"),
///     })
///     .collect();
///
/// let session = DecisionSession::new();
/// let report = session.decide_batch(
///     &tasks,
///     &CancelToken::none(),
///     &Budget::none(),
///     &SessionConfig::default(),
/// );
/// assert!(report.records.iter().all(|r| r.status == cqdet_engine::TaskStatus::Determined));
/// assert!(report.all_verified());
/// // Tasks 2..4 reused task 1's frozen bodies, classes and gates:
/// assert!(report.stats.frozen_hits > 0 && report.stats.gate_hits > 0);
/// ```
#[derive(Default)]
pub struct DecisionSession {
    cx: DecisionContext,
}

impl DecisionSession {
    /// A fresh session with empty caches.
    pub fn new() -> DecisionSession {
        DecisionSession::default()
    }

    /// The underlying cache context.
    pub fn context(&self) -> &DecisionContext {
        &self.cx
    }

    /// Session cache counters (cumulative).
    pub fn stats(&self) -> ContextStats {
        self.cx.stats()
    }

    /// Decide one instance against the session caches, under a
    /// request-scoped [`CancelToken`] and fuel [`Budget`] (see
    /// [`decide_bag_determinacy_in`]) — the raw analysis, no certificate
    /// construction.  The name keeps its `_budgeted` suffix because the
    /// `perfbench` replay calls it by this name.
    pub fn decide_budgeted(
        &self,
        views: &[ConjunctiveQuery],
        query: &ConjunctiveQuery,
        ctl: &CancelToken,
        budget: &Budget,
    ) -> Result<BagDeterminacy, DeterminacyError> {
        decide_bag_determinacy_in(&self.cx, views, query, ctl, budget)
    }

    /// Run one task end to end under `config`: decide, build the
    /// certificate, re-verify.
    ///
    /// The decision phase is metered by `budget` (an exhausted budget
    /// yields a [`TaskStatus::Error`] record carrying
    /// [`TaskRecord::fuel_exhausted`]); witness construction is
    /// deadline-governed only: its hom counts (the separator search and the
    /// certificate's count table) charge no fuel.  An expired `ctl` yields
    /// a record, never a panic: expiry during the decision is a
    /// [`TaskStatus::Error`] record, expiry during witness construction a
    /// partial [`TaskStatus::NotDetermined`] record (the analysis survives,
    /// the certificate is absent); both carry [`TaskRecord::timeout_stage`]
    /// so serving layers can answer with a typed timeout.
    pub fn run_task(
        &self,
        task: &Task,
        ctl: &CancelToken,
        budget: &Budget,
        config: &SessionConfig,
    ) -> TaskRecord {
        let outcome = self.decide_budgeted(&task.views, &task.query, ctl, budget);
        self.record_from_outcome(task, outcome, ctl, config)
    }

    /// Turn an already-computed decision outcome into the full certificate
    /// [`TaskRecord`] — the witness-construction / re-verification half of
    /// [`DecisionSession::run_task`].  The serving layer's mutable
    /// sessions use this to certify a `redecide` whose analysis came out of
    /// a [`cqdet_core::MutableSession`] rather than a one-shot decide.
    pub fn record_from_outcome(
        &self,
        task: &Task,
        outcome: Result<BagDeterminacy, DeterminacyError>,
        ctl: &CancelToken,
        config: &SessionConfig,
    ) -> TaskRecord {
        let mut record = TaskRecord::new_error(task);
        let analysis = match outcome {
            Ok(a) => a,
            Err(e) => {
                match e {
                    DeterminacyError::DeadlineExceeded { stage } => {
                        record.timeout_stage = Some(stage);
                    }
                    DeterminacyError::ResourceExhausted { what, spent, limit } => {
                        record.fuel_exhausted = Some(Exhausted { what, spent, limit });
                    }
                    _ => {}
                }
                record.error = Some(e.to_string());
                return record;
            }
        };
        if analysis.determined {
            record.status = TaskStatus::Determined;
            record.rewriting = analysis.rewriting(&task.views);
            record.verified = Some(span_identity_holds(&analysis));
        } else {
            record.status = TaskStatus::NotDetermined;
            if config.witnesses {
                // The certificate takes its base counts once (separating
                // structures, the query column); the matrix, the answers
                // and the re-verification are arithmetic on them.
                let built = build_counterexample(&analysis, &task.query, ctl);
                match built {
                    Ok(witness) => {
                        let arithmetic = check_certificate_arithmetic(&witness, &analysis);
                        let mut ok = arithmetic;
                        if ok && config.verify {
                            ok = witness.verify(&task.views, &task.query);
                        }
                        let (answers_d, answers_d_prime) = witness.answer_vectors();
                        record.verified = Some(ok);
                        record.counterexample = Some(WitnessRecord {
                            witness,
                            answers_d,
                            answers_d_prime,
                            arithmetic_verified: arithmetic,
                        });
                    }
                    Err(e) => {
                        if let WitnessError::DeadlineExceeded { stage } = e {
                            record.timeout_stage = Some(stage);
                        }
                        record.error = Some(format!("witness construction failed: {e}"));
                    }
                }
            }
        }
        record.analysis = Some(analysis);
        record
    }

    /// Run a batch of tasks under `config`, one after another in input
    /// order.  Records come back in input order; [`BatchReport::stats`]
    /// reflects the session counters after the whole batch.
    ///
    /// `ctl` and `budget` are shared by **every** task: tasks reached after
    /// the token expires come back as timeout records
    /// ([`TaskRecord::timeout_stage`]), and the budget bounds the batch's
    /// *total* decision work, so one runaway task drains the ledger for the
    /// tasks after it, which come back as typed fuel-exhausted records
    /// ([`TaskRecord::fuel_exhausted`]) instead of unbounded compute.
    /// Completed tasks keep their certificates — the report is partial, not
    /// void.
    pub fn decide_batch(
        &self,
        tasks: &[Task],
        ctl: &CancelToken,
        budget: &Budget,
        config: &SessionConfig,
    ) -> BatchReport {
        let records = tasks
            .iter()
            .map(|t| self.run_task(t, ctl, budget, config))
            .collect();
        BatchReport {
            records,
            stats: self.stats(),
        }
    }
}

/// Exact re-check of the determined-side certificate: `q⃗ = Σ αᵢ·v⃗ᵢ` over
/// the retained view vectors, in ℚ.  A term with a zero coefficient or a
/// zero entry adds nothing, so it is skipped: the check stays exact and
/// costs one product per non-zero pair, which on a session's mostly-zero
/// multiplicity vectors is a small fraction of the dense `k × |V|` sum.
fn span_identity_holds(analysis: &BagDeterminacy) -> bool {
    let Some(coefficients) = &analysis.coefficients else {
        return false;
    };
    let k = analysis.query_vector.dim();
    if coefficients.dim() != analysis.view_vectors.len()
        || analysis.view_vectors.iter().any(|v| v.dim() != k)
    {
        return false;
    }
    let mut acc = vec![Rat::zero(); k];
    for (c, v) in coefficients.iter().zip(&analysis.view_vectors) {
        if c.is_zero() {
            continue;
        }
        for (a, x) in acc.iter_mut().zip(v.iter()) {
            if !x.is_zero() {
                *a = a.add_ref(&c.mul_ref(x));
            }
        }
    }
    acc.iter()
        .zip(analysis.query_vector.iter())
        .all(|(a, q)| a == q)
}

/// A decimal string member value: `"`, the digits `digits` appends, `"`
/// (digits never need escaping).
fn quoted(out: &mut String, digits: impl FnOnce(&mut String)) {
    out.push('"');
    digits(out);
    out.push('"');
}

/// A rational's `"num"` and `"den"` members (decimal strings, arbitrary
/// precision).
fn rat_members(o: &mut ObjectWriter<'_>, r: &Rat) {
    quoted(o.key("num"), |out| r.numer().write_decimal(out));
    quoted(o.key("den"), |out| r.denom().write_decimal(out));
}

/// A rational as a `{"num": "...", "den": "..."}` object.
fn write_rat(out: &mut String, r: &Rat) {
    let mut o = ObjectWriter::open(out);
    rat_members(&mut o, r);
    o.close();
}

/// An integral rational as a bare decimal string (multiplicity vectors are
/// naturals by construction).
fn write_int_rat(out: &mut String, r: &Rat) {
    debug_assert!(r.is_integer());
    quoted(out, |out| r.numer().write_decimal(out));
}

/// A natural as a decimal string.
fn write_nat(out: &mut String, n: &Nat) {
    quoted(out, |out| n.write_decimal(out));
}

impl TaskRecord {
    /// Append the JSON certificate record of this task to `out`.  Schema
    /// (members always present unless marked optional):
    ///
    /// ```text
    /// version       int                         wire format ([`WIRE_FORMAT_VERSION`])
    /// task          string                      the task id
    /// status        "determined" | "not_determined" | "error"
    /// query         string                      query name
    /// views         [string]                    view names, task order
    /// retained      [int]                       indices into views (absent on error)
    /// basis_size    int                         |W|            (absent on error)
    /// query_vector  [string]                    q⃗, decimal     (absent on error)
    /// view_vectors  [[string]]                  v⃗ per retained view (absent on error)
    /// coefficients  [{view, num, den}]          determined only
    /// rewriting     string                      determined only
    /// counterexample {z: [{num,den}], t: {num,den},
    ///                alpha: [string], alpha_prime: [string],
    ///                answers_d: [string], answers_d_prime: [string],
    ///                arithmetic_verified: bool}  undetermined + witnesses only
    /// verified      bool | null                 certificate re-verification
    /// error         string                      optional
    /// timeout_stage string                      optional (deadline expiry)
    /// fuel_exhausted {what, spent, limit}       optional (budget ran out)
    /// ```
    pub fn render_into(&self, out: &mut String) {
        let mut o = ObjectWriter::open(out);
        o.int("version", WIRE_FORMAT_VERSION)
            .str("task", &self.id)
            .str("status", self.status.as_str())
            .str("query", &self.query_name);
        write_arr(o.key("views"), &self.view_names, |out, v| write_str(out, v));
        if let Some(analysis) = &self.analysis {
            write_arr(o.key("retained"), &analysis.retained_views, |out, &i| {
                write_uint(out, i as u64)
            });
            o.uint("basis_size", analysis.basis_size() as u64);
            write_arr(
                o.key("query_vector"),
                analysis.query_vector.iter(),
                write_int_rat,
            );
            write_arr(o.key("view_vectors"), &analysis.view_vectors, |out, v| {
                write_arr(out, v.iter(), write_int_rat)
            });
            if let Some(coefficients) = &analysis.coefficients {
                let pairs = analysis.retained_views.iter().zip(coefficients.iter());
                write_arr(o.key("coefficients"), pairs, |out, (&vi, c)| {
                    let mut m = ObjectWriter::open(out);
                    m.str("view", &self.view_names[vi]);
                    rat_members(&mut m, c);
                    m.close();
                });
            }
        }
        if let Some(rewriting) = &self.rewriting {
            o.str("rewriting", rewriting);
        }
        if let Some(cert) = &self.counterexample {
            let witness = &cert.witness;
            let mut c = ObjectWriter::open(o.key("counterexample"));
            write_arr(c.key("z"), witness.z.iter(), write_rat);
            write_rat(c.key("t"), &witness.t);
            write_arr(c.key("alpha"), &witness.alpha, write_nat);
            write_arr(c.key("alpha_prime"), &witness.alpha_prime, write_nat);
            write_arr(c.key("answers_d"), &cert.answers_d, write_nat);
            write_arr(c.key("answers_d_prime"), &cert.answers_d_prime, write_nat);
            c.bool("arithmetic_verified", cert.arithmetic_verified);
            c.close();
        }
        match self.verified {
            Some(b) => o.bool("verified", b),
            None => o.null("verified"),
        };
        if let Some(error) = &self.error {
            o.str("error", error);
        }
        if let Some(stage) = self.timeout_stage {
            o.str("timeout_stage", stage);
        }
        if let Some(fuel) = &self.fuel_exhausted {
            let mut f = ObjectWriter::open(o.key("fuel_exhausted"));
            f.str("what", fuel.what)
                .uint("spent", fuel.spent)
                .uint("limit", fuel.limit);
            f.close();
        }
        o.close();
    }

    /// The record's JSON line ([`TaskRecord::render_into`] into a fresh
    /// `String`).
    pub fn render(&self) -> String {
        let mut line = String::new();
        self.render_into(&mut line);
        line
    }

    /// The record as a [`Json`] tree: [`TaskRecord::render`]'s bytes,
    /// parsed (one emitter; the tree is for consumers that inspect members).
    pub fn to_json(&self) -> Json {
        Json::from_rendered(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqdet_query::parse_query;

    fn cq(text: &str) -> ConjunctiveQuery {
        parse_query(text).unwrap().disjuncts()[0].clone()
    }

    fn shared_views() -> Vec<ConjunctiveQuery> {
        vec![cq("v1() :- R(x,y)"), cq("v2() :- R(x,y), R(y,z)")]
    }

    /// One task, unbounded, default policy.
    fn run(session: &DecisionSession, task: &Task) -> TaskRecord {
        session.run_task(
            task,
            &CancelToken::none(),
            &Budget::none(),
            &SessionConfig::default(),
        )
    }

    #[test]
    fn determined_task_carries_verified_certificate() {
        let session = DecisionSession::new();
        let record = run(
            &session,
            &Task {
                id: "t".into(),
                views: shared_views(),
                query: cq("q() :- R(x,y), R(u,w)"),
            },
        );
        assert_eq!(record.status, TaskStatus::Determined);
        assert_eq!(record.verified, Some(true));
        assert!(record.rewriting.is_some());
        let json = record.to_json();
        assert_eq!(json.get("status").unwrap().as_str(), Some("determined"));
        assert!(json.get("coefficients").is_some());
        // The record is valid JSON and round-trips.
        let reparsed = crate::json::Json::parse(&json.render()).unwrap();
        assert_eq!(reparsed, json);
    }

    #[test]
    fn undetermined_task_carries_reverified_counterexample() {
        let session = DecisionSession::new();
        let record = run(
            &session,
            &Task {
                id: "t".into(),
                views: vec![cq("v() :- R(x,y)")],
                query: cq("q() :- R(x,y), R(y,z)"),
            },
        );
        assert_eq!(record.status, TaskStatus::NotDetermined);
        assert_eq!(record.verified, Some(true), "arithmetic + symbolic checks");
        let cert = record.counterexample.as_ref().unwrap();
        let (d, dp) = (&cert.answers_d, &cert.answers_d_prime);
        assert_ne!(d, dp, "answer vectors differ — that is the whole point");
        assert_eq!(d.len(), cert.witness.basis.len());
        assert!(cert.arithmetic_verified);
        let json = record.to_json();
        let ce = json.get("counterexample").unwrap();
        assert_eq!(
            ce.get("answers_d").unwrap().as_arr().unwrap().len(),
            cert.witness.basis.len()
        );
        assert_eq!(ce.get("arithmetic_verified").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn error_task_is_reported_not_panicked() {
        let session = DecisionSession::new();
        let record = run(
            &session,
            &Task {
                id: "t".into(),
                views: vec![],
                query: cq("q(x) :- R(x,y)"),
            },
        );
        assert_eq!(record.status, TaskStatus::Error);
        assert!(record.error.as_ref().unwrap().contains("boolean"));
        assert_eq!(
            record.to_json().get("status").unwrap().as_str(),
            Some("error")
        );
    }

    #[test]
    fn batch_shares_caches_across_tasks() {
        let session = DecisionSession::new();
        // 12 tasks over the same two views: everything isomorphism-invariant
        // is computed for the first task and reused by the rest.
        let tasks: Vec<Task> = (0..12)
            .map(|i| Task {
                id: format!("t{i}"),
                views: shared_views(),
                query: if i % 2 == 0 {
                    cq("q() :- R(x,y), R(u,w)")
                } else {
                    cq("q() :- R(x,y), R(y,z), R(z,w)")
                },
            })
            .collect();
        let report = session.decide_batch(
            &tasks,
            &CancelToken::none(),
            &Budget::none(),
            &SessionConfig::default(),
        );
        assert_eq!(report.records.len(), 12);
        assert!(report.all_verified());
        assert_eq!(report.count(TaskStatus::Determined), 6);
        assert_eq!(report.count(TaskStatus::NotDetermined), 6);
        let stats = report.stats;
        assert!(
            stats.frozen_hits > 0,
            "shared views must hit the frozen cache: {stats:?}"
        );
        assert!(
            stats.gate_hits > 0,
            "shared (view, query) classes must hit the gate cache: {stats:?}"
        );
        // Each task solves its own span system: every record is the record
        // a one-shot decide of the same task on a fresh session renders.
        for (r, task) in report.records.iter().zip(&tasks) {
            assert_eq!(r.render(), run(&DecisionSession::new(), task).render());
        }
        // Every undetermined task carries its certificate, built from its
        // own count table: D and D′ differ on the basis.
        for r in &report.records {
            if r.status == TaskStatus::NotDetermined {
                let cert = r.counterexample.as_ref().expect("witness built");
                assert_ne!(cert.answers_d, cert.answers_d_prime, "{}", r.id);
            }
        }
        // Records stay in input order.
        for (i, r) in report.records.iter().enumerate() {
            assert_eq!(r.id, format!("t{i}"));
        }
    }

    #[test]
    fn one_budget_bounds_the_whole_batch() {
        use cqdet_parallel::fuel::GAS_FLUSH_EVERY;
        // K8 → K7 has no homomorphism, and the gate search visits >10k
        // candidate extensions to say so.  One relation per task gives
        // pairwise distinct view classes: no task can answer its gate from
        // a sibling's cache entry.
        fn clique(name: &str, rel: &str, n: usize) -> ConjunctiveQuery {
            let atoms = (0..n)
                .flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)))
                .map(|(i, j)| format!("{rel}(x{i},x{j})"))
                .collect::<Vec<_>>();
            cq(&format!("{name}() :- {}", atoms.join(", ")))
        }
        let tasks: Vec<Task> = ["R", "S", "T"]
            .iter()
            .map(|rel| Task {
                id: (*rel).into(),
                views: vec![clique("v", rel, 8)],
                query: clique("q", rel, 7),
            })
            .collect();
        let config = SessionConfig {
            witnesses: false,
            ..SessionConfig::default()
        };
        // Each task alone, on a fresh session, under a metered budget.
        let costs: Vec<u64> = tasks
            .iter()
            .map(|t| {
                let metered = Budget::with_limits(Some(u64::MAX - 1), None);
                let record =
                    DecisionSession::new().run_task(t, &CancelToken::none(), &metered, &config);
                assert_eq!(record.status, TaskStatus::NotDetermined);
                metered.steps_spent()
            })
            .collect();
        assert!(
            costs.iter().all(|&c| c >= 3 * GAS_FLUSH_EVERY),
            "every task must cost ≥ 3 flush windows alone: {costs:?}"
        );
        // A limit any one task fits under, but not all of them together.
        let limit = costs.iter().max().unwrap() + GAS_FLUSH_EVERY;
        let budget = Budget::with_limits(Some(limit), None);
        let report =
            DecisionSession::new().decide_batch(&tasks, &CancelToken::none(), &budget, &config);
        // Tasks run in input order: the first finds the ledger untouched and
        // completes, and once it is drained every later task stops.
        let first = &report.records[0];
        assert!(first.fuel_exhausted.is_none(), "{:?}", first.fuel_exhausted);
        assert_eq!(first.status, TaskStatus::NotDetermined);
        let stopped: Vec<bool> = report
            .records
            .iter()
            .map(|r| r.fuel_exhausted.is_some())
            .collect();
        let cut = stopped
            .iter()
            .position(|&s| s)
            .expect("the shared ledger must stop a later task");
        assert!(
            stopped[cut..].iter().all(|&s| s),
            "exhausted records must form a suffix: {stopped:?}"
        );
        assert!(
            budget.steps_spent() > limit,
            "{} spent against limit {limit}",
            budget.steps_spent()
        );
    }

    #[test]
    fn session_decide_matches_one_shot_function() {
        let session = DecisionSession::new();
        let views = shared_views();
        for query in [
            cq("q() :- R(x,y), R(u,w)"),
            cq("q() :- R(x,y), R(y,z), R(z,w)"),
            cq("q() :- S(x,y)"),
        ] {
            let fresh = cqdet_core::decide_bag_determinacy(&views, &query).unwrap();
            let decide =
                || session.decide_budgeted(&views, &query, &CancelToken::none(), &Budget::none());
            let cached = decide().unwrap();
            // Decide twice through the session: the second pass is served
            // almost entirely from caches and must agree.
            let cached2 = decide().unwrap();
            assert_eq!(fresh.determined, cached.determined);
            assert_eq!(cached.determined, cached2.determined);
            assert_eq!(fresh.retained_views, cached.retained_views);
            assert_eq!(fresh.basis_size(), cached.basis_size());
            assert_eq!(fresh.query_vector, cached.query_vector);
            assert_eq!(fresh.view_vectors, cached2.view_vectors);
        }
    }

    /// A mutable session's certified `redecide` records render to the same
    /// bytes as one-shot decides of the same view sets, across adds and
    /// removes that keep, grow and shrink the common schema (witnesses
    /// included on the undetermined steps).
    #[test]
    fn session_records_match_one_shot_across_schema_changes() {
        use cqdet_core::MutableSession;
        let (ctl, nb) = (CancelToken::none(), Budget::none());
        let engine = DecisionSession::new();
        let cx = engine.context();
        let query = cq("q() :- R(x,y), S(u,w)");
        let mut session =
            MutableSession::open(cx, shared_views(), query.clone(), 2, &ctl, &nb).unwrap();
        let check = |session: &mut MutableSession| {
            let outcome = session.redecide(cx, &ctl, &nb);
            let task = Task {
                id: query.name().to_string(),
                views: session.views().to_vec(),
                query: query.clone(),
            };
            let got = engine.record_from_outcome(&task, outcome, &ctl, &SessionConfig::default());
            let want = run(&DecisionSession::new(), &task);
            assert_eq!(got.render(), want.render());
            assert_eq!(got.verified, Some(true));
        };
        check(&mut session);
        session
            .view_add(cx, cq("s() :- S(a,b)"), &ctl, &nb)
            .unwrap();
        check(&mut session);
        session
            .view_add(cx, cq("t() :- R(x,y), T(y,z)"), &ctl, &nb)
            .unwrap();
        check(&mut session);
        session.view_remove(cx, 2, &ctl, &nb).unwrap();
        check(&mut session);
        session.view_remove(cx, 2, &ctl, &nb).unwrap();
        check(&mut session);
    }
}
