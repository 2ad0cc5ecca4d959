//! The batch decision engine: [`DecisionSession`] / [`DecisionSession::decide_batch`].
//!
//! A session wraps a [`DecisionContext`] (the cross-request caches of
//! `cqdet-core`: frozen bodies, canonical keys, components, containment
//! gates, the session iso-class table) and the task fan-out; the policy
//! knobs of a run ([`SessionConfig`]) travel with each call, next to the
//! request's deadline and fuel budget.  `decide_batch` spreads tasks over
//! scoped threads (`cqdet_parallel::par_map`); every worker passes the
//! context's hom-engine caches ([`DecisionContext::caches`]) to witness
//! construction and verification, so counts are reused across tasks.
//! Inside a worker the per-view fan-out of the decision pipeline runs
//! inline (nested fan-outs are serial by design), so a batch uses one level
//! of parallelism — across tasks — without oversubscribing.
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
//! Records serialize to JSON-lines ([`TaskRecord::to_json`], see the field
//! list there); bigints travel as decimal strings so certificates survive a
//! round trip exactly ([`crate::json`]).

use crate::json::Json;
use cqdet_bigint::Nat;
use cqdet_core::decide_bag_determinacy_in;
use cqdet_core::witness::{build_counterexample_ctl, check_certificate_arithmetic, WitnessConfig};
use cqdet_core::{
    BagDeterminacy, ContextStats, Counterexample, DecisionContext, DeterminacyError, WitnessError,
};
use cqdet_linalg::Rat;
use cqdet_parallel::{par_map, Budget, CancelToken, Exhausted};
use cqdet_query::ConjunctiveQuery;
use cqdet_structure::SharedCaches;

/// Version of the JSON certificate wire format.  Emitted as the first
/// `"version"` member of every [`TaskRecord::to_json`] record and every
/// [`stats_json`] line; consumers must treat records with a larger version
/// as potentially carrying unknown members.
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
    /// Knobs of the witness construction itself.
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
    /// The constructive counterexample (undetermined tasks, when enabled).
    pub counterexample: Option<Counterexample>,
    /// The answer vectors `(w⃗(D), w⃗(D′))` of the counterexample.
    pub answer_vectors: Option<(Vec<Nat>, Vec<Nat>)>,
    /// Outcome of [`check_certificate_arithmetic`] alone (undetermined
    /// tasks with a witness); distinct from [`TaskRecord::verified`], which
    /// also folds in the optional symbolic check.
    pub arithmetic_verified: Option<bool>,
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
/// fans tasks out over threads.  See the [module docs](self).
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
    /// deadline-governed only — its dominant cost, hom counting, runs under
    /// the shared memo whose entries the budget already paid for once.  An
    /// expired `ctl` yields a record, never a panic: expiry during the
    /// decision is a [`TaskStatus::Error`] record, expiry during witness
    /// construction a partial [`TaskStatus::NotDetermined`] record (the
    /// analysis survives, the certificate is absent); both carry
    /// [`TaskRecord::timeout_stage`] so serving layers can answer with a
    /// typed timeout.
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
        let mut record = TaskRecord {
            id: task.id.clone(),
            query_name: task.query.name().to_string(),
            view_names: task.views.iter().map(|v| v.name().to_string()).collect(),
            status: TaskStatus::Error,
            analysis: None,
            rewriting: None,
            counterexample: None,
            answer_vectors: None,
            arithmetic_verified: None,
            verified: None,
            error: None,
            timeout_stage: None,
            fuel_exhausted: None,
        };
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
                // Witness construction is hom-count-heavy (separating
                // structures, the evaluation matrix, symbolic answers);
                // counting through the session's caches is what makes a
                // batch of related tasks cheap.
                let caches = self.cx.caches();
                let built =
                    build_counterexample_ctl(caches, &analysis, &task.query, &config.witness, ctl);
                match built {
                    Ok(witness) => {
                        let arithmetic = check_certificate_arithmetic(&witness, &analysis);
                        let mut ok = arithmetic;
                        if ok && config.verify {
                            ok = witness.verify(caches, &task.views, &task.query);
                        }
                        record.answer_vectors = Some(witness.answer_vectors(caches));
                        record.arithmetic_verified = Some(arithmetic);
                        record.verified = Some(ok);
                        record.counterexample = Some(witness);
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

    /// Run a batch of tasks under `config`, fanning out across scoped
    /// threads.  Records come back in input order; [`BatchReport::stats`]
    /// reflects the session counters after the whole batch.
    ///
    /// `ctl` and `budget` are shared by **every** task: tasks still running
    /// when the token expires come back as timeout records
    /// ([`TaskRecord::timeout_stage`]), and the budget bounds the batch's
    /// *total* decision work, so one runaway task drains the ledger for its
    /// siblings and the stragglers come back as typed fuel-exhausted records
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
        let records = par_map(tasks, |t| self.run_task(t, ctl, budget, config));
        BatchReport {
            records,
            stats: self.stats(),
        }
    }
}

/// Exact re-check of the determined-side certificate: `q⃗ = Σ αᵢ·v⃗ᵢ` over
/// the retained view vectors, in ℚ.
fn span_identity_holds(analysis: &BagDeterminacy) -> bool {
    let Some(coefficients) = &analysis.coefficients else {
        return false;
    };
    let k = analysis.query_vector.dim();
    for j in 0..k {
        let mut acc = Rat::zero();
        for (i, v) in analysis.view_vectors.iter().enumerate() {
            acc = acc.add_ref(&coefficients[i].mul_ref(&v[j]));
        }
        if acc != analysis.query_vector[j] {
            return false;
        }
    }
    true
}

/// A rational as a `{"num": "...", "den": "..."}` object (decimal strings,
/// arbitrary precision).
fn rat_json(r: &Rat) -> Json {
    Json::obj([
        ("num", Json::str(r.numer().to_string())),
        ("den", Json::str(r.denom().to_string())),
    ])
}

/// An integral rational as a bare decimal string (multiplicity vectors are
/// naturals by construction).
fn int_rat_string(r: &Rat) -> Json {
    debug_assert!(r.is_integer());
    Json::str(r.numer().to_string())
}

impl TaskRecord {
    /// The JSON certificate record of this task.  Schema (members always
    /// present unless marked optional):
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
    pub fn to_json(&self) -> Json {
        let mut members: Vec<(String, Json)> = vec![
            ("version".into(), Json::num(WIRE_FORMAT_VERSION)),
            ("task".into(), Json::str(&self.id)),
            ("status".into(), Json::str(self.status.as_str())),
            ("query".into(), Json::str(&self.query_name)),
            (
                "views".into(),
                Json::Arr(self.view_names.iter().map(Json::str).collect()),
            ),
        ];
        if let Some(analysis) = &self.analysis {
            members.push((
                "retained".into(),
                Json::Arr(
                    analysis
                        .retained_views
                        .iter()
                        .map(|&i| Json::num(i as i64))
                        .collect(),
                ),
            ));
            members.push(("basis_size".into(), Json::num(analysis.basis_size() as i64)));
            members.push((
                "query_vector".into(),
                Json::Arr(analysis.query_vector.iter().map(int_rat_string).collect()),
            ));
            members.push((
                "view_vectors".into(),
                Json::Arr(
                    analysis
                        .view_vectors
                        .iter()
                        .map(|v| Json::Arr(v.iter().map(int_rat_string).collect()))
                        .collect(),
                ),
            ));
            if let Some(coefficients) = &analysis.coefficients {
                members.push((
                    "coefficients".into(),
                    Json::Arr(
                        analysis
                            .retained_views
                            .iter()
                            .enumerate()
                            .map(|(pos, &vi)| {
                                let mut m =
                                    vec![("view".to_string(), Json::str(&self.view_names[vi]))];
                                if let Json::Obj(nd) = rat_json(&coefficients[pos]) {
                                    m.extend(nd);
                                }
                                Json::Obj(m)
                            })
                            .collect(),
                    ),
                ));
            }
        }
        if let Some(rewriting) = &self.rewriting {
            members.push(("rewriting".into(), Json::str(rewriting)));
        }
        if let Some(witness) = &self.counterexample {
            // Borrow the precomputed answer vectors; the recompute fallback
            // only fires for hand-built records (the engine always fills
            // them in, through the session's caches).
            let computed;
            let (answers_d, answers_d_prime) = match &self.answer_vectors {
                Some((d, d_prime)) => (d, d_prime),
                None => {
                    computed = witness.answer_vectors(&SharedCaches::new());
                    (&computed.0, &computed.1)
                }
            };
            let nat_arr =
                |v: &[Nat]| Json::Arr(v.iter().map(|n| Json::str(n.to_string())).collect());
            members.push((
                "counterexample".into(),
                Json::obj([
                    ("z", Json::Arr(witness.z.iter().map(rat_json).collect())),
                    ("t", rat_json(&witness.t)),
                    ("alpha", nat_arr(&witness.alpha)),
                    ("alpha_prime", nat_arr(&witness.alpha_prime)),
                    ("answers_d", nat_arr(answers_d)),
                    ("answers_d_prime", nat_arr(answers_d_prime)),
                    (
                        "arithmetic_verified",
                        Json::Bool(self.arithmetic_verified.unwrap_or(false)),
                    ),
                ]),
            ));
        }
        members.push((
            "verified".into(),
            match self.verified {
                Some(b) => Json::Bool(b),
                None => Json::Null,
            },
        ));
        if let Some(error) = &self.error {
            members.push(("error".into(), Json::str(error)));
        }
        if let Some(stage) = self.timeout_stage {
            members.push(("timeout_stage".into(), Json::str(stage)));
        }
        if let Some(fuel) = &self.fuel_exhausted {
            members.push((
                "fuel_exhausted".into(),
                Json::obj([
                    ("what", Json::str(fuel.what)),
                    ("spent", Json::num(fuel.spent as i64)),
                    ("limit", Json::num(fuel.limit as i64)),
                ]),
            ));
        }
        Json::Obj(members)
    }
}

/// One governed cache's full counter block as a JSON object: occupancy
/// (`entries`/`bytes`/`cap`) plus the hit/miss/eviction tallies.
pub fn usage_json(usage: &cqdet_cache::CacheUsage) -> Json {
    Json::obj([
        ("hits", Json::num(usage.hits as i64)),
        ("misses", Json::num(usage.misses as i64)),
        ("evictions", Json::num(usage.evictions as i64)),
        ("entries", Json::num(usage.entries as i64)),
        ("bytes", Json::num(usage.bytes as i64)),
        ("cap", Json::num(usage.cap as i64)),
    ])
}

/// The session statistics as a JSON record (for the `cqdet batch` stats
/// line).  The flat `*_hits`/`*_misses` members predate cache governance
/// and stay for wire compatibility; the `*_usage` objects carry the full
/// per-cache occupancy/eviction counters ([`usage_json`]) and
/// `governed_bytes` the session context's byte ledger.
pub fn stats_json(stats: &ContextStats) -> Json {
    Json::obj([
        ("type", Json::str("session_stats")),
        ("version", Json::num(WIRE_FORMAT_VERSION)),
        ("frozen_hits", Json::num(stats.frozen_hits as i64)),
        ("frozen_misses", Json::num(stats.frozen_misses as i64)),
        ("gate_hits", Json::num(stats.gate_hits as i64)),
        ("gate_misses", Json::num(stats.gate_misses as i64)),
        ("span_hits", Json::num(stats.span_hits as i64)),
        ("span_misses", Json::num(stats.span_misses as i64)),
        ("iso_classes", Json::num(stats.iso_classes as i64)),
        ("hom_hits", Json::num(stats.hom.hits as i64)),
        ("hom_misses", Json::num(stats.hom.misses as i64)),
        ("hom_entries", Json::num(stats.hom.entries as i64)),
        ("frozen_usage", usage_json(&stats.frozen_usage)),
        ("gate_usage", usage_json(&stats.gate_usage)),
        ("span_usage", usage_json(&stats.span_usage)),
        ("hom_usage", usage_json(&stats.hom_usage)),
        ("cand_usage", usage_json(&stats.cand_usage)),
        ("governed_bytes", Json::num(stats.governed_bytes as i64)),
    ])
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
        let witness = record.counterexample.as_ref().unwrap();
        let (d, dp) = record.answer_vectors.as_ref().unwrap();
        assert_ne!(d, dp, "answer vectors differ — that is the whole point");
        assert_eq!(d.len(), witness.basis.len());
        let json = record.to_json();
        let ce = json.get("counterexample").unwrap();
        assert_eq!(
            ce.get("answers_d").unwrap().as_arr().unwrap().len(),
            witness.basis.len()
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
        assert!(
            stats.hom.hits > 0,
            "witness construction must hit the shared hom memo: {stats:?}"
        );
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
        assert!(
            report.records.iter().any(|r| r.fuel_exhausted.is_some()),
            "the shared ledger must stop a straggler"
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
}
