//! The decision procedure of Theorem 3: bag-determinacy of boolean CQs.
//!
//! Pipeline (Section 4):
//!
//! 1. `V ← {v ∈ V₀ : q ⊆_set v}` (Definition 25) — views that cannot return 0
//!    on any structure satisfying `q`.
//! 2. `W ←` the pairwise non-isomorphic connected components of
//!    `Σ_{v ∈ V ∪ {q}} v` (Definition 27) — the basis queries.
//! 3. Every `v ∈ V ∪ {q}` gets its vector representation `v⃗ ∈ ℕ^k`
//!    (Definition 29): the multiplicities of the basis components in `v`.
//! 4. **Main Lemma (Lemma 31)**: `V₀ ⟶_bag q` iff `q⃗ ∈ span_ℚ{v⃗ : v ∈ V}`.
//!
//! The answer comes with the full analysis (retained views, basis, vectors,
//! and — when determined — explicit span coefficients realising Example 32's
//! "q(D) = Π v(D)^{αᵥ}" rewriting), so callers can inspect *why*.

use crate::session::{DecisionContext, FrozenQuery, GateQuery};
use cqdet_failpoint::fail_point;
use cqdet_linalg::{IncrementalBasis, QVec, Rat};
use cqdet_parallel::{Budget, CancelToken, Exhausted, Expired, Gas, Interrupt};
use cqdet_query::cq::{common_schema, ArityConflict};
use cqdet_query::ConjunctiveQuery;
use cqdet_structure::{dedup_up_to_iso, BasisIndex, Schema, Structure};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Why an instance cannot be handled by the Theorem 3 procedure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeterminacyError {
    /// The query has free variables; Theorem 3 is about boolean CQs.
    QueryNotBoolean(String),
    /// Some view has free variables.
    ViewNotBoolean(String),
    /// A relation of arity zero occurs: Lemma 4's sum rules (and hence
    /// Observation 30) require every connected component to contain at least
    /// one variable.
    NullaryRelation(String),
    /// A relation is used with two different arities, within one query or
    /// across the queries of one instance.
    ConflictingArity(ArityConflict),
    /// The request's [`CancelToken`] expired; the pipeline stopped at the
    /// named stage boundary (`"gate"`, `"basis"`, `"span"`) or inside the
    /// stage's kernels (which poll the token every ~4k fuel steps).
    DeadlineExceeded {
        /// The stage whose boundary check observed the expiry.
        stage: &'static str,
    },
    /// The request's fuel [`Budget`] ran out inside a kernel (hom search or
    /// exact elimination); completed gate searches stay in the session
    /// caches, so a retry with a larger budget does not repeat them.
    ResourceExhausted {
        /// Which ledger ran out: `"steps"` or `"bytes"`.
        what: &'static str,
        /// Total charged against the budget when the check fired.
        spent: u64,
        /// The configured limit.
        limit: u64,
    },
    /// An internal invariant of the pipeline failed — a bug, not a property
    /// of the instance; reported as data instead of a panic so a serving
    /// process survives it.
    Internal(String),
}

impl fmt::Display for DeterminacyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeterminacyError::QueryNotBoolean(n) => {
                write!(
                    f,
                    "query {n} is not boolean (Theorem 3 handles boolean CQs)"
                )
            }
            DeterminacyError::ViewNotBoolean(n) => {
                write!(f, "view {n} is not boolean (Theorem 3 handles boolean CQs)")
            }
            DeterminacyError::NullaryRelation(r) => {
                write!(
                    f,
                    "relation {r} has arity 0; the component basis requires positive arities"
                )
            }
            DeterminacyError::ConflictingArity(conflict) => write!(f, "{conflict}"),
            DeterminacyError::DeadlineExceeded { stage } => {
                write!(f, "deadline exceeded at stage {stage}")
            }
            DeterminacyError::ResourceExhausted { what, spent, limit } => {
                write!(
                    f,
                    "fuel {what} budget exhausted ({spent} spent, limit {limit})"
                )
            }
            DeterminacyError::Internal(message) => write!(f, "internal error: {message}"),
        }
    }
}

impl std::error::Error for DeterminacyError {}

impl From<Expired> for DeterminacyError {
    fn from(e: Expired) -> DeterminacyError {
        DeterminacyError::DeadlineExceeded { stage: e.stage }
    }
}

impl From<Exhausted> for DeterminacyError {
    fn from(e: Exhausted) -> DeterminacyError {
        DeterminacyError::ResourceExhausted {
            what: e.what,
            spent: e.spent,
            limit: e.limit,
        }
    }
}

impl From<Interrupt> for DeterminacyError {
    fn from(i: Interrupt) -> DeterminacyError {
        match i {
            Interrupt::Expired(e) => e.into(),
            Interrupt::Exhausted(e) => e.into(),
        }
    }
}

/// The outcome of the Theorem 3 decision procedure, with the full analysis.
#[derive(Debug, Clone)]
pub struct BagDeterminacy {
    /// Whether `V₀ ⟶_bag q`.
    pub determined: bool,
    /// The common schema over which everything was frozen.
    pub schema: Schema,
    /// Indices (into the input slice) of the retained views
    /// `V = {v ∈ V₀ : q ⊆_set v}`.
    pub retained_views: Vec<usize>,
    /// The basis `W`: pairwise non-isomorphic connected components of
    /// `Σ_{v ∈ V ∪ {q}} v`, as structures.
    pub basis: Vec<Structure>,
    /// The vector representation `q⃗` of the query.
    pub query_vector: QVec,
    /// The vector representations `v⃗` of the retained views (same order as
    /// `retained_views`).
    pub view_vectors: Vec<QVec>,
    /// When determined: rational coefficients `α⃗` with
    /// `q⃗ = Σ αᵢ·v⃗ᵢ`, i.e. `q(D) = Π vᵢ(D)^{αᵢ}` whenever no `vᵢ(D)` is zero
    /// (Lemma 31 (⇐), Example 32).
    pub coefficients: Option<QVec>,
}

impl BagDeterminacy {
    /// The dimension `k = |W|` of the basis.
    pub fn basis_size(&self) -> usize {
        self.basis.len()
    }

    /// Human-readable rendition of the rewriting `q(D) = Π vᵢ(D)^{αᵢ}` when
    /// the instance is determined (and `None` otherwise).
    pub fn rewriting(&self, views: &[ConjunctiveQuery]) -> Option<String> {
        let coeffs = self.coefficients.as_ref()?;
        let mut parts = Vec::new();
        for (pos, &vi) in self.retained_views.iter().enumerate() {
            let c = &coeffs[pos];
            if c.is_zero() {
                continue;
            }
            parts.push(format!("{}(D)^({})", views[vi].name(), c));
        }
        if parts.is_empty() {
            Some("q(D) = 1".to_string())
        } else {
            Some(format!("q(D) = {}", parts.join(" · ")))
        }
    }
}

fn vector_of(basis: &BasisIndex, comps: &[Structure]) -> Result<QVec, DeterminacyError> {
    // Every component of a query in V' is isomorphic to a basis element by
    // construction (Definition 27); a miss here is a pipeline bug, surfaced
    // as a typed error so a serving process keeps running.
    let mult = basis.vector(comps).ok_or_else(|| {
        DeterminacyError::Internal(
            "a connected component matched no basis element (Definition 27 violated)".into(),
        )
    })?;
    Ok(QVec(
        mult.into_iter().map(|m| Rat::from_i64(m as i64)).collect(),
    ))
}

/// Decide whether `views ⟶_bag query` for boolean conjunctive queries
/// (Theorem 3).
///
/// Returns the decision together with the full analysis ([`BagDeterminacy`]).
///
/// One-shot wrapper around [`decide_bag_determinacy_in`] with a fresh
/// [`DecisionContext`], no deadline and no fuel limit; batch callers deciding
/// many related instances should create one context (or a `cqdet-engine`
/// session) and reuse it, so frozen bodies, canonical keys and containment
/// gates are shared across calls.
pub fn decide_bag_determinacy(
    views: &[ConjunctiveQuery],
    query: &ConjunctiveQuery,
) -> Result<BagDeterminacy, DeterminacyError> {
    decide_bag_determinacy_in(
        &DecisionContext::new(),
        views,
        query,
        &CancelToken::none(),
        &Budget::none(),
    )
}

/// [`decide_bag_determinacy`] against session-owned caches, under a
/// request's deadline and fuel budget.
///
/// * **Caches.**  Every isomorphism-invariant intermediate — frozen bodies,
///   canonical keys, connected components, `q ⊆_set v` gates — is looked up
///   in (and fills) `cx`, so a batch of tasks sharing views pays for each
///   class once.  The span system is solved per call.
/// * **Deadline.**  `ctl` is checked at every pipeline stage boundary
///   (gate → basis → span) and polled inside the kernels; a request whose
///   deadline passes stops with [`DeterminacyError::DeadlineExceeded`].
/// * **Fuel.**  The hot kernels (hom searches in the gate stage, exact
///   elimination in the span stage) charge `budget`'s shared step and byte
///   ledgers and stop with [`DeterminacyError::ResourceExhausted`] within
///   ~4k steps of the limit — microseconds, not stage boundaries.
///
/// Gate searches completed before a stop stay in the session caches, so a
/// retry (with a later deadline or a larger budget) does not repeat them.
/// Pass [`CancelToken::none`] and [`Budget::none`] for an unbounded run.
pub fn decide_bag_determinacy_in(
    cx: &DecisionContext,
    views: &[ConjunctiveQuery],
    query: &ConjunctiveQuery,
    ctl: &CancelToken,
    budget: &Budget,
) -> Result<BagDeterminacy, DeterminacyError> {
    let prep = prepare_frozen(cx, &freeze(cx, views, query)?, ctl, budget)?;

    // Step 4: the Main Lemma's span test.  Duplicate columns do not change a
    // span, so the system is solved over one vector per class, on a
    // call-local incremental echelon form: vectors are inserted one at a
    // time with early exit once q⃗ enters the span.
    //
    // A query-only basis element (position ≥ prefix_dim) short-circuits the
    // system: q⃗ has multiplicity ≥ 1 there while every view vector is 0, so
    // q⃗ cannot be in the span.
    ctl.check("span")?;
    fail_point!("decide/span", |msg| Err(DeterminacyError::Internal(msg)));
    let class_vectors = prep.class_vectors()?;
    let class_coefficients = if class_vectors.is_empty() {
        prep.query_vector.is_zero().then(|| QVec(Vec::new()))
    } else if !prep.covered() {
        debug_assert!(
            (prep.prefix_dim..prep.basis.len()).all(|j| !prep.query_vector[j].is_zero()),
            "tail basis elements exist only because q contributed them"
        );
        None
    } else {
        let mut basis = IncrementalBasis::new(prep.query_vector.dim());
        let mut gas = Gas::new(ctl, budget, "span");
        basis
            .solve_extend_gas(&prep.query_vector, &class_vectors, &mut gas)?
            .map(|alpha| {
                // Generators past the early exit were never fed: zero.
                let mut out = alpha.0;
                out.resize(class_vectors.len(), Rat::zero());
                QVec(out)
            })
    };
    Ok(finish(prep, class_vectors, class_coefficients))
}

/// Everything the Theorem 3 pipeline computes *before* the span test:
/// class interning, the Definition 25 gate, the Definition 27 basis and the
/// index the Definition 29 vectors are read from.  Shared between the
/// one-shot decision above and the mutable-session redecide path
/// ([`crate::delta::MutableSession`]), which substitutes its own long-lived
/// echelon for the call-local one — both paths scatter coefficients through
/// [`finish`], so their certificates agree byte for byte by construction.
pub(crate) struct Prepared {
    pub(crate) schema: Schema,
    /// Indices (into the input slice) of the retained views.
    pub(crate) retained_views: Vec<usize>,
    /// The Definition 27 basis in first-occurrence order (view-contributed
    /// prefix first).
    pub(crate) basis: Vec<Structure>,
    /// Length of the view-contributed basis prefix.
    pub(crate) prefix_dim: usize,
    pub(crate) query_vector: QVec,
    /// The basis, indexed by canonical key: a class's Definition 29 vector
    /// is read off its components on demand ([`Prepared::class_vector`]).
    basis_index: BasisIndex,
    /// The frozen body of each retained class's first view, pipeline order.
    class_reps: Vec<Arc<FrozenQuery>>,
    /// Session-wide class ids of the retained classes, same order as
    /// `class_reps` — the generator-slot layout of a session echelon.
    pub(crate) retained_class_ids: Vec<u32>,
    /// Per input view: its call-local class index.
    pub(crate) class_of: Vec<usize>,
    /// Per call-local class: its position among the retained classes
    /// (`usize::MAX` when the class was not retained).
    pub(crate) retained_pos: Vec<usize>,
}

impl Prepared {
    /// The Definition 29 vector of the `p`-th retained class — a generator
    /// of the span system.
    pub(crate) fn class_vector(&self, p: usize) -> Result<QVec, DeterminacyError> {
        vector_of(&self.basis_index, self.class_reps[p].components())
    }

    /// Every retained class's vector, pipeline order.  A session mutation
    /// that only appends generators reads just the new ones instead.
    pub(crate) fn class_vectors(&self) -> Result<Vec<QVec>, DeterminacyError> {
        (0..self.class_reps.len())
            .map(|p| self.class_vector(p))
            .collect()
    }

    /// Whether every basis element is view-contributed (no query-only tail):
    /// only then does the span system run; otherwise q⃗ is trivially outside.
    pub(crate) fn covered(&self) -> bool {
        self.basis.len() == self.prefix_dim
    }

    /// Session-wide class ids of the basis elements in coordinate order —
    /// the coordinate layout of a session echelon.  Only meaningful to
    /// compute when the span system will actually run.
    pub(crate) fn coord_class_ids(&self, cx: &DecisionContext) -> Vec<u32> {
        self.basis
            .iter()
            .map(|w| cx.class_id(&w.iso_class_key()))
            .collect()
    }
}

/// The frozen side of an instance: the common schema and one frozen body
/// per query, from the context's cache.  The one-shot decide builds it per
/// call ([`freeze`]); a mutable session holds it across operations and
/// re-freezes only what an operation changes ([`crate::delta`]).
#[derive(Clone)]
pub(crate) struct Frozen {
    pub(crate) schema: Schema,
    pub(crate) query: Arc<FrozenQuery>,
    /// One frozen body per view, in view order.
    pub(crate) views: Vec<Arc<FrozenQuery>>,
}

/// The common schema of `views` and `query`, after checking the
/// preconditions of Theorem 3: every query boolean, every relation used
/// with one arity, none of them nullary.
pub(crate) fn checked_schema(
    views: &[ConjunctiveQuery],
    query: &ConjunctiveQuery,
) -> Result<Schema, DeterminacyError> {
    if !query.is_boolean() {
        return Err(DeterminacyError::QueryNotBoolean(query.name().to_string()));
    }
    for v in views {
        if !v.is_boolean() {
            return Err(DeterminacyError::ViewNotBoolean(v.name().to_string()));
        }
    }
    let all: Vec<&ConjunctiveQuery> = views.iter().chain(std::iter::once(query)).collect();
    let schema = common_schema(&all).map_err(DeterminacyError::ConflictingArity)?;
    for (rel, arity) in schema.relations() {
        if arity == 0 {
            return Err(DeterminacyError::NullaryRelation(rel.to_string()));
        }
    }
    Ok(schema)
}

/// Stage 0 of the pipeline: validate, then freeze every query exactly once
/// over the common schema — or reuse the context's frozen copy when an
/// earlier call already did.  Freezing decomposes and canonizes each body
/// in one pass; all later stages read the frozen entries.
pub(crate) fn freeze(
    cx: &DecisionContext,
    views: &[ConjunctiveQuery],
    query: &ConjunctiveQuery,
) -> Result<Frozen, DeterminacyError> {
    let schema = checked_schema(views, query)?;
    Ok(freeze_over(cx, schema, views, query))
}

/// [`freeze`] over an already checked schema: a warm call only probes the
/// context's cache, and a cold one freezes its misses in one batch
/// ([`DecisionContext::frozen_all`]).
pub(crate) fn freeze_over(
    cx: &DecisionContext,
    schema: Schema,
    views: &[ConjunctiveQuery],
    query: &ConjunctiveQuery,
) -> Frozen {
    let all: Vec<&ConjunctiveQuery> = std::iter::once(query).chain(views).collect();
    let mut views = cx.frozen_all(&schema, &all);
    let query = views.remove(0);
    Frozen {
        schema,
        query,
        views,
    }
}

/// Stages 1–3 of the pipeline (see [`Prepared`]) over frozen bodies; the
/// caller supplies the span verdict and scatters it through [`finish`].
pub(crate) fn prepare_frozen(
    cx: &DecisionContext,
    frozen: &Frozen,
    ctl: &CancelToken,
    budget: &Budget,
) -> Result<Prepared, DeterminacyError> {
    let Frozen {
        schema,
        query: q_frozen,
        views: view_frozen,
    } = frozen;

    // Intern the frozen bodies by isomorphism class: every remaining
    // per-view quantity (the ⊆_set gate, the component decomposition, the
    // multiplicity vector) is isomorphism-invariant, so it is computed once
    // per class and shared by all views of the class.  Classes are named by
    // the session-wide table (`DecisionContext::class_id`), then compressed
    // to call-local indices; canonization itself happened (in parallel, or
    // in an earlier call) when the frozen entries were constructed.
    let mut class_of: Vec<usize> = Vec::with_capacity(view_frozen.len());
    let mut reps: Vec<usize> = Vec::new(); // class → first view with that body
    let mut class_session_ids: Vec<u32> = Vec::new(); // class → session-wide id
    let mut intern: HashMap<u32, usize> = HashMap::new();
    for (i, frozen) in view_frozen.iter().enumerate() {
        let session_id = cx.class_id(frozen.iso_key());
        let next = reps.len();
        let c = *intern.entry(session_id).or_insert(next);
        if c == next {
            reps.push(i);
            class_session_ids.push(session_id);
        }
        class_of.push(c);
    }

    // Step 1: V = {v ∈ V₀ | q ⊆_set v}  (Definition 25):
    // q ⊆_set v  iff  hom(v, q) ≠ ∅ — one verdict per (class, query class),
    // cached across the session.
    ctl.check("gate")?;
    fail_point!("decide/gate", |msg| Err(DeterminacyError::Internal(msg)));
    let rep_frozen: Vec<&FrozenQuery> = reps.iter().map(|&i| &*view_frozen[i]).collect();
    // Verdicts are probed first; each miss is then settled by its component
    // keys where they suffice, by hom searches of the other components
    // otherwise.  One gas handle meters every search of the call against
    // the request budget.
    let mut class_retained: Vec<bool> = Vec::with_capacity(reps.len());
    let mut misses: Vec<usize> = Vec::new();
    for (c, f) in rep_frozen.iter().enumerate() {
        class_retained.push(cx.gate_cached(f, q_frozen).unwrap_or_else(|| {
            misses.push(c);
            false
        }));
    }
    if !misses.is_empty() {
        let gate_query = GateQuery::new(q_frozen);
        let mut gas = Gas::new(ctl, budget, "gate");
        for c in misses {
            class_retained[c] = cx.gate_search(rep_frozen[c], &gate_query, &mut gas)?;
        }
    }
    let retained_views: Vec<usize> = (0..view_frozen.len())
        .filter(|&i| class_retained[class_of[i]])
        .collect();
    let retained_classes: Vec<usize> = (0..reps.len()).filter(|&c| class_retained[c]).collect();

    // Step 2: the basis W (Definition 27) over V' = V ∪ {q}, from the
    // connected components of each class — decomposed and canonized once
    // per session, when the shared `FrozenQuery` entry was built.  The
    // de-duplication by canonical key ([`cqdet_structure::dedup_up_to_iso`]'s
    // exact first-occurrence semantics) clones only the basis members; the
    // clones share the installed keys with their originals (and with every
    // other task holding the same frozen entries), so the multiplicity
    // vectors below are pure hash lookups.
    ctl.check("basis")?;
    fail_point!("decide/basis", |msg| Err(DeterminacyError::Internal(msg)));
    let class_comps: Vec<&[Structure]> = retained_classes
        .iter()
        .map(|&c| rep_frozen[c].components())
        .collect();
    let q_comps = q_frozen.components();
    // First-occurrence order lists every view-contributed basis element
    // before any query-only one: the first `prefix_dim` elements (the
    // *prefix basis*) are exactly the classes of the retained views'
    // components, so they — and the view vectors over them — are
    // independent of the query.  That is what makes the span system
    // shareable across tasks below.  One dedup pass builds both: the
    // prefix length is recorded after the view components, then the query
    // components extend the same first-occurrence scan.
    let (basis, prefix_dim) = {
        let view_refs = dedup_up_to_iso(class_comps.iter().flat_map(|c| c.iter()));
        let prefix_dim = view_refs.len();
        let refs = dedup_up_to_iso(view_refs.into_iter().chain(q_comps.iter()));
        let basis: Vec<Structure> = refs.into_iter().cloned().collect();
        (basis, prefix_dim)
    };

    // Step 3: vector representations (Definition 29), via a canonical-key
    // index over the basis built exactly once.  The query's vector is read
    // here; the classes' vectors are read on demand by whoever needs them.
    let basis_index = BasisIndex::new(&basis);
    let query_vector = vector_of(&basis_index, q_comps)?;
    let mut retained_pos = vec![usize::MAX; reps.len()]; // class → retained position
    for (p, &c) in retained_classes.iter().enumerate() {
        retained_pos[c] = p;
    }
    let class_reps: Vec<Arc<FrozenQuery>> = retained_classes
        .iter()
        .map(|&c| view_frozen[reps[c]].clone())
        .collect();

    let retained_class_ids: Vec<u32> = retained_classes
        .iter()
        .map(|&c| class_session_ids[c])
        .collect();
    Ok(Prepared {
        schema: schema.clone(),
        retained_views,
        basis,
        prefix_dim,
        query_vector,
        basis_index,
        class_reps,
        retained_class_ids,
        class_of,
        retained_pos,
    })
}

/// Scatter the span verdict over the retained views and assemble the final
/// analysis.  `class_vectors` are [`Prepared::class_vectors`], and
/// `class_coefficients` is the solution over them (or `None` when q⃗ is
/// outside the span); each class coefficient lands on the first retained
/// view of its class, the other members get 0 (any distribution over equal
/// vectors realises the same combination).
pub(crate) fn finish(
    prep: Prepared,
    class_vectors: Vec<QVec>,
    class_coefficients: Option<QVec>,
) -> BagDeterminacy {
    let Prepared {
        schema,
        retained_views,
        basis,
        query_vector,
        class_of,
        retained_pos,
        ..
    } = prep;
    // A retained view's vector is its class's.  With one retained view per
    // retained class, both run in first-occurrence order, so the class
    // vectors are the view vectors as they stand.
    let view_vectors: Vec<QVec> = if retained_views.len() == class_vectors.len() {
        debug_assert!(retained_views
            .iter()
            .enumerate()
            .all(|(p, &i)| retained_pos[class_of[i]] == p));
        class_vectors
    } else {
        retained_views
            .iter()
            .map(|&i| class_vectors[retained_pos[class_of[i]]].clone())
            .collect()
    };
    let determined = class_coefficients.is_some();
    let coefficients = class_coefficients.map(|cc| {
        let mut out = vec![Rat::zero(); retained_views.len()];
        let mut placed = vec![false; retained_pos.len()];
        for (pos, &i) in retained_views.iter().enumerate() {
            let c = class_of[i];
            if !placed[c] {
                placed[c] = true;
                out[pos] = cc[retained_pos[c]].clone();
            }
        }
        QVec(out)
    });

    BagDeterminacy {
        determined,
        schema,
        retained_views,
        basis,
        query_vector,
        view_vectors,
        coefficients,
    }
}

/// Corollary 33: if all queries involved are *connected*, the only non-trivial
/// way to be determined is to literally contain (a query set-isomorphic to)
/// `q` among the views.
///
/// This is a convenience wrapper around [`decide_bag_determinacy`] that also
/// reports whether the corollary's hypothesis applies.
pub fn connected_case(
    views: &[ConjunctiveQuery],
    query: &ConjunctiveQuery,
) -> Result<(bool, bool), DeterminacyError> {
    // Decide first: it rejects the arity conflicts `is_connected` panics on.
    let result = decide_bag_determinacy(views, query)?;
    let all_connected = query.is_connected() && views.iter().all(|v| v.is_connected());
    Ok((all_connected, result.determined))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqdet_query::cq::Atom;

    fn atom(rel: &str, vars: &[&str]) -> Atom {
        Atom::new(rel, vars)
    }

    fn edge(name: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::boolean(name, vec![atom("R", &["x", "y"])])
    }

    fn two_path(name: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::boolean(name, vec![atom("R", &["x", "y"]), atom("R", &["y", "z"])])
    }

    /// Decide against `cx`, unbounded.
    fn decide_in(
        cx: &DecisionContext,
        views: &[ConjunctiveQuery],
        query: &ConjunctiveQuery,
    ) -> BagDeterminacy {
        decide_bag_determinacy_in(cx, views, query, &CancelToken::none(), &Budget::none()).unwrap()
    }

    #[test]
    fn query_among_views_is_determined() {
        let q = edge("q");
        let v = edge("v");
        let res = decide_bag_determinacy(&[v], &q).unwrap();
        assert!(res.determined);
        assert_eq!(res.retained_views, vec![0]);
        assert_eq!(res.basis_size(), 1);
        assert_eq!(res.coefficients.as_ref().unwrap()[0], Rat::one());
    }

    #[test]
    fn single_different_connected_view_does_not_determine() {
        // Corollary 33: connected views determine a connected q only if q ∈ V₀.
        let q = edge("q");
        let v = two_path("v");
        let res = decide_bag_determinacy(std::slice::from_ref(&v), &q).unwrap();
        assert!(!res.determined);
        let (hypothesis, determined) = connected_case(&[v], &q).unwrap();
        assert!(hypothesis);
        assert!(!determined);
    }

    #[test]
    fn example_32_style_span_instance() {
        // q  = w1 + w2 + 2*w3, v1 = 2*w1 + w2 + 3*w3, v2 = 5*w1 + 2*w2 + 7*w3
        // with w1 = R-edge, w2 = R-loop, w3 = 2-path; q⃗ = 3·v⃗1 − v⃗2.
        fn raw(rel: &str, a: String, b: String) -> Atom {
            Atom {
                relation: rel.to_string(),
                vars: vec![a, b],
            }
        }
        fn copies(template: &[(&str, usize)], tag: &str) -> Vec<Atom> {
            // template entries: ("edge"|"loop"|"path2", count)
            let mut atoms = Vec::new();
            for (kind, count) in template {
                for i in 0..*count {
                    match *kind {
                        "edge" => {
                            atoms.push(raw("R", format!("{tag}e{i}x"), format!("{tag}e{i}y")))
                        }
                        "loop" => atoms.push(raw("R", format!("{tag}l{i}"), format!("{tag}l{i}"))),
                        "path2" => {
                            atoms.push(raw("R", format!("{tag}p{i}x"), format!("{tag}p{i}y")));
                            atoms.push(raw("R", format!("{tag}p{i}y"), format!("{tag}p{i}z")));
                        }
                        _ => unreachable!(),
                    }
                }
            }
            atoms
        }
        let q =
            ConjunctiveQuery::boolean("q", copies(&[("edge", 1), ("loop", 1), ("path2", 2)], "q"));
        let v1 = ConjunctiveQuery::boolean(
            "v1",
            copies(&[("edge", 2), ("loop", 1), ("path2", 3)], "v1"),
        );
        let v2 = ConjunctiveQuery::boolean(
            "v2",
            copies(&[("edge", 5), ("loop", 2), ("path2", 7)], "v2"),
        );
        let res = decide_bag_determinacy(&[v1, v2], &q).unwrap();
        assert!(res.determined, "q⃗ = 3·v⃗1 − v⃗2 is in the span");
        assert_eq!(res.basis_size(), 3);
        let coeffs = res.coefficients.clone().unwrap();
        assert_eq!(coeffs[0], Rat::from_i64(3));
        assert_eq!(coeffs[1], Rat::from_i64(-1));
        assert!(res
            .rewriting(&[edge("v1"), edge("v2")])
            .unwrap()
            .contains("v1(D)^(3)"));
    }

    #[test]
    fn views_not_containing_q_are_dropped() {
        // v uses a different relation S, so q ⊄_set v and v is dropped; the
        // remaining (empty) view set cannot determine q.
        let q = edge("q");
        let v = ConjunctiveQuery::boolean("v", vec![atom("S", &["x", "y"])]);
        let res = decide_bag_determinacy(&[v], &q).unwrap();
        assert!(res.retained_views.is_empty());
        assert!(!res.determined);
    }

    #[test]
    fn example_42_shape_instance_not_determined() {
        // The shape of Example 42: q = w1, V₀ = {w2}, where w1 ⊆_set w2, both
        // are connected and non-isomorphic.  Then W = {w1, w2}, V = V₀, and
        // q⃗ = (1,0) ∉ span{(0,1)} — not determined (the Main Lemma), even
        // though every structure satisfying q satisfies the view.
        let w1 = ConjunctiveQuery::boolean(
            "w1",
            vec![atom("Red", &["a", "b"]), atom("Green", &["b", "b"])],
        );
        let w2 = ConjunctiveQuery::boolean(
            "w2",
            vec![
                atom("Red", &["a", "b"]),
                atom("Green", &["b", "b"]),
                atom("Green", &["b", "c"]),
            ],
        );
        let res = decide_bag_determinacy(&[w2], &w1).unwrap();
        assert_eq!(res.retained_views, vec![0], "w1 ⊆_set w2");
        assert_eq!(res.basis_size(), 2);
        assert!(!res.determined);
    }

    #[test]
    fn multiple_views_spanning() {
        // q = 2 disjoint edges; v1 = edge; determined: q⃗ = 2·v⃗1.
        let q =
            ConjunctiveQuery::boolean("q", vec![atom("R", &["x", "y"]), atom("R", &["z", "w"])]);
        let v1 = edge("v1");
        let res = decide_bag_determinacy(&[v1], &q).unwrap();
        assert!(res.determined);
        assert_eq!(res.coefficients.as_ref().unwrap()[0], Rat::from_i64(2));
    }

    #[test]
    fn errors_for_non_boolean_and_nullary() {
        let unary = ConjunctiveQuery::new("u", &["x"], vec![atom("R", &["x", "y"])]);
        let q = edge("q");
        assert!(matches!(
            decide_bag_determinacy(&[], &unary),
            Err(DeterminacyError::QueryNotBoolean(_))
        ));
        assert!(matches!(
            decide_bag_determinacy(&[unary], &q),
            Err(DeterminacyError::ViewNotBoolean(_))
        ));
        let nullary = ConjunctiveQuery::boolean("n", vec![Atom::new("H", &[])]);
        let err = decide_bag_determinacy(&[nullary], &q).unwrap_err();
        assert!(matches!(err, DeterminacyError::NullaryRelation(_)));
        assert!(err.to_string().contains("arity 0"));
    }

    #[test]
    fn empty_view_set() {
        let q = edge("q");
        let res = decide_bag_determinacy(&[], &q).unwrap();
        assert!(!res.determined);
        assert!(res.retained_views.is_empty());
        assert_eq!(res.basis_size(), 1);
    }

    /// A decide against a shared context must answer exactly as a one-shot
    /// decide of the same instance on a fresh context does.
    fn assert_one_shot(res: &BagDeterminacy, views: &[ConjunctiveQuery], q: &ConjunctiveQuery) {
        let fresh = decide_bag_determinacy(views, q).unwrap();
        assert_eq!(res.determined, fresh.determined);
        assert_eq!(res.retained_views, fresh.retained_views);
        assert_eq!(res.query_vector, fresh.query_vector);
        assert_eq!(res.view_vectors, fresh.view_vectors);
        assert_eq!(res.coefficients, fresh.coefficients);
    }

    #[test]
    fn shared_view_tasks_agree_with_one_shot_decides() {
        // Tasks over the same views share frozen bodies and gate verdicts
        // in one context; each still solves its own span system, so every
        // answer — coefficients included — is the one-shot answer.
        let cx = DecisionContext::new();
        let views = [edge("v1"), two_path("v2")];
        // Both queries contain an edge and a 2-path component, so both
        // retain both views.
        let q1 = ConjunctiveQuery::boolean(
            "q1",
            vec![
                atom("R", &["x", "y"]),
                atom("R", &["a", "b"]),
                atom("R", &["b", "c"]),
            ],
        );
        let q2 = ConjunctiveQuery::boolean(
            "q2",
            vec![
                atom("R", &["x", "y"]),
                atom("R", &["z", "w"]),
                atom("R", &["a", "b"]),
                atom("R", &["b", "c"]),
            ],
        );
        let r1 = decide_in(&cx, &views, &q1);
        assert!(r1.determined);
        assert_one_shot(&r1, &views, &q1);
        let r2 = decide_in(&cx, &views, &q2);
        assert!(r2.determined);
        assert_one_shot(&r2, &views, &q2);
        // Same instance again: the same answer.
        let r1b = decide_in(&cx, &views, &q1);
        assert_one_shot(&r1b, &views, &q1);
        assert!(cx.stats().gate_hits > 0, "shared views reuse gate verdicts");
        // A different view pool in the same context.
        let other = [two_path("w")];
        let r3 = decide_in(&cx, &other, &two_path("q"));
        assert_one_shot(&r3, &other, &two_path("q"));
    }

    #[test]
    fn permuted_isomorphic_bodies_decide_alike_in_one_context() {
        // Two isomorphic view bodies written with different atom orders
        // share a session class id but can enumerate their connected
        // components — and hence the basis prefix coordinates — in
        // different orders.  Deciding one after the other in the same
        // context must not mix the two coordinate systems (regression: a
        // permuted reuse of a cached echelon returned `determined = false`
        // for a query identical to its own view).
        let cx = DecisionContext::new();
        let edge_first = vec![
            atom("R", &["x", "y"]),
            atom("R", &["z", "w"]),
            atom("R", &["l", "l"]),
        ];
        let loop_first = vec![
            atom("R", &["l", "l"]),
            atom("R", &["a", "b"]),
            atom("R", &["c", "d"]),
        ];
        let v1 = ConjunctiveQuery::boolean("v1", edge_first.clone());
        let q1 = ConjunctiveQuery::boolean("q1", edge_first);
        let r1 = decide_in(&cx, std::slice::from_ref(&v1), &q1);
        assert!(r1.determined, "a query equal to its view is determined");
        assert_one_shot(&r1, &[v1], &q1);
        let v2 = ConjunctiveQuery::boolean("v2", loop_first.clone());
        let q2 = ConjunctiveQuery::boolean("q2", loop_first);
        let r2 = decide_in(&cx, std::slice::from_ref(&v2), &q2);
        assert!(r2.determined, "isomorphic instance decided alike");
        assert_eq!(r2.coefficients.as_ref().unwrap()[0], Rat::one());
        assert_one_shot(&r2, &[v2], &q2);
    }

    #[test]
    fn query_only_basis_elements_short_circuit_the_span() {
        // The query has a component (an R-loop) no view shares: the span
        // test rejects without running the elimination.
        let cx = DecisionContext::new();
        let views = [edge("v")];
        let q =
            ConjunctiveQuery::boolean("q", vec![atom("R", &["x", "y"]), atom("R", &["l", "l"])]);
        let res = decide_in(&cx, &views, &q);
        assert!(!res.determined);
        assert_eq!(res.basis_size(), 2);
        assert_one_shot(&res, &views, &q);
    }

    #[test]
    fn tiny_fuel_budget_stops_typed_and_caches_stay_usable() {
        // hom(K8, K7) is empty (no proper 7-colouring of K8) but the
        // backtracking search visits >10k candidate extensions before it can
        // say so — plenty to trip a tiny step budget inside the gate stage.
        fn clique(name: &str, n: usize) -> ConjunctiveQuery {
            let mut atoms = Vec::new();
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        atoms.push(Atom {
                            relation: "R".to_string(),
                            vars: vec![format!("x{i}"), format!("x{j}")],
                        });
                    }
                }
            }
            ConjunctiveQuery::boolean(name, atoms)
        }
        let cx = DecisionContext::new();
        let v = clique("v", 8);
        let q = clique("q", 7);
        let tiny = Budget::with_limits(Some(64), None);
        let err = decide_bag_determinacy_in(
            &cx,
            std::slice::from_ref(&v),
            &q,
            &CancelToken::none(),
            &tiny,
        )
        .unwrap_err();
        match err {
            DeterminacyError::ResourceExhausted { what, spent, limit } => {
                assert_eq!(what, "steps");
                assert_eq!(limit, 64);
                assert!(spent >= limit, "{spent} charged against limit {limit}");
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
        // The interrupted search must not have poisoned the session caches:
        // the same context completes the instance unmetered...
        let res = decide_in(&cx, std::slice::from_ref(&v), &q);
        assert!(res.retained_views.is_empty(), "hom(K8, K7) is empty");
        assert!(!res.determined);
        // ...and a generous budget on a fresh context matches the unbudgeted
        // answer while actually charging fuel.
        let cx2 = DecisionContext::new();
        let generous = Budget::with_limits(Some(100_000_000), None);
        let res2 = decide_bag_determinacy_in(
            &cx2,
            std::slice::from_ref(&v),
            &q,
            &CancelToken::none(),
            &generous,
        )
        .unwrap();
        assert_eq!(res2.determined, res.determined);
        assert_eq!(res2.retained_views, res.retained_views);
        assert!(generous.steps_spent() > 0, "the gate search charged fuel");
    }

    #[test]
    fn bag_determinacy_implies_set_but_not_conversely_example_2_boolean_variant() {
        // Boolean analogue of Example 2's phenomenon: V determines q under set
        // semantics (q ⊨ both views and their "join" recovers q's satisfaction
        // on the canonical structures) but not under bag semantics.
        let q = ConjunctiveQuery::boolean(
            "q",
            vec![
                atom("P", &["u", "x"]),
                atom("R", &["x", "y"]),
                atom("S", &["y", "z"]),
            ],
        );
        let v1 =
            ConjunctiveQuery::boolean("v1", vec![atom("P", &["u", "x"]), atom("R", &["x", "y"])]);
        let v2 =
            ConjunctiveQuery::boolean("v2", vec![atom("R", &["x", "y"]), atom("S", &["y", "z"])]);
        let res = decide_bag_determinacy(&[v1, v2], &q).unwrap();
        // Both views are retained (q ⊆_set v1, v2) and the three queries are
        // connected and pairwise non-isomorphic, so by Corollary 33 the answer
        // is "not determined".
        assert_eq!(res.retained_views, vec![0, 1]);
        assert!(!res.determined);
    }
}
