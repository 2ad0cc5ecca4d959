//! Mutable decision sessions: incremental view-set deltas with online basis
//! repair.
//!
//! The one-shot pipeline ([`crate::decide_bag_determinacy_in`]) rebuilds the
//! Definition 27 basis from scratch on every call, even though the span
//! system is an online echelon ([`cqdet_linalg::IncrementalBasis`]) and the
//! common client loop is *iterated what-if probing*: add a view, drop a
//! view, re-ask.  A [`MutableSession`] keeps the whole decision state alive
//! across such mutations:
//!
//! * the session holds the common schema and one frozen body per view and
//!   for the query (`Arc` handles into the [`DecisionContext`]'s frozen
//!   cache, each decomposed and canonized once), committed together with
//!   the view list; the per-class quantities derived from them — gate
//!   verdicts, interned class ids — live in the shared context;
//! * the span echelon lives in a session-owned
//!   [`cqdet_linalg::CheckpointedBasis`]: `view_add` **extends it in
//!   place** (one metered insert per new retained class), `view_remove`
//!   repairs it by coordinate compaction when the removed generator slots
//!   were dependent, and falls back to **checkpointed prefix replay**
//!   otherwise (snapshots every K fed generators, K tunable);
//! * `redecide` then reduces just the current query vector against the live
//!   rows and produces a [`BagDeterminacy`] **byte-identical** to a fresh
//!   one-shot decide on the same view set: both paths run the shared
//!   `prepare_frozen`/`finish` stages of [`crate::boolean`], and a
//!   fully reduced (Gauss–Jordan) echelon yields the same coefficients
//!   whether its generators were fed eagerly (here) or lazily with early
//!   exit (the one-shot decide's call-local echelon).
//!
//! # What an operation costs
//!
//! With `n` views and `k` basis elements:
//!
//! * **Validation and schema.**  Every mutation checks that the new view
//!   set is boolean and recomputes its common schema — one fold over each
//!   query's relations (cached per query), not over its atoms.
//! * **Freezing.**  While the schema is unchanged, `view_add` freezes the
//!   added view only (one fingerprint and cache probe, or one freeze on a
//!   miss) and `view_remove` freezes nothing; `redecide` never freezes.  A
//!   mutation that changes the schema (a view over a new relation, or the
//!   removal of a relation's last user) re-freezes every query over the
//!   new schema through the context's cache, fanning out over the misses.
//! * **Gate, basis, layout.**  Every operation re-runs the Definition 25
//!   gate, the Definition 27 basis and the layout over all `n` views, but
//!   only as hash probes: one class-table probe and one gate-verdict probe
//!   per view (a search only for a class the cache has not seen), one
//!   canonical-key probe per component.
//! * **Vectors.**  A mutation reads the Definition 29 vector of each *new*
//!   generator only; `redecide` reads all `n` (the record carries them).
//! * **Echelon.**  One metered insert per new retained class, a column
//!   compaction or a replay from the newest checkpoint per removed one, and
//!   one `O(rank · k)` reduction of the query vector per `redecide`.
//! * **Byte cost.**  [`MutableSession::heap_bytes`] is re-measured only
//!   when an operation changed the echelon or the frozen handles, and each
//!   checkpoint carries its own figure, so the walk covers the live rows
//!   and generators only.
//!
//! # Layout reconciliation
//!
//! A mutation changes the canonical generator-slot order (retained classes,
//! first-occurrence over views) and coordinate order (basis components,
//! first-occurrence over views).  The session repairs in place exactly when
//! the new layout is the old one **minus removed entries plus appended
//! ones** — the shape every single `view_add`/`view_remove` produces unless
//! a class's first occurrence migrates between surviving views.  Any other
//! transition (a reorder) rebuilds the echelon from scratch, fuel-charged;
//! correctness never depends on the repair path taken.
//!
//! # Interrupt and panic semantics
//!
//! Mutations follow a take/commit discipline: the span state is taken out
//! of the session before any mutable work, and the view list and its
//! frozen bodies are updated together, only as the final commit step.  A panic mid-mutation therefore leaves
//! the session **fully rolled back** (old views, state rebuilt on demand);
//! a fuel/deadline interrupt surfaces as a typed [`DeterminacyError`] with
//! the view list unchanged and the state dropped — the session stays
//! usable, the next operation simply rebuilds.  A `redecide` interrupt
//! keeps the (consistent, resumable) echelon, so a retry with a larger
//! budget resumes rather than restarts.

use crate::boolean::{
    checked_schema, finish, freeze, freeze_over, prepare_frozen, BagDeterminacy, DeterminacyError,
    Frozen, Prepared,
};
use crate::session::{DecisionContext, FrozenQuery};
use cqdet_failpoint::fail_point;
use cqdet_linalg::{CheckpointedBasis, QVec, RemovalKind};
use cqdet_parallel::{Budget, CancelToken, Gas};
use cqdet_query::ConjunctiveQuery;
use cqdet_structure::Schema;
use std::sync::Arc;

/// Default checkpoint cadence: snapshot the echelon every K fed generators.
pub const DEFAULT_CHECKPOINT_INTERVAL: usize = 8;

/// Per-session operation counters (reported on the wire `stats`/`explain`
/// surfaces by the serving layer).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaCounters {
    /// Completed `view_add` mutations.
    pub adds: u64,
    /// Completed `view_remove` mutations.
    pub removes: u64,
    /// Completed `redecide` calls.
    pub redecides: u64,
    /// Removals repaired by coordinate compaction (no re-elimination).
    pub fast_removals: u64,
    /// Removals repaired by checkpointed prefix replay.
    pub replays: u64,
    /// Echelon rebuilds from scratch (layout reorders, post-error repairs).
    pub rebuilds: u64,
}

/// The session-owned span echelon plus the layout it is expressed over.
struct SpanState {
    /// Session-wide class ids of the generator slots, pipeline order —
    /// must equal [`crate::boolean::Prepared::retained_class_ids`] before
    /// the echelon is consulted.
    slot_ids: Vec<u32>,
    /// Session-wide class ids of the coordinates, basis order.
    coord_ids: Vec<u32>,
    basis: CheckpointedBasis,
}

/// A first-class mutable decision session; see the [module docs](self).
pub struct MutableSession {
    views: Vec<ConjunctiveQuery>,
    query: ConjunctiveQuery,
    /// The schema and frozen bodies of `views` and `query`, committed
    /// together with `views`.
    frozen: Frozen,
    state: Option<SpanState>,
    interval: usize,
    counters: DeltaCounters,
    /// [`MutableSession::heap_bytes`], re-measured only by operations that
    /// changed the echelon or the frozen handles.
    bytes: usize,
}

impl MutableSession {
    /// Open a session over an initial view set and a fixed query.  Validates
    /// the same preconditions as a one-shot decide (boolean queries, no
    /// nullary relations) by running the shared preparation once — which
    /// also warms every immutable cache the first `redecide` will touch.
    pub fn open(
        cx: &DecisionContext,
        views: Vec<ConjunctiveQuery>,
        query: ConjunctiveQuery,
        interval: usize,
        ctl: &CancelToken,
        budget: &Budget,
    ) -> Result<MutableSession, DeterminacyError> {
        fail_point!("session/open", |msg| Err(DeterminacyError::Internal(msg)));
        let frozen = freeze(cx, &views, &query)?;
        prepare_frozen(cx, &frozen, ctl, budget)?;
        let mut session = MutableSession {
            views,
            query,
            frozen,
            state: None,
            interval: interval.max(1),
            counters: DeltaCounters::default(),
            bytes: 0,
        };
        session.bytes = session.measure_bytes();
        Ok(session)
    }

    /// The current view set.
    pub fn views(&self) -> &[ConjunctiveQuery] {
        &self.views
    }

    /// The session's query.
    pub fn query(&self) -> &ConjunctiveQuery {
        &self.query
    }

    /// The session's operation counters.
    pub fn counters(&self) -> DeltaCounters {
        self.counters
    }

    /// Heap bytes held by the session, for governed-cache byte accounting:
    /// the span echelon with its checkpoints, plus the frozen bodies the
    /// session pins, each at the figure the frozen cache charges for it.
    /// The pinned part is an upper bound — the context's frozen cache may
    /// hold the same entries — so the ledger never undercounts a session
    /// that keeps a body alive past its eviction.
    ///
    /// Measured when an operation changes the echelon or the handles, and
    /// read back here, so publishing it after every request walks nothing.
    pub fn heap_bytes(&self) -> usize {
        self.bytes
    }

    fn measure_bytes(&self) -> usize {
        let echelon = self.state.as_ref().map_or(0, |s| {
            s.basis.heap_bytes() + (s.slot_ids.len() + s.coord_ids.len()) * 4
        });
        let pinned = self.frozen.query.heap_bytes()
            + self
                .frozen
                .views
                .iter()
                .map(|f| f.heap_bytes())
                .sum::<usize>();
        echelon + pinned
    }

    /// Add a view.  Freezes only the new view while the common schema holds
    /// and extends the echelon in place (one metered insert per new retained
    /// class) after reconciling the layout; on a typed error the view list
    /// is unchanged and the session stays usable.
    pub fn view_add(
        &mut self,
        cx: &DecisionContext,
        view: ConjunctiveQuery,
        ctl: &CancelToken,
        budget: &Budget,
    ) -> Result<(), DeterminacyError> {
        fail_point!("session/mutate", |msg| Err(DeterminacyError::Internal(msg)));
        let mut prospective = self.views.clone();
        prospective.push(view);
        let frozen = self.refreeze(cx, &prospective, |held, schema| {
            held.push(cx.frozen(schema, &prospective[prospective.len() - 1]));
        })?;
        self.mutate_to(cx, prospective, frozen, ctl, budget)?;
        self.counters.adds += 1;
        Ok(())
    }

    /// Remove the view at `index` (the caller resolves names to indices).
    /// Freezes nothing while the common schema holds, and repairs the
    /// echelon by compaction or checkpointed replay; on a typed error the
    /// view list is unchanged and the session stays usable.
    pub fn view_remove(
        &mut self,
        cx: &DecisionContext,
        index: usize,
        ctl: &CancelToken,
        budget: &Budget,
    ) -> Result<(), DeterminacyError> {
        assert!(index < self.views.len(), "view index out of range");
        fail_point!("session/mutate", |msg| Err(DeterminacyError::Internal(msg)));
        let mut prospective = self.views.clone();
        prospective.remove(index);
        let frozen = self.refreeze(cx, &prospective, |held, _| {
            held.remove(index);
        })?;
        self.mutate_to(cx, prospective, frozen, ctl, budget)?;
        self.counters.removes += 1;
        Ok(())
    }

    /// Re-decide determinacy for the current view set against the live
    /// echelon.  Byte-identical to a fresh one-shot decide (see the module
    /// docs); an interrupt keeps the consistent echelon, so a retry with a
    /// larger budget resumes.
    pub fn redecide(
        &mut self,
        cx: &DecisionContext,
        ctl: &CancelToken,
        budget: &Budget,
    ) -> Result<BagDeterminacy, DeterminacyError> {
        let prep = prepare_frozen(cx, &self.frozen, ctl, budget)?;
        ctl.check("span")?;
        fail_point!("decide/span", |msg| Err(DeterminacyError::Internal(msg)));
        let (class_vectors, class_coefficients) = if prep.retained_class_ids.is_empty() {
            (
                Vec::new(),
                prep.query_vector.is_zero().then(|| QVec(Vec::new())),
            )
        } else if !prep.covered() {
            (prep.class_vectors()?, None)
        } else {
            // Reconcile-then-solve against the session echelon.  The state
            // is taken out for the duration: a panic leaves it absent
            // (rebuilt on demand), an interrupt puts the consistent,
            // resumable echelon back before the typed error surfaces.
            let taken = self.state.take();
            let mut gas = Gas::new(ctl, budget, "span");
            let reconciled = self.reconcile(cx, taken, &prep, &mut gas, |p| prep.class_vector(p));
            let (mut st, changed) = match reconciled {
                Ok(reconciled) => reconciled,
                Err(e) => {
                    self.bytes = self.measure_bytes();
                    return Err(e);
                }
            };
            let solved = st.basis.solve_gas(&prep.query_vector, &mut gas);
            self.state = Some(st);
            if changed || solved.is_err() {
                self.bytes = self.measure_bytes();
            }
            let solved = solved.map_err(DeterminacyError::from)?;
            (prep.class_vectors()?, solved)
        };
        self.counters.redecides += 1;
        Ok(finish(prep, class_vectors, class_coefficients))
    }

    /// The schema and frozen bodies of a prospective view set.  The common
    /// schema is recomputed (it is exact about which relations the set
    /// uses); while it equals the held one, every held body stays valid and
    /// `edit` applies the operation's change to the held handles.  A schema
    /// change re-freezes every query over the new schema through the
    /// context's cache.
    fn refreeze(
        &self,
        cx: &DecisionContext,
        prospective: &[ConjunctiveQuery],
        edit: impl FnOnce(&mut Vec<Arc<FrozenQuery>>, &Schema),
    ) -> Result<Frozen, DeterminacyError> {
        let schema = checked_schema(prospective, &self.query)?;
        if schema != self.frozen.schema {
            return Ok(freeze_over(cx, schema, prospective, &self.query));
        }
        let mut views = self.frozen.views.clone();
        edit(&mut views, &schema);
        Ok(Frozen {
            schema,
            query: self.frozen.query.clone(),
            views,
        })
    }

    /// Shared mutation body: prepare the prospective view set, reconcile
    /// the echelon to its layout, and commit the view list and its frozen
    /// bodies last.  The span state is taken out up front, so a panic
    /// anywhere in here leaves the session fully rolled back (old views,
    /// state rebuilt on demand); a typed error likewise keeps the old views,
    /// dropping only the echelon.  Either way the byte figure is re-measured.
    fn mutate_to(
        &mut self,
        cx: &DecisionContext,
        prospective: Vec<ConjunctiveQuery>,
        frozen: Frozen,
        ctl: &CancelToken,
        budget: &Budget,
    ) -> Result<(), DeterminacyError> {
        let taken = self.state.take();
        let committed = self.reconcile_to(cx, taken, &frozen, ctl, budget);
        if committed.is_ok() {
            self.views = prospective;
            self.frozen = frozen;
        }
        self.bytes = self.measure_bytes();
        committed
    }

    fn reconcile_to(
        &mut self,
        cx: &DecisionContext,
        taken: Option<SpanState>,
        frozen: &Frozen,
        ctl: &CancelToken,
        budget: &Budget,
    ) -> Result<(), DeterminacyError> {
        let prep = prepare_frozen(cx, frozen, ctl, budget)?;
        if prep.retained_class_ids.is_empty() || !prep.covered() {
            // The span system will not run for this view set: keep the
            // echelon as-is (its layout tag still describes it), so a later
            // mutation back into the covered regime can repair in place.
            self.state = taken;
        } else {
            let mut gas = Gas::new(ctl, budget, "mutate");
            let (st, _) = self.reconcile(cx, taken, &prep, &mut gas, |p| prep.class_vector(p))?;
            self.state = Some(st);
        }
        Ok(())
    }

    /// Bring the echelon in line with the target layout: repair in place
    /// when the transition is removals-plus-appends on both the slot and
    /// coordinate sequences, rebuild from scratch otherwise.  Consumes the
    /// taken-out state and returns the reconciled one, with whether it
    /// changed; on `Err` the state is dropped (the caller's take/commit
    /// discipline turns that into a clean rollback).  `class_vector` yields
    /// the generator of a retained class; only new slots and rebuilds read
    /// it.
    fn reconcile(
        &mut self,
        cx: &DecisionContext,
        taken: Option<SpanState>,
        prep: &Prepared,
        gas: &mut Gas,
        class_vector: impl Fn(usize) -> Result<QVec, DeterminacyError>,
    ) -> Result<(SpanState, bool), DeterminacyError> {
        let target_slots: &[u32] = &prep.retained_class_ids;
        let target_coords = prep.coord_class_ids(cx);
        let mut st = match taken {
            Some(st) => st,
            None => {
                let st = self.rebuild(target_slots, &target_coords, class_vector, gas)?;
                return Ok((st, true));
            }
        };
        if st.slot_ids == target_slots && st.coord_ids == target_coords {
            let behind = st.basis.fed() < st.basis.len();
            st.basis.catch_up_gas(gas)?;
            return Ok((st, behind));
        }
        let slot_plan = subseq_plan(&st.slot_ids, target_slots);
        let coord_plan = subseq_plan(&st.coord_ids, &target_coords);
        let (Some((removed_slots, new_slots)), Some((dropped_coords, new_coords))) =
            (slot_plan, coord_plan)
        else {
            // A first occurrence migrated between surviving views: the
            // canonical layout reordered, which in-place repair cannot
            // express.  Rebuild — still fuel-charged, still exact.
            let st = self.rebuild(target_slots, &target_coords, class_vector, gas)?;
            return Ok((st, true));
        };
        // Order matters: removing generator slots first makes the dropped
        // coordinate columns all-zero among the survivors (a coordinate is
        // dropped exactly when no surviving class touches it), which
        // `drop_columns` requires.
        if !removed_slots.is_empty() {
            // Chaos seam on the removal-repair path (compaction or replay).
            fail_point!("session/replay", |msg| Err(DeterminacyError::Internal(msg)));
            match st.basis.remove_slots_gas(&removed_slots, gas)? {
                RemovalKind::Compacted => self.counters.fast_removals += 1,
                RemovalKind::Replayed => self.counters.replays += 1,
            }
        }
        if !dropped_coords.is_empty() {
            st.basis.drop_columns(&dropped_coords);
        }
        if !new_coords.is_empty() {
            st.basis.grow_dim(target_coords.len());
        }
        for &slot in &new_slots {
            st.basis.push_generator(class_vector(slot)?);
        }
        st.slot_ids = target_slots.to_vec();
        st.coord_ids = target_coords;
        st.basis.catch_up_gas(gas)?;
        Ok((st, true))
    }

    /// A fresh echelon over the target layout, fed to completion.
    fn rebuild(
        &mut self,
        slots: &[u32],
        coords: &[u32],
        class_vector: impl Fn(usize) -> Result<QVec, DeterminacyError>,
        gas: &mut Gas,
    ) -> Result<SpanState, DeterminacyError> {
        self.counters.rebuilds += 1;
        let mut basis = CheckpointedBasis::new(coords.len(), self.interval);
        for p in 0..slots.len() {
            basis.push_generator(class_vector(p)?);
        }
        basis.catch_up_gas(gas).map_err(DeterminacyError::from)?;
        Ok(SpanState {
            slot_ids: slots.to_vec(),
            coord_ids: coords.to_vec(),
            basis,
        })
    }
}

/// Decompose the transition `old → new` as "remove some of `old`, then
/// append the rest of `new`": returns `(removed positions in old, appended
/// positions in new)` when `new` is an order-preserved subsequence of `old`
/// followed by entries not in `old`; `None` when the transition reorders.
/// Ids are unique within each sequence (session class ids are never reused
/// and classes are deduplicated), so matching by equality is unambiguous.
fn subseq_plan(old: &[u32], new: &[u32]) -> Option<(Vec<usize>, Vec<usize>)> {
    let mut kept = Vec::new();
    let mut removed = Vec::new();
    for (i, id) in old.iter().enumerate() {
        if new.contains(id) {
            kept.push(*id);
        } else {
            removed.push(i);
        }
    }
    if new.len() < kept.len() || new[..kept.len()] != kept[..] {
        return None;
    }
    let appended: Vec<usize> = (kept.len()..new.len()).collect();
    if appended.iter().any(|&p| old.contains(&new[p])) {
        return None;
    }
    Some((removed, appended))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boolean::decide_bag_determinacy_in;
    use cqdet_query::cq::Atom;

    fn atom(rel: &str, vars: &[&str]) -> Atom {
        Atom::new(rel, vars)
    }

    /// A boolean query that is a disjoint sum of directed paths: one path of
    /// each length in `lens` (fresh variables per path).
    fn path_sum(name: &str, lens: &[usize]) -> ConjunctiveQuery {
        let mut atoms = Vec::new();
        for (p, &len) in lens.iter().enumerate() {
            for i in 0..len {
                atoms.push(Atom {
                    relation: "E".to_string(),
                    vars: vec![format!("p{p}x{i}"), format!("p{p}x{}", i + 1)],
                });
            }
        }
        ConjunctiveQuery::boolean(name, atoms)
    }

    fn oracle(
        cx: &DecisionContext,
        views: &[ConjunctiveQuery],
        query: &ConjunctiveQuery,
    ) -> BagDeterminacy {
        decide_bag_determinacy_in(cx, views, query, &CancelToken::none(), &Budget::none()).unwrap()
    }

    /// The byte figure a session keeps equals a fresh walk of its state.
    fn assert_fresh_bytes(session: &MutableSession) {
        assert_eq!(session.heap_bytes(), session.measure_bytes());
    }

    fn assert_agrees(a: &BagDeterminacy, b: &BagDeterminacy) {
        assert_eq!(a.determined, b.determined);
        assert_eq!(a.retained_views, b.retained_views);
        assert_eq!(a.query_vector, b.query_vector);
        assert_eq!(a.view_vectors, b.view_vectors);
        assert_eq!(a.coefficients, b.coefficients);
        assert_eq!(a.basis_size(), b.basis_size());
    }

    #[test]
    fn session_redecide_matches_one_shot_through_churn() {
        let cx = DecisionContext::new();
        // Prefix-sum views over path components: v_i = P_1 ⊕ … ⊕ P_i.
        let view = |i: usize| path_sum(&format!("v{i}"), &(1..=i).collect::<Vec<_>>());
        let query = path_sum("q", &(1..=4).collect::<Vec<_>>());
        let mut session = MutableSession::open(
            &cx,
            (1..=4).map(view).collect(),
            query.clone(),
            2,
            &CancelToken::none(),
            &Budget::none(),
        )
        .unwrap();
        assert_fresh_bytes(&session);
        let ctl = CancelToken::none();
        let nb = Budget::none();
        // Initial redecide: q = v4's shape, determined.
        let got = session.redecide(&cx, &ctl, &nb).unwrap();
        assert_fresh_bytes(&session);
        assert!(got.determined);
        assert_agrees(&got, &oracle(&cx, session.views(), &query));
        // Add a fifth view: one new class, one in-place insert.
        session.view_add(&cx, view(5), &ctl, &nb).unwrap();
        assert_fresh_bytes(&session);
        let got = session.redecide(&cx, &ctl, &nb).unwrap();
        assert_fresh_bytes(&session);
        assert_agrees(&got, &oracle(&cx, session.views(), &query));
        // Remove a middle view (pivotal generator → replay or rebuild).
        session.view_remove(&cx, 1, &ctl, &nb).unwrap();
        assert_fresh_bytes(&session);
        let got = session.redecide(&cx, &ctl, &nb).unwrap();
        assert_fresh_bytes(&session);
        assert_agrees(&got, &oracle(&cx, session.views(), &query));
        // Remove the view whose shape the query needs: undetermined now.
        session.view_remove(&cx, 2, &ctl, &nb).unwrap();
        assert_fresh_bytes(&session);
        let got = session.redecide(&cx, &ctl, &nb).unwrap();
        assert_fresh_bytes(&session);
        assert_agrees(&got, &oracle(&cx, session.views(), &query));
        let counters = session.counters();
        assert_eq!(counters.adds, 1);
        assert_eq!(counters.removes, 2);
        assert_eq!(counters.redecides, 4);
    }

    #[test]
    fn duplicate_class_removal_takes_the_fast_path() {
        let cx = DecisionContext::new();
        let edge = |n: &str| ConjunctiveQuery::boolean(n, vec![atom("R", &["x", "y"])]);
        let ctl = CancelToken::none();
        let nb = Budget::none();
        // Two isomorphic views: one class, one generator; removing either
        // view keeps the class and must not touch the echelon at all.
        let q = edge("q");
        let mut session =
            MutableSession::open(&cx, vec![edge("a"), edge("b")], q.clone(), 8, &ctl, &nb).unwrap();
        assert!(session.redecide(&cx, &ctl, &nb).unwrap().determined);
        assert_fresh_bytes(&session);
        session.view_remove(&cx, 0, &ctl, &nb).unwrap();
        assert_fresh_bytes(&session);
        let got = session.redecide(&cx, &ctl, &nb).unwrap();
        assert_fresh_bytes(&session);
        assert!(got.determined);
        assert_agrees(&got, &oracle(&cx, session.views(), &q));
        let counters = session.counters();
        assert_eq!(
            (counters.fast_removals, counters.replays),
            (0, 0),
            "same class set: no repair ran at all"
        );
    }

    #[test]
    fn uncovered_interludes_keep_the_echelon() {
        let cx = DecisionContext::new();
        let edge = |n: &str| ConjunctiveQuery::boolean(n, vec![atom("R", &["x", "y"])]);
        let looped = ConjunctiveQuery::boolean("w", vec![atom("R", &["l", "l"])]);
        let q =
            ConjunctiveQuery::boolean("q", vec![atom("R", &["x", "y"]), atom("R", &["l", "l"])]);
        let ctl = CancelToken::none();
        let nb = Budget::none();
        let mut session = MutableSession::open(
            &cx,
            vec![edge("v"), looped.clone()],
            q.clone(),
            8,
            &ctl,
            &nb,
        )
        .unwrap();
        assert_fresh_bytes(&session);
        assert!(session.redecide(&cx, &ctl, &nb).unwrap().determined);
        assert_fresh_bytes(&session);
        // Remove the loop view: the query's loop component is uncovered,
        // redecide short-circuits without consulting the echelon.
        session.view_remove(&cx, 1, &ctl, &nb).unwrap();
        assert_fresh_bytes(&session);
        let got = session.redecide(&cx, &ctl, &nb).unwrap();
        assert_fresh_bytes(&session);
        assert!(!got.determined);
        assert_agrees(&got, &oracle(&cx, session.views(), &q));
        // Adding it back repairs in place from the kept state.
        session.view_add(&cx, looped, &ctl, &nb).unwrap();
        assert_fresh_bytes(&session);
        let got = session.redecide(&cx, &ctl, &nb).unwrap();
        assert_fresh_bytes(&session);
        assert!(got.determined);
        assert_agrees(&got, &oracle(&cx, session.views(), &q));
        assert_eq!(session.counters().rebuilds, 1, "only the initial build");
    }

    #[test]
    fn fuel_exhaustion_mid_mutation_is_typed_and_leaves_session_usable() {
        let cx = DecisionContext::new();
        let view = |i: usize| path_sum(&format!("v{i}"), &(1..=i).collect::<Vec<_>>());
        let query = path_sum("q", &(1..=6).collect::<Vec<_>>());
        let ctl = CancelToken::none();
        let nb = Budget::none();
        let mut session = MutableSession::open(
            &cx,
            (1..=6).map(view).collect(),
            query.clone(),
            2,
            &ctl,
            &nb,
        )
        .unwrap();
        assert_fresh_bytes(&session);
        assert!(session.redecide(&cx, &ctl, &nb).unwrap().determined);
        assert_fresh_bytes(&session);
        // A tiny step budget trips inside the mutation's elimination.
        let tiny = Budget::with_limits(Some(4), None);
        let err = session.view_remove(&cx, 0, &ctl, &tiny).unwrap_err();
        assert_fresh_bytes(&session);
        assert!(
            matches!(err, DeterminacyError::ResourceExhausted { .. }),
            "typed exhaustion, got {err:?}"
        );
        assert_eq!(
            session.views().len(),
            6,
            "failed mutation left views unchanged"
        );
        // The session is fully usable afterwards: the retry completes and
        // agrees with the oracle, as does a redecide.
        session.view_remove(&cx, 0, &ctl, &nb).unwrap();
        assert_fresh_bytes(&session);
        let got = session.redecide(&cx, &ctl, &nb).unwrap();
        assert_fresh_bytes(&session);
        assert_agrees(&got, &oracle(&cx, session.views(), &query));
    }

    #[test]
    fn first_occurrence_migration_triggers_rebuild_and_stays_exact() {
        let cx = DecisionContext::new();
        let ctl = CancelToken::none();
        let nb = Budget::none();
        // v0 contributes {P1}, v1 contributes {P2}, v2 contributes {P1, P2}:
        // removing v0 migrates P1's first occurrence to v2, *after* P2 —
        // a coordinate reorder that must force a rebuild, not corruption.
        let v0 = path_sum("v0", &[1]);
        let v1 = path_sum("v1", &[2]);
        let v2 = path_sum("v2", &[1, 2]);
        let q = path_sum("q", &[1, 2]);
        let mut session =
            MutableSession::open(&cx, vec![v0, v1, v2], q.clone(), 8, &ctl, &nb).unwrap();
        assert!(session.redecide(&cx, &ctl, &nb).unwrap().determined);
        assert_fresh_bytes(&session);
        let before = session.counters().rebuilds;
        session.view_remove(&cx, 0, &ctl, &nb).unwrap();
        assert_fresh_bytes(&session);
        let got = session.redecide(&cx, &ctl, &nb).unwrap();
        assert_fresh_bytes(&session);
        assert_agrees(&got, &oracle(&cx, session.views(), &q));
        assert!(
            session.counters().rebuilds > before,
            "coordinate reorder must rebuild"
        );
    }

    #[test]
    fn schema_changes_refreeze_and_stay_exact() {
        let cx = DecisionContext::new();
        let ctl = CancelToken::none();
        let nb = Budget::none();
        // The query brings S in; the opening views use R only.
        let q =
            ConjunctiveQuery::boolean("q", vec![atom("R", &["x", "y"]), atom("S", &["u", "w"])]);
        let views = vec![
            ConjunctiveQuery::boolean("r1", vec![atom("R", &["x", "y"])]),
            ConjunctiveQuery::boolean("r2", vec![atom("R", &["x", "y"]), atom("R", &["y", "z"])]),
        ];
        let mut session = MutableSession::open(&cx, views, q.clone(), 2, &ctl, &nb).unwrap();
        assert_fresh_bytes(&session);
        // After each step: the redecide equals a one-shot decide of the same
        // view set in a fresh context, schema and basis included.
        let check = |session: &mut MutableSession, determined: bool| {
            let got = session.redecide(&cx, &ctl, &nb).unwrap();
            assert_fresh_bytes(session);
            let fresh = DecisionContext::new();
            let want = oracle(&fresh, session.views(), &q);
            assert_agrees(&got, &want);
            assert_eq!(got.determined, determined);
            assert_eq!(got.schema, want.schema);
            let keys = |b: &BagDeterminacy| {
                b.basis
                    .iter()
                    .map(|w| w.iso_class_key().canon_bytes().to_vec())
                    .collect::<Vec<_>>()
            };
            assert_eq!(keys(&got), keys(&want));
        };
        check(&mut session, false);
        let misses = || cx.stats().frozen_misses;

        // A view over the relation only the query used: the common schema
        // stays as it was, so only the new view is frozen.
        let before = misses();
        let s_view = ConjunctiveQuery::boolean("s", vec![atom("S", &["a", "b"])]);
        session.view_add(&cx, s_view, &ctl, &nb).unwrap();
        assert_fresh_bytes(&session);
        assert_eq!(misses() - before, 1, "one new body, nothing re-frozen");
        check(&mut session, true);

        // A view over a new relation: the schema grows, every body is
        // frozen again over it.
        let before = misses();
        let t_view =
            ConjunctiveQuery::boolean("t", vec![atom("R", &["x", "y"]), atom("T", &["y", "z"])]);
        session.view_add(&cx, t_view, &ctl, &nb).unwrap();
        assert_fresh_bytes(&session);
        assert_eq!(misses() - before, 5, "the query and four views, over T too");
        check(&mut session, true);

        // Removing both again: first the S view (schema unchanged, T still
        // in use), then the T view (the schema shrinks back).
        session.view_remove(&cx, 2, &ctl, &nb).unwrap();
        assert_fresh_bytes(&session);
        check(&mut session, false);
        // The R-only bodies were declined at `open`, their first sighting
        // (the frozen cache admits a body on its second): the shrink
        // freezes them again and admits them.
        let before = misses();
        session.view_remove(&cx, 2, &ctl, &nb).unwrap();
        assert_fresh_bytes(&session);
        assert_eq!(misses() - before, 3, "the query and two views, seen once");
        check(&mut session, false);
        assert_eq!(session.views().len(), 2);

        // The T view once more, and out again: its bodies over T are on
        // their second sighting now, and the shrink back finds the R-only
        // bodies in the cache.
        let t_view =
            ConjunctiveQuery::boolean("t", vec![atom("R", &["x", "y"]), atom("T", &["y", "z"])]);
        let before = misses();
        session.view_add(&cx, t_view, &ctl, &nb).unwrap();
        assert_eq!(misses() - before, 4, "the query and three views, over T");
        check(&mut session, false);
        let before = misses();
        session.view_remove(&cx, 2, &ctl, &nb).unwrap();
        assert_fresh_bytes(&session);
        assert_eq!(misses() - before, 0, "the R-only bodies are still cached");
        check(&mut session, false);
        assert_eq!(session.views().len(), 2);
    }

    #[test]
    fn subseq_plan_classifies_transitions() {
        // Pure removal.
        assert_eq!(
            subseq_plan(&[1, 2, 3], &[1, 3]),
            Some((vec![1], Vec::new()))
        );
        // Pure append.
        assert_eq!(
            subseq_plan(&[1, 2], &[1, 2, 9]),
            Some((Vec::new(), vec![2]))
        );
        // Remove + append.
        assert_eq!(
            subseq_plan(&[1, 2, 3], &[2, 3, 7]),
            Some((vec![0], vec![2]))
        );
        // Reorder: not expressible.
        assert_eq!(subseq_plan(&[1, 2], &[2, 1]), None);
        // Re-insertion of a removed id ahead of kept ones: reorder.
        assert_eq!(subseq_plan(&[1, 2, 3], &[2, 1, 3]), None);
        // Identity.
        assert_eq!(
            subseq_plan(&[4, 5], &[4, 5]),
            Some((Vec::new(), Vec::new()))
        );
    }
}
