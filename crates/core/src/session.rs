//! Cross-request state for the Theorem 3 decision pipeline.
//!
//! [`crate::decide_bag_determinacy`] is a one-shot function: every call
//! re-freezes its queries, re-canonizes their components and re-runs every
//! `q ⊆_set v` containment gate, because all of that state dies with the
//! call.  Batch workloads — fleets of `(views, query)` tasks sharing views,
//! schemas and isomorphism classes — want the opposite: compute each
//! isomorphism-invariant quantity **once per session**, not once per task.
//!
//! A [`DecisionContext`] owns exactly that shared state:
//!
//! * a **frozen-query cache** — body structure, isomorphism-class key and
//!   connected components per distinct `(schema, body)` pair, so a view
//!   shared by N tasks is frozen, canonized and decomposed once
//!   ([`FrozenQuery`]);
//! * a **containment-gate cache** keyed by the *isomorphism classes* of the
//!   view and query bodies (Definition 25's `q ⊆_set v` test is
//!   isomorphism-invariant in both arguments), so even textually different
//!   alpha-renamings of a view share one `hom_exists` search per query
//!   class;
//! * a session-wide **iso-class table** assigning stable dense ids to
//!   canonical keys, which the pipeline uses to intern view bodies and
//!   which callers can read for capacity accounting ([`ContextStats`]);
//! * a **span-basis cache** holding one incremental echelon form
//!   ([`cqdet_linalg::IncrementalBasis`]) per retained view-class sequence:
//!   the Main Lemma system's columns are eliminated lazily (early exit once
//!   a target enters the span) and *once per session*, so every later task
//!   over the same view pool only reduces its own target vector
//!   ([`DecisionContext::span_solve`]);
//! * a [`SharedCaches`] handle — the hom-count memo — which callers pass
//!   to witness construction and verification, so evaluation matrices
//!   reuse counts across tasks;
//! * the [`Governor`] — byte ledger and memory watermark — that every one
//!   of these caches charges.  It belongs to this context alone: two
//!   contexts in one process never see each other's bytes.
//!
//! The session-aware entry point is
//! [`crate::boolean::decide_bag_determinacy_in`]; the one-shot function is
//! now a thin wrapper that builds a fresh context per call.  The
//! `cqdet-engine` crate wraps a `DecisionContext` into a full batch engine
//! (task fan-out, JSON certificates, cache-hit statistics).

use cqdet_bigint::{Nat, Sign};
use cqdet_cache::snapshot::{Reader, SnapshotError, Writer};
use cqdet_cache::{CacheUsage, Governor, ShardedCache};
use cqdet_failpoint::fail_point;
use cqdet_linalg::{IncrementalBasis, QVec, Rat};
use cqdet_parallel::{par_map, Gas, Interrupt};
use cqdet_query::ConjunctiveQuery;
use cqdet_structure::{
    components_keyed, hom_exists_gas, IsoClassKey, Schema, SharedCaches, Structure,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Lock with poison recovery: every critical section below is a plain map
/// probe/insert/clear that leaves the map consistent even if the holder
/// panicked, so a poisoned lock carries usable data — a serving process must
/// not cascade one worker's panic into every later request.
fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Chaos seam: every session lock acquisition can be delayed or panicked
    // (the latter exercising exactly the poison recovery below).
    fail_point!("session/lock");
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A query body frozen over a schema, with its derived data: the connected
/// components (Definition 27's raw material) and the isomorphism-class key,
/// both from one decomposition at construction
/// ([`cqdet_structure::components_keyed`]).  Every component carries its own
/// canonical key, so de-duplicating and counting components up to
/// isomorphism never canonizes again.
///
/// The body is written straight into its flat form
/// ([`ConjunctiveQuery::frozen_body_over`]) and each component's flat form
/// is cut from it, so an entry is a handful of heap blocks (three per
/// structure plus its `Arc` and key): cloning a component into a basis is
/// a reference bump, and evicting an entry frees a few blocks, not one
/// per fact.
///
/// Handed out as `Arc<FrozenQuery>` by [`DecisionContext::frozen`]; every
/// task of a batch that mentions the same view body holds the same
/// allocation, so the decomposition and every canonical key is computed
/// once per session.
pub struct FrozenQuery {
    body: Structure,
    key: IsoClassKey,
    comps: Vec<Structure>,
    bytes: usize,
}

impl FrozenQuery {
    fn new(body: Structure, fingerprint: &str) -> FrozenQuery {
        let (comps, key) = components_keyed(&body);
        FrozenQuery {
            body,
            key,
            comps,
            bytes: frozen_bytes(fingerprint),
        }
    }

    /// The byte cost the frozen cache charges for this entry (see
    /// [`DecisionContext::frozen`]); a holder that pins the entry beyond
    /// the cache's reach (a mutable session) charges the same figure.
    pub fn heap_bytes(&self) -> usize {
        self.bytes
    }

    /// The frozen body structure.
    pub fn body(&self) -> &Structure {
        &self.body
    }

    /// The isomorphism-class key of the body.
    pub fn iso_key(&self) -> &IsoClassKey {
        &self.key
    }

    /// The connected components of the body, each with its canonical key
    /// installed.
    pub fn components(&self) -> &[Structure] {
        &self.comps
    }
}

/// Hit/miss counters of a [`DecisionContext`] (see [`DecisionContext::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContextStats {
    /// Frozen-query cache hits (a task reused a body frozen by an earlier
    /// task of the session).
    pub frozen_hits: u64,
    /// Frozen-query cache misses (the body was frozen and canonized fresh).
    pub frozen_misses: u64,
    /// Containment-gate cache hits (`q ⊆_set v` answered without a search).
    pub gate_hits: u64,
    /// Containment-gate cache misses (one `hom_exists` search ran).
    pub gate_misses: u64,
    /// Span-basis cache hits: the Main Lemma system reused an incremental
    /// echelon form built (possibly partially) by an earlier task over the
    /// same retained view-class sequence — no shared column was
    /// re-eliminated.
    pub span_hits: u64,
    /// Span-basis cache misses (a fresh [`IncrementalBasis`] was started).
    pub span_misses: u64,
    /// Number of distinct isomorphism classes interned in the session table.
    pub iso_classes: u64,
    /// Hom-count memo statistics of the session's [`SharedCaches`] handle.
    pub hom: cqdet_structure::CacheStats,
    /// Full governed-cache counters of the frozen-body cache.
    pub frozen_usage: CacheUsage,
    /// Full governed-cache counters of the containment-gate cache.
    pub gate_usage: CacheUsage,
    /// Full governed-cache counters of the span-basis cache.
    pub span_usage: CacheUsage,
    /// Full governed-cache counters of the hom-count memo.
    pub hom_usage: CacheUsage,
    /// Total bytes charged to this context's [`Governor`] by every cache
    /// it governs.
    pub governed_bytes: u64,
}

/// Bound on the class-interning table.  When the table fills, it is cleared
/// wholesale (the monotone id counter survives, so an id is never reused
/// for a different class) — interning entries are two pointers each, so a
/// count cap is accurate here, unlike the byte-weighed value caches below.
const CONTEXT_CACHE_CAP: usize = 8192;

/// Default byte budgets of the context's governed caches, in force until a
/// serve-level `--cache-bytes` total retargets them
/// ([`DecisionContext::set_cache_bytes`]).  Generous enough that tests and
/// one-shot runs never evict; bounded so a long-lived session fed a stream
/// of ever-new queries cannot leak.
const FROZEN_DEFAULT_BYTES: usize = 16 << 20;
const GATE_DEFAULT_BYTES: usize = 16 << 20;
const SPAN_DEFAULT_BYTES: usize = 64 << 20;
const HOM_DEFAULT_BYTES: usize = 64 << 20;

/// How a serve-level `--cache-bytes` total is split across the four
/// governed caches, in percent: hom and span carry the expensive entries
/// (backtracking searches, bigint echelon rows), the rest are cheap to
/// recompute.  The remaining 10% stays under the watermark as headroom for
/// the open sessions, which charge the same governor.
const SPLIT_HOM: u64 = 40;
const SPLIT_SPAN: u64 = 30;
const SPLIT_FROZEN: u64 = 10;
const SPLIT_GATE: u64 = 10;

/// Approximate byte cost of one frozen body: the fingerprint key plus a
/// fixed estimate of the structure, key and component storage (bodies are
/// query-sized by construction — a handful of atoms).
#[allow(clippy::ptr_arg)] // must match the cache's `fn(&K, &V)` weigher type
fn frozen_weight(key: &String, _v: &Arc<FrozenQuery>) -> usize {
    frozen_bytes(key)
}

fn frozen_bytes(fingerprint: &str) -> usize {
    fingerprint.len() + 512
}

/// Byte cost of one gate verdict: two `Arc` key handles plus map-entry
/// bookkeeping (the canonical keys themselves are shared with the frozen
/// cache, so charging them here would double-count).
fn gate_weight(_k: &(IsoClassKey, IsoClassKey), _v: &bool) -> usize {
    96
}

/// Byte cost of one span system: the key, the entry bookkeeping, and the
/// basis' true heap bytes as last published to [`SpanEntry::bytes`] (kept
/// fresh by a `recharge` after every solve, without the weigher ever
/// touching the basis lock).
#[allow(clippy::ptr_arg)] // must match the cache's `fn(&K, &V)` weigher type
fn span_weight(key: &Vec<u32>, entry: &Arc<SpanEntry>) -> usize {
    key.len() * 4 + entry.bytes.load(Ordering::Relaxed) + 96
}

/// Cross-request caches for [`crate::boolean::decide_bag_determinacy_in`]:
/// see the [module docs](self) for what is shared and why.  All interior
/// state is lock-protected, so one context can serve a scoped fan-out of
/// tasks (`&DecisionContext` is `Sync`).  The value caches (frozen bodies,
/// gate verdicts, span systems, hom counts) are governed
/// [`ShardedCache`]s — byte-capped, clock-evicting, never refusing — and
/// the interning class table is bounded by `CONTEXT_CACHE_CAP`.  All of
/// them charge the context's own [`Governor`].
pub struct DecisionContext {
    governor: Arc<Governor>,
    caches: Arc<SharedCaches>,
    frozen: ShardedCache<String, Arc<FrozenQuery>>,
    // The `OnceLock`-cached canonical key behind `IsoClassKey` is forced at
    // construction and immutable afterwards, so the interior-mutability
    // clippy lint does not apply (same reasoning as in `cqdet_structure::iso`).
    #[allow(clippy::mutable_key_type)]
    gate: ShardedCache<(IsoClassKey, IsoClassKey), bool>,
    /// Gate verdicts restored from a warm-start snapshot, keyed by the
    /// concatenated canonical bytes of both classes ([`pair_key`]).
    /// Consulted only on a gate-cache miss; a hit is promoted into the
    /// live cache, so a preloaded verdict costs its one map probe once.
    gate_preload: Mutex<HashMap<Box<[u8]>, bool>>,
    /// Class table plus the next id to hand out.  The counter is monotone —
    /// it survives a capacity clear, so an id is never reused for a
    /// different class (a reused id could alias two distinct classes inside
    /// one in-flight call; a class holding two ids merely duplicates a span
    /// column).
    #[allow(clippy::mutable_key_type)]
    classes: Mutex<(HashMap<IsoClassKey, u32>, u32)>,
    /// Class ids restored from a warm-start snapshot, keyed by canonical
    /// bytes: [`DecisionContext::class_id`] honors these on first sight, so
    /// the ids the snapshot's span keys were built from stay valid in this
    /// process.
    preassigned: Mutex<HashMap<Box<[u8]>, u32>>,
    /// Cached online echelon forms for the Main Lemma span systems, keyed
    /// by the session class ids of the retained view classes in pipeline
    /// order (which determine the Definition 29 vectors exactly): tasks
    /// sharing a view pool solve against one shared elimination, each
    /// target only reducing against the rows already built —
    /// see [`DecisionContext::span_solve`].
    span: ShardedCache<Vec<u32>, Arc<SpanEntry>>,
}

/// One cached span system: the lazily fed incremental echelon form over the
/// retained classes' vectors.  The inner mutex serializes feeding; the
/// entry is shared via `Arc` so no cache shard lock is ever held during
/// elimination.  `bytes` is the basis' heap footprint as of the last solve,
/// published *after* releasing the basis lock so the cache weigher
/// ([`span_weight`]) reads an atomic instead of contending on the basis.
struct SpanEntry {
    basis: Mutex<IncrementalBasis>,
    bytes: AtomicUsize,
}

impl Default for DecisionContext {
    fn default() -> Self {
        DecisionContext::new()
    }
}

impl DecisionContext {
    /// A fresh context with empty caches under the default byte budgets
    /// and a fresh, disarmed governor.
    pub fn new() -> DecisionContext {
        let governor = Arc::new(Governor::default());
        DecisionContext {
            caches: Arc::new(SharedCaches::governed(&governor)),
            frozen: ShardedCache::new(FROZEN_DEFAULT_BYTES, frozen_weight).governed_by(&governor),
            gate: ShardedCache::new(GATE_DEFAULT_BYTES, gate_weight).governed_by(&governor),
            gate_preload: Mutex::new(HashMap::new()),
            classes: Mutex::new((HashMap::new(), 0)),
            preassigned: Mutex::new(HashMap::new()),
            span: ShardedCache::new(SPAN_DEFAULT_BYTES, span_weight).governed_by(&governor),
            governor,
        }
    }

    /// A fresh context whose four governed caches split `total` bytes
    /// (40% hom, 30% span, 10% each frozen and gate); `None` keeps the
    /// defaults.
    pub fn with_cache_bytes(total: Option<u64>) -> DecisionContext {
        let cx = DecisionContext::new();
        cx.set_cache_bytes(total);
        cx
    }

    /// Retarget every governed cache live: `Some(total)` splits the budget
    /// across the four caches and arms this context's watermark at
    /// `total`; `None` restores the defaults and disarms the watermark.
    /// Over-budget caches evict immediately.
    pub fn set_cache_bytes(&self, total: Option<u64>) {
        match total {
            Some(total) => {
                let part = |pct: u64| ((total * pct / 100) as usize).max(4096);
                self.caches.set_cap_bytes(part(SPLIT_HOM));
                self.span.set_cap(part(SPLIT_SPAN));
                self.frozen.set_cap(part(SPLIT_FROZEN));
                self.gate.set_cap(part(SPLIT_GATE));
                self.governor.set_watermark(total);
            }
            None => {
                self.caches.set_cap_bytes(HOM_DEFAULT_BYTES);
                self.span.set_cap(SPAN_DEFAULT_BYTES);
                self.frozen.set_cap(FROZEN_DEFAULT_BYTES);
                self.gate.set_cap(GATE_DEFAULT_BYTES);
                self.governor.set_watermark(0);
            }
        }
    }

    /// The context's hom-engine caches.  Callers running witness
    /// construction or verification (or any other hom-count-heavy work) on
    /// behalf of the context pass this handle, so counts are shared across
    /// tasks and charged to this context.
    pub fn caches(&self) -> &Arc<SharedCaches> {
        &self.caches
    }

    /// The byte ledger and watermark of this context.  Owners of further
    /// caches that should count against the same `--cache-bytes` total
    /// (the service's session registry) govern them with it.
    pub fn governor(&self) -> &Arc<Governor> {
        &self.governor
    }

    /// The frozen body of `query` over `schema`, from the session cache.
    ///
    /// Keyed by the literal `(schema, body atoms)` rendering — cheap to
    /// compute and exact: equal keys produce identical frozen bodies.
    /// Distinct alpha-renamings of the same query miss here but still
    /// converge downstream, where everything is keyed by isomorphism class.
    pub fn frozen(&self, schema: &Schema, query: &ConjunctiveQuery) -> Arc<FrozenQuery> {
        let mut one = self.frozen_all(schema, &[query]);
        one.remove(0)
    }

    /// [`DecisionContext::frozen`] for each of `queries`, in order, with
    /// only the cache misses fanned out.
    ///
    /// Every fingerprint is computed once and probed inline; the misses —
    /// all of a cold set-up, one added view of a warm session, none of a
    /// repeat — are frozen and canonized through `par_map`, which spawns
    /// helpers only when there are enough of them.  A query whose
    /// fingerprint repeats an earlier miss of the same call is probed after
    /// that miss is inserted, so it hits, exactly as a one-at-a-time loop
    /// would count it.
    pub fn frozen_all(
        &self,
        schema: &Schema,
        queries: &[&ConjunctiveQuery],
    ) -> Vec<Arc<FrozenQuery>> {
        let mut fps: Vec<String> = queries.iter().map(|q| fingerprint(schema, q)).collect();
        let mut out: Vec<Option<Arc<FrozenQuery>>> = vec![None; queries.len()];
        let mut misses: Vec<usize> = Vec::new();
        let mut repeats: Vec<usize> = Vec::new();
        for (i, fp) in fps.iter().enumerate() {
            if misses.iter().any(|&m| fps[m] == *fp) {
                repeats.push(i);
                continue;
            }
            match self.frozen.probe(fp) {
                Some(hit) => out[i] = Some(hit),
                None => misses.push(i),
            }
        }
        // Freeze and canonize outside any shard lock: concurrent workers
        // freezing the same new view both compute, the first insert wins
        // and both results are identical.
        let built = par_map(&misses, |&i| {
            FrozenQuery::new(queries[i].frozen_body_over(schema), &fps[i])
        });
        for (&i, entry) in misses.iter().zip(built) {
            fail_point!("session/cache-insert");
            let fp = std::mem::take(&mut fps[i]);
            out[i] = Some(self.frozen.insert_or_get(fp, Arc::new(entry)));
        }
        for i in repeats {
            out[i] = Some(self.frozen(schema, queries[i]));
        }
        out.into_iter().flatten().collect()
    }

    /// The session-wide id of an isomorphism class (interning insert on
    /// first sight, honoring a snapshot-preassigned id if one exists).  Ids
    /// are monotone and never reused, including across capacity clears.
    pub fn class_id(&self, key: &IsoClassKey) -> u32 {
        let mut table = locked(&self.classes);
        let (map, next) = &mut *table;
        if map.len() >= CONTEXT_CACHE_CAP && !map.contains_key(key) {
            map.clear();
        }
        if let Some(&id) = map.get(key) {
            return id;
        }
        // A warm-started session re-interns a snapshot class under the id
        // its span keys were built from; `next` was advanced past every
        // preassigned id at install time, so monotonicity holds.
        let preassigned = locked(&self.preassigned).get(key.canon_bytes()).copied();
        let id = preassigned.unwrap_or_else(|| {
            let id = *next;
            *next += 1;
            id
        });
        map.insert(key.clone(), id);
        id
    }

    /// The Definition 25 containment gate `q ⊆_set v` (i.e. `hom(v, q) ≠ ∅`
    /// on frozen bodies), as cached by the isomorphism classes of both
    /// sides: the verdict when the live cache (or a warm-start snapshot)
    /// holds it, counted as a hit; `None`, counted as a miss, when only
    /// [`DecisionContext::gate_search`] can answer.  Hits are free (the work
    /// was already paid for), so the pipeline probes every class inline and
    /// fans out only the misses.
    pub fn gate_cached(&self, view: &FrozenQuery, query: &FrozenQuery) -> Option<bool> {
        let key = (view.iso_key().clone(), query.iso_key().clone());
        if let Some(hit) = self.gate.probe(&key) {
            return Some(hit);
        }
        // A warm-started session answers the miss from the snapshot's
        // verdicts (promoting the entry into the live cache) before paying
        // for a search.  The preload map is empty outside warm starts, so
        // the cold path costs one `is_empty` check.
        {
            let preload = locked(&self.gate_preload);
            if !preload.is_empty() {
                let pk = pair_key(view.iso_key().canon_bytes(), query.iso_key().canon_bytes());
                if let Some(&answer) = preload.get(&pk) {
                    drop(preload);
                    fail_point!("session/cache-insert");
                    return Some(self.gate.insert_or_get(key, answer));
                }
            }
        }
        None
    }

    /// The gate's search, for a pair that [`DecisionContext::gate_cached`]
    /// missed, metered through `gas`: the hom search charges one step per
    /// candidate extension and can stop with a typed [`Interrupt`]
    /// mid-search.  Only *completed* answers are inserted, so an
    /// interrupted search never poisons the cache with a partial result.
    pub fn gate_search(
        &self,
        view: &FrozenQuery,
        query: &FrozenQuery,
        gas: &mut Gas,
    ) -> Result<bool, Interrupt> {
        let answer = hom_exists_gas(view.body(), query.body(), gas)?;
        fail_point!("session/cache-insert");
        Ok(self
            .gate
            .insert_or_get((view.iso_key().clone(), query.iso_key().clone()), answer))
    }

    /// Solve the Main Lemma span system `target = Σ αᵢ·vectorsᵢ` against
    /// the session's cached incremental echelon form for this retained
    /// view-class sequence.
    ///
    /// `key` is the sequence of session class ids of the retained classes
    /// in pipeline order — it determines `vectors` exactly (Definition 29
    /// vectors are isomorphism-invariant and the basis prefix order follows
    /// the class order), so a cache hit may reuse every echelon row an
    /// earlier task built.  Vectors are fed lazily with early exit
    /// ([`IncrementalBasis::solve_extend_gas`]): the first task stops
    /// eliminating the moment its target enters the span, later tasks
    /// resume from wherever the basis stands.  Returns coefficients over
    /// `vectors` (zero for never-fed generators) or `None` when the target
    /// is outside the span of all of them.
    ///
    /// The exact elimination is metered through `gas` (one step per
    /// row-operation entry, the byte ledger for coefficient growth) and can
    /// stop with a typed [`Interrupt`] mid-elimination.  The cached
    /// [`IncrementalBasis`] stays consistent across an interrupt (in-flight
    /// row restores are completed before the error surfaces), so later
    /// tasks — including a retry of the interrupted one — resume from
    /// whatever was fully fed.
    pub fn span_solve(
        &self,
        key: &[u32],
        vectors: &[QVec],
        target: &QVec,
        gas: &mut Gas,
    ) -> Result<Option<QVec>, Interrupt> {
        let dim = target.dim();
        let entry = match self.span.probe(key) {
            Some(entry) => entry,
            None => self.span.insert_or_get(
                key.to_vec(),
                Arc::new(SpanEntry {
                    basis: Mutex::new(IncrementalBasis::new(dim)),
                    bytes: AtomicUsize::new(0),
                }),
            ),
        };
        let mut basis = locked(&entry.basis);
        debug_assert_eq!(basis.dim(), dim, "key must determine the basis prefix");
        debug_assert!(basis.len() <= vectors.len());
        let fed = basis.len();
        let solved = basis.solve_extend_gas(target, &vectors[fed..], gas);
        // Publish the basis' grown footprint and re-weigh the cache entry —
        // even on an interrupt, whose partial feeding also grew the rows.
        // The shard lock is taken only after the basis lock is released.
        entry.bytes.store(basis.heap_bytes(), Ordering::Relaxed);
        drop(basis);
        self.span.recharge(&key.to_vec());
        let Some(alpha) = solved? else {
            return Ok(None);
        };
        let mut out = alpha.0;
        out.resize(vectors.len(), cqdet_linalg::Rat::zero());
        Ok(Some(QVec(out)))
    }

    /// Current cache counters.
    pub fn stats(&self) -> ContextStats {
        let frozen = self.frozen.stats();
        let gate = self.gate.stats();
        let span = self.span.stats();
        ContextStats {
            frozen_hits: frozen.hits,
            frozen_misses: frozen.misses,
            gate_hits: gate.hits,
            gate_misses: gate.misses,
            span_hits: span.hits,
            span_misses: span.misses,
            iso_classes: locked(&self.classes).0.len() as u64,
            hom: self.caches.stats(),
            frozen_usage: frozen,
            gate_usage: gate,
            span_usage: span,
            hom_usage: self.caches.usage(),
            governed_bytes: self.governor.bytes(),
        }
    }
}

/// Concatenated pair key `[u32 LE first length][first][second]` for the
/// gate-preload map (tuple keys cannot be probed with borrowed parts).
fn pair_key(first: &[u8], second: &[u8]) -> Box<[u8]> {
    let mut key = Vec::with_capacity(4 + first.len() + second.len());
    key.extend_from_slice(&(first.len() as u32).to_le_bytes());
    key.extend_from_slice(first);
    key.extend_from_slice(second);
    key.into_boxed_slice()
}

/// Split a [`pair_key`] back apart; `None` on a malformed prefix.
fn split_pair_key(key: &[u8]) -> Option<(&[u8], &[u8])> {
    let first_len = u32::from_le_bytes(key.get(..4)?.try_into().ok()?) as usize;
    let rest = key.get(4..)?;
    if first_len > rest.len() {
        return None;
    }
    Some(rest.split_at(first_len))
}

// ---- warm-start snapshot ---------------------------------------------------

/// The warm-startable portion of a session's caches: canonical class ids,
/// gate verdicts, hom counts and span echelon forms — everything that is
/// expensive to recompute, deterministic, and keyed by process-independent
/// canonical bytes (span keys become process-independent through the
/// persisted class table).  Frozen bodies are cheap to
/// rebuild and are deliberately *not* persisted.
///
/// Produced by [`DecisionContext::export_snapshot`], restored by
/// [`DecisionContext::install_snapshot`]; the byte codec
/// ([`SessionSnapshot::to_payload`] / [`SessionSnapshot::from_payload`])
/// emits the payload the `cqdet-cache` envelope seals on disk.
#[derive(Default)]
pub struct SessionSnapshot {
    /// `(canonical bytes, session id)` per interned isomorphism class.
    pub classes: Vec<(Box<[u8]>, u32)>,
    /// The id counter to resume from (past every persisted id).
    pub next_class_id: u32,
    /// `(view canon, query canon, verdict)` per cached containment gate.
    #[allow(clippy::type_complexity)]
    pub gate: Vec<(Box<[u8]>, Box<[u8]>, bool)>,
    /// `(target canon, source canon, count)` per memoized hom count.
    #[allow(clippy::type_complexity)]
    pub hom: Vec<(Box<[u8]>, Box<[u8]>, Nat)>,
    /// `(key, dim, inserted, rows)` per cached span system, rows as
    /// exported by [`IncrementalBasis::export_rows`].
    #[allow(clippy::type_complexity)]
    pub span: Vec<(Vec<u32>, usize, usize, Vec<(usize, QVec, Vec<Rat>)>)>,
}

/// Sanity bounds on snapshot payload counts: a checksum-valid file from a
/// buggy (or hostile) writer must not trigger huge allocations.
const SNAP_MAX_ENTRIES: u64 = 1 << 22;
const SNAP_MAX_DIM: u64 = 1 << 20;

impl SessionSnapshot {
    /// Total entries across all sections (observability; zero means a cold
    /// snapshot not worth writing).
    pub fn len(&self) -> usize {
        self.classes.len() + self.gate.len() + self.hom.len() + self.span.len()
    }

    /// Whether the snapshot carries nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serialize to the envelope payload (see `cqdet_cache::snapshot`).
    pub fn to_payload(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.classes.len() as u64);
        for (canon, id) in &self.classes {
            w.bytes(canon);
            w.u32(*id);
        }
        w.u32(self.next_class_id);
        w.u64(self.gate.len() as u64);
        for (view, query, verdict) in &self.gate {
            w.bytes(view);
            w.bytes(query);
            w.u8(u8::from(*verdict));
        }
        w.u64(self.hom.len() as u64);
        for (tgt, src, count) in &self.hom {
            w.bytes(tgt);
            w.bytes(src);
            write_nat(&mut w, count);
        }
        w.u64(self.span.len() as u64);
        for (key, dim, inserted, rows) in &self.span {
            w.u64(key.len() as u64);
            for id in key {
                w.u32(*id);
            }
            w.u64(*dim as u64);
            w.u64(*inserted as u64);
            w.u64(rows.len() as u64);
            for (pivot, vec, coords) in rows {
                w.u64(*pivot as u64);
                for r in vec.iter() {
                    write_rat(&mut w, r);
                }
                w.u64(coords.len() as u64);
                for r in coords {
                    write_rat(&mut w, r);
                }
            }
        }
        w.finish()
    }

    /// Parse an envelope payload.  Every read is bounds-checked and every
    /// count is sanity-limited; structural validation of the span rows
    /// happens later, in [`DecisionContext::install_snapshot`].
    pub fn from_payload(payload: &[u8]) -> Result<SessionSnapshot, SnapshotError> {
        let mut r = Reader::new(payload);
        let mut snap = SessionSnapshot::default();
        for _ in 0..r.count(SNAP_MAX_ENTRIES)? {
            let canon = r.bytes()?.into();
            let id = r.u32()?;
            snap.classes.push((canon, id));
        }
        snap.next_class_id = r.u32()?;
        for _ in 0..r.count(SNAP_MAX_ENTRIES)? {
            let view = r.bytes()?.into();
            let query = r.bytes()?.into();
            let verdict = match r.u8()? {
                0 => false,
                1 => true,
                other => {
                    return Err(SnapshotError::Malformed(format!(
                        "gate verdict byte {other}"
                    )))
                }
            };
            snap.gate.push((view, query, verdict));
        }
        for _ in 0..r.count(SNAP_MAX_ENTRIES)? {
            let tgt = r.bytes()?.into();
            let src = r.bytes()?.into();
            let count = read_nat(&mut r)?;
            snap.hom.push((tgt, src, count));
        }
        for _ in 0..r.count(SNAP_MAX_ENTRIES)? {
            let key_len = r.count(SNAP_MAX_ENTRIES)?;
            let mut key = Vec::with_capacity(key_len);
            for _ in 0..key_len {
                key.push(r.u32()?);
            }
            let dim = r.count(SNAP_MAX_DIM)?;
            let inserted = r.count(SNAP_MAX_ENTRIES)?;
            let n_rows = r.count(SNAP_MAX_DIM)?;
            let mut rows = Vec::with_capacity(n_rows);
            for _ in 0..n_rows {
                let pivot = r.count(SNAP_MAX_DIM)?;
                let mut vec = Vec::with_capacity(dim);
                for _ in 0..dim {
                    vec.push(read_rat(&mut r)?);
                }
                let coords_len = r.count(SNAP_MAX_ENTRIES)?;
                let mut coords = Vec::with_capacity(coords_len);
                for _ in 0..coords_len {
                    coords.push(read_rat(&mut r)?);
                }
                rows.push((pivot, QVec(vec), coords));
            }
            snap.span.push((key, dim, inserted, rows));
        }
        if !r.is_exhausted() {
            return Err(SnapshotError::Truncated);
        }
        Ok(snap)
    }
}

/// Nat codec: `u64` limb count then little-endian `u32` limbs.
fn write_nat(w: &mut Writer, n: &Nat) {
    let limbs = n.to_limbs();
    w.u64(limbs.len() as u64);
    for limb in limbs {
        w.u32(limb);
    }
}

fn read_nat(r: &mut Reader<'_>) -> Result<Nat, SnapshotError> {
    let n = r.count(SNAP_MAX_ENTRIES)?;
    let mut limbs = Vec::with_capacity(n);
    for _ in 0..n {
        limbs.push(r.u32()?);
    }
    Ok(Nat::from_limbs(limbs))
}

/// Rat codec: `i8` sign, numerator magnitude, denominator (both as Nats).
/// Decoding re-reduces through `Rat::new`, so even a checksum-valid payload
/// with a non-reduced fraction reconstructs a canonical value.
fn write_rat(w: &mut Writer, r: &Rat) {
    let sign: i8 = match r.numer().sign() {
        Sign::Negative => -1,
        Sign::Zero => 0,
        Sign::Positive => 1,
    };
    w.u8(sign as u8);
    write_nat(w, r.numer().magnitude());
    write_nat(w, r.denom());
}

fn read_rat(r: &mut Reader<'_>) -> Result<Rat, SnapshotError> {
    let sign = match r.u8()? as i8 {
        -1 => Sign::Negative,
        0 => Sign::Zero,
        1 => Sign::Positive,
        other => {
            return Err(SnapshotError::Malformed(format!("rat sign byte {other}")));
        }
    };
    let num = read_nat(r)?;
    let den = read_nat(r)?;
    if den.is_zero() {
        return Err(SnapshotError::Malformed("zero denominator".into()));
    }
    if (sign == Sign::Zero) != num.is_zero() {
        return Err(SnapshotError::Malformed("sign/magnitude mismatch".into()));
    }
    Ok(Rat::new(
        cqdet_bigint::Int::from_sign_mag(sign, num),
        cqdet_bigint::Int::from_nat(den),
    ))
}

impl DecisionContext {
    /// Export the warm-startable caches (see [`SessionSnapshot`]).  Runs
    /// concurrently with traffic — each shard is visited under its own
    /// lock, so the result is a consistent-per-entry, possibly
    /// non-atomic-across-caches view, which is all a warm start needs.
    pub fn export_snapshot(&self) -> SessionSnapshot {
        let mut snap = SessionSnapshot::default();
        {
            let table = locked(&self.classes);
            snap.next_class_id = table.1;
            for (key, id) in table.0.iter() {
                snap.classes.push((key.canon_bytes().into(), *id));
            }
        }
        // Preassigned ids not (yet) re-interned this session are still
        // live identities for the persisted span keys — carry them over.
        for (canon, id) in locked(&self.preassigned).iter() {
            if !snap.classes.iter().any(|(c, _)| c == canon) {
                snap.classes.push((canon.clone(), *id));
            }
        }
        self.gate.for_each(|(view, query), verdict| {
            snap.gate.push((
                view.canon_bytes().into(),
                query.canon_bytes().into(),
                *verdict,
            ));
        });
        for (pk, verdict) in locked(&self.gate_preload).iter() {
            if let Some((view, query)) = split_pair_key(pk) {
                snap.gate.push((view.into(), query.into(), *verdict));
            }
        }
        self.caches.export_counts(|tgt, src, count| {
            snap.hom.push((tgt.into(), src.into(), count.clone()));
        });
        self.span.for_each(|key, entry| {
            let basis = locked(&entry.basis);
            snap.span
                .push((key.clone(), basis.dim(), basis.len(), basis.export_rows()));
        });
        snap
    }

    /// Install a warm-start snapshot into this (typically fresh) context.
    /// Structurally invalid span entries are dropped individually — the
    /// checksum already vouches for transport integrity, and a dropped
    /// entry merely cold-starts that one key.  Returns the number of
    /// entries installed.
    pub fn install_snapshot(&self, snap: SessionSnapshot) -> usize {
        let mut installed = 0usize;
        {
            let mut preassigned = locked(&self.preassigned);
            let mut table = locked(&self.classes);
            for (canon, id) in snap.classes {
                table.1 = table.1.max(id.saturating_add(1));
                preassigned.insert(canon, id);
                installed += 1;
            }
            table.1 = table.1.max(snap.next_class_id);
        }
        {
            let mut preload = locked(&self.gate_preload);
            for (view, query, verdict) in snap.gate {
                preload.insert(pair_key(&view, &query), verdict);
                installed += 1;
            }
        }
        for (tgt, src, count) in snap.hom {
            self.caches.preload_count(&tgt, &src, count);
            installed += 1;
        }
        for (key, dim, inserted, rows) in snap.span {
            if let Some(basis) = IncrementalBasis::from_parts(dim, inserted, rows) {
                let bytes = basis.heap_bytes();
                self.span.insert_or_get(
                    key,
                    Arc::new(SpanEntry {
                        basis: Mutex::new(basis),
                        bytes: AtomicUsize::new(bytes),
                    }),
                );
                installed += 1;
            }
        }
        installed
    }
}

/// The frozen-cache key: schema relations plus the body atoms, rendered.
/// Equal fingerprints guarantee identical frozen bodies (freezing is a
/// deterministic function of exactly these inputs).
fn fingerprint(schema: &Schema, query: &ConjunctiveQuery) -> String {
    // Sized up front (two arity digits assumed), so the key is built in
    // one allocation.
    let atoms = query.atoms();
    let len = schema.relations().map(|(r, _)| r.len() + 4).sum::<usize>()
        + 1
        + atoms
            .iter()
            .map(|a| a.relation.len() + 3 + a.vars.iter().map(|v| v.len() + 1).sum::<usize>())
            .sum::<usize>();
    let mut out = String::with_capacity(len);
    for (rel, arity) in schema.relations() {
        out.push_str(rel);
        out.push('/');
        push_decimal(&mut out, arity);
        out.push(';');
    }
    out.push('|');
    for atom in atoms {
        out.push_str(&atom.relation);
        out.push('(');
        for (i, v) in atom.vars.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(v);
        }
        out.push_str("),");
    }
    out
}

/// Append `n` in decimal (what `write!(out, "{n}")` prints, without the
/// formatting machinery).
fn push_decimal(out: &mut String, n: usize) {
    if n >= 10 {
        push_decimal(out, n / 10);
    }
    out.push(char::from(b'0' + (n % 10) as u8));
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqdet_query::cq::Atom;

    fn edge(name: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::boolean(name, vec![Atom::new("R", &["x", "y"])])
    }

    fn two_path(name: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::boolean(
            name,
            vec![Atom::new("R", &["x", "y"]), Atom::new("R", &["y", "z"])],
        )
    }

    /// The gate, unmetered: the cached verdict, else a search.
    fn gate(cx: &DecisionContext, view: &FrozenQuery, query: &FrozenQuery) -> bool {
        cx.gate_cached(view, query)
            .unwrap_or_else(|| cx.gate_search(view, query, &mut Gas::unlimited()).unwrap())
    }

    #[test]
    fn frozen_bodies_are_shared_and_counted() {
        let cx = DecisionContext::new();
        let schema = Schema::binary(["R"]);
        let a = cx.frozen(&schema, &edge("v"));
        let b = cx.frozen(&schema, &edge("w"));
        assert!(
            Arc::ptr_eq(&a, &b),
            "same body, different names → one entry"
        );
        let stats = cx.stats();
        assert_eq!((stats.frozen_hits, stats.frozen_misses), (1, 1));
        // A different body misses.
        let c = cx.frozen(&schema, &two_path("p"));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cx.stats().frozen_misses, 2);
        // Components are computed once and cached on the shared entry.
        assert_eq!(a.components().len(), 1);
        assert_eq!(c.components().len(), 1);
    }

    #[test]
    fn gate_cache_is_isomorphism_invariant() {
        let cx = DecisionContext::new();
        let schema = Schema::binary(["R"]);
        let q = cx.frozen(&schema, &two_path("q"));
        let v1 = cx.frozen(&schema, &edge("v1"));
        // Alpha-renamed copy: different fingerprint, same isomorphism class.
        let v2 = cx.frozen(
            &schema,
            &ConjunctiveQuery::boolean("v2", vec![Atom::new("R", &["a", "b"])]),
        );
        assert!(gate(&cx, &v1, &q), "q ⊆_set edge");
        assert!(gate(&cx, &v2, &q), "isomorphic view shares the gate entry");
        let stats = cx.stats();
        assert_eq!((stats.gate_hits, stats.gate_misses), (1, 1));
    }

    #[test]
    fn class_ids_are_stable_and_dense() {
        let cx = DecisionContext::new();
        let schema = Schema::binary(["R"]);
        let a = cx.frozen(&schema, &edge("a"));
        let b = cx.frozen(&schema, &two_path("b"));
        let id_a = cx.class_id(a.iso_key());
        let id_b = cx.class_id(b.iso_key());
        assert_ne!(id_a, id_b);
        assert_eq!(cx.class_id(a.iso_key()), id_a);
        assert_eq!(cx.stats().iso_classes, 2);
    }

    /// A context with some of everything in its caches.
    fn populated_context() -> (DecisionContext, Schema) {
        let cx = DecisionContext::new();
        let schema = Schema::binary(["R"]);
        let q = cx.frozen(&schema, &two_path("q"));
        let v = cx.frozen(&schema, &edge("v"));
        assert!(gate(&cx, &v, &q));
        let id = cx.class_id(v.iso_key());
        cx.caches().hom_count(v.body(), q.body());
        let vectors = [
            QVec::from_i64s(&[1, 0, 2]),
            QVec::from_i64s(&[0, 1, 1]),
            QVec::from_i64s(&[1, 1, 3]),
        ];
        assert!(cx
            .span_solve(&[id, id + 1], &vectors, &vectors[2], &mut Gas::unlimited())
            .unwrap()
            .is_some());
        (cx, schema)
    }

    #[test]
    fn snapshot_round_trip_restores_every_section() {
        let (cx, schema) = populated_context();
        let snap = cx.export_snapshot();
        assert!(!snap.is_empty());
        assert!(!snap.classes.is_empty() && !snap.gate.is_empty());
        assert!(!snap.hom.is_empty() && !snap.span.is_empty());
        let payload = snap.to_payload();
        let decoded = SessionSnapshot::from_payload(&payload).expect("round trip");
        let fresh = DecisionContext::new();
        let installed = fresh.install_snapshot(decoded);
        assert_eq!(installed, snap.len(), "every entry installs");
        // Gate verdict answered from the preload — no hom search runs.
        let q = fresh.frozen(&schema, &two_path("q"));
        let v = fresh.frozen(&schema, &edge("v"));
        assert!(gate(&fresh, &v, &q));
        // Class ids restored verbatim: span keys from the snapshot stay valid.
        assert_eq!(fresh.class_id(v.iso_key()), cx.class_id(v.iso_key()));
        // The restored span basis is a cache hit and already spans the old
        // target, so the solve resumes past every previously fed generator.
        let id = fresh.class_id(v.iso_key());
        let vectors = [
            QVec::from_i64s(&[1, 0, 2]),
            QVec::from_i64s(&[0, 1, 1]),
            QVec::from_i64s(&[1, 1, 3]),
        ];
        let restored = fresh
            .span_solve(&[id, id + 1], &vectors, &vectors[2], &mut Gas::unlimited())
            .unwrap();
        assert!(restored.is_some(), "restored echelon spans the old target");
        assert_eq!(fresh.stats().span_hits, 1);
    }

    #[test]
    fn corrupted_snapshot_payload_never_panics() {
        let (cx, _) = populated_context();
        let payload = cx.export_snapshot().to_payload();
        // Truncations at every boundary parse to a typed error, not a panic.
        for len in 0..payload.len() {
            assert!(SessionSnapshot::from_payload(&payload[..len]).is_err());
        }
        // Byte flips either fail to parse or decode to installable-or-
        // droppable data; install must not panic either way.
        for i in (0..payload.len()).step_by(7) {
            let mut bad = payload.clone();
            bad[i] ^= 0x55;
            if let Ok(snap) = SessionSnapshot::from_payload(&bad) {
                DecisionContext::new().install_snapshot(snap);
            }
        }
    }

    #[test]
    fn tiny_cache_caps_degrade_without_wrong_answers() {
        let capped = DecisionContext::with_cache_bytes(Some(8192));
        let uncapped = DecisionContext::new();
        let schema = Schema::binary(["R"]);
        for i in 0..50 {
            let q = ConjunctiveQuery::boolean(
                "q",
                vec![
                    Atom::new("R", &[format!("x{i}").as_str(), "y"]),
                    Atom::new("R", &["y", "z"]),
                ],
            );
            let fq_c = capped.frozen(&schema, &q);
            let fq_u = uncapped.frozen(&schema, &q);
            let v_c = capped.frozen(&schema, &edge("v"));
            let v_u = uncapped.frozen(&schema, &edge("v"));
            assert_eq!(gate(&capped, &v_c, &fq_c), gate(&uncapped, &v_u, &fq_u));
        }
    }
}
