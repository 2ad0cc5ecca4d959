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
//! * a [`SharedCaches`] handle for the hom-count memo, which callers
//!   install around witness construction so separating-structure searches
//!   and evaluation matrices reuse counts across tasks
//!   (`cqdet_structure::with_shared_caches`).
//!
//! The session-aware entry point is
//! [`crate::boolean::decide_bag_determinacy_in`]; the one-shot function is
//! now a thin wrapper that builds a fresh context per call.  The
//! `cqdet-engine` crate wraps a `DecisionContext` into a full batch engine
//! (task fan-out, JSON certificates, cache-hit statistics).

use cqdet_bigint::{Nat, Sign};
use cqdet_cache::snapshot::{Reader, SnapshotError, Writer};
use cqdet_cache::{CacheUsage, ShardedCache};
use cqdet_failpoint::fail_point;
use cqdet_linalg::{IncrementalBasis, QVec, Rat};
use cqdet_parallel::{Gas, Interrupt};
use cqdet_query::ConjunctiveQuery;
use cqdet_structure::{
    cand_cache_usage, connected_components, hom_exists_gas, set_cand_cache_bytes, IsoClassKey,
    Schema, SharedCaches, Structure,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

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

/// A query body frozen over a schema, with its session-cached derived data:
/// the isomorphism-class key (forced at construction, so clones and lookups
/// never re-canonize) and the connected components (computed on first use).
///
/// Handed out as `Arc<FrozenQuery>` by [`DecisionContext::frozen`]; every
/// task of a batch that mentions the same view body holds the same
/// allocation, so the component decomposition and every canonical key is
/// computed once per session.
pub struct FrozenQuery {
    body: Structure,
    key: IsoClassKey,
    comps: OnceLock<Vec<Structure>>,
}

impl FrozenQuery {
    fn new(body: Structure) -> FrozenQuery {
        let key = body.iso_class_key();
        FrozenQuery {
            body,
            key,
            comps: OnceLock::new(),
        }
    }

    /// The frozen body structure.
    pub fn body(&self) -> &Structure {
        &self.body
    }

    /// The isomorphism-class key of the body (precomputed).
    pub fn iso_key(&self) -> &IsoClassKey {
        &self.key
    }

    /// The connected components of the body (Definition 27's raw material),
    /// computed once and cached for the lifetime of the session.
    pub fn components(&self) -> &[Structure] {
        self.comps.get_or_init(|| connected_components(&self.body))
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
    /// Family-wide counters of the per-structure candidate memos.
    pub cand_usage: CacheUsage,
    /// Process-wide total bytes charged by every governed cache.
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
const CAND_DEFAULT_BYTES: usize = 16 << 20;

/// How a serve-level `--cache-bytes` total is split across the five
/// governed caches, in percent: hom and span carry the expensive entries
/// (backtracking searches, bigint echelon rows), the rest are cheap to
/// recompute.
const SPLIT_HOM: u64 = 40;
const SPLIT_SPAN: u64 = 30;
const SPLIT_FROZEN: u64 = 10;
const SPLIT_GATE: u64 = 10;
const SPLIT_CAND: u64 = 10;

/// Approximate byte cost of one frozen body: the fingerprint key plus a
/// fixed estimate of the structure, key and component storage (bodies are
/// query-sized by construction — a handful of atoms).
#[allow(clippy::ptr_arg)] // must match the cache's `fn(&K, &V)` weigher type
fn frozen_weight(key: &String, _v: &Arc<FrozenQuery>) -> usize {
    key.len() + 512
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
/// the interning class table is bounded by [`CONTEXT_CACHE_CAP`].
pub struct DecisionContext {
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
    /// A fresh context with empty caches under the default byte budgets.
    pub fn new() -> DecisionContext {
        DecisionContext {
            caches: Arc::new(SharedCaches::new()),
            frozen: ShardedCache::new(FROZEN_DEFAULT_BYTES, frozen_weight),
            gate: ShardedCache::new(GATE_DEFAULT_BYTES, gate_weight),
            gate_preload: Mutex::new(HashMap::new()),
            classes: Mutex::new((HashMap::new(), 0)),
            preassigned: Mutex::new(HashMap::new()),
            span: ShardedCache::new(SPAN_DEFAULT_BYTES, span_weight),
        }
    }

    /// A fresh context whose five governed caches split `total` bytes
    /// ([`SPLIT_HOM`] et al.); `None` keeps the defaults.
    pub fn with_cache_bytes(total: Option<u64>) -> DecisionContext {
        let cx = DecisionContext::new();
        cx.set_cache_bytes(total);
        cx
    }

    /// Retarget every governed cache live: `Some(total)` splits the budget
    /// across the five caches and arms the process watermark at `total`;
    /// `None` restores the defaults and disarms the watermark.  Over-budget
    /// caches evict immediately.
    pub fn set_cache_bytes(&self, total: Option<u64>) {
        match total {
            Some(total) => {
                let part = |pct: u64| ((total * pct / 100) as usize).max(4096);
                self.caches.set_cap_bytes(part(SPLIT_HOM));
                self.span.set_cap(part(SPLIT_SPAN));
                self.frozen.set_cap(part(SPLIT_FROZEN));
                self.gate.set_cap(part(SPLIT_GATE));
                set_cand_cache_bytes(part(SPLIT_CAND));
                cqdet_cache::set_watermark(total);
            }
            None => {
                self.caches.set_cap_bytes(HOM_DEFAULT_BYTES);
                self.span.set_cap(SPAN_DEFAULT_BYTES);
                self.frozen.set_cap(FROZEN_DEFAULT_BYTES);
                self.gate.set_cap(GATE_DEFAULT_BYTES);
                set_cand_cache_bytes(CAND_DEFAULT_BYTES);
                cqdet_cache::set_watermark(0);
            }
        }
    }

    /// The session's hom-count cache handle.  Callers running witness
    /// construction (or any other hom-count-heavy work) on behalf of the
    /// session should wrap it in `cqdet_structure::with_shared_caches` with
    /// this handle so counts are shared across tasks.
    pub fn caches(&self) -> &Arc<SharedCaches> {
        &self.caches
    }

    /// The frozen body of `query` over `schema`, from the session cache.
    ///
    /// Keyed by the literal `(schema, body atoms)` rendering — cheap to
    /// compute and exact: equal keys produce identical frozen bodies.
    /// Distinct alpha-renamings of the same query miss here but still
    /// converge downstream, where everything is keyed by isomorphism class.
    pub fn frozen(&self, schema: &Schema, query: &ConjunctiveQuery) -> Arc<FrozenQuery> {
        let fp = fingerprint(schema, query);
        if let Some(hit) = self.frozen.probe(&fp) {
            return hit;
        }
        // Freeze and canonize outside any shard lock: concurrent workers
        // freezing the same new view both compute, the first insert wins
        // and both results are identical.
        let (body, _) = query.frozen_body_over(schema);
        let entry = Arc::new(FrozenQuery::new(body));
        fail_point!("session/cache-insert");
        self.frozen.insert_or_get(fp, entry)
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
    /// on frozen bodies), cached by the isomorphism classes of both sides.
    pub fn gate(&self, view: &FrozenQuery, query: &FrozenQuery) -> bool {
        match self.gate_gas(view, query, &mut Gas::unlimited()) {
            Ok(answer) => answer,
            // Unlimited gas never expires and has no budget to exhaust.
            Err(stop) => unreachable!("unlimited gas interrupted: {stop}"),
        }
    }

    /// [`DecisionContext::gate`] metered through `gas`: the underlying hom
    /// search charges one step per candidate extension and can stop with a
    /// typed [`Interrupt`] mid-search.  Cache hits are free (the work was
    /// already paid for); only *completed* answers are inserted, so an
    /// interrupted search never poisons the cache with a partial result.
    pub fn gate_gas(
        &self,
        view: &FrozenQuery,
        query: &FrozenQuery,
        gas: &mut Gas,
    ) -> Result<bool, Interrupt> {
        let key = (view.iso_key().clone(), query.iso_key().clone());
        if let Some(hit) = self.gate.probe(&key) {
            return Ok(hit);
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
                    return Ok(self.gate.insert_or_get(key, answer));
                }
            }
        }
        let answer = hom_exists_gas(view.body(), query.body(), gas)?;
        fail_point!("session/cache-insert");
        Ok(self.gate.insert_or_get(key, answer))
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
    /// ([`IncrementalBasis::solve_extend`]): the first task stops
    /// eliminating the moment its target enters the span, later tasks
    /// resume from wherever the basis stands.  Returns coefficients over
    /// `vectors` (zero for never-fed generators) or `None` when the target
    /// is outside the span of all of them.
    pub fn span_solve(&self, key: &[u32], vectors: &[QVec], target: &QVec) -> Option<QVec> {
        match self.span_solve_gas(key, vectors, target, &mut Gas::unlimited()) {
            Ok(answer) => answer,
            // Unlimited gas never expires and has no budget to exhaust.
            Err(stop) => unreachable!("unlimited gas interrupted: {stop}"),
        }
    }

    /// [`DecisionContext::span_solve`] metered through `gas`: the exact
    /// elimination charges one step per row-operation entry and the byte
    /// ledger for coefficient growth, and can stop with a typed
    /// [`Interrupt`] mid-elimination.  The cached [`IncrementalBasis`] stays
    /// consistent across an interrupt (in-flight row restores are completed
    /// before the error surfaces), so later tasks — including a retry of the
    /// interrupted one — resume from whatever was fully fed.
    pub fn span_solve_gas(
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
            cand_usage: cand_cache_usage(),
            governed_bytes: cqdet_cache::governed_bytes(),
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
/// persisted class table).  Frozen bodies and candidate lists are cheap to
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
    use std::fmt::Write as _;
    let mut out = String::with_capacity(64);
    for (rel, arity) in schema.relations() {
        let _ = write!(out, "{rel}/{arity};");
    }
    out.push('|');
    for atom in query.atoms() {
        let _ = write!(out, "{atom},");
    }
    out
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
        assert!(cx.gate(&v1, &q), "q ⊆_set edge");
        assert!(cx.gate(&v2, &q), "isomorphic view shares the gate entry");
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
        assert!(cx.gate(&v, &q));
        let id = cx.class_id(v.iso_key());
        cx.caches().hom_count(v.body(), q.body());
        let vectors = [
            QVec::from_i64s(&[1, 0, 2]),
            QVec::from_i64s(&[0, 1, 1]),
            QVec::from_i64s(&[1, 1, 3]),
        ];
        assert!(cx
            .span_solve(&[id, id + 1], &vectors, &QVec::from_i64s(&[1, 1, 3]))
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
        assert!(fresh.gate(&v, &q));
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
        let restored = fresh.span_solve(&[id, id + 1], &vectors, &QVec::from_i64s(&[1, 1, 3]));
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
            assert_eq!(capped.gate(&v_c, &fq_c), uncapped.gate(&v_u, &fq_u));
        }
        capped.set_cache_bytes(None);
    }
}
