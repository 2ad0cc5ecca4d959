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
//!   connected components per distinct `(schema, body)` pair, admitted on
//!   its second sighting, so a view shared by N tasks is frozen, canonized
//!   and decomposed at most twice and a one-off body is never kept
//!   ([`FrozenQuery`]);
//! * a **containment-gate cache** keyed by the *isomorphism classes* of the
//!   view and query bodies (Definition 25's `q ⊆_set v` test is
//!   isomorphism-invariant in both arguments), so even textually different
//!   alpha-renamings of a view share one `hom_exists` search per query
//!   class;
//! * a session-wide **iso-class table** assigning stable dense ids to
//!   canonical keys, which the pipeline uses to intern view bodies and
//!   which callers can read for capacity accounting ([`ContextStats`]);
//! * the [`Governor`] — byte ledger and memory watermark — that every one
//!   of these caches charges.  It belongs to this context alone: two
//!   contexts in one process never see each other's bytes.
//!
//! The session-aware entry point is
//! [`crate::boolean::decide_bag_determinacy_in`]; the one-shot function is
//! now a thin wrapper that builds a fresh context per call.  The
//! `cqdet-engine` crate wraps a `DecisionContext` into a full batch engine
//! (task fan-out, JSON certificates, cache-hit statistics).

use cqdet_cache::snapshot::{Reader, SnapshotError, Writer};
use cqdet_cache::{CacheUsage, Governor, ShardedCache};
use cqdet_failpoint::fail_point;
use cqdet_parallel::{par_map, Gas, Interrupt};
use cqdet_query::ConjunctiveQuery;
use cqdet_structure::{
    components_keyed, hom_exists_gas, IsoClassKey, Schema, SharedCaches, Structure,
};
use std::collections::HashMap;
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
/// Handed out as `Arc<FrozenQuery>` by [`DecisionContext::frozen`]; once
/// the cache has admitted a body (on its second sighting), every later task
/// that mentions it holds the same allocation, so the decomposition and
/// every canonical key is computed at most twice per session.
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
    /// Number of distinct isomorphism classes interned in the session table.
    pub iso_classes: u64,
    /// Full governed-cache counters of the frozen-body cache.
    pub frozen_usage: CacheUsage,
    /// Full governed-cache counters of the containment-gate cache.
    pub gate_usage: CacheUsage,
    /// Total bytes charged to this context's [`Governor`] by every cache
    /// it governs.
    pub governed_bytes: u64,
}

/// Bound on the class-interning table.  When the table fills, it is cleared
/// wholesale (the monotone id counter survives, so an id is never reused
/// for a different class).  The table is count-capped and charges no
/// governor, yet each entry's `IsoClassKey` pins its class's canonical
/// bytes and the body flat they were cut from, so a full table can hold
/// far more than its 8192 map slots.
const CONTEXT_CACHE_CAP: usize = 8192;

/// Default byte budgets of the context's governed caches, in force until a
/// serve-level `--cache-bytes` total retargets them
/// ([`DecisionContext::set_cache_bytes`]).  Generous enough that tests and
/// one-shot runs never evict; bounded so a long-lived session fed a stream
/// of ever-new queries cannot leak.
const FROZEN_DEFAULT_BYTES: usize = 16 << 20;
const GATE_DEFAULT_BYTES: usize = 16 << 20;

/// How a serve-level `--cache-bytes` total is split across the two
/// governed caches, in percent.  The remaining 80% stays under the
/// watermark as headroom for the open sessions, which charge the same
/// governor.
const SPLIT_FROZEN: u64 = 10;
const SPLIT_GATE: u64 = 10;

/// The smallest slice of the frozen cap one of its shards may get: a small
/// `--cache-bytes` total routes the frozen cache to fewer shards, down to
/// one, rather than cut slices that cannot hold an entry (the flat 512
/// bytes plus a fingerprint of up to 1.5 KiB).
const FROZEN_MIN_SLICE: usize = 2048;

/// Flat byte cost of one frozen body: the fingerprint key plus a fixed
/// estimate of the structure, key and component storage (bodies are
/// query-sized by construction — a handful of atoms).  An estimate, not a
/// measurement: a body of many atoms costs more than it is charged.
#[allow(clippy::ptr_arg)] // must match the cache's `fn(&K, &V)` weigher type
fn frozen_weight(key: &String, _v: &Arc<FrozenQuery>) -> usize {
    frozen_bytes(key)
}

fn frozen_bytes(fingerprint: &str) -> usize {
    fingerprint.len() + 512
}

/// Flat byte cost of one gate verdict: two `Arc` key handles plus map-entry
/// bookkeeping.  The canonical keys themselves are not charged, on the
/// grounds that the frozen cache holds them too — but a verdict outlives
/// the frozen entry it was computed from, and then its two keys pin their
/// canonical bytes and body flats uncharged.
fn gate_weight(_k: &(IsoClassKey, IsoClassKey), _v: &bool) -> usize {
    96
}

/// Cross-request caches for [`crate::boolean::decide_bag_determinacy_in`]:
/// see the [module docs](self) for what is shared and why.  All interior
/// state is lock-protected, so one context can serve a scoped fan-out of
/// tasks (`&DecisionContext` is `Sync`).  The value caches (frozen bodies,
/// gate verdicts) are governed
/// [`ShardedCache`]s — byte-capped, clock-evicting, never refusing — and
/// the interning class table is bounded by `CONTEXT_CACHE_CAP`.  The two
/// value caches charge the context's own [`Governor`].
///
/// The two value caches admit differently.  A frozen body enters its cache
/// only on its second sighting — a repeat within one call, or a second
/// call that freezes the same fingerprint — so a stream of one-off
/// decides builds its bodies and keeps none ([`DecisionContext::frozen_all`]).
/// A gate verdict is kept the first time it is computed: each is a hom
/// search, and the warm-start snapshot carries what the cache holds.
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
    /// Consulted only on a gate-cache miss; a hit moves into the live
    /// cache, so a preloaded verdict costs its one map probe once and a
    /// later snapshot carries it once.
    gate_preload: Mutex<HashMap<Box<[u8]>, bool>>,
    /// Class table plus the next id to hand out.  The counter is monotone —
    /// it survives a capacity clear, so an id is never reused for a
    /// different class (a reused id could alias two distinct classes inside
    /// one in-flight call; a class holding two ids merely duplicates a
    /// session echelon's column).
    #[allow(clippy::mutable_key_type)]
    classes: Mutex<(HashMap<IsoClassKey, u32>, u32)>,
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
            caches: Arc::default(),
            frozen: ShardedCache::new(FROZEN_DEFAULT_BYTES, frozen_weight)
                .with_min_slice(FROZEN_MIN_SLICE)
                .with_doorkeeper()
                .governed_by(&governor),
            gate: ShardedCache::new(GATE_DEFAULT_BYTES, gate_weight).governed_by(&governor),
            gate_preload: Mutex::new(HashMap::new()),
            classes: Mutex::new((HashMap::new(), 0)),
            governor,
        }
    }

    /// A fresh context whose two governed caches take 10% of `total` bytes
    /// each (frozen and gate); `None` keeps the defaults.
    pub fn with_cache_bytes(total: Option<u64>) -> DecisionContext {
        let cx = DecisionContext::new();
        cx.set_cache_bytes(total);
        cx
    }

    /// Retarget every governed cache live: `Some(total)` gives each cache
    /// its share of the budget and arms this context's watermark at
    /// `total`; `None` restores the defaults and disarms the watermark.
    /// Over-budget caches evict immediately.
    pub fn set_cache_bytes(&self, total: Option<u64>) {
        match total {
            Some(total) => {
                let part = |pct: u64| ((total * pct / 100) as usize).max(4096);
                self.frozen.set_cap(part(SPLIT_FROZEN));
                self.gate.set_cap(part(SPLIT_GATE));
                self.governor.set_watermark(total);
            }
            None => {
                self.frozen.set_cap(FROZEN_DEFAULT_BYTES);
                self.gate.set_cap(GATE_DEFAULT_BYTES);
                self.governor.set_watermark(0);
            }
        }
    }

    /// An empty handle, kept only for the `perfbench` replay, which still
    /// passes it to `cqdet_structure::with_shared_caches`; the next
    /// benchmark change deletes both.
    #[doc(hidden)]
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
    /// fingerprint repeats an earlier miss of the same call shares that
    /// miss's build: it is neither probed nor counted, and it is the
    /// body's second sighting, so the body is admitted.  Any other miss is
    /// offered to the cache's doorkeeper, which keeps a body only when an
    /// earlier call already offered it.
    pub fn frozen_all(
        &self,
        schema: &Schema,
        queries: &[&ConjunctiveQuery],
    ) -> Vec<Arc<FrozenQuery>> {
        let mut fps: Vec<String> = queries.iter().map(|q| fingerprint(schema, q)).collect();
        let mut out: Vec<Option<Arc<FrozenQuery>>> = vec![None; queries.len()];
        let mut misses: Vec<usize> = Vec::new();
        // (query, the earlier miss it repeats)
        let mut repeats: Vec<(usize, usize)> = Vec::new();
        for (i, fp) in fps.iter().enumerate() {
            if let Some(&m) = misses.iter().find(|&&m| fps[m] == *fp) {
                repeats.push((i, m));
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
            let entry = Arc::new(entry);
            out[i] = Some(if repeats.iter().any(|&(_, m)| m == i) {
                self.frozen.insert_or_get(fp, entry)
            } else {
                self.frozen.admit_on_repeat(fp, entry)
            });
        }
        for (i, m) in repeats {
            out[i] = out[m].clone();
        }
        out.into_iter().flatten().collect()
    }

    /// The session-wide id of an isomorphism class (interning insert on
    /// first sight).  Ids are monotone and never reused, including across
    /// capacity clears.
    pub fn class_id(&self, key: &IsoClassKey) -> u32 {
        let mut table = locked(&self.classes);
        let (map, next) = &mut *table;
        if map.len() >= CONTEXT_CACHE_CAP && !map.contains_key(key) {
            map.clear();
        }
        if let Some(&id) = map.get(key) {
            return id;
        }
        let id = *next;
        *next += 1;
        map.insert(key.clone(), id);
        id
    }

    /// The Definition 25 containment gate `q ⊆_set v` (i.e. `hom(v, q) ≠ ∅`
    /// on frozen bodies), as cached by the isomorphism classes of both
    /// sides: the verdict when the live cache or a warm-start snapshot
    /// holds it, counted as a hit; `None`, counted as a miss, when only
    /// [`DecisionContext::gate_search`] can answer.  Hits are free (the work
    /// was already paid for), so the pipeline probes every class inline and
    /// fans out only the misses.
    pub fn gate_cached(&self, view: &FrozenQuery, query: &FrozenQuery) -> Option<bool> {
        let key = (view.iso_key().clone(), query.iso_key().clone());
        // A warm-started session answers a live miss from the snapshot's
        // verdicts (moving the entry into the live cache) before paying
        // for a search.  The preload map is empty outside warm starts, so
        // the cold path costs one `is_empty` check.
        self.gate.probe_or(&key, || {
            let mut preload = locked(&self.gate_preload);
            if preload.is_empty() {
                return None;
            }
            let pk = pair_key(view.iso_key().canon_bytes(), query.iso_key().canon_bytes());
            let answer = preload.remove(&pk)?;
            drop(preload);
            fail_point!("session/cache-insert");
            Some(answer)
        })
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

    /// Current cache counters.
    pub fn stats(&self) -> ContextStats {
        let frozen = self.frozen.stats();
        let gate = self.gate.stats();
        ContextStats {
            frozen_hits: frozen.hits,
            frozen_misses: frozen.misses,
            gate_hits: gate.hits,
            gate_misses: gate.misses,
            iso_classes: locked(&self.classes).0.len() as u64,
            frozen_usage: frozen,
            gate_usage: gate,
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

/// The warm-startable portion of a session's caches: the containment-gate
/// verdicts — expensive to recompute (each is a hom search), deterministic,
/// and keyed by process-independent canonical bytes.  Frozen bodies are
/// cheap to rebuild and are deliberately *not* persisted.
///
/// Produced by [`DecisionContext::export_snapshot`], restored by
/// [`DecisionContext::install_snapshot`]; the byte codec
/// ([`SessionSnapshot::to_payload`] / [`SessionSnapshot::from_payload`])
/// emits the payload the `cqdet-cache` envelope seals on disk.
#[derive(Default)]
pub struct SessionSnapshot {
    /// `(view canon, query canon, verdict)` per cached containment gate.
    #[allow(clippy::type_complexity)]
    pub gate: Vec<(Box<[u8]>, Box<[u8]>, bool)>,
}

/// Sanity bound on the snapshot's entry count: a checksum-valid file from a
/// buggy (or hostile) writer must not trigger huge allocations.
const SNAP_MAX_ENTRIES: u64 = 1 << 22;

impl SessionSnapshot {
    /// Total entries (observability; zero means a cold snapshot not worth
    /// writing).
    pub fn len(&self) -> usize {
        self.gate.len()
    }

    /// Whether the snapshot carries nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serialize to the envelope payload (see `cqdet_cache::snapshot`).
    pub fn to_payload(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.gate.len() as u64);
        for (view, query, verdict) in &self.gate {
            w.bytes(view);
            w.bytes(query);
            w.u8(u8::from(*verdict));
        }
        w.finish()
    }

    /// Parse an envelope payload.  Every read is bounds-checked and the
    /// entry count is sanity-limited.
    pub fn from_payload(payload: &[u8]) -> Result<SessionSnapshot, SnapshotError> {
        let mut r = Reader::new(payload);
        let mut snap = SessionSnapshot::default();
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
        if !r.is_exhausted() {
            return Err(SnapshotError::Truncated);
        }
        Ok(snap)
    }
}

impl DecisionContext {
    /// Export the warm-startable caches (see [`SessionSnapshot`]).  Runs
    /// concurrently with traffic — each shard is visited under its own
    /// lock, so the result is a consistent-per-entry, possibly
    /// non-atomic view, which is all a warm start needs.
    pub fn export_snapshot(&self) -> SessionSnapshot {
        let mut snap = SessionSnapshot::default();
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
        snap
    }

    /// Install a warm-start snapshot into this (typically fresh) context.
    /// Returns the number of entries installed.
    pub fn install_snapshot(&self, snap: SessionSnapshot) -> usize {
        let mut preload = locked(&self.gate_preload);
        let installed = snap.gate.len();
        for (view, query, verdict) in snap.gate {
            preload.insert(pair_key(&view, &query), verdict);
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
        // A body is admitted on its second sighting: the first build is
        // handed back and not kept.
        let a = cx.frozen(&schema, &edge("v"));
        assert_eq!(
            cx.stats().frozen_usage.entries,
            0,
            "first sighting declined"
        );
        let b = cx.frozen(&schema, &edge("w"));
        assert!(!Arc::ptr_eq(&a, &b), "the declined build is not shared");
        assert_eq!(
            cx.stats().frozen_usage.entries,
            1,
            "second sighting admitted"
        );
        let b2 = cx.frozen(&schema, &edge("u"));
        assert!(
            Arc::ptr_eq(&b, &b2),
            "same body, different names → one entry"
        );
        let stats = cx.stats();
        assert_eq!((stats.frozen_hits, stats.frozen_misses), (1, 2));
        // A different body misses.
        let c = cx.frozen(&schema, &two_path("p"));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cx.stats().frozen_misses, 3);
        // Components are computed once and cached on the shared entry.
        assert_eq!(a.components().len(), 1);
        assert_eq!(c.components().len(), 1);
    }

    #[test]
    fn identical_views_in_one_program_cost_one_freeze() {
        let cx = DecisionContext::new();
        let (views, query) = ([edge("v"), edge("w")], two_path("q"));
        let analysis = crate::boolean::decide_bag_determinacy_in(
            &cx,
            &views,
            &query,
            &cqdet_parallel::CancelToken::none(),
            &cqdet_parallel::Budget::none(),
        )
        .unwrap();
        assert_eq!(analysis.retained_views, vec![0, 1]);
        let stats = cx.stats();
        // One freeze for the query, one for both views: the repeat shares
        // the first build, unprobed.
        assert_eq!((stats.frozen_hits, stats.frozen_misses), (0, 2));
        // The repeat is the view body's second sighting, so it is admitted;
        // the query's body, seen once, is not.
        assert_eq!(stats.frozen_usage.entries, 1);
        let schema = Schema::binary(["R"]);
        let both = cx.frozen_all(&schema, &[&views[0], &views[1]]);
        assert!(Arc::ptr_eq(&both[0], &both[1]));
        assert_eq!(
            cx.stats().frozen_hits,
            2,
            "both probes of the admitted body hit"
        );
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

    /// A context with a gate verdict in its cache.
    fn populated_context() -> (DecisionContext, Schema) {
        let cx = DecisionContext::new();
        let schema = Schema::binary(["R"]);
        let q = cx.frozen(&schema, &two_path("q"));
        let v = cx.frozen(&schema, &edge("v"));
        assert!(gate(&cx, &v, &q));
        (cx, schema)
    }

    #[test]
    fn snapshot_round_trip_restores_every_section() {
        let (cx, schema) = populated_context();
        let snap = cx.export_snapshot();
        assert!(!snap.is_empty());
        let payload = snap.to_payload();
        let decoded = SessionSnapshot::from_payload(&payload).expect("round trip");
        let fresh = DecisionContext::new();
        let installed = fresh.install_snapshot(decoded);
        assert_eq!(installed, snap.len(), "every entry installs");
        // Gate verdict answered from the preload — no hom search runs.
        let q = fresh.frozen(&schema, &two_path("q"));
        let v = fresh.frozen(&schema, &edge("v"));
        assert_eq!(fresh.gate_cached(&v, &q), Some(true));
        let stats = fresh.stats();
        assert_eq!(
            (stats.gate_hits, stats.gate_misses),
            (1, 0),
            "a preloaded verdict is a hit"
        );
        // A decide on the warm-started context answers as a one-shot does.
        let (views, query) = ([edge("v")], two_path("q"));
        let warm = crate::boolean::decide_bag_determinacy_in(
            &fresh,
            &views,
            &query,
            &cqdet_parallel::CancelToken::none(),
            &cqdet_parallel::Budget::none(),
        )
        .unwrap();
        let cold = crate::boolean::decide_bag_determinacy(&views, &query).unwrap();
        assert_eq!(warm.determined, cold.determined);
        assert_eq!(warm.retained_views, cold.retained_views);
        assert_eq!(warm.view_vectors, cold.view_vectors);
        assert_eq!(warm.coefficients, cold.coefficients);
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
