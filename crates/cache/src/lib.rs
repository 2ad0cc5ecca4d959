//! Bounded cache governance for the serving layer.
//!
//! Every cross-request cache of the decision pipeline — frozen bodies,
//! containment gates, open mutable sessions — is built from one mechanism:
//!
//! * [`BoundedCache`] — one map behind one `Mutex` with **byte-budget
//!   accounting**: every entry charges the size a caller-supplied weigher
//!   reports for it (the owner decides how exact that is — the session
//!   registry re-weighs live sessions, the decision caches charge flat
//!   estimates), and a **size-capped clock eviction** (second chance) that
//!   degrades gracefully — over budget means evict and recompute, never
//!   refuse and never crash.  A cache can also keep a **doorkeeper**
//!   ([`BoundedCache::with_doorkeeper`]): [`BoundedCache::admit_on_repeat`]
//!   then admits a key only on its second sighting, so a stream of one-off
//!   keys never churns the cache;
//! * a [`Governor`] — one byte ledger plus a **memory watermark**, owned by
//!   whoever builds the caches (a decision context hands its governor to
//!   every cache it builds): when the sum of the governed caches' bytes
//!   exceeds the watermark, each of them evicts below half its cap, so
//!   together they stay near the owner's footprint even when individual
//!   caps would admit more.  Two contexts in one process own two governors
//!   and never see each other's bytes;
//! * [`snapshot`] — the crash-safe persistence envelope (magic, version,
//!   length, FNV-1a-64 checksum verified *before* parsing) behind the
//!   warm-start snapshot, plus the atomic write-temp → fsync → rename
//!   helper.  A torn, truncated, bit-flipped or version-skewed file is
//!   detected and reported as a typed error — loading never panics.
//!
//! The `cache/evict` fault-injection seam (see `cqdet-failpoint`) sits at
//! the top of every eviction step when the `failpoints` feature is on, so
//! the chaos harness can panic/delay the eviction path under live traffic
//! and assert that verdicts stay byte-identical to an unfaulted engine.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![forbid(unsafe_code)]

use cqdet_failpoint::fail_point;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher, Hash};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

pub mod snapshot;

/// A byte ledger plus a memory watermark shared by every cache built with
/// it ([`BoundedCache::governed_by`]).
#[derive(Debug, Default)]
pub struct Governor {
    /// Sum of `bytes` across every live cache charging this governor.
    bytes: AtomicU64,
    /// The watermark in bytes; `0` disables it.
    watermark: AtomicU64,
}

impl Governor {
    /// Total bytes currently charged by the caches of this governor.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Set the watermark: when [`Governor::bytes`] exceeds it, every cache
    /// of this governor evicts below *half* its cap until the pressure
    /// clears.  `0` (the default) disables the backstop — per-cache caps
    /// alone govern.  The serving layer sets this to the `--cache-bytes`
    /// total.
    pub fn set_watermark(&self, bytes: u64) {
        self.watermark.store(bytes, Ordering::Relaxed);
    }

    fn under_pressure(&self) -> bool {
        let watermark = self.watermark.load(Ordering::Relaxed);
        watermark != 0 && self.bytes() > watermark
    }
}

/// Lock with poison recovery: every critical section in this module leaves
/// the cache structurally consistent even if the holder panicked (eviction
/// mutates the map and queue together under one guard), so a poisoned lock
/// carries usable data and a serving process must not cascade the panic.
fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Occupancy and traffic counters of one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheUsage {
    /// Probes answered from the cache.
    pub hits: u64,
    /// Probes that missed (the caller had to compute).
    pub misses: u64,
    /// Entries removed by the byte-budget clock sweep.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Bytes currently charged (as the weigher reports them).
    pub bytes: u64,
    /// The byte cap in force (`u64::MAX` = unbounded).
    pub cap: u64,
}

struct Entry<V> {
    value: V,
    bytes: usize,
    /// The clock's second-chance bit: set on every probe hit, cleared (in
    /// lieu of eviction) the first time the sweep hand passes the entry.
    referenced: bool,
}

/// Everything behind the cache's one lock.
struct State<K, V> {
    map: HashMap<K, Entry<V>>,
    /// The clock queue in sweep order: every resident key, plus the stale
    /// slots of keys removed since the last compaction ([`State::compact`]).
    queue: VecDeque<K>,
    cap: usize,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Hash + Eq, V: Clone> State<K, V> {
    fn lookup<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: std::borrow::Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let entry = self.map.get_mut(key)?;
        entry.referenced = true;
        Some(entry.value.clone())
    }

    fn count(&mut self, hit: bool) {
        *if hit {
            &mut self.hits
        } else {
            &mut self.misses
        } += 1;
    }

    /// Drop the stale slots (and any repeat of a resident key) from the
    /// clock queue, keeping the order of the rest.
    fn compact(&mut self) {
        let mut kept = HashSet::with_capacity(self.map.len());
        let map = &self.map;
        self.queue
            .retain(|key| map.get_key_value(key).is_some_and(|(k, _)| kept.insert(k)));
    }
}

/// A map with byte-accounted clock eviction.  See the [module docs](self)
/// for the governance model.
///
/// Concurrency: the map, the clock queue and the counters sit behind one
/// `Mutex`, held for one operation and its sweep (the weigher and
/// [`BoundedCache::for_each`]'s visitor run under it; `probe_or`'s
/// fallback does not); only the [`Governor`] ledger and the doorkeeper
/// tags are atomics, shared beyond it.  An over-budget cache evicts with a second-chance
/// clock sweep — recently probed entries survive one pass — and a single
/// entry larger than the whole budget is admitted and immediately evicted
/// (the caller keeps its own copy of the value; the cache merely declines
/// to retain it).
pub struct BoundedCache<K, V> {
    state: Mutex<State<K, V>>,
    /// The doorkeeper of [`BoundedCache::admit_on_repeat`]: a direct-mapped
    /// table of the tags of recently declined keys (`0` = empty slot).
    /// Empty when the cache keeps none.
    seen: Box<[AtomicU64]>,
    weigher: fn(&K, &V) -> usize,
    governor: Option<Arc<Governor>>,
}

/// Slots of a doorkeeper table ([`BoundedCache::with_doorkeeper`]): 32 KiB
/// of tags, enough to remember the declined keys of a few hundred requests.
pub const DOORKEEPER_SLOTS: usize = 4096;

/// The doorkeeper slot of a key's fixed-key hash.
fn doorkeeper_slot(hash: u64) -> usize {
    hash as usize & (DOORKEEPER_SLOTS - 1)
}

impl<K: Hash + Eq + Clone, V: Clone> BoundedCache<K, V> {
    /// A cache of `cap` bytes (`usize::MAX` = unbounded) whose `weigher`
    /// reports each entry's byte cost.  It charges no [`Governor`] until
    /// [`BoundedCache::governed_by`] hands it one.
    pub fn new(cap: usize, weigher: fn(&K, &V) -> usize) -> BoundedCache<K, V> {
        BoundedCache {
            state: Mutex::new(State {
                map: HashMap::new(),
                queue: VecDeque::new(),
                cap,
                bytes: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            seen: Box::default(),
            weigher,
            governor: None,
        }
    }

    /// Charge this (still empty) cache's bytes to `governor` and obey its
    /// watermark.
    pub fn governed_by(mut self, governor: &Arc<Governor>) -> Self {
        debug_assert!(self.is_empty(), "govern a cache before filling it");
        self.governor = Some(governor.clone());
        self
    }

    /// Give [`BoundedCache::admit_on_repeat`] a doorkeeper that remembers
    /// [`DOORKEEPER_SLOTS`] declines.  The table is allocated here, once,
    /// and never grows.
    pub fn with_doorkeeper(mut self) -> Self {
        self.seen = (0..DOORKEEPER_SLOTS).map(|_| AtomicU64::new(0)).collect();
        self
    }

    fn lock(&self) -> MutexGuard<'_, State<K, V>> {
        locked(&self.state)
    }

    /// The byte budget under the current cap, halved while the governor is
    /// over its watermark.
    fn budget(&self, state: &State<K, V>) -> usize {
        match &self.governor {
            Some(g) if g.under_pressure() => state.cap / 2,
            _ => state.cap,
        }
    }

    fn charge(&self, state: &mut State<K, V>, bytes: usize) {
        state.bytes += bytes;
        if let Some(g) = &self.governor {
            g.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        }
    }

    fn discharge(&self, state: &mut State<K, V>, bytes: usize) {
        state.bytes = state.bytes.saturating_sub(bytes);
        if let Some(g) = &self.governor {
            g.bytes.fetch_sub(bytes as u64, Ordering::Relaxed);
        }
    }

    /// Sweep the cache down to its budget with the second-chance clock.
    /// Terminates: every pass either removes a queue slot (strictly
    /// shrinking the queue) or clears a referenced bit that only a *probe*
    /// can set again, and the map/queue pair stays consistent at every step
    /// — a panic injected at the `cache/evict` seam leaves the cache valid
    /// for poison-recovering readers.
    fn sweep(&self, state: &mut State<K, V>) {
        let budget = self.budget(state);
        while state.bytes > budget {
            fail_point!("cache/evict");
            let Some(key) = state.queue.pop_front() else {
                break;
            };
            // A stale slot, left by `remove`, has no entry: drop it.
            let Some(entry) = state.map.get_mut(&key) else {
                continue;
            };
            if entry.referenced {
                entry.referenced = false;
                state.queue.push_back(key);
                continue;
            }
            let Some(removed) = state.map.remove(&key) else {
                continue;
            };
            self.discharge(state, removed.bytes);
            state.evictions += 1;
        }
    }

    /// Probe for `key` (borrowed form accepted, so slice-keyed probes
    /// allocate nothing), counting a hit or a miss and granting the hit its
    /// second chance against the clock sweep.
    pub fn probe<Q>(&self, key: &Q) -> Option<V>
    where
        K: std::borrow::Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut state = self.lock();
        let found = state.lookup(key);
        state.count(found.is_some());
        found
    }

    /// [`BoundedCache::probe`] with a second tier: on a miss, `fallback`
    /// (run outside the cache lock, so it may take locks of its own) may
    /// still supply the value, which is then inserted and counted as a hit
    /// — the work it stands for was already paid for.  Only a miss of both
    /// tiers counts as a miss.
    pub fn probe_or(&self, key: &K, fallback: impl FnOnce() -> Option<V>) -> Option<V> {
        {
            let mut state = self.lock();
            if let Some(value) = state.lookup(key) {
                state.count(true);
                return Some(value);
            }
        }
        let found = fallback();
        let mut state = self.lock();
        state.count(found.is_some());
        Some(self.insert_locked(&mut state, key.clone(), found?))
    }

    /// Insert `value` under `key` unless an entry is already resident, and
    /// return the resident value (the existing one on a race, the freshly
    /// inserted one otherwise).  Does **not** touch the hit/miss counters —
    /// pair it with [`BoundedCache::probe`], which does.  An over-budget
    /// cache is swept before the lock drops.
    pub fn insert_or_get(&self, key: K, value: V) -> V {
        self.insert_locked(&mut self.lock(), key, value)
    }

    /// [`BoundedCache::insert_or_get`] on a key's second sighting only.
    /// The first offer of a key records its hash in the doorkeeper (see
    /// [`BoundedCache::with_doorkeeper`]) and hands `value` back without
    /// keeping it; an offer that finds its hash recorded inserts.  The
    /// table is direct-mapped, so a colliding key overwrites a recorded
    /// sighting: a collision can make a key wait for one more offer, but
    /// the map still compares whole keys, so it never yields a wrong
    /// value.  The doorkeeper hashes with fixed keys, so which keys collide
    /// is the same in every run.  Without a doorkeeper this is
    /// `insert_or_get`.
    pub fn admit_on_repeat(&self, key: K, value: V) -> V {
        if !self.seen.is_empty() {
            let hash = BuildHasherDefault::<DefaultHasher>::default().hash_one(&key);
            let slot = &self.seen[doorkeeper_slot(hash)];
            // Never 0, the empty slot.  `Relaxed`: a tag publishes no other
            // data — the entry itself goes through the cache lock.
            let tag = hash | 1;
            if slot.swap(tag, Ordering::Relaxed) != tag {
                return value;
            }
        }
        self.insert_or_get(key, value)
    }

    fn insert_locked(&self, state: &mut State<K, V>, key: K, value: V) -> V {
        if let Some(entry) = state.map.get_mut(&key) {
            entry.referenced = true;
            return entry.value.clone();
        }
        let bytes = (self.weigher)(&key, &value);
        state.map.insert(
            key.clone(),
            Entry {
                value: value.clone(),
                bytes,
                referenced: false,
            },
        );
        state.queue.push_back(key);
        self.charge(state, bytes);
        self.sweep(state);
        value
    }

    /// Re-weigh the entry under `key` (whose value grew in place — e.g. a
    /// mutable session whose echelon absorbed more generators) and
    /// sweep if the new cost pushed the cache over budget.  A missing key
    /// (already evicted) is a no-op.
    pub fn recharge(&self, key: &K) {
        let mut state = self.lock();
        let Some(entry) = state.map.get_mut(key) else {
            return;
        };
        let new_bytes = (self.weigher)(key, &entry.value);
        let old_bytes = std::mem::replace(&mut entry.bytes, new_bytes);
        if new_bytes >= old_bytes {
            self.charge(&mut state, new_bytes - old_bytes);
        } else {
            self.discharge(&mut state, old_bytes - new_bytes);
        }
        self.sweep(&mut state);
    }

    /// Remove the entry under `key`, returning its value and discharging
    /// its bytes from the cache and the governor's ledger.  The key's clock
    /// slot goes stale; once stale slots outnumber the resident entries,
    /// the queue is compacted, so a remove never leaves it more than twice
    /// the resident count.  Used by owners whose entries have an explicit
    /// end of life (closed sessions), unlike the purely eviction-driven
    /// value caches.
    pub fn remove(&self, key: &K) -> Option<V> {
        let mut state = self.lock();
        let removed = state.map.remove(key)?;
        self.discharge(&mut state, removed.bytes);
        if state.queue.len() > 2 * state.map.len() {
            state.compact();
        }
        Some(removed.value)
    }

    /// Retarget the byte cap live and sweep down to the new budget.
    pub fn set_cap(&self, cap: usize) {
        let mut state = self.lock();
        state.cap = cap;
        self.sweep(&mut state);
    }

    /// Sweep down to the current budget now.
    pub fn enforce(&self) {
        self.sweep(&mut self.lock());
    }

    /// Drop every entry (counters other than `entries`/`bytes` are kept).
    pub fn clear(&self) {
        let mut state = self.lock();
        state.map.clear();
        state.queue.clear();
        let bytes = state.bytes;
        self.discharge(&mut state, bytes);
    }

    /// Visit every resident entry (used by the snapshot exporter).  Holds
    /// the cache lock throughout; `f` must not reenter the cache.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for (k, entry) in self.lock().map.iter() {
            f(k, &entry.value);
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> u64 {
        self.lock().map.len() as u64
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently charged.
    pub fn bytes(&self) -> u64 {
        self.lock().bytes as u64
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheUsage {
        let state = self.lock();
        CacheUsage {
            hits: state.hits,
            misses: state.misses,
            evictions: state.evictions,
            entries: state.map.len() as u64,
            bytes: state.bytes as u64,
            cap: state.cap as u64,
        }
    }
}

impl<K: Hash + Eq + Clone, V: Clone> std::fmt::Debug for BoundedCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedCache")
            .field("stats", &self.stats())
            .finish()
    }
}

impl<K, V> Drop for BoundedCache<K, V> {
    /// Return the residue to the governor so a dropped cache never leaks
    /// governed bytes.
    fn drop(&mut self) {
        if let Some(g) = &self.governor {
            let state = self.state.get_mut().unwrap_or_else(PoisonError::into_inner);
            g.bytes.fetch_sub(state.bytes as u64, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed_weight(_k: &u64, _v: &Vec<u8>) -> usize {
        100
    }

    fn true_weight(_k: &u64, v: &Vec<u8>) -> usize {
        v.capacity()
    }

    #[test]
    fn probe_and_insert_round_trip() {
        let c: BoundedCache<u64, Vec<u8>> = BoundedCache::new(usize::MAX, fixed_weight);
        assert_eq!(c.probe(&1), None);
        c.insert_or_get(1, vec![7]);
        assert_eq!(c.probe(&1), Some(vec![7]));
        let stats = c.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.bytes, 100);
    }

    #[test]
    fn insert_or_get_keeps_the_first_value() {
        let c: BoundedCache<u64, Vec<u8>> = BoundedCache::new(usize::MAX, fixed_weight);
        assert_eq!(c.insert_or_get(5, vec![1]), vec![1]);
        assert_eq!(c.insert_or_get(5, vec![2]), vec![1], "first insert wins");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn byte_cap_is_enforced_by_eviction() {
        let c: BoundedCache<u64, Vec<u8>> = BoundedCache::new(350, fixed_weight);
        for k in 0..10 {
            c.insert_or_get(k, vec![0]);
            assert!(c.bytes() <= 350, "cap violated at k={k}: {}", c.bytes());
        }
        let stats = c.stats();
        assert!(stats.evictions >= 7, "evictions ran: {stats:?}");
        assert!(stats.entries <= 3);
    }

    #[test]
    fn clock_gives_probed_entries_a_second_chance() {
        let c: BoundedCache<u64, Vec<u8>> = BoundedCache::new(350, fixed_weight);
        c.insert_or_get(1, vec![1]);
        c.insert_or_get(2, vec![2]);
        c.insert_or_get(3, vec![3]);
        // Touch 1: it survives the sweep the next insert triggers.
        assert!(c.probe(&1).is_some());
        c.insert_or_get(4, vec![4]);
        assert!(c.probe(&1).is_some(), "referenced entry survived");
        assert_eq!(c.probe(&2), None, "unreferenced entry was evicted");
    }

    #[test]
    fn over_budget_singleton_is_admitted_then_evicted() {
        let c: BoundedCache<u64, Vec<u8>> = BoundedCache::new(10, fixed_weight);
        // The value comes back to the caller even though the cache cannot
        // retain it: degrade, never refuse.
        assert_eq!(c.insert_or_get(1, vec![9]), vec![9]);
        assert_eq!(c.len(), 0);
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn recharge_accounts_growth_and_sweeps() {
        let c: BoundedCache<u64, Vec<u8>> = BoundedCache::new(1000, true_weight);
        c.insert_or_get(1, vec![0u8; 100]);
        c.insert_or_get(2, vec![0u8; 100]);
        assert_eq!(c.bytes(), 200);
        // Grown in place (the weigher sees the same value here, so emulate
        // growth by replacing through clear+insert on key 2 with more
        // capacity, then recharging key 1 as a no-op).
        c.recharge(&1);
        assert_eq!(c.bytes(), 200, "recharge of an unchanged entry is a no-op");
        c.recharge(&99); // missing key: no-op
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn remove_discharges_bytes_and_survives_later_sweeps() {
        let governor = Arc::new(Governor::default());
        let c: BoundedCache<u64, Vec<u8>> =
            BoundedCache::new(1000, fixed_weight).governed_by(&governor);
        for k in 0..5 {
            c.insert_or_get(k, vec![k as u8]);
        }
        assert_eq!(governor.bytes(), 500);
        assert_eq!(c.remove(&2), Some(vec![2]));
        assert_eq!(c.remove(&2), None, "double remove is a no-op");
        assert_eq!(c.len(), 4);
        assert_eq!(governor.bytes(), 400);
        // The stale queue slot left by the remove must not confuse the
        // sweep: force a full eviction pass.
        c.set_cap(0);
        assert_eq!(c.len(), 0);
        assert_eq!(c.bytes(), 0);
        assert_eq!(governor.bytes(), 0);
    }

    #[test]
    fn set_cap_retargets_live() {
        let c: BoundedCache<u64, Vec<u8>> = BoundedCache::new(usize::MAX, fixed_weight);
        for k in 0..8 {
            c.insert_or_get(k, vec![0]);
        }
        assert_eq!(c.len(), 8);
        c.set_cap(250);
        assert!(c.bytes() <= 250, "live retarget sweeps: {}", c.bytes());
    }

    #[test]
    fn clear_returns_bytes_to_the_ledger() {
        let governor = Arc::new(Governor::default());
        let c: BoundedCache<u64, Vec<u8>> =
            BoundedCache::new(usize::MAX, fixed_weight).governed_by(&governor);
        for k in 0..4 {
            c.insert_or_get(k, vec![0]);
        }
        assert_eq!(governor.bytes(), 400);
        c.clear();
        assert_eq!(governor.bytes(), 0);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn drop_returns_residue_to_sink_and_ledger() {
        let governor = Arc::new(Governor::default());
        let kept: BoundedCache<u64, Vec<u8>> =
            BoundedCache::new(usize::MAX, fixed_weight).governed_by(&governor);
        kept.insert_or_get(9, vec![9]);
        {
            let c: BoundedCache<u64, Vec<u8>> =
                BoundedCache::new(usize::MAX, fixed_weight).governed_by(&governor);
            c.insert_or_get(1, vec![1]);
            c.insert_or_get(2, vec![2]);
            assert_eq!(c.stats().entries, 2);
            assert_eq!(c.stats().bytes, 200);
            assert_eq!(governor.bytes(), 300);
        }
        assert_eq!(governor.bytes(), 100, "drop returns only its own residue");
        assert_eq!(kept.bytes(), 100);
    }

    #[test]
    fn watermark_halves_budgets_under_pressure() {
        let governor = Arc::new(Governor::default());
        let c: BoundedCache<u64, Vec<u8>> =
            BoundedCache::new(1000, fixed_weight).governed_by(&governor);
        // A cache of another governor: the pressure below is not its own.
        let other: BoundedCache<u64, Vec<u8>> =
            BoundedCache::new(1000, fixed_weight).governed_by(&Arc::new(Governor::default()));
        for k in 0..10 {
            c.insert_or_get(k, vec![0]);
            other.insert_or_get(k, vec![0]);
        }
        assert_eq!(c.len(), 10);
        assert_eq!(governor.bytes(), 1000);
        // Pressure on: the budget drops to 500, a sweep trims to ≤ 5.
        governor.set_watermark(1);
        c.enforce();
        other.enforce();
        assert!(c.bytes() <= 500, "watermark pressure evicts: {}", c.bytes());
        assert_eq!(governor.bytes(), c.bytes());
        assert_eq!(other.len(), 10, "another governor's cache keeps its budget");
    }

    #[test]
    fn admit_on_repeat_declines_the_first_offer_and_admits_the_second() {
        let c: BoundedCache<u64, Vec<u8>> =
            BoundedCache::new(usize::MAX, fixed_weight).with_doorkeeper();
        assert_eq!(c.admit_on_repeat(1, vec![1]), vec![1], "value handed back");
        assert_eq!(c.len(), 0, "first offer declined");
        assert_eq!(c.probe(&1), None);
        assert_eq!(c.admit_on_repeat(1, vec![1]), vec![1]);
        assert_eq!(c.len(), 1, "second offer admitted");
        assert_eq!(c.probe(&1), Some(vec![1]));
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn a_doorkeeper_collision_never_yields_a_wrong_value() {
        let c: BoundedCache<u64, Vec<u8>> =
            BoundedCache::new(usize::MAX, fixed_weight).with_doorkeeper();
        // A key whose doorkeeper slot is key 0's (the hash is fixed-key).
        let slot =
            |k: u64| doorkeeper_slot(BuildHasherDefault::<DefaultHasher>::default().hash_one(k));
        let other = (1u64..).find(|&k| slot(k) == slot(0)).unwrap();
        for round in 0..50 {
            // Alternate the two keys: each offer overwrites the other's
            // sighting, so neither is ever admitted — a sighting forgotten.
            for key in [0, other] {
                let value = key.to_le_bytes().to_vec();
                assert_eq!(
                    c.admit_on_repeat(key, value.clone()),
                    value,
                    "round {round}"
                );
            }
        }
        assert_eq!(c.len(), 0);
        // Back-to-back offers of one key still admit it, and each key
        // answers with its own value only.
        for key in [0, other] {
            let value = key.to_le_bytes().to_vec();
            c.admit_on_repeat(key, value.clone());
            c.admit_on_repeat(key, value.clone());
        }
        assert_eq!(c.len(), 2);
        for key in [0, other] {
            assert_eq!(c.probe(&key), Some(key.to_le_bytes().to_vec()));
        }
    }

    #[test]
    fn insert_or_get_admits_on_the_first_insert() {
        let c: BoundedCache<u64, Vec<u8>> =
            BoundedCache::new(usize::MAX, fixed_weight).with_doorkeeper();
        c.insert_or_get(7, vec![7]);
        assert_eq!(c.probe(&7), Some(vec![7]), "no doorkeeper on this path");
        // A cache without a doorkeeper admits every offer.
        let plain: BoundedCache<u64, Vec<u8>> = BoundedCache::new(usize::MAX, fixed_weight);
        plain.admit_on_repeat(7, vec![7]);
        assert_eq!(plain.len(), 1);
    }

    #[test]
    fn probe_or_counts_a_second_tier_answer_as_a_hit() {
        let c: BoundedCache<u64, Vec<u8>> = BoundedCache::new(usize::MAX, fixed_weight);
        assert_eq!(c.probe_or(&1, || None), None);
        assert_eq!(c.probe_or(&2, || Some(vec![2])), Some(vec![2]));
        assert_eq!(c.probe_or(&2, || panic!("resident")), Some(vec![2]));
        let stats = c.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 1));
    }

    #[test]
    fn a_lone_entry_up_to_the_cap_stays() {
        let c: BoundedCache<u64, Vec<u8>> = BoundedCache::new(1000, true_weight);
        c.insert_or_get(1, vec![0u8; 600]);
        assert_eq!(c.probe(&1).map(|v| v.len()), Some(600));
        assert_eq!((c.len(), c.bytes()), (1, 600));
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn removes_keep_the_clock_queue_near_the_resident_count() {
        let c: BoundedCache<u64, Vec<u8>> = BoundedCache::new(usize::MAX, fixed_weight);
        for k in 0..10_000 {
            c.insert_or_get(k, vec![0]);
            if k % 3 != 0 {
                assert_eq!(c.remove(&k), Some(vec![0]));
            }
        }
        let (queued, resident) = {
            let state = c.lock();
            (state.queue.len(), state.map.len())
        };
        assert_eq!(resident, 3334);
        assert!(
            queued <= 2 * resident + 1,
            "{queued} slots, {resident} resident"
        );
        // Compaction keeps every resident key, so a zero cap still finds
        // each one to evict.
        c.set_cap(0);
        assert_eq!((c.len(), c.bytes()), (0, 0));
    }

    #[test]
    fn compaction_queues_a_reinserted_key_once() {
        let c: BoundedCache<u64, Vec<u8>> = BoundedCache::new(usize::MAX, fixed_weight);
        c.insert_or_get(0, vec![0]);
        c.insert_or_get(1, vec![1]);
        c.remove(&0);
        // Key 0 now has a stale slot and a live one.
        c.insert_or_get(0, vec![0]);
        assert_eq!(c.lock().queue.len(), 3);
        c.remove(&1);
        assert_eq!(c.lock().queue, [0]);
    }

    #[test]
    fn concurrent_probes_and_inserts_stay_consistent() {
        let c: BoundedCache<u64, Vec<u8>> = BoundedCache::new(64 * 100, fixed_weight);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let c = &c;
                scope.spawn(move || {
                    for i in 0..500u64 {
                        let k = (t * 131 + i) % 97;
                        if c.probe(&k).is_none() {
                            c.insert_or_get(k, vec![k as u8]);
                        }
                    }
                });
            }
        });
        let stats = c.stats();
        assert_eq!(stats.hits + stats.misses, 2000);
        assert!(stats.bytes <= 64 * 100);
        assert_eq!(stats.bytes, stats.entries * 100);
    }
}
