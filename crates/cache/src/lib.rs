//! Bounded, sharded cache governance for the serving layer.
//!
//! Every cross-request cache of the decision pipeline — frozen bodies,
//! containment gates, open mutable sessions — used
//! to be a single-`Mutex` map with a wholesale clear at an entry-count cap:
//! under sustained multi-tenant traffic the server either serializes on
//! those locks or grows without bound, and a clear throws away the whole
//! working set at once.  This crate replaces that policy with one shared
//! mechanism:
//!
//! * [`ShardedCache`] — a concurrent map split into N lock shards (keyed by
//!   key hash) with **byte-budget accounting**: every entry charges the
//!   size a caller-supplied weigher reports for it (the owner decides how
//!   exact that is — the session registry re-weighs live sessions, the
//!   decision caches charge flat estimates), and a **size-capped clock
//!   eviction** (second chance) that degrades gracefully — over budget
//!   means evict and recompute, never refuse and never crash.  A cache
//!   can also keep a **doorkeeper** ([`ShardedCache::with_doorkeeper`]):
//!   [`ShardedCache::admit_on_repeat`] then admits a key only on its
//!   second sighting, so a stream of one-off keys never churns the cache;
//! * a [`Governor`] — one byte ledger plus a **memory watermark**, owned by
//!   whoever builds the caches (a decision context hands its governor to
//!   every cache it builds): when the sum of the governed caches' bytes
//!   exceeds the watermark, their shards evict below half their budget, so
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
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher, Hash, RandomState};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

pub mod snapshot;

/// A byte ledger plus a memory watermark shared by every cache built with
/// it ([`ShardedCache::governed_by`]).
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
    /// of this governor evicts below *half* its per-shard budget until the
    /// pressure clears.  `0` (the default) disables the backstop — per-cache
    /// caps alone govern.  The serving layer sets this to the
    /// `--cache-bytes` total.
    pub fn set_watermark(&self, bytes: u64) {
        self.watermark.store(bytes, Ordering::Relaxed);
    }

    fn under_pressure(&self) -> bool {
        let watermark = self.watermark.load(Ordering::Relaxed);
        watermark != 0 && self.bytes() > watermark
    }
}

/// Lock with poison recovery: every critical section in this module leaves
/// the shard structurally consistent even if the holder panicked (eviction
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

struct Shard<K, V> {
    map: HashMap<K, Entry<V>>,
    /// The clock queue: every resident key exactly once, sweep order.
    queue: VecDeque<K>,
    bytes: usize,
}

impl<K, V> Default for Shard<K, V> {
    fn default() -> Self {
        Shard {
            map: HashMap::new(),
            queue: VecDeque::new(),
            bytes: 0,
        }
    }
}

/// A sharded concurrent map with byte-accounted clock eviction.  See the
/// [module docs](self) for the governance model.
///
/// Concurrency: keys hash to one of the routed shards' independent
/// `Mutex`es, so probes on different shards never contend; all counters
/// are atomics read without locks.  Over-budget shards evict with a
/// second-chance clock sweep — recently probed entries survive one pass —
/// and a single entry larger than the whole shard budget is admitted and
/// immediately evicted (the caller keeps its own copy of the value; the
/// cache merely declines to retain it).  A cache built
/// [`ShardedCache::with_min_slice`] routes to fewer shards when the cap is
/// small, so that each shard's slice of the cap still holds an entry.
pub struct ShardedCache<K, V> {
    shards: Box<[Mutex<Shard<K, V>>]>,
    /// How many of `shards` keys route to: a power of two, derived from
    /// the cap by [`routed_shards`].  Changed only by [`ShardedCache::set_cap`]
    /// while it holds every shard lock; its `Release` store pairs with the
    /// `Acquire` loads of [`ShardedCache::lock_routed`].
    routed: AtomicUsize,
    /// The byte slice each routed shard must at least get.
    min_slice: usize,
    /// The doorkeeper of [`ShardedCache::admit_on_repeat`]: a direct-mapped
    /// table of the tags of recently declined keys (`0` = empty slot).
    /// Empty when the cache keeps none.
    seen: Box<[AtomicU64]>,
    router: RandomState,
    weigher: fn(&K, &V) -> usize,
    cap: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    entries: AtomicU64,
    bytes: AtomicU64,
    governor: Option<Arc<Governor>>,
}

/// Slots of a doorkeeper table ([`ShardedCache::with_doorkeeper`]): 32 KiB
/// of tags, enough to remember the declined keys of a few hundred requests.
pub const DOORKEEPER_SLOTS: usize = 4096;

/// The doorkeeper slot of a key's fixed-key hash.
fn doorkeeper_slot(hash: u64) -> usize {
    hash as usize & (DOORKEEPER_SLOTS - 1)
}

/// The number of shards a cache of `max` shards routes to under `cap`:
/// the largest power of two, at most `max` and at least 1, whose share of
/// the cap is no smaller than `min_slice`.
fn routed_shards(max: usize, cap: usize, min_slice: usize) -> usize {
    let fit = (cap / min_slice.max(1)).clamp(1, max);
    1 << fit.ilog2()
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedCache<K, V> {
    /// A cache with 16 shards, `cap` total bytes (`usize::MAX` =
    /// unbounded) and `weigher` reporting each entry's byte cost.  It
    /// charges no [`Governor`] until [`ShardedCache::governed_by`] hands it
    /// one.
    pub fn new(cap: usize, weigher: fn(&K, &V) -> usize) -> ShardedCache<K, V> {
        Self::with_shards(16, cap, weigher)
    }

    /// [`ShardedCache::new`] with an explicit shard count (rounded up to a
    /// power of two, minimum 1).
    pub fn with_shards(shards: usize, cap: usize, weigher: fn(&K, &V) -> usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        ShardedCache {
            shards: (0..n).map(|_| Mutex::new(Shard::default())).collect(),
            routed: AtomicUsize::new(n),
            min_slice: 1,
            seen: Box::default(),
            router: RandomState::new(),
            weigher,
            cap: AtomicUsize::new(cap),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            entries: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
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

    /// Route to fewer shards whenever a shard's slice of the cap would be
    /// smaller than `bytes` — down to one shard, which gets the whole cap.
    /// Call it on a still empty cache; [`ShardedCache::set_cap`] re-derives
    /// the shard count under every later cap.
    pub fn with_min_slice(mut self, bytes: usize) -> Self {
        debug_assert!(self.is_empty(), "size the slices before filling");
        self.min_slice = bytes;
        let cap = self.cap.load(Ordering::Relaxed);
        *self.routed.get_mut() = routed_shards(self.shards.len(), cap, bytes);
        self
    }

    /// Give [`ShardedCache::admit_on_repeat`] a doorkeeper that remembers
    /// [`DOORKEEPER_SLOTS`] declines.  The table is allocated here, once,
    /// and never grows.
    pub fn with_doorkeeper(mut self) -> Self {
        self.seen = (0..DOORKEEPER_SLOTS).map(|_| AtomicU64::new(0)).collect();
        self
    }

    /// The router's hash of a key (or of anything it borrows as — the
    /// `Borrow` contract guarantees equal hashes).
    fn hash_of<Q: Hash + ?Sized>(&self, key: &Q) -> u64 {
        self.router.hash_one(key)
    }

    /// Lock the shard `hash` routes to.  The routed count is re-read under
    /// the lock: [`ShardedCache::set_cap`] changes it only while holding
    /// every shard, so a guard taken under a stale count is dropped and the
    /// route retried.
    fn lock_routed(&self, hash: u64) -> MutexGuard<'_, Shard<K, V>> {
        loop {
            let n = self.routed.load(Ordering::Acquire);
            let shard = locked(&self.shards[hash as usize & (n - 1)]);
            if self.routed.load(Ordering::Acquire) == n {
                return shard;
            }
        }
    }

    /// The per-shard byte budget under the current cap, halved while the
    /// governor is over its watermark.
    fn shard_budget(&self) -> usize {
        let budget = self.cap.load(Ordering::Relaxed) / self.routed.load(Ordering::Relaxed);
        match &self.governor {
            Some(g) if g.under_pressure() => budget / 2,
            _ => budget,
        }
    }

    fn charge(&self, bytes: u64) {
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        if let Some(g) = &self.governor {
            g.bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    fn discharge(&self, bytes: u64) {
        self.bytes.fetch_sub(bytes, Ordering::Relaxed);
        if let Some(g) = &self.governor {
            g.bytes.fetch_sub(bytes, Ordering::Relaxed);
        }
    }

    /// Sweep `shard` down to `budget` bytes with the second-chance clock.
    /// Terminates: every pass either removes an entry (strictly shrinking
    /// the queue) or clears a referenced bit that only a *probe* can set
    /// again, and the map/queue pair stays consistent at every step — a
    /// panic injected at the `cache/evict` seam leaves the shard valid for
    /// poison-recovering readers.
    fn sweep(&self, shard: &mut Shard<K, V>, budget: usize) {
        while shard.bytes > budget {
            fail_point!("cache/evict");
            let Some(key) = shard.queue.pop_front() else {
                break;
            };
            // A queued key is always resident (the queue and map are
            // mutated together); a vacancy would only mean a prior panic
            // between the two updates, which the `else` tolerates.
            let Some(entry) = shard.map.get_mut(&key) else {
                continue;
            };
            if entry.referenced {
                entry.referenced = false;
                shard.queue.push_back(key);
                continue;
            }
            let Some(removed) = shard.map.remove(&key) else {
                continue;
            };
            shard.bytes = shard.bytes.saturating_sub(removed.bytes);
            self.discharge(removed.bytes as u64);
            self.entries.fetch_sub(1, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
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
        let found = self.lookup(self.hash_of(key), key);
        self.count(found.is_some());
        found
    }

    /// [`ShardedCache::probe`] with a second tier: on a miss, `fallback`
    /// (run outside every shard lock) may still supply the value, which is
    /// then inserted and counted as a hit — the work it stands for was
    /// already paid for.  Only a miss of both tiers counts as a miss.
    pub fn probe_or(&self, key: &K, fallback: impl FnOnce() -> Option<V>) -> Option<V> {
        let hash = self.hash_of(key);
        let found = match self.lookup(hash, key) {
            Some(value) => Some(value),
            None => fallback().map(|value| self.insert_hashed(hash, key.clone(), value)),
        };
        self.count(found.is_some());
        found
    }

    fn lookup<Q>(&self, hash: u64, key: &Q) -> Option<V>
    where
        K: std::borrow::Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut shard = self.lock_routed(hash);
        let entry = shard.map.get_mut(key)?;
        entry.referenced = true;
        Some(entry.value.clone())
    }

    fn count(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Insert `value` under `key` unless an entry is already resident, and
    /// return the resident value (the existing one on a race, the freshly
    /// inserted one otherwise).  Does **not** touch the hit/miss counters —
    /// pair it with [`ShardedCache::probe`], which does.  Over-budget
    /// shards are swept before the guard drops.
    pub fn insert_or_get(&self, key: K, value: V) -> V {
        self.insert_hashed(self.hash_of(&key), key, value)
    }

    /// [`ShardedCache::insert_or_get`] on a key's second sighting only.
    /// The first offer of a key records its hash in the doorkeeper (see
    /// [`ShardedCache::with_doorkeeper`]) and hands `value` back without
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
            // data — the entry itself goes through the shard lock.
            let tag = hash | 1;
            if slot.swap(tag, Ordering::Relaxed) != tag {
                return value;
            }
        }
        self.insert_or_get(key, value)
    }

    fn insert_hashed(&self, hash: u64, key: K, value: V) -> V {
        let budget = self.shard_budget();
        let mut shard = self.lock_routed(hash);
        if let Some(entry) = shard.map.get_mut(&key) {
            entry.referenced = true;
            return entry.value.clone();
        }
        let bytes = (self.weigher)(&key, &value);
        shard.map.insert(
            key.clone(),
            Entry {
                value: value.clone(),
                bytes,
                referenced: false,
            },
        );
        shard.queue.push_back(key);
        shard.bytes += bytes;
        self.charge(bytes as u64);
        self.entries.fetch_add(1, Ordering::Relaxed);
        self.sweep(&mut shard, budget);
        value
    }

    /// Re-weigh the entry under `key` (whose value grew in place — e.g. a
    /// mutable session whose echelon absorbed more generators) and
    /// sweep if the new cost pushed the shard over budget.  A missing key
    /// (already evicted) is a no-op.
    pub fn recharge(&self, key: &K) {
        let budget = self.shard_budget();
        let mut shard = self.lock_routed(self.hash_of(key));
        let Some(entry) = shard.map.get_mut(key) else {
            return;
        };
        let new_bytes = (self.weigher)(key, &entry.value);
        let old_bytes = entry.bytes;
        entry.bytes = new_bytes;
        if new_bytes >= old_bytes {
            let delta = (new_bytes - old_bytes) as u64;
            shard.bytes += new_bytes - old_bytes;
            self.charge(delta);
        } else {
            let delta = (old_bytes - new_bytes) as u64;
            shard.bytes = shard.bytes.saturating_sub(old_bytes - new_bytes);
            self.discharge(delta);
        }
        self.sweep(&mut shard, budget);
    }

    /// Remove the entry under `key`, returning its value and discharging
    /// its bytes from the shard and the governor's ledger.  The key's stale
    /// clock-queue slot is left behind — the clock sweep already
    /// tolerates vacancies and drops it on its next pass.  Used by owners
    /// whose entries have an explicit end of life (closed sessions), unlike
    /// the purely eviction-driven value caches.
    pub fn remove(&self, key: &K) -> Option<V> {
        let mut shard = self.lock_routed(self.hash_of(key));
        let removed = shard.map.remove(key)?;
        shard.bytes = shard.bytes.saturating_sub(removed.bytes);
        self.discharge(removed.bytes as u64);
        self.entries.fetch_sub(1, Ordering::Relaxed);
        Some(removed.value)
    }

    /// Retarget the byte cap live and sweep every shard down to the new
    /// budget.  When the cap changes how many shards a
    /// [`ShardedCache::with_min_slice`] cache routes to, every entry is
    /// re-routed first, in clock order, under all shard locks at once.
    pub fn set_cap(&self, cap: usize) {
        // All shards are locked before the cap changes, so two concurrent
        // retargets cannot leave one's cap with the other's routing.
        let mut shards: Vec<_> = self.shards.iter().map(locked).collect();
        self.cap.store(cap, Ordering::Relaxed);
        let n = routed_shards(self.shards.len(), cap, self.min_slice);
        if n != self.routed.load(Ordering::Acquire) {
            let old: Vec<Shard<K, V>> = shards
                .iter_mut()
                .map(|s| std::mem::take(&mut **s))
                .collect();
            for mut from in old {
                // Clock order first; stale queue slots (removed keys) have
                // no entry, and an entry the queue lost still moves.
                let queued: Vec<(K, Entry<V>)> = std::mem::take(&mut from.queue)
                    .into_iter()
                    .filter_map(|key| from.map.remove(&key).map(|entry| (key, entry)))
                    .collect();
                for (key, entry) in queued.into_iter().chain(from.map.drain()) {
                    let to = &mut shards[self.hash_of(&key) as usize & (n - 1)];
                    to.bytes += entry.bytes;
                    to.queue.push_back(key.clone());
                    to.map.insert(key, entry);
                }
            }
            self.routed.store(n, Ordering::Release);
        }
        drop(shards);
        self.enforce();
    }

    /// Sweep every shard down to the current budget now.
    pub fn enforce(&self) {
        let budget = self.shard_budget();
        for shard in self.shards.iter() {
            self.sweep(&mut locked(shard), budget);
        }
    }

    /// Drop every entry (counters other than `entries`/`bytes` are kept).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            let mut shard = locked(shard);
            let dropped_bytes = shard.bytes as u64;
            let dropped_entries = shard.map.len() as u64;
            shard.map.clear();
            shard.queue.clear();
            shard.bytes = 0;
            self.discharge(dropped_bytes);
            self.entries.fetch_sub(dropped_entries, Ordering::Relaxed);
        }
    }

    /// Visit every resident entry (used by the snapshot exporter).  Holds
    /// one shard lock at a time; `f` must not reenter the cache.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for shard in self.shards.iter() {
            let shard = locked(shard);
            for (k, entry) in shard.map.iter() {
                f(k, &entry.value);
            }
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> u64 {
        self.entries.load(Ordering::Relaxed)
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently charged.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheUsage {
        CacheUsage {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            cap: self.cap.load(Ordering::Relaxed) as u64,
        }
    }
}

impl<K: Hash + Eq + Clone, V: Clone> std::fmt::Debug for ShardedCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.shards.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl<K, V> Drop for ShardedCache<K, V> {
    /// Return the residue to the governor so a dropped cache never leaks
    /// governed bytes.
    fn drop(&mut self) {
        if let Some(g) = &self.governor {
            g.bytes
                .fetch_sub(self.bytes.load(Ordering::Relaxed), Ordering::Relaxed);
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
        let c: ShardedCache<u64, Vec<u8>> = ShardedCache::new(usize::MAX, fixed_weight);
        assert_eq!(c.probe(&1), None);
        c.insert_or_get(1, vec![7]);
        assert_eq!(c.probe(&1), Some(vec![7]));
        let stats = c.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.bytes, 100);
    }

    #[test]
    fn insert_or_get_keeps_the_first_value() {
        let c: ShardedCache<u64, Vec<u8>> = ShardedCache::new(usize::MAX, fixed_weight);
        assert_eq!(c.insert_or_get(5, vec![1]), vec![1]);
        assert_eq!(c.insert_or_get(5, vec![2]), vec![1], "first insert wins");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn byte_cap_is_enforced_by_eviction() {
        // One shard so the budget arithmetic is exact.
        let c: ShardedCache<u64, Vec<u8>> = ShardedCache::with_shards(1, 350, fixed_weight);
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
        let c: ShardedCache<u64, Vec<u8>> = ShardedCache::with_shards(1, 350, fixed_weight);
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
        let c: ShardedCache<u64, Vec<u8>> = ShardedCache::with_shards(1, 10, fixed_weight);
        // The value comes back to the caller even though the cache cannot
        // retain it: degrade, never refuse.
        assert_eq!(c.insert_or_get(1, vec![9]), vec![9]);
        assert_eq!(c.len(), 0);
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn recharge_accounts_growth_and_sweeps() {
        let c: ShardedCache<u64, Vec<u8>> = ShardedCache::with_shards(1, 1000, true_weight);
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
        let c: ShardedCache<u64, Vec<u8>> =
            ShardedCache::with_shards(1, 1000, fixed_weight).governed_by(&governor);
        for k in 0..5 {
            c.insert_or_get(k, vec![k as u8]);
        }
        assert_eq!(governor.bytes(), 500);
        assert_eq!(c.remove(&2), Some(vec![2]));
        assert_eq!(c.remove(&2), None, "double remove is a no-op");
        assert_eq!(c.len(), 4);
        assert_eq!(governor.bytes(), 400);
        // The stale queue slot left by the remove must not confuse the
        // sweep: force a full eviction pass over the shard.
        c.set_cap(0);
        assert_eq!(c.len(), 0);
        assert_eq!(c.bytes(), 0);
        assert_eq!(governor.bytes(), 0);
    }

    #[test]
    fn set_cap_retargets_live() {
        let c: ShardedCache<u64, Vec<u8>> = ShardedCache::with_shards(1, usize::MAX, fixed_weight);
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
        let c: ShardedCache<u64, Vec<u8>> =
            ShardedCache::new(usize::MAX, fixed_weight).governed_by(&governor);
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
        let kept: ShardedCache<u64, Vec<u8>> =
            ShardedCache::with_shards(2, usize::MAX, fixed_weight).governed_by(&governor);
        kept.insert_or_get(9, vec![9]);
        {
            let c: ShardedCache<u64, Vec<u8>> =
                ShardedCache::with_shards(2, usize::MAX, fixed_weight).governed_by(&governor);
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
        let c: ShardedCache<u64, Vec<u8>> =
            ShardedCache::with_shards(1, 1000, fixed_weight).governed_by(&governor);
        // A cache of another governor: the pressure below is not its own.
        let other: ShardedCache<u64, Vec<u8>> = ShardedCache::with_shards(1, 1000, fixed_weight)
            .governed_by(&Arc::new(Governor::default()));
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
        let c: ShardedCache<u64, Vec<u8>> =
            ShardedCache::new(usize::MAX, fixed_weight).with_doorkeeper();
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
        let c: ShardedCache<u64, Vec<u8>> =
            ShardedCache::new(usize::MAX, fixed_weight).with_doorkeeper();
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
        let c: ShardedCache<u64, Vec<u8>> =
            ShardedCache::new(usize::MAX, fixed_weight).with_doorkeeper();
        c.insert_or_get(7, vec![7]);
        assert_eq!(c.probe(&7), Some(vec![7]), "no doorkeeper on this path");
        // A cache without a doorkeeper admits every offer.
        let plain: ShardedCache<u64, Vec<u8>> = ShardedCache::new(usize::MAX, fixed_weight);
        plain.admit_on_repeat(7, vec![7]);
        assert_eq!(plain.len(), 1);
    }

    #[test]
    fn probe_or_counts_a_second_tier_answer_as_a_hit() {
        let c: ShardedCache<u64, Vec<u8>> = ShardedCache::new(usize::MAX, fixed_weight);
        assert_eq!(c.probe_or(&1, || None), None);
        assert_eq!(c.probe_or(&2, || Some(vec![2])), Some(vec![2]));
        assert_eq!(c.probe_or(&2, || panic!("resident")), Some(vec![2]));
        let stats = c.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 1));
    }

    #[test]
    fn small_caps_route_to_fewer_shards_that_hold_an_entry() {
        assert_eq!(routed_shards(16, usize::MAX, 2048), 16);
        assert_eq!(routed_shards(16, 6553, 2048), 2);
        assert_eq!(routed_shards(16, 100, 2048), 1);
        assert_eq!(routed_shards(16, 6553, 1), 16);
        let governor = Arc::new(Governor::default());
        let c: ShardedCache<u64, Vec<u8>> = ShardedCache::new(usize::MAX, fixed_weight)
            .with_min_slice(300)
            .governed_by(&governor);
        for k in 0..40 {
            c.insert_or_get(k, vec![k as u8]);
        }
        // 1000 bytes over slices of at least 300: two shards of 500, so
        // every shard holds entries and nothing is evicted at once.
        c.set_cap(1000);
        assert_eq!(c.routed.load(Ordering::Relaxed), 2);
        assert!(c.bytes() <= 1000 && c.len() >= 2, "{:?}", c.stats());
        assert_eq!(governor.bytes(), c.bytes(), "re-routing keeps the ledger");
        for k in 0..40u64 {
            if let Some(v) = c.probe(&k) {
                assert_eq!(v, vec![k as u8], "re-routed entries stay reachable");
            }
        }
        let found: Vec<u64> = (0..40u64).filter(|k| c.probe(k).is_some()).collect();
        assert_eq!(
            found.len() as u64,
            c.len(),
            "every resident entry is reachable"
        );
        // Back up: all sixteen shards again, the same entries reachable.
        c.set_cap(usize::MAX);
        assert_eq!(c.routed.load(Ordering::Relaxed), 16);
        for k in found {
            assert_eq!(c.probe(&k), Some(vec![k as u8]));
        }
    }

    #[test]
    fn concurrent_probes_and_inserts_stay_consistent() {
        let c: ShardedCache<u64, Vec<u8>> = ShardedCache::new(64 * 100, fixed_weight);
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
