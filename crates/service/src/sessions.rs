//! The mutable-session registry: server-side state behind the
//! `session_open` / `view_add` / `view_remove` / `redecide` /
//! `session_close` request family.
//!
//! Each open [`cqdet_core::MutableSession`] lives in an [`Arc<SessionSlot>`]
//! with its **own** mutex, so concurrent requests against *different*
//! sessions never serialize on each other (and ordinary decide/batch
//! traffic never touches a session lock at all).  The registry itself is a
//! governed [`ShardedCache`] keyed by session id:
//!
//! * every slot's heap bytes (the session's span echelon plus checkpoint
//!   prefixes) are published to the byte ledger of the engine's decision
//!   context (its `cqdet_cache::Governor`) after each mutation via
//!   [`ShardedCache::recharge`], so open sessions count against the same
//!   memory watermark as the context's value caches;
//! * under byte pressure the cache's clock sweep evicts cold slots — an
//!   evicted session answers later requests with a typed unknown-session
//!   error, exactly like one reaped by TTL;
//! * idle sessions are reaped by TTL: every open/lookup sweeps slots whose
//!   last touch is older than the (tunable) time-to-live;
//! * admission is capped: opening beyond `max_sessions` *after* reaping
//!   answers with a typed `resource_exhausted` error, never unbounded state.

use crate::error::CqdetError;
use cqdet_cache::{Governor, ShardedCache};
use cqdet_core::MutableSession;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Default idle time-to-live before a session is reaped.
pub const DEFAULT_SESSION_TTL: Duration = Duration::from_secs(15 * 60);

/// Default cap on concurrently open sessions.
pub const DEFAULT_MAX_SESSIONS: usize = 256;

/// Registry byte cap: far above honest session state, low enough that a
/// runaway echelon (huge coefficients across many checkpoints) gets swept
/// before it threatens the process.
const REGISTRY_CAP_BYTES: usize = 256 << 20;

/// One open session: the mutable state behind its own lock, plus the
/// bookkeeping the registry reads without taking that lock.
pub struct SessionSlot {
    /// The session's wire id (echoed in every response about it).
    pub id: u64,
    session: Mutex<MutableSession>,
    /// Milliseconds since the registry epoch of the last touch.
    last_used_ms: AtomicU64,
    /// Heap bytes last published ([`SessionRegistry::publish`]); read by
    /// the cache weigher, so re-weighing never takes the session lock.
    bytes: AtomicUsize,
}

impl SessionSlot {
    /// Lock the session, recovering from poisoning: the mutation paths
    /// follow a take/commit discipline, so a panicking mutation leaves the
    /// session fully rolled back and safe to reuse.
    pub fn lock(&self) -> MutexGuard<'_, MutableSession> {
        match self.session.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

fn weigh(_id: &u64, slot: &Arc<SessionSlot>) -> usize {
    std::mem::size_of::<SessionSlot>() + slot.bytes.load(Ordering::Relaxed)
}

/// The registry of open sessions.  See the [module docs](self).
pub struct SessionRegistry {
    slots: ShardedCache<u64, Arc<SessionSlot>>,
    next_id: AtomicU64,
    epoch: Instant,
    ttl_ms: AtomicU64,
    max_sessions: AtomicUsize,
    ttl_reaped: AtomicU64,
}

impl SessionRegistry {
    /// An empty registry charging `governor`.
    pub fn new(governor: &Arc<Governor>) -> SessionRegistry {
        SessionRegistry {
            slots: ShardedCache::new(REGISTRY_CAP_BYTES, weigh).governed_by(governor),
            next_id: AtomicU64::new(1),
            epoch: Instant::now(),
            ttl_ms: AtomicU64::new(DEFAULT_SESSION_TTL.as_millis() as u64),
            max_sessions: AtomicUsize::new(DEFAULT_MAX_SESSIONS),
            ttl_reaped: AtomicU64::new(0),
        }
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Retarget the idle TTL (live — the next sweep uses it).
    pub fn set_ttl(&self, ttl: Duration) {
        self.ttl_ms.store(ttl.as_millis() as u64, Ordering::Relaxed);
    }

    /// Retarget the admission cap (live — the next open checks it).
    pub fn set_max_sessions(&self, n: usize) {
        self.max_sessions.store(n.max(1), Ordering::Relaxed);
    }

    /// Number of currently open sessions.
    pub fn open_count(&self) -> u64 {
        self.slots.len()
    }

    /// Sessions reaped so far: idle TTL sweeps plus byte-pressure
    /// evictions by the governed cache.
    pub fn reaped_count(&self) -> u64 {
        self.ttl_reaped.load(Ordering::Relaxed) + self.slots.stats().evictions
    }

    /// Sweep sessions whose last touch is older than the TTL.  Returns how
    /// many were reaped.  A slot touched between the scan and the removal
    /// is spared (the re-check under its own snapshot), so an active
    /// session is never reaped out from under a racing request.
    pub fn reap_idle(&self) -> u64 {
        let ttl = self.ttl_ms.load(Ordering::Relaxed);
        let now = self.now_ms();
        let mut stale: Vec<Arc<SessionSlot>> = Vec::new();
        self.slots.for_each(|_, slot| {
            if now.saturating_sub(slot.last_used_ms.load(Ordering::Relaxed)) > ttl {
                stale.push(slot.clone());
            }
        });
        let mut reaped = 0;
        for slot in stale {
            if now.saturating_sub(slot.last_used_ms.load(Ordering::Relaxed)) > ttl
                && self.slots.remove(&slot.id).is_some()
            {
                reaped += 1;
            }
        }
        self.ttl_reaped.fetch_add(reaped, Ordering::Relaxed);
        reaped
    }

    /// Admit a freshly opened session: reap idle slots first, then check
    /// the cap.  Returns the slot whose `id` the wire response echoes.
    pub fn insert(&self, session: MutableSession) -> Result<Arc<SessionSlot>, CqdetError> {
        self.reap_idle();
        let max = self.max_sessions.load(Ordering::Relaxed);
        if self.open_count() >= max as u64 {
            return Err(CqdetError::resource(format!(
                "session slots ({max} open; close one or let idle sessions expire)"
            )));
        }
        let bytes = session.heap_bytes();
        let slot = Arc::new(SessionSlot {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            session: Mutex::new(session),
            last_used_ms: AtomicU64::new(self.now_ms()),
            bytes: AtomicUsize::new(bytes),
        });
        self.slots.insert_or_get(slot.id, slot.clone());
        Ok(slot)
    }

    /// Look up an open session by id, touching its TTL clock.  Unknown ids
    /// (never opened, closed, reaped, or evicted) get a typed error that
    /// says so — the client's cue to reopen.
    pub fn lookup(&self, id: u64) -> Result<Arc<SessionSlot>, CqdetError> {
        self.reap_idle();
        let slot = self.slots.probe(&id).ok_or_else(|| {
            CqdetError::schema(format!(
                "unknown session {id} (never opened, closed, or expired)"
            ))
        })?;
        slot.last_used_ms.store(self.now_ms(), Ordering::Relaxed);
        Ok(slot)
    }

    /// Publish a session's heap bytes to the governed ledger after a
    /// mutation (the caller holds the slot's session lock) and touch its
    /// TTL clock.
    pub fn publish(&self, slot: &SessionSlot, session: &MutableSession) {
        slot.bytes.store(session.heap_bytes(), Ordering::Relaxed);
        slot.last_used_ms.store(self.now_ms(), Ordering::Relaxed);
        self.slots.recharge(&slot.id);
    }

    /// Close a session explicitly, discharging its bytes.
    pub fn close(&self, id: u64) -> Result<(), CqdetError> {
        self.slots.remove(&id).map(|_| ()).ok_or_else(|| {
            CqdetError::schema(format!(
                "unknown session {id} (never opened, closed, or expired)"
            ))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqdet_core::{ConjunctiveQuery, DecisionContext};
    use cqdet_parallel::{Budget, CancelToken};

    fn open_session(cx: &DecisionContext, name: &str) -> MutableSession {
        let cq = |n: &str| {
            ConjunctiveQuery::boolean(n, vec![cqdet_query::cq::Atom::new("R", &["x", "y"])])
        };
        MutableSession::open(
            cx,
            vec![cq(name)],
            cq("q"),
            8,
            &CancelToken::none(),
            &Budget::none(),
        )
        .unwrap()
    }

    #[test]
    fn ttl_reaps_idle_sessions_and_counts_them() {
        let cx = DecisionContext::new();
        let registry = SessionRegistry::new(&Arc::default());
        let slot = registry.insert(open_session(&cx, "v")).unwrap();
        assert_eq!(registry.open_count(), 1);
        // A zero TTL makes every already-open session stale on the next
        // sweep; the reap is observable in both counters.
        registry.set_ttl(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(registry.reap_idle(), 1);
        assert_eq!(registry.open_count(), 0);
        assert_eq!(registry.reaped_count(), 1);
        assert!(registry.lookup(slot.id).is_err(), "reaped ⇒ unknown");
    }

    #[test]
    fn admission_cap_rejects_with_a_typed_error() {
        let cx = DecisionContext::new();
        let registry = SessionRegistry::new(&Arc::default());
        registry.set_max_sessions(2);
        registry.insert(open_session(&cx, "a")).unwrap();
        registry.insert(open_session(&cx, "b")).unwrap();
        let Err(err) = registry.insert(open_session(&cx, "c")) else {
            panic!("the cap must reject the third open");
        };
        assert_eq!(err.code(), "resource_exhausted");
        // Closing one readmits.
        let slot = registry.lookup(1).unwrap();
        registry.close(slot.id).unwrap();
        registry.insert(open_session(&cx, "c")).unwrap();
        assert_eq!(registry.open_count(), 2);
    }

    #[test]
    fn publish_registers_bytes_with_the_governed_ledger() {
        let cx = DecisionContext::new();
        let registry = SessionRegistry::new(&Arc::default());
        let slot = registry.insert(open_session(&cx, "v")).unwrap();
        let before = registry.slots.bytes();
        // Warm the echelon so the session owns heap state, then publish.
        {
            let mut session = slot.lock();
            session
                .redecide(&cx, &CancelToken::none(), &Budget::none())
                .unwrap();
            registry.publish(&slot, &session);
        }
        assert!(
            registry.slots.bytes() > before,
            "echelon bytes must reach the registry ledger"
        );
        registry.close(slot.id).unwrap();
        assert_eq!(registry.slots.bytes(), 0, "close discharges every byte");
    }
}
