//! Scoped-thread fan-out: a dependency-free `par_map` in the spirit of the
//! offline stand-ins under `crates/shims/` (the sandbox this workspace builds
//! in has no crates.io access, so no `rayon`).
//!
//! The model is deliberately minimal: [`par_map`] spreads one closure over a
//! slice using `std::thread::scope`.  The calling thread and its helpers pull
//! item indices from one shared atomic cursor (natural load balancing when
//! item costs are skewed, which they are for per-view homomorphism
//! searches), and results come back in input order.
//!
//! **Helpers only for idle cores.**  A process-wide count of threads doing
//! work ([`occupy`]) is held by every serving worker and every fan-out
//! helper.  A fan-out spawns `cores − max(busy, 1)` helpers (at most one
//! per item beyond the first) and the caller claims items itself, so it
//! never blocks on helpers while a core it could use sits idle.  On a
//! loaded server every core is already counted and per-view stages run
//! inline with no spawns; on an idle one a cold request still spreads over
//! the spare cores.  Small inputs — and every input when `CQDET_SERIAL=1` is
//! set or the machine reports a single hardware thread — run inline too, so
//! unit-test-sized workloads never pay thread spawn latency and the escape
//! hatch gives benchmarks a serial baseline.  The count only decides how
//! many threads to spawn: results never depend on it.
//!
//! The decision procedure (`cqdet-core`) uses this to fan out its per-view
//! stages: query freezing, the `hom_exists` retention gate, connected-
//! component decomposition, and multiplicity-vector construction; the batch
//! engine (`cqdet-engine`) fans out across whole tasks.  Anything
//! shared read-only across threads (schemas, frozen bodies, the basis) only
//! needs `Sync`; per-structure lazy state (`flat()`, canonical keys) lives in
//! `OnceLock`s, which are safe to race on.
//!
//! **Nested fan-outs run inline.**  For the duration of a fan-out, the
//! caller and its helpers are marked as fan-out threads, and a [`par_map`]
//! call made from any of them executes serially on that thread: the two
//! levels of the batch engine (tasks × views) would otherwise spawn
//! `cores²` threads.  One fan-out level — the outermost — always wins the
//! hardware.  (Caches travel by reference with the work — a decision
//! context's caches are `Sync` — so no per-thread state needs to reach a
//! helper.)
//!
//! ```
//! // Results come back in input order, whatever the interleaving was.
//! let squares = cqdet_parallel::par_map(&[1u64, 2, 3, 4], |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![forbid(unsafe_code)]

pub mod deadline;
pub mod fuel;
pub mod pool;

pub use deadline::{CancelToken, Expired};
pub use fuel::{Budget, Exhausted, Gas, Interrupt};
pub use pool::{BoundedQueue, TryPushError};

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Inputs shorter than this run inline: thread spawn latency (~tens of µs)
/// dwarfs per-item work on the unit-test-sized instances that dominate call
/// sites.
const SERIAL_CUTOFF: usize = 8;

thread_local! {
    /// Whether the current thread is taking part in a [`par_map`] fan-out,
    /// as its caller or as a helper.  Nested fan-outs run inline on that
    /// thread: without the guard, a batch-level fan-out (one item per task,
    /// `cqdet-engine`) whose tasks each fan out their per-view stages would
    /// spawn `cores × cores` threads.  It marks a thread's role, not data,
    /// which is why it stays thread-local.
    static IS_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Threads currently doing work: serving workers and fan-out helpers, each
/// holding an [`Occupied`] guard.  It publishes no other data (it only sizes
/// the next fan-out), so `Relaxed` suffices.
///
/// The one process-wide mutable cell outside test code: it models the
/// machine's cores, which every engine and context in the process shares,
/// so a per-context count would let two engines each claim the same idle
/// core.
static BUSY: AtomicUsize = AtomicUsize::new(0);

/// Proof that the current thread is counted as busy; dropping it (also
/// during unwinding) uncounts the thread.
#[must_use = "the thread is counted as busy only while the guard lives"]
pub struct Occupied(());

/// Count the current thread as busy until the returned guard drops.
///
/// A long-lived worker (the serving pool's threads) holds one around each
/// unit of work, so a fan-out started meanwhile spawns helpers only for the
/// cores nobody occupies.
pub fn occupy() -> Occupied {
    BUSY.fetch_add(1, Ordering::Relaxed);
    Occupied(())
}

impl Drop for Occupied {
    fn drop(&mut self) {
        BUSY.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Marks the current thread as part of a fan-out; restores the previous
/// mark on drop, including during unwinding.
struct WorkerMark(bool);

impl WorkerMark {
    fn set() -> WorkerMark {
        WorkerMark(IS_WORKER.with(|w| w.replace(true)))
    }
}

impl Drop for WorkerMark {
    fn drop(&mut self) {
        IS_WORKER.with(|w| w.set(self.0));
    }
}

/// How many helper threads a fan-out of `n` items should spawn, given
/// `cores` hardware threads of which `busy` are counted busy, and whether
/// the caller is itself inside a fan-out (`nested`).
///
/// The caller always works, so it is one of the busy threads: either it is
/// already counted (a serving worker) or it is the only thread working,
/// hence `max(busy, 1)`.  Helpers beyond `n − 1` would find no item left
/// once the caller took its first.
fn helpers(cores: usize, busy: usize, n: usize, nested: bool) -> usize {
    if nested || n < SERIAL_CUTOFF {
        return 0;
    }
    cores.saturating_sub(busy.max(1)).min(n - 1)
}

/// Whether the `CQDET_SERIAL=1` escape hatch is active (checked once).
fn serial_override() -> bool {
    static FLAG: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FLAG.get_or_init(|| {
        std::env::var("CQDET_SERIAL")
            .map(|v| v == "1")
            .unwrap_or(false)
    })
}

/// The number of worker threads a fan-out may use (hardware parallelism,
/// `1` when it cannot be determined or `CQDET_SERIAL=1` is set).
///
/// Cached after the first call: `std::thread::available_parallelism` re-reads
/// cgroup limits from `/sys` every time, which costs ~10µs per call in a
/// container — far more than a small serial fan-out itself.
pub fn max_parallelism() -> usize {
    static CACHED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHED.get_or_init(|| {
        if serial_override() {
            return 1;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Map `f` over `items`, in parallel when it pays, returning results in
/// input order.  Panics in `f` propagate to the caller.
///
/// The calling thread claims items itself, next to one helper thread per
/// idle core.  Runs inline (no threads) when no core is idle, when the input
/// is shorter than the serial cutoff, when the machine has a single
/// hardware thread, when `CQDET_SERIAL=1` is set, or when the caller is
/// already inside a fan-out (see the [module docs](self)).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(items, |_, item| f(item))
}

/// [`par_map`] with the item index passed to the closure.
///
/// ```
/// let labelled = cqdet_parallel::par_map_indexed(&["a", "b"], |i, s| format!("{i}:{s}"));
/// assert_eq!(labelled, vec!["0:a", "1:b"]);
/// ```
pub fn par_map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let helpers = helpers(
        max_parallelism(),
        BUSY.load(Ordering::Relaxed),
        n,
        IS_WORKER.with(Cell::get),
    );
    if helpers == 0 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let claim = || {
        let mut local = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            local.push((i, f(i, &items[i])));
        }
        local
    };
    let _mark = WorkerMark::set();
    let mut results: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..helpers)
            .map(|_| {
                scope.spawn(|| {
                    let _busy = occupy();
                    let _mark = WorkerMark::set();
                    claim()
                })
            })
            .collect();
        let mut results = claim();
        for h in handles {
            match h.join() {
                Ok(local) => results.extend(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        results
    });
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serial_map_and_preserves_order() {
        for n in [0usize, 1, 7, 8, 9, 100, 1000] {
            let items: Vec<u64> = (0..n as u64).collect();
            let expected: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
            assert_eq!(par_map(&items, |x| x * x + 1), expected, "n={n}");
        }
    }

    #[test]
    fn indexed_variant_sees_correct_indices() {
        let items = vec!["a"; 64];
        let out = par_map_indexed(&items, |i, s| format!("{s}{i}"));
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v, &format!("a{i}"));
        }
    }

    #[test]
    fn non_clone_results_are_supported() {
        struct NoClone(usize);
        let items: Vec<usize> = (0..50).collect();
        let out = par_map(&items, |&x| NoClone(x + 1));
        assert!(out.iter().enumerate().all(|(i, r)| r.0 == i + 1));
    }

    #[test]
    fn skewed_workloads_balance() {
        // Item cost varies by orders of magnitude; results must still be
        // complete and ordered.
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(&items, |&x| {
            let spins = if x % 13 == 0 { 200_000 } else { 10 };
            (0..spins).fold(x, |acc, i| acc.wrapping_mul(31).wrapping_add(i))
        });
        let serial: Vec<u64> = items
            .iter()
            .map(|&x| {
                let spins = if x % 13 == 0 { 200_000 } else { 10 };
                (0..spins).fold(x, |acc, i| acc.wrapping_mul(31).wrapping_add(i))
            })
            .collect();
        assert_eq!(out, serial);
    }

    #[test]
    fn nested_fanouts_run_inline_on_workers() {
        // An outer fan-out's threads — the caller as well as its helpers —
        // must not spawn their own pools: the inner par_map runs inline, so
        // every inner item runs on the outer item's thread (observed here
        // through a thread-local marker).
        thread_local! {
            static MARKER: Cell<u64> = const { Cell::new(0) };
        }
        let outer: Vec<u64> = (0..32).collect();
        let sums = par_map(&outer, |&x| {
            MARKER.with(|m| m.set(x + 1));
            let inner: Vec<u64> = (0..16).collect();
            let seen = par_map(&inner, |_| MARKER.with(Cell::get));
            assert!(
                seen.iter().all(|&v| v == x + 1),
                "inner items left the outer worker thread"
            );
            seen.iter().sum::<u64>()
        });
        for (x, s) in outer.iter().zip(&sums) {
            assert_eq!(*s, 16 * (x + 1));
        }
    }

    #[test]
    fn helper_count_uses_only_idle_cores() {
        // (cores, busy, n, nested) → helpers
        let table = [
            ((2, 2, 64, false), 0),                // saturated: every core already busy
            ((8, 9, 64, false), 0),                // oversubscribed
            ((2, 0, 64, false), 1),                // idle 2-core box: caller + one helper
            ((2, 1, 64, false), 1),                // the caller is the one busy worker
            ((4, 2, 64, false), 2),                // two of four cores taken
            ((16, 1, 8, false), 7),                // at most one helper per item beyond the first
            ((2, 0, SERIAL_CUTOFF - 1, false), 0), // too small to pay for a spawn
            ((4, 0, 64, true), 0),                 // nested: inline on the fan-out thread
            ((1, 0, 64, false), 0),                // single core (or CQDET_SERIAL=1)
        ];
        for ((cores, busy, n, nested), want) in table {
            assert_eq!(
                helpers(cores, busy, n, nested),
                want,
                "cores={cores} busy={busy} n={n} nested={nested}"
            );
        }
    }

    #[test]
    fn panics_restore_the_callers_worker_mark() {
        // A panic on any item, one on the caller's own items only, and one on
        // helper items only: whichever thread unwinds, the calling thread
        // must come back unmarked.  Which thread claims which item is up to
        // the scheduler, so only the all-items variant must panic.
        let items: Vec<usize> = (0..64).collect();
        let caller = std::thread::current().id();
        let on_caller = |id| id == caller;
        let on_helper = |id| id != caller;
        let variants: [(&str, &(dyn Fn(std::thread::ThreadId) -> bool + Sync)); 3] = [
            ("any", &|_| true),
            ("caller", &on_caller),
            ("helper", &on_helper),
        ];
        for (label, fails) in variants {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                par_map(&items, |&x| {
                    if fails(std::thread::current().id()) {
                        panic!("boom {label}");
                    }
                    x
                })
            }));
            match outcome {
                Err(payload) => {
                    let msg = payload.downcast_ref::<String>().map(String::as_str);
                    assert_eq!(msg, Some(format!("boom {label}").as_str()));
                }
                Ok(out) => {
                    assert_ne!(label, "any", "a panicking item went unnoticed");
                    assert_eq!(out, items);
                }
            }
            assert!(!IS_WORKER.with(Cell::get), "{label}: mark left set");
        }
    }

    #[test]
    #[should_panic(expected = "boom 37")]
    fn worker_panics_propagate() {
        let items: Vec<usize> = (0..64).collect();
        let _ = par_map(&items, |&x| {
            if x == 37 {
                panic!("boom {x}");
            }
            x
        });
    }
}
