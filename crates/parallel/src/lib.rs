//! Request-scoped execution control, dependency-free in the spirit of the
//! offline stand-ins under `crates/shims/` (the sandbox this workspace
//! builds in has no crates.io access, so no `rayon` or `crossbeam`).
//!
//! **One request, one thread.**  Every request runs on the one serving-pool
//! worker that took it, start to finish; parallelism is across requests
//! only.  Nothing here spawns a thread per request, and no process-global
//! counter sizes anything: the crate holds
//!
//! * [`max_parallelism`] — the machine's hardware threads, which size the
//!   serving pool and its connection cap;
//! * [`CancelToken`] ([`deadline`]) — cooperative cancellation checked at
//!   pipeline stage boundaries;
//! * [`Budget`] and [`Gas`] ([`fuel`]) — step and byte metering from
//!   inside the kernels' hot loops;
//! * [`BoundedQueue`] ([`pool`]) — the serving pool's job queue.
//!
//! Anything a worker shares read-only with other workers (schemas, frozen
//! bodies) only needs `Sync`; per-structure lazy state (`flat()`, canonical
//! keys) lives in `OnceLock`s, which are safe to race on.
//!
//! ```
//! // The pool is sized from the hardware, never below one worker.
//! assert!(cqdet_parallel::max_parallelism() >= 1);
//! ```

#![forbid(unsafe_code)]

pub mod deadline;
pub mod fuel;
pub mod pool;

pub use deadline::{CancelToken, Expired};
pub use fuel::{Budget, Exhausted, Gas, Interrupt};
pub use pool::{BoundedQueue, TryPushError};

/// The machine's hardware threads (`1` when they cannot be determined).
///
/// Cached after the first call: `std::thread::available_parallelism` re-reads
/// cgroup limits from `/sys` every time, which costs ~10µs per call in a
/// container.
pub fn max_parallelism() -> usize {
    static CACHED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHED.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}
