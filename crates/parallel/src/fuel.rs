//! Fuel-based resource governance for the decision kernels.
//!
//! Deadlines ([`CancelToken`]) are checked at pipeline *stage boundaries*,
//! which bounds how long a request holds a worker only as tightly as the
//! longest stage.  Determinacy is undecidable in general, so a single
//! pathological hom count or exact elimination can legitimately run for
//! seconds — the expected adversarial workload, not an edge case.  A
//! [`Budget`] closes that gap: a cheap shared step counter (plus byte
//! accounting for bigint growth) that the kernels charge from *inside* their
//! hot loops, so expiry and exhaustion surface within microseconds.
//!
//! The design mirrors [`CancelToken`]: a [`Budget`] is `Option<Arc<…>>`, so
//! the unlimited [`Budget::none`] costs nothing to clone or check, and one
//! budget shared by every task of a batch accounts for them all.  Kernels
//! do not touch the shared atomics per iteration; they hold a [`Gas`]
//! handle that counts locally and flushes every
//! [`GAS_FLUSH_EVERY`] steps — one atomic add plus one limit compare plus
//! one deadline check per ~4k iterations.
//!
//! ```
//! use cqdet_parallel::{Budget, CancelToken, Gas, Interrupt};
//!
//! let budget = Budget::with_limits(Some(10_000), None);
//! let ctl = CancelToken::none();
//! let mut gas = Gas::new(&ctl, &budget, "span");
//! let mut stopped = None;
//! for _ in 0..1_000_000 {
//!     if let Err(stop) = gas.step() {
//!         stopped = Some(stop);
//!         break;
//!     }
//! }
//! match stopped {
//!     Some(Interrupt::Exhausted(e)) => {
//!         assert_eq!(e.what, "steps");
//!         assert!(e.spent >= e.limit);
//!     }
//!     other => panic!("expected exhaustion, got {other:?}"),
//! }
//! ```

use crate::deadline::{CancelToken, Expired};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How many locally counted steps a [`Gas`] handle accumulates before it
/// touches the shared [`Budget`] atomics and the [`CancelToken`].  Power of
/// two so the check compiles to a mask test.
pub const GAS_FLUSH_EVERY: u64 = 4096;

/// A budget ran out.  Carries which ledger fired and the totals, so the
/// typed `resource_exhausted` wire error can report `{what, spent, limit}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exhausted {
    /// Which ledger was exhausted: `"steps"` or `"bytes"`.
    pub what: &'static str,
    /// Total charged against the budget when the limit check fired.
    pub spent: u64,
    /// The configured limit.
    pub limit: u64,
}

impl std::fmt::Display for Exhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fuel {} budget exhausted ({} spent, limit {})",
            self.what, self.spent, self.limit
        )
    }
}

impl std::error::Error for Exhausted {}

/// Why a fuelled kernel stopped early: the request's deadline/cancellation
/// fired, or its fuel budget ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupt {
    /// The [`CancelToken`] expired (deadline or explicit cancel).
    Expired(Expired),
    /// The [`Budget`] ran out.
    Exhausted(Exhausted),
}

impl std::fmt::Display for Interrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Interrupt::Expired(e) => e.fmt(f),
            Interrupt::Exhausted(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for Interrupt {}

impl From<Expired> for Interrupt {
    fn from(e: Expired) -> Interrupt {
        Interrupt::Expired(e)
    }
}

impl From<Exhausted> for Interrupt {
    fn from(e: Exhausted) -> Interrupt {
        Interrupt::Exhausted(e)
    }
}

#[derive(Debug)]
struct BudgetInner {
    /// Step limit (`u64::MAX` = unlimited steps but byte-limited).
    step_limit: u64,
    /// Byte limit for bigint material (`u64::MAX` = unlimited).
    byte_limit: u64,
    steps: AtomicU64,
    bytes: AtomicU64,
}

/// A shareable per-request resource budget.  See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct Budget {
    /// `None` = the unlimited budget (no allocation, charges are free).
    inner: Option<Arc<BudgetInner>>,
}

impl Budget {
    /// The unlimited budget — the default for one-shot entry points.
    pub fn none() -> Budget {
        Budget { inner: None }
    }

    /// A budget with the given limits.  `(None, None)` yields the unlimited
    /// budget (identical to [`Budget::none`]).
    pub fn with_limits(steps: Option<u64>, bytes: Option<u64>) -> Budget {
        if steps.is_none() && bytes.is_none() {
            return Budget::none();
        }
        Budget {
            inner: Some(Arc::new(BudgetInner {
                step_limit: steps.unwrap_or(u64::MAX),
                byte_limit: bytes.unwrap_or(u64::MAX),
                steps: AtomicU64::new(0),
                bytes: AtomicU64::new(0),
            })),
        }
    }

    /// Whether this is the unlimited budget.
    pub fn is_unlimited(&self) -> bool {
        self.inner.is_none()
    }

    /// The configured step limit, if any.
    pub fn step_limit(&self) -> Option<u64> {
        self.inner
            .as_ref()
            .map(|i| i.step_limit)
            .filter(|&l| l != u64::MAX)
    }

    /// The configured byte limit, if any.
    pub fn byte_limit(&self) -> Option<u64> {
        self.inner
            .as_ref()
            .map(|i| i.byte_limit)
            .filter(|&l| l != u64::MAX)
    }

    /// Steps charged so far across every holder of this budget.
    pub fn steps_spent(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.steps.load(Ordering::Relaxed))
    }

    /// Bytes charged so far across every holder of this budget.
    pub fn bytes_spent(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.bytes.load(Ordering::Relaxed))
    }

    /// Charge `steps` and `bytes` against the budget, failing once either
    /// ledger passes its limit.  Free for the unlimited budget.
    pub fn charge(&self, steps: u64, bytes: u64) -> Result<(), Exhausted> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        let spent_steps = inner.steps.fetch_add(steps, Ordering::Relaxed) + steps;
        if spent_steps > inner.step_limit {
            return Err(Exhausted {
                what: "steps",
                spent: spent_steps,
                limit: inner.step_limit,
            });
        }
        let spent_bytes = inner.bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if spent_bytes > inner.byte_limit {
            return Err(Exhausted {
                what: "bytes",
                spent: spent_bytes,
                limit: inner.byte_limit,
            });
        }
        Ok(())
    }
}

/// A hot-loop metering handle: counts steps and bytes locally, flushing to
/// the shared [`Budget`] and checking the [`CancelToken`] every
/// [`GAS_FLUSH_EVERY`] steps.  Cheap to construct per kernel call (two
/// `Option<Arc>` clones); **not** shared across threads.
#[derive(Debug, Clone)]
pub struct Gas {
    ctl: CancelToken,
    budget: Budget,
    stage: &'static str,
    pending_steps: u64,
    pending_bytes: u64,
}

impl Gas {
    /// A handle charging against `budget` under `ctl`, reporting expiry at
    /// `stage`.
    pub fn new(ctl: &CancelToken, budget: &Budget, stage: &'static str) -> Gas {
        Gas {
            ctl: ctl.clone(),
            budget: budget.clone(),
            stage,
            pending_steps: 0,
            pending_bytes: 0,
        }
    }

    /// The free handle: never expires, never exhausts.  The per-step cost is
    /// one local add and one mask test.
    pub fn unlimited() -> Gas {
        Gas::new(&CancelToken::none(), &Budget::none(), "")
    }

    /// A derived handle on the same budget and token, reporting a different
    /// stage label (for kernels that call sub-kernels).
    pub fn at_stage(&self, stage: &'static str) -> Gas {
        Gas::new(&self.ctl, &self.budget, stage)
    }

    /// Count one unit of kernel work (a candidate extension, a row
    /// operation).  Flushes every [`GAS_FLUSH_EVERY`] calls.
    #[inline]
    pub fn step(&mut self) -> Result<(), Interrupt> {
        self.pending_steps += 1;
        if self.pending_steps & (GAS_FLUSH_EVERY - 1) == 0 {
            self.flush()
        } else {
            Ok(())
        }
    }

    /// Count `n` units at once (a row operation over `n` entries).  Flushes
    /// whenever the local count crosses a [`GAS_FLUSH_EVERY`] boundary, so
    /// bulk charges keep the same check cadence as unit steps.
    #[inline]
    pub fn steps(&mut self, n: u64) -> Result<(), Interrupt> {
        let before = self.pending_steps;
        self.pending_steps += n;
        if (before / GAS_FLUSH_EVERY) != (self.pending_steps / GAS_FLUSH_EVERY) {
            self.flush()
        } else {
            Ok(())
        }
    }

    /// Account `n` bytes of bigint material (charged at the next flush).
    #[inline]
    pub fn charge_bytes(&mut self, n: u64) {
        self.pending_bytes += n;
    }

    /// Push the locally pending counts to the shared budget and check the
    /// cancel token.  Call once at kernel exit so tail work below the flush
    /// granularity is still accounted.
    pub fn flush(&mut self) -> Result<(), Interrupt> {
        if self.pending_steps != 0 || self.pending_bytes != 0 {
            self.budget.charge(self.pending_steps, self.pending_bytes)?;
            self.pending_steps = 0;
            self.pending_bytes = 0;
        }
        self.ctl.check(self.stage)?;
        Ok(())
    }
}

impl Default for Gas {
    fn default() -> Gas {
        Gas::unlimited()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unlimited_budget_is_free_and_never_fires() {
        let b = Budget::none();
        assert!(b.is_unlimited());
        assert!(b.charge(u64::MAX, u64::MAX).is_ok());
        assert_eq!(b.steps_spent(), 0);
        assert_eq!(b.step_limit(), None);
        let mut gas = Gas::unlimited();
        for _ in 0..100_000 {
            assert!(gas.step().is_ok());
        }
        assert!(gas.flush().is_ok());
    }

    #[test]
    fn step_budget_fires_with_flush_granularity() {
        let b = Budget::with_limits(Some(10_000), None);
        let ctl = CancelToken::none();
        let mut gas = Gas::new(&ctl, &b, "hom");
        let mut taken = 0u64;
        let stop = loop {
            match gas.step() {
                Ok(()) => taken += 1,
                Err(stop) => break stop,
            }
            assert!(taken < 1_000_000, "budget never fired");
        };
        let Interrupt::Exhausted(e) = stop else {
            panic!("wrong interrupt: {stop:?}");
        };
        assert_eq!(e.what, "steps");
        assert_eq!(e.limit, 10_000);
        assert!(e.spent > 10_000 && e.spent <= 10_000 + GAS_FLUSH_EVERY);
        // The overshoot is bounded by one flush window.
        assert!(taken < 10_000 + GAS_FLUSH_EVERY);
    }

    #[test]
    fn bulk_steps_keep_the_flush_cadence() {
        let b = Budget::with_limits(Some(10_000), None);
        let ctl = CancelToken::none();
        let mut gas = Gas::new(&ctl, &b, "rref");
        let mut taken = 0u64;
        let stop = loop {
            match gas.steps(37) {
                Ok(()) => taken += 37,
                Err(stop) => break stop,
            }
            assert!(taken < 1_000_000, "budget never fired");
        };
        let Interrupt::Exhausted(e) = stop else {
            panic!("wrong interrupt: {stop:?}");
        };
        assert_eq!(e.what, "steps");
        // Same overshoot bound as unit stepping: one flush window + one charge.
        assert!(e.spent <= 10_000 + GAS_FLUSH_EVERY + 37);
    }

    #[test]
    fn byte_budget_fires() {
        let b = Budget::with_limits(None, Some(1 << 20));
        let ctl = CancelToken::none();
        let mut gas = Gas::new(&ctl, &b, "span");
        gas.charge_bytes(2 << 20);
        let err = gas.flush().unwrap_err();
        assert!(matches!(
            err,
            Interrupt::Exhausted(Exhausted { what: "bytes", .. })
        ));
        assert_eq!(b.bytes_spent(), 2 << 20);
    }

    #[test]
    fn shared_budget_accounts_across_handles() {
        let b = Budget::with_limits(Some(100), None);
        let ctl = CancelToken::none();
        let mut g1 = Gas::new(&ctl, &b, "a");
        let mut g2 = Gas::new(&ctl, &b, "b");
        for _ in 0..60 {
            let _ = g1.step();
            let _ = g2.step();
        }
        // Neither handle reached the flush window, so force both out.
        let r1 = g1.flush();
        let r2 = g2.flush();
        assert!(
            r1.is_err() || r2.is_err(),
            "120 shared steps over a 100-step budget must exhaust"
        );
        assert_eq!(b.steps_spent(), 120);
    }

    #[test]
    fn deadline_surfaces_through_gas() {
        let ctl = CancelToken::with_deadline(Duration::ZERO);
        let b = Budget::none();
        let mut gas = Gas::new(&ctl, &b, "basis");
        let mut fired = None;
        for _ in 0..2 * GAS_FLUSH_EVERY {
            if let Err(stop) = gas.step() {
                fired = Some(stop);
                break;
            }
        }
        match fired {
            Some(Interrupt::Expired(e)) => assert_eq!(e.stage, "basis"),
            other => panic!("expected expiry, got {other:?}"),
        }
    }

    #[test]
    fn exhaustion_reports_totals_and_renders() {
        let e = Exhausted {
            what: "steps",
            spent: 12_288,
            limit: 10_000,
        };
        let msg = e.to_string();
        assert!(msg.contains("steps") && msg.contains("12288") && msg.contains("10000"));
        let i: Interrupt = e.into();
        assert_eq!(i.to_string(), msg);
    }
}
