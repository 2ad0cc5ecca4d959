//! Arbitrary-precision integer arithmetic.
//!
//! The determinacy algorithms of the paper manipulate homomorphism counts that
//! grow as radix-`T` combinations and `k`-th powers of other homomorphism
//! counts (Section 6, Steps 2–3 of the good-basis construction), so fixed-width
//! machine integers overflow almost immediately.  This crate provides the two
//! number types used throughout the workspace:
//!
//! * [`Nat`] — an unsigned arbitrary-precision natural number,
//! * [`Int`] — a signed arbitrary-precision integer (sign + magnitude).
//!
//! The implementation is deliberately simple and self-contained (schoolbook
//! multiplication, shift–subtract long division, binary GCD): the numbers that
//! occur in practice have at most a few thousand bits, far below the regime
//! where asymptotically faster algorithms pay off.

// Arithmetic kernels run inside budgeted requests: failures must surface as
// typed errors (or documented assertions), never stray unwraps.  Tests are
// exempt.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![forbid(unsafe_code)]

mod int;
mod nat;

pub use int::{Int, Sign};
pub use nat::Nat;

/// Error returned when parsing a [`Nat`] or [`Int`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBigIntError {
    kind: ParseErrorKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ParseErrorKind {
    Empty,
    InvalidDigit(char),
}

impl std::fmt::Display for ParseBigIntError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            ParseErrorKind::Empty => write!(f, "cannot parse integer from empty string"),
            ParseErrorKind::InvalidDigit(c) => write!(f, "invalid digit {c:?} in integer literal"),
        }
    }
}

impl std::error::Error for ParseBigIntError {}

impl ParseBigIntError {
    fn empty() -> Self {
        ParseBigIntError {
            kind: ParseErrorKind::Empty,
        }
    }
    fn invalid(c: char) -> Self {
        ParseBigIntError {
            kind: ParseErrorKind::InvalidDigit(c),
        }
    }
}
