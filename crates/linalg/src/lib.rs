//! Exact rational arithmetic and linear algebra over ℚ.
//!
//! The decision procedure of the paper (Lemma 31) is a span-membership test in
//! ℚ^k, and the counterexample construction of Sections 5–7 needs
//!
//! * an orthogonal vector to a span that is not orthogonal to a target
//!   vector (Fact 5),
//! * nonsingularity tests and inverses of evaluation matrices (Definitions
//!   37–38, Lemma 46),
//! * rational interior points of the convex cone `C = M(ℝ≥0^k)`
//!   (Corollary 8, Definition 52),
//! * componentwise powers `t^{z⃗} ∘ p⃗` with rational `t` and integer `z⃗`
//!   (Definition 48, Lemma 57).
//!
//! Everything here is exact: no floating point is used anywhere in the
//! workspace, so the decision procedure can never be wrong due to rounding.
//!
//! # The solvers
//!
//! * **Incremental echelon** ([`IncrementalBasis`]): an online exact
//!   elimination that inserts one generator at a time, carries coefficient
//!   coordinates, early-exits once a target enters the span, and is shared
//!   across the decision batches of `cqdet-core` / `cqdet-engine` so fleets
//!   of tasks over one view pool never re-eliminate shared columns.  This is
//!   the Main Lemma span test the decision pipeline runs.
//! * **Exact elimination** ([`QMat`], [`span_coefficients`]): dense rational
//!   Gauss–Jordan with smallest-bit-size pivot selection and row content
//!   normalization to curb coefficient blowup.
//! * **Mod-p rank bound** ([`modular`]): [`QMat::rank`] and
//!   [`QMat::is_nonsingular`] first compute the rank over `ℤ/p` for a
//!   word-size prime (Montgomery arithmetic, [`PrimeField`]).  That rank is
//!   a certified lower bound, so a full-rank result is exact; anything else
//!   runs the exact elimination.

// The elimination kernels run inside budgeted server requests: failures
// must surface as typed errors (or documented assertions), never stray
// unwraps.  Tests are exempt.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod cone;
mod incremental;
mod matrix;
pub mod modular;
mod rat;
mod vector;

pub use cone::{cone_contains, cone_coordinates, interior_cone_point, perturb_along};
pub use incremental::{CheckpointedBasis, IncrementalBasis, RemovalKind};
pub use matrix::{
    orthogonal_witness, span_coefficients, span_coefficients_gas, span_contains, QMat,
};
pub use modular::{primes, PrimeField};

pub use cqdet_parallel::{Budget, Exhausted, Gas, Interrupt};
pub use rat::Rat;
pub use vector::{dot, hadamard, mars, pow_vec, QVec};

pub use cqdet_bigint::{Int, Nat, Sign};
