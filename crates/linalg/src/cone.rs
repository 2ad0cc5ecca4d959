//! The convex cone `C = M(ℝ≥0^k)` of Definition 52, rational interior points
//! (Corollary 8) and the perturbation `p⃗' = t^{z⃗} ∘ p⃗` of Lemmas 56–57.

use crate::matrix::QMat;
use crate::rat::Rat;
use crate::vector::{hadamard, pow_vec, QVec};
use cqdet_bigint::{Int, Nat};

/// The unique `α⃗` with `M·α⃗ = u⃗`, or `None` when `M` is singular.  One
/// elimination of `[M | u⃗]` settles both: a square `M` is nonsingular iff
/// all `k` of its columns are pivots.
fn coordinates(m: &QMat, u: &QVec) -> Option<QVec> {
    let k = m.ncols();
    let augmented: Vec<QVec> = (0..k).map(|j| m.col(j)).chain([u.clone()]).collect();
    let (r, _, pivots) = QMat::from_cols(&augmented).rref();
    (m.nrows() == k && pivots.iter().copied().eq(0..k)).then(|| r.col(k))
}

/// Whether `u⃗ ∈ C = M(ℝ≥0^k) = span_{ℝ≥0}{M·e⃗ᵢ}` (Observation 53).
///
/// Requires `M` to be nonsingular (this is how the cone is used in the paper:
/// `M` is the evaluation matrix of a *good* basis); `false` otherwise. For a
/// nonsingular `M`, `u⃗ ∈ C` iff `M⁻¹·u⃗ ≥ 0` componentwise.
pub fn cone_contains(m: &QMat, u: &QVec) -> bool {
    cone_coordinates(m, u).is_some()
}

/// If `u⃗ ∈ C`, return the (unique, because `M` is nonsingular) coordinates
/// `α⃗ ≥ 0` with `M·α⃗ = u⃗`; `None` when `u⃗ ∉ C` or `M` is singular.
/// One elimination of `[M | u⃗]` answers both.
pub fn cone_coordinates(m: &QMat, u: &QVec) -> Option<QVec> {
    coordinates(m, u).filter(QVec::is_non_negative)
}

/// Corollary 8: a rational point `p⃗ ∈ C ∩ ℚ^k` around which some ball is
/// contained in `C`; `None` when `M` is singular.
///
/// We take `p⃗ = M·𝟙`, so `α(p⃗) = 𝟙`: the all-ones vector is interior to
/// `ℝ≥0^k` and a nonsingular `M` is a homeomorphism (Fact 6), so its image
/// is interior to `C`; it is rational because `M` is.
pub fn interior_cone_point(m: &QMat) -> Option<QVec> {
    m.is_nonsingular()
        .then(|| m.mul_vec(&QVec::ones(m.ncols())))
}

/// Lemma 57: find a rational `t ≠ 1` such that `p⃗′ = t^{z⃗} ∘ p⃗ ∈ C`.
///
/// Returns `(t, α⃗′)` with `α⃗′ ≥ 0` the cone coordinates of `p⃗′`, as the
/// scaling of Lemma 55 needs.  The search walks `t = 1 + 2^{-j}` for
/// growing `j`, one elimination of `[M | t^{z⃗} ∘ p⃗]` per probe; for an
/// interior `p⃗` such as `M·𝟙` (coordinates `𝟙`), continuity of
/// `t ↦ t^{z⃗} ∘ p⃗` at `t = 1` guarantees termination.  `None` when `M` is
/// singular (the first probe shows it) or no probe lands in `C`.
pub fn perturb_along(m: &QMat, p: &QVec, z: &QVec) -> Option<(Rat, QVec)> {
    for j in 1..512usize {
        let t = Rat::one() + Rat::new(Int::one(), Int::from_nat(Nat::one().shl_bits(j)));
        let alpha = coordinates(m, &hadamard(&pow_vec(&t, z), p))?;
        if alpha.is_non_negative() {
            return Some((t, alpha));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::dot;

    fn m(rows: &[&[i64]]) -> QMat {
        QMat::from_i64_rows(rows)
    }

    fn v(vals: &[i64]) -> QVec {
        QVec::from_i64s(vals)
    }

    #[test]
    fn cone_membership_identity() {
        let id = QMat::identity(2);
        assert!(cone_contains(&id, &v(&[1, 2])));
        assert!(cone_contains(&id, &v(&[0, 0])));
        assert!(!cone_contains(&id, &v(&[-1, 2])));
    }

    #[test]
    fn cone_membership_example_54() {
        // Example 54: M = [[1,4],[1,2]] (rows w1, w2; columns s1, s2).
        let m54 = m(&[&[1, 4], &[1, 2]]);
        // Column vectors generate the cone.
        assert!(cone_contains(&m54, &v(&[1, 1])));
        assert!(cone_contains(&m54, &v(&[4, 2])));
        assert!(cone_contains(&m54, &v(&[5, 3])));
        // A point outside the cone (below the s2 ray).
        assert!(!cone_contains(&m54, &v(&[4, 1])));
        // Coordinates recompose.
        let alpha = cone_coordinates(&m54, &v(&[5, 3])).unwrap();
        assert_eq!(m54.mul_vec(&alpha), v(&[5, 3]));
    }

    #[test]
    fn interior_point_is_in_cone() {
        let m54 = m(&[&[1, 4], &[1, 2]]);
        let p = interior_cone_point(&m54).unwrap();
        assert_eq!(p, v(&[5, 3]));
        assert!(cone_contains(&m54, &p));
        let alpha = cone_coordinates(&m54, &p).unwrap();
        // Strictly positive coordinates → interior.
        assert!(alpha.iter().all(|a| a.is_positive()));
    }

    #[test]
    fn perturb_preserves_cone_and_moves_target() {
        let m54 = m(&[&[1, 4], &[1, 2]]);
        let p = interior_cone_point(&m54).unwrap();
        let z = v(&[1, -2]);
        let (t, alpha2) = perturb_along(&m54, &p, &z).unwrap();
        assert!(t != Rat::one());
        let p2 = m54.mul_vec(&alpha2);
        assert_eq!(p2, hadamard(&pow_vec(&t, &z), &p));
        assert!(cone_contains(&m54, &p2));
        assert_ne!(p2, p);
        // Observation 49(2): for any integer vector v with ⟨z,v⟩=0 the
        // ♂-values of p and p' agree; check the underlying dot-product fact.
        let orth = v(&[2, 1]);
        assert_eq!(dot(&z, &orth), Rat::zero());
    }

    #[test]
    fn interior_point_requires_nonsingular() {
        let singular = m(&[&[2, 4], &[1, 2]]);
        assert!(interior_cone_point(&singular).is_none());
        assert!(cone_coordinates(&singular, &v(&[2, 1])).is_none());
        assert!(perturb_along(&singular, &v(&[2, 1]), &v(&[1, 0])).is_none());
    }

    #[test]
    fn perturbation_from_a_boundary_point_is_none() {
        // p = (1,1) = M·(0,1) lies on the boundary ray of M = [[1,1],[0,1]]:
        // every probe (1, t) with t > 1 has coordinates (1 − t, t), outside
        // the cone, so the Lemma 57 search finds nothing.
        let mb = m(&[&[1, 1], &[0, 1]]);
        let p = v(&[1, 1]);
        assert!(cone_contains(&mb, &p));
        assert!(perturb_along(&mb, &p, &v(&[0, 1])).is_none());
        // From a base point outside the cone no probe lands either.
        assert!(perturb_along(&mb, &v(&[-1, 1]), &v(&[0, 1])).is_none());
    }
}
