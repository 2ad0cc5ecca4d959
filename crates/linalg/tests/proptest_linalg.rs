//! Property-based tests for the exact linear algebra layer.

use cqdet_linalg::{
    cone_contains, cone_coordinates, dot, hadamard, interior_cone_point, mars, orthogonal_witness,
    perturb_along, pow_vec, span_coefficients, span_contains, Int, QMat, QVec, Rat,
};
use proptest::prelude::*;

/// A small rational from an (numerator, denominator-index) pair.
fn rat(n: i64, d_index: u8) -> Rat {
    let d = [1i64, 2, 3, 5][usize::from(d_index % 4)];
    Rat::from_frac(n, d)
}

fn qvec(values: &[(i64, u8)]) -> QVec {
    QVec(values.iter().map(|&(n, d)| rat(n, d)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rat_field_laws(a in -20i64..20, b in -20i64..20, c in -20i64..20,
                      da in 0u8..4, db in 0u8..4, dc in 0u8..4) {
        let (x, y, z) = (rat(a, da), rat(b, db), rat(c, dc));
        // Commutativity / associativity / distributivity.
        prop_assert_eq!(x.add_ref(&y), y.add_ref(&x));
        prop_assert_eq!(x.mul_ref(&y), y.mul_ref(&x));
        prop_assert_eq!(x.add_ref(&y).add_ref(&z), x.add_ref(&y.add_ref(&z)));
        prop_assert_eq!(x.mul_ref(&y).mul_ref(&z), x.mul_ref(&y.mul_ref(&z)));
        prop_assert_eq!(x.mul_ref(&y.add_ref(&z)), x.mul_ref(&y).add_ref(&x.mul_ref(&z)));
        // Additive and multiplicative inverses.
        prop_assert_eq!(x.add_ref(&x.neg_ref()), Rat::zero());
        if !x.is_zero() {
            prop_assert_eq!(x.mul_ref(&x.recip()), Rat::one());
        }
        // Ordering is compatible with addition.
        if x < y {
            prop_assert!(x.add_ref(&z) < y.add_ref(&z));
        }
    }

    #[test]
    fn rat_pow_laws(a in -9i64..9, d in 0u8..4, e1 in -4i64..5, e2 in -4i64..5) {
        let x = rat(if a == 0 { 1 } else { a }, d);
        prop_assert_eq!(x.pow_i64(e1).mul_ref(&x.pow_i64(e2)), x.pow_i64(e1 + e2));
        prop_assert_eq!(x.pow_i64(e1).pow_i64(e2), x.pow_i64(e1 * e2));
    }

    #[test]
    fn dot_and_hadamard_identities(xs in prop::collection::vec((-10i64..10, 0u8..4), 1..6),
                                   ys in prop::collection::vec((-10i64..10, 0u8..4), 1..6)) {
        let k = xs.len().min(ys.len());
        let u = qvec(&xs[..k]);
        let v = qvec(&ys[..k]);
        prop_assert_eq!(dot(&u, &v), dot(&v, &u));
        prop_assert_eq!(hadamard(&u, &v), hadamard(&v, &u));
        // ⟨u, v⟩ = Σ (u ∘ v)
        let had = hadamard(&u, &v);
        let mut sum = Rat::zero();
        for x in had.iter() {
            sum += x;
        }
        prop_assert_eq!(sum, dot(&u, &v));
    }

    /// Observation 49: (u ∘ v) ♂ w = (u♂w)(v♂w) and t^u ♂ v = t^⟨u,v⟩.
    #[test]
    fn observation_49(us in prop::collection::vec(0i64..6, 1..5),
                      vs in prop::collection::vec(0i64..6, 1..5),
                      ws in prop::collection::vec(-3i64..4, 1..5),
                      tn in 1i64..5, td in 1i64..5) {
        let k = us.len().min(vs.len()).min(ws.len());
        let u = QVec::from_i64s(&us[..k]);
        let v = QVec::from_i64s(&vs[..k]);
        let w = QVec::from_i64s(&ws[..k]);
        // The first identity is only defined when no zero base meets a
        // negative exponent (0^negative is undefined, and mars panics).
        let defined = (0..k).all(|i| ws[i] >= 0 || (us[i] != 0 && vs[i] != 0));
        if defined {
            prop_assert_eq!(
                mars(&hadamard(&u, &v), &w),
                mars(&u, &w).mul_ref(&mars(&v, &w))
            );
        }
        let t = Rat::from_frac(tn, td);
        let lhs = mars(&pow_vec(&t, &w), &u);
        let e = dot(&w, &u).to_int().unwrap().to_i64().unwrap();
        prop_assert_eq!(lhs, t.pow_i64(e));
    }

    /// Solving, inverses and determinants are mutually consistent.
    #[test]
    fn matrix_solve_inverse_consistency(entries in prop::collection::vec(-5i64..6, 9),
                                        rhs in prop::collection::vec(-5i64..6, 3)) {
        let m = QMat::from_i64_rows(&[&entries[0..3], &entries[3..6], &entries[6..9]]);
        let b = QVec::from_i64s(&rhs);
        let det = m.determinant();
        prop_assert_eq!(det.is_zero(), !m.is_nonsingular());
        match m.inverse() {
            Some(inv) => {
                prop_assert!(!det.is_zero());
                prop_assert_eq!(m.matmul(&inv), QMat::identity(3));
                let x = m.solve(&b).expect("nonsingular systems are solvable");
                prop_assert_eq!(m.mul_vec(&x), b.clone());
                prop_assert_eq!(inv.mul_vec(&b), x);
            }
            None => prop_assert!(det.is_zero()),
        }
        // Whenever solve succeeds the solution actually solves the system.
        if let Some(x) = m.solve(&b) {
            prop_assert_eq!(m.mul_vec(&x), b);
        }
        // rank ≤ 3 and rank = 3 iff nonsingular.
        let rank = m.rank();
        prop_assert!(rank <= 3);
        prop_assert_eq!(rank == 3, m.is_nonsingular());
    }

    /// Null-space vectors are orthogonal to the row space; Fact 5 holds.
    #[test]
    fn null_space_and_fact_5(entries in prop::collection::vec(-4i64..5, 8),
                             target in prop::collection::vec(-4i64..5, 4)) {
        let rows = vec![
            QVec::from_i64s(&entries[0..4]),
            QVec::from_i64s(&entries[4..8]),
        ];
        let m = QMat::from_rows(&rows);
        for z in m.null_space() {
            prop_assert!(m.mul_vec(&z).is_zero());
        }
        let t = QVec::from_i64s(&target);
        let in_span = span_contains(&rows, &t);
        match orthogonal_witness(&rows, &t) {
            Some(z) => {
                prop_assert!(!in_span, "Fact 5 witness exists only outside the span");
                for r in &rows {
                    prop_assert_eq!(dot(&z, r), Rat::zero());
                }
                prop_assert!(!dot(&z, &t).is_zero());
            }
            None => prop_assert!(in_span),
        }
        // Span coefficients, when they exist, reconstruct the target.
        if let Some(coeffs) = span_coefficients(&rows, &t) {
            let mut acc = QVec::zeros(4);
            for (c, r) in coeffs.iter().zip(rows.iter()) {
                acc = &acc + &r.scale(c);
            }
            prop_assert_eq!(acc, t);
        }
    }

    /// Cone membership: M·u for u ≥ 0 is always in the cone; interior points
    /// and Lemma 57 perturbations stay in the cone.
    #[test]
    fn cone_properties(diag in prop::collection::vec(1i64..6, 3),
                       off in prop::collection::vec(0i64..3, 6),
                       probe in prop::collection::vec(0i64..5, 3),
                       z in prop::collection::vec(-2i64..3, 3)) {
        // Diagonally dominant ⇒ nonsingular.
        let m = QMat::from_i64_rows(&[
            &[diag[0] + off[0] + off[1], off[0], off[1]],
            &[off[2], diag[1] + off[2] + off[3], off[3]],
            &[off[4], off[5], diag[2] + off[4] + off[5]],
        ]);
        prop_assume!(m.is_nonsingular());
        let u = QVec::from_i64s(&probe);
        let point = m.mul_vec(&u);
        prop_assert!(cone_contains(&m, &point));
        let coords = cone_coordinates(&m, &point).unwrap();
        prop_assert_eq!(m.mul_vec(&coords), point);
        let p = interior_cone_point(&m).unwrap();
        prop_assert_eq!(&p, &m.mul_vec(&QVec::ones(3)));
        prop_assert!(cone_contains(&m, &p));
        let zv = QVec::from_i64s(&z);
        let (t, alpha2) = perturb_along(&m, &p, &zv).unwrap();
        // Differential oracle for the one-solve search: the first probe
        // t_j = 1 + 2^{-j} whose point t_j^z ∘ p has non-negative cone
        // coordinates, each found by a rank check and a separate solve.
        let half = Rat::from_frac(1, 2);
        let mut eps = Rat::one();
        let oracle = (1..512).find_map(|_| {
            eps = eps.mul_ref(&half);
            let t = Rat::one() + eps.clone();
            let point = hadamard(&pow_vec(&t, &zv), &p);
            m.is_nonsingular()
                .then(|| m.solve(&point))
                .flatten()
                .filter(QVec::is_non_negative)
                .map(|alpha| (t, alpha))
        });
        prop_assert_eq!(Some((t.clone(), alpha2.clone())), oracle);
        let p2 = hadamard(&pow_vec(&t, &zv), &p);
        prop_assert_eq!(&m.mul_vec(&alpha2), &p2);
        prop_assert!(cone_contains(&m, &p2));
        if zv.is_zero() {
            prop_assert_eq!(&p2, &p);
            prop_assert_eq!(&alpha2, &QVec::ones(3));
        } else {
            prop_assert!(t != Rat::one());
        }
        // A Vandermonde matrix over a repeated point is singular (Lemma 46),
        // so no probe has cone coordinates.
        let a = Rat::from_i64(diag[0]);
        let singular = QMat::vandermonde(&[a.clone(), a, Rat::from_i64(diag[1] + 5)]);
        let ps = singular.mul_vec(&QVec::ones(3));
        prop_assert!(perturb_along(&singular, &ps, &zv).is_none());
    }

    #[test]
    fn vandermonde_nonsingular_iff_distinct(points in prop::collection::vec(-6i64..7, 2..5)) {
        let rats: Vec<Rat> = points.iter().map(|&p| Rat::from_i64(p)).collect();
        let m = QMat::vandermonde(&rats);
        let mut sorted = points.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let distinct = sorted.len() == points.len();
        prop_assert_eq!(m.is_nonsingular(), distinct, "Lemma 46");
    }

    #[test]
    fn common_denominator_clears(xs in prop::collection::vec((-12i64..12, 1i64..9), 1..6)) {
        let v = QVec(xs.iter().map(|&(n, d)| Rat::from_frac(n, d)).collect());
        let c = v.common_denominator();
        prop_assert!(c >= Int::one());
        prop_assert!(v.scale(&Rat::from_int(c)).is_integral());
    }
}
