//! Differential property tests for the exact solvers: the modular rank
//! prescreen behind [`QMat::rank`] and the incremental echelon form
//! ([`IncrementalBasis`]) against the dense elimination oracle
//! ([`QMat::rref`] / [`span_coefficients`]) — including the adversarial
//! regimes the prescreen must survive: a prime dividing a denominator (bad
//! prime) and a whole matrix that vanishes mod a prime (rank undercount).

use cqdet_linalg::{primes, span_coefficients, IncrementalBasis, Int, Nat, QMat, QVec, Rat};
use proptest::prelude::*;

/// A small rational from a (numerator, denominator-index) pair.
fn rat(n: i64, d_index: u8) -> Rat {
    let d = [1i64, 2, 3, 5][usize::from(d_index % 4)];
    Rat::from_frac(n, d)
}

/// Chop a flat entry list into `count` vectors of dimension `k`.
fn vectors_of(entries: &[(i64, u8)], count: usize, k: usize) -> Vec<QVec> {
    (0..count)
        .map(|c| {
            QVec(
                (0..k)
                    .map(|i| rat(entries[c * k + i].0, entries[c * k + i].1))
                    .collect(),
            )
        })
        .collect()
}

/// `Σ αᵢ·vᵢ`.
fn combine(vectors: &[QVec], alpha: &QVec) -> QVec {
    let mut acc = QVec::zeros(vectors[0].dim());
    for (a, v) in alpha.iter().zip(vectors) {
        acc = &acc + &v.scale(a);
    }
    acc
}

/// The `index`-th prescreen prime as an exact rational.
fn prime_rat(index: usize) -> Rat {
    Rat::from_int(Int::from_nat(Nat::from_u64(primes()[index])))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `QMat::rank` (mod-p lower bound first, exact elimination on any
    /// shortfall) equals the exact rank of `rref` in every regime:
    ///
    /// * 0 — plain small rationals (word-size; large shapes engage the
    ///   prescreen through the cell-count cutoff);
    /// * 1 — the matrix scaled by 2⁹⁶, so bignum entries force the prescreen;
    /// * 2 / 3 — the even columns' denominators divisible by prime 1 (and
    ///   prime 2): those primes are bad and must be skipped, never trusted
    ///   — a residue made up for the bad entries would overcount the rank
    ///   of a planted dependency;
    /// * 4 — the even columns' denominators divisible by every prescreen
    ///   prime: no bound, exact elimination decides;
    /// * 5 — every entry a multiple of p₁²: the matrix vanishes mod p₁, so
    ///   the bound undercounts and must not corrupt the answer.
    ///
    /// Scaling columns leaves the rank unchanged.  `dependent` plants the
    /// last row as a combination of the others so rank-deficient matrices
    /// are common rather than measure-zero.
    #[test]
    fn rank_matches_rref_under_adversarial_primes(
        rows in 1usize..8,
        cols in 1usize..8,
        entries in prop::collection::vec((-8i64..9, 0u8..4), 49),
        regime in 0u8..6,
        dependent in any::<bool>(),
    ) {
        let shift = Rat::from_int(Int::from_nat(Nat::one().shl_bits(96)));
        let bad = match regime {
            2 => prime_rat(0),
            3 => prime_rat(0).mul_ref(&prime_rat(1)),
            _ => prime_rat(0).mul_ref(&prime_rat(1)).mul_ref(&prime_rat(2)),
        };
        let col_scale = |j: usize| match regime {
            0 => Rat::one(),
            1 => shift.clone(),
            2..=4 if j % 2 == 0 => shift.div_ref(&bad),
            2..=4 => shift.clone(),
            _ => prime_rat(0).mul_ref(&prime_rat(0)),
        };
        let mut row_vecs = vectors_of(&entries, rows, cols);
        if dependent && rows > 1 {
            let last = combine(&row_vecs[..rows - 1], &QVec::from_i64s(&[2, -1, 3, 1, -2, 1, 1][..rows - 1]));
            row_vecs[rows - 1] = last;
        }
        let scaled: Vec<QVec> = row_vecs
            .iter()
            .map(|r| QVec(r.iter().enumerate().map(|(j, x)| x.mul_ref(&col_scale(j))).collect()))
            .collect();
        let m = QMat::from_rows(&scaled);
        let exact = m.rref().1;
        prop_assert_eq!(m.rank(), exact, "rank must equal the exact rref rank");
        prop_assert_eq!(m.transpose().rank(), exact, "row rank = column rank");
        if rows == cols {
            prop_assert_eq!(m.is_nonsingular(), exact == rows);
        }
    }

    /// The incremental echelon form agrees with the dense oracle: same
    /// rank, same membership, and its coefficients reconstruct the target.
    #[test]
    fn incremental_basis_matches_rref_oracle(
        count in 1usize..6,
        k in 1usize..5,
        entries in prop::collection::vec((-8i64..9, 0u8..4), 30),
        target_entries in prop::collection::vec((-8i64..9, 0u8..4), 5),
    ) {
        let vectors = vectors_of(&entries, count, k);
        let target = QVec((0..k).map(|i| rat(target_entries[i].0, target_entries[i].1)).collect());
        let mut basis = IncrementalBasis::new(k);
        for v in &vectors {
            basis.insert(v);
        }
        prop_assert_eq!(basis.rank(), QMat::from_cols(&vectors).rank(), "rank oracle");
        let exact = span_coefficients(&vectors, &target);
        let solved = basis.solve(&target);
        prop_assert_eq!(exact.is_some(), solved.is_some(), "membership oracle");
        if let Some(alpha) = solved {
            prop_assert_eq!(combine(&vectors, &alpha), target.clone());
        }
        // The lazily fed variant agrees too, and never feeds past the
        // spanning prefix.
        let mut lazy = IncrementalBasis::new(k);
        let extended = lazy.solve_extend(&target, &vectors);
        prop_assert_eq!(extended.is_some(), exact.is_some());
        prop_assert!(lazy.len() <= vectors.len());
        if let Some(alpha) = extended {
            let mut padded = alpha.0;
            padded.resize(vectors.len(), Rat::zero());
            prop_assert_eq!(combine(&vectors, &QVec(padded)), target.clone());
            // Early exit: the prefix that was fed already spans the target.
            let prefix: Vec<QVec> = vectors[..lazy.len()].to_vec();
            prop_assert!(span_coefficients(&prefix, &target).is_some());
        }
    }

    /// `rref` with content normalization and smallest-pivot selection still
    /// produces the canonical reduced echelon form: idempotent, rank-
    /// consistent, pivot entries one.
    #[test]
    fn rref_remains_canonical(
        rows in 2usize..5,
        cols in 2usize..5,
        entries in prop::collection::vec((-9i64..10, 0u8..4), 25),
        scale_num in 1i64..500,
        scale_den in 1i64..500,
    ) {
        let m = QMat::from_rows(
            &(0..rows)
                .map(|r| QVec((0..cols).map(|c| rat(entries[r * cols + c].0, entries[r * cols + c].1)).collect()))
                .collect::<Vec<_>>(),
        );
        let (r, rank, pivots) = m.rref();
        prop_assert_eq!(rank, pivots.len());
        for (row, &col) in pivots.iter().enumerate() {
            prop_assert!(r.get(row, col).is_one(), "pivot entries must be 1");
            for other in 0..rows {
                if other != row {
                    prop_assert!(r.get(other, col).is_zero(), "pivot columns are unit");
                }
            }
        }
        let (rr, rrank, rpivots) = r.rref();
        prop_assert_eq!(&rr, &r, "rref is idempotent");
        prop_assert_eq!(rrank, rank);
        prop_assert_eq!(rpivots, pivots.clone());
        // Row scaling changes neither the RREF nor the rank (content
        // normalization at work).
        let s = Rat::from_frac(scale_num, scale_den);
        let scaled = QMat::from_rows(
            &(0..rows).map(|i| m.row(i).scale(&s)).collect::<Vec<_>>(),
        );
        let (sr, srank, spivots) = scaled.rref();
        prop_assert_eq!(sr, r);
        prop_assert_eq!(srank, rank);
        prop_assert_eq!(spivots, pivots);
    }
}
