//! Dense matrices over ℚ, Gaussian elimination and the span / null-space
//! machinery used by Lemma 31, Fact 5 and Lemma 46.

use crate::rat::Rat;
use crate::vector::{dot, QVec};
use cqdet_bigint::{Int, Nat};
use std::fmt;

/// The multiplier taking `row` to its primitive integer form (integer
/// entries with gcd 1): `lcm(denominators) / gcd(numerators)`.  `None` when
/// the row is all zero or already primitive.
fn primitive_scale(row: &[Rat]) -> Option<Rat> {
    let mut g = Nat::zero();
    let mut l = Nat::one();
    for x in row {
        if x.is_zero() {
            continue;
        }
        g = g.gcd(x.numer().magnitude());
        l = l.lcm(x.denom());
    }
    if g.is_zero() || (g.is_one() && l.is_one()) {
        return None;
    }
    Some(Rat::new(Int::from_nat(l), Int::from_nat(g)))
}

/// A dense `rows × cols` matrix of exact rationals, stored row-major.
#[derive(Clone, PartialEq, Eq)]
pub struct QMat {
    rows: usize,
    cols: usize,
    data: Vec<Rat>,
}

impl QMat {
    /// An all-zero `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        QMat {
            rows,
            cols,
            data: vec![Rat::zero(); rows * cols],
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, Rat::one());
        }
        m
    }

    /// Build a matrix from its rows.
    pub fn from_rows(rows: &[QVec]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].dim();
        assert!(
            rows.iter().all(|r| r.dim() == cols),
            "all rows must have the same length"
        );
        QMat {
            rows: rows.len(),
            cols,
            data: rows.iter().flat_map(|r| r.0.iter().cloned()).collect(),
        }
    }

    /// Build a matrix from its columns (directly, without the intermediate
    /// row-major copy a transpose-of-`from_rows` would make).
    pub fn from_cols(cols: &[QVec]) -> Self {
        assert!(!cols.is_empty(), "matrix must have at least one column");
        let rows = cols[0].dim();
        assert!(
            cols.iter().all(|c| c.dim() == rows),
            "all columns must have the same length"
        );
        let mut data = Vec::with_capacity(rows * cols.len());
        for i in 0..rows {
            for c in cols {
                data.push(c.0[i].clone());
            }
        }
        QMat {
            rows,
            cols: cols.len(),
            data,
        }
    }

    /// Build a matrix from `i64` entries given as rows.
    pub fn from_i64_rows(rows: &[&[i64]]) -> Self {
        Self::from_rows(&rows.iter().map(|r| QVec::from_i64s(r)).collect::<Vec<_>>())
    }

    /// The Vandermonde matrix `A(i,j) = aᵢ^{j-1}` of Lemma 46.
    pub fn vandermonde(points: &[Rat]) -> Self {
        let k = points.len();
        let mut m = Self::zeros(k, k);
        for (i, a) in points.iter().enumerate() {
            let mut p = Rat::one();
            for j in 0..k {
                m.set(i, j, p.clone());
                p = p.mul_ref(a);
            }
        }
        m
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// The entry at row `i`, column `j`.
    pub fn get(&self, i: usize, j: usize) -> &Rat {
        &self.data[i * self.cols + j]
    }

    /// Set the entry at row `i`, column `j`.
    pub fn set(&mut self, i: usize, j: usize, v: Rat) {
        self.data[i * self.cols + j] = v;
    }

    /// The `i`-th row as a vector.
    pub fn row(&self, i: usize) -> QVec {
        QVec(self.data[i * self.cols..(i + 1) * self.cols].to_vec())
    }

    /// The `j`-th column as a vector.
    pub fn col(&self, j: usize) -> QVec {
        assert!(j < self.cols, "column index out of bounds");
        QVec(self.data[j..].iter().step_by(self.cols).cloned().collect())
    }

    /// All rows as vectors.
    pub fn rows_vec(&self) -> Vec<QVec> {
        (0..self.rows).map(|i| self.row(i)).collect()
    }

    /// The transpose (single pass, no zero-initialised intermediate).
    pub fn transpose(&self) -> QMat {
        let mut data = Vec::with_capacity(self.data.len());
        for j in 0..self.cols {
            for i in 0..self.rows {
                data.push(self.get(i, j).clone());
            }
        }
        QMat {
            rows: self.cols,
            cols: self.rows,
            data,
        }
    }

    /// Matrix–matrix product.
    pub fn matmul(&self, other: &QMat) -> QMat {
        assert_eq!(self.cols, other.rows, "matrix dimension mismatch");
        let mut out = QMat::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for j in 0..other.cols {
                let mut acc = Rat::zero();
                for l in 0..self.cols {
                    acc += &self.get(i, l).mul_ref(other.get(l, j));
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// Matrix–vector product `M·x⃗`.
    pub fn mul_vec(&self, x: &QVec) -> QVec {
        assert_eq!(self.cols, x.dim(), "matrix/vector dimension mismatch");
        QVec((0..self.rows).map(|i| dot(&self.row(i), x)).collect())
    }

    /// Reduced row echelon form. Returns `(rref, rank, pivot_columns)`.
    ///
    /// Two measures curb coefficient blowup on bignum-entry matrices (hom
    /// counts grow exponentially with structure size, and naive elimination
    /// squares entry sizes per step):
    ///
    /// * the pivot in each column is the candidate of **minimal bit size**,
    ///   not the first non-zero one, so elimination multipliers stay small;
    /// * each pivot row is **normalized by its content** (scaled to
    ///   primitive integer form) before eliminating with it, so common
    ///   factors accumulated in earlier steps never compound.
    ///
    /// Pivot entries are rescaled to 1 in a final pass, so the returned
    /// matrix is the canonical RREF regardless of the internal pivoting.
    pub fn rref(&self) -> (QMat, usize, Vec<usize>) {
        let mut m = self.clone();
        let mut pivots = Vec::new();
        let mut pivot_row = 0usize;
        for col in 0..m.cols {
            if pivot_row >= m.rows {
                break;
            }
            // Smallest-bit-size pivot at or below pivot_row.
            let Some(sel) = (pivot_row..m.rows)
                .filter(|&r| !m.get(r, col).is_zero())
                .min_by_key(|&r| m.get(r, col).bit_size())
            else {
                continue;
            };
            m.swap_rows(pivot_row, sel);
            m.normalize_row(pivot_row, col);
            let pivot_value = m.get(pivot_row, col).clone();
            // Eliminate the column everywhere else, row-pair at a time so the
            // inner loop runs on slices instead of index arithmetic.
            for r in 0..m.rows {
                if r == pivot_row || m.get(r, col).is_zero() {
                    continue;
                }
                let (pivot, target) = m.row_pair(pivot_row, r);
                let factor = target[col].div_ref(&pivot_value);
                for j in col..pivot.len() {
                    if !pivot[j].is_zero() {
                        target[j] = target[j].sub_mul_ref(&factor, &pivot[j]);
                    }
                }
            }
            pivots.push(col);
            pivot_row += 1;
        }
        // Canonicalize: pivot entries become 1.
        for (row, &col) in pivots.iter().enumerate() {
            let pivot = m.get(row, col).clone();
            if pivot.is_one() {
                continue;
            }
            let inv = pivot.recip();
            for j in col..m.cols {
                if !m.get(row, j).is_zero() {
                    let v = m.get(row, j).mul_ref(&inv);
                    m.set(row, j, v);
                }
            }
        }
        (m, pivot_row, pivots)
    }

    /// Scale row `i` (whose entries before `from` are zero) to primitive
    /// integer form, returning the multiplier applied; no-op (and `None`)
    /// on all-zero or already-primitive rows.
    fn normalize_row(&mut self, i: usize, from: usize) -> Option<Rat> {
        let start = i * self.cols + from;
        let end = (i + 1) * self.cols;
        let scale = primitive_scale(&self.data[start..end])?;
        for x in &mut self.data[start..end] {
            if !x.is_zero() {
                *x = x.mul_ref(&scale);
            }
        }
        Some(scale)
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for j in 0..self.cols {
            self.data.swap(a * self.cols + j, b * self.cols + j);
        }
    }

    /// Disjoint `(source, target)` row slices for an elimination step.
    fn row_pair(&mut self, src: usize, dst: usize) -> (&[Rat], &mut [Rat]) {
        debug_assert_ne!(src, dst);
        let cols = self.cols;
        if src < dst {
            let (head, tail) = self.data.split_at_mut(dst * cols);
            (&head[src * cols..(src + 1) * cols], &mut tail[..cols])
        } else {
            let (head, tail) = self.data.split_at_mut(src * cols);
            (&tail[..cols], &mut head[dst * cols..(dst + 1) * cols])
        }
    }

    /// The rank of the matrix.
    ///
    /// Fast path: the mod-p rank is a certified *lower* bound (non-zero
    /// minors survive reduction), so when it reaches `min(rows, cols)` the
    /// exact rank is proved in machine words; only rank-deficient-mod-p
    /// matrices (possibly falsely so) pay the exact elimination.  Tiny
    /// word-size matrices skip the prescreen (`modular::prescreen_pays`) —
    /// exact elimination is already cheaper than the field setup there.
    pub fn rank(&self) -> usize {
        let full = self.rows.min(self.cols);
        if crate::modular::prescreen_pays(self.rows * self.cols, self.data.iter())
            && crate::modular::rank_lower_bound(self) == Some(full)
        {
            return full;
        }
        self.rref().1
    }

    /// The determinant (square matrices only), by Gaussian elimination over
    /// ℚ with the same smallest-pivot / content-normalization policy as
    /// [`QMat::rref`] (row scalings are tracked and divided back out).
    pub fn determinant(&self) -> Rat {
        assert_eq!(self.rows, self.cols, "determinant of a non-square matrix");
        let n = self.rows;
        let mut m = self.clone();
        let mut det = Rat::one();
        // Product of the row-content multipliers applied along the way:
        // det(scaled) = scale_acc · det(self).
        let mut scale_acc = Rat::one();
        for col in 0..n {
            let Some(sel) = (col..n)
                .filter(|&r| !m.get(r, col).is_zero())
                .min_by_key(|&r| m.get(r, col).bit_size())
            else {
                return Rat::zero();
            };
            if sel != col {
                m.swap_rows(col, sel);
                det = det.neg_ref();
            }
            if let Some(scale) = m.normalize_row(col, col) {
                scale_acc = scale_acc.mul_ref(&scale);
            }
            let pivot = m.get(col, col).clone();
            det = det.mul_ref(&pivot);
            let inv = pivot.recip();
            for r in col + 1..n {
                if m.get(r, col).is_zero() {
                    continue;
                }
                let (pivot_row, target) = m.row_pair(col, r);
                let factor = target[col].mul_ref(&inv);
                for j in col..n {
                    if !pivot_row[j].is_zero() {
                        target[j] = target[j].sub_mul_ref(&factor, &pivot_row[j]);
                    }
                }
            }
        }
        det.div_ref(&scale_acc)
    }

    /// Whether this (square) matrix is nonsingular (Definition 38 requires
    /// this of good evaluation matrices).
    ///
    /// Rides the modular fast path of [`QMat::rank`]: a full-rank result
    /// mod a word-size prime proves nonsingularity over ℚ in machine
    /// words, so the common (nonsingular) case never touches bignums.
    pub fn is_nonsingular(&self) -> bool {
        self.rows == self.cols && self.rank() == self.rows
    }

    /// The inverse of a nonsingular square matrix, or `None` if singular.
    pub fn inverse(&self) -> Option<QMat> {
        if self.rows != self.cols {
            return None;
        }
        let n = self.rows;
        // Augment with the identity and run RREF.
        let mut aug = QMat::zeros(n, 2 * n);
        for i in 0..n {
            for j in 0..n {
                aug.set(i, j, self.get(i, j).clone());
            }
            aug.set(i, n + i, Rat::one());
        }
        let (r, _, pivots) = aug.rref();
        // Invertible iff the left block reduces to the identity, i.e. the
        // first n pivots are exactly the first n columns.
        if pivots.len() < n || pivots[..n] != (0..n).collect::<Vec<_>>()[..] {
            return None;
        }
        let mut inv = QMat::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                inv.set(i, j, r.get(i, n + j).clone());
            }
        }
        Some(inv)
    }

    /// Solve `M·x⃗ = b⃗`; returns one solution if the system is consistent.
    pub fn solve(&self, b: &QVec) -> Option<QVec> {
        assert_eq!(self.rows, b.dim(), "matrix/vector dimension mismatch");
        let mut aug = QMat::zeros(self.rows, self.cols + 1);
        for i in 0..self.rows {
            for j in 0..self.cols {
                aug.set(i, j, self.get(i, j).clone());
            }
            aug.set(i, self.cols, b[i].clone());
        }
        let (r, _, pivots) = aug.rref();
        // Inconsistent if a pivot lands in the augmented column.
        if pivots.contains(&self.cols) {
            return None;
        }
        let mut x = QVec::zeros(self.cols);
        for (row, &col) in pivots.iter().enumerate() {
            x[col] = r.get(row, self.cols).clone();
        }
        Some(x)
    }

    /// A basis of the null space `{x⃗ : M·x⃗ = 0}`.
    pub fn null_space(&self) -> Vec<QVec> {
        let (r, _, pivots) = self.rref();
        let free: Vec<usize> = (0..self.cols).filter(|c| !pivots.contains(c)).collect();
        let mut basis = Vec::with_capacity(free.len());
        for &f in &free {
            let mut v = QVec::zeros(self.cols);
            v[f] = Rat::one();
            for (row, &col) in pivots.iter().enumerate() {
                v[col] = r.get(row, f).neg_ref();
            }
            basis.push(v);
        }
        basis
    }
}

/// Whether `target ∈ span_ℚ{vectors}` — the heart of the Main Lemma
/// (Lemma 31): `V₀ ⟶_bag q` iff `q⃗ ∈ span{v⃗ | v ∈ V}`.
///
/// The span of the empty set is `{0⃗}`.
pub fn span_contains(vectors: &[QVec], target: &QVec) -> bool {
    span_coefficients(vectors, target).is_some()
}

/// If `target ∈ span{vectors}`, return coefficients `α⃗` with
/// `Σ αᵢ·vectorsᵢ = target`: one dense exact elimination of the system
/// `A·α⃗ = target` whose columns are the vectors.
///
/// The decision pipeline answers the same question incrementally
/// ([`crate::IncrementalBasis`]); this is the one-shot form.
pub fn span_coefficients(vectors: &[QVec], target: &QVec) -> Option<QVec> {
    if vectors.is_empty() {
        return target.is_zero().then(|| QVec::zeros(0));
    }
    QMat::from_cols(vectors).solve(target)
}

/// Fact 5: given `u⃗₁, …, u⃗ₙ` and `u⃗` with `u⃗ ∉ span{u⃗ᵢ}`, there is a vector
/// `z⃗` orthogonal to every `u⃗ᵢ` but not to `u⃗`.  Returns `None` when
/// `u⃗ ∈ span{u⃗ᵢ}` (in which case no such `z⃗` exists).
pub fn orthogonal_witness(vectors: &[QVec], target: &QVec) -> Option<QVec> {
    let k = target.dim();
    let null = if vectors.is_empty() {
        (0..k).map(|i| QVec::unit(k, i)).collect::<Vec<_>>()
    } else {
        QMat::from_rows(vectors).null_space()
    };
    null.into_iter().find(|z| !dot(z, target).is_zero())
}

impl fmt::Debug for QMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "QMat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            writeln!(f, "  {}", self.row(i))?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for QMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Column-aligned pretty printer (used by the figure-reproduction examples).
        let strings: Vec<Vec<String>> = (0..self.rows)
            .map(|i| (0..self.cols).map(|j| self.get(i, j).to_string()).collect())
            .collect();
        let widths: Vec<usize> = (0..self.cols)
            .map(|j| strings.iter().map(|r| r[j].len()).max().unwrap_or(0))
            .collect();
        for row in &strings {
            write!(f, "[ ")?;
            for (j, s) in row.iter().enumerate() {
                write!(f, "{:>width$} ", s, width = widths[j])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqdet_bigint::Int;

    fn m(rows: &[&[i64]]) -> QMat {
        QMat::from_i64_rows(rows)
    }

    fn v(vals: &[i64]) -> QVec {
        QVec::from_i64s(vals)
    }

    #[test]
    fn identity_and_matmul() {
        let a = m(&[&[1, 2], &[3, 4]]);
        let i = QMat::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
        let b = m(&[&[5, 6], &[7, 8]]);
        assert_eq!(a.matmul(&b), m(&[&[19, 22], &[43, 50]]));
    }

    #[test]
    fn mul_vec() {
        let a = m(&[&[1, 2], &[3, 4]]);
        assert_eq!(a.mul_vec(&v(&[1, 1])), v(&[3, 7]));
        assert_eq!(a.mul_vec(&v(&[0, 0])), v(&[0, 0]));
    }

    #[test]
    fn transpose_and_accessors() {
        let a = m(&[&[1, 2, 3], &[4, 5, 6]]);
        assert_eq!(a.nrows(), 2);
        assert_eq!(a.ncols(), 3);
        assert_eq!(a.transpose(), m(&[&[1, 4], &[2, 5], &[3, 6]]));
        assert_eq!(a.row(1), v(&[4, 5, 6]));
        assert_eq!(a.col(2), v(&[3, 6]));
        assert_eq!(QMat::from_cols(&[v(&[1, 4]), v(&[2, 5]), v(&[3, 6])]), a);
    }

    #[test]
    fn rank_and_rref() {
        assert_eq!(m(&[&[1, 2], &[2, 4]]).rank(), 1);
        assert_eq!(m(&[&[1, 2], &[3, 4]]).rank(), 2);
        assert_eq!(m(&[&[0, 0], &[0, 0]]).rank(), 0);
        assert_eq!(m(&[&[1, 2, 3], &[4, 5, 6], &[7, 8, 9]]).rank(), 2);
        let (r, rank, pivots) = m(&[&[2, 4], &[1, 3]]).rref();
        assert_eq!(rank, 2);
        assert_eq!(pivots, vec![0, 1]);
        assert_eq!(r, QMat::identity(2));
    }

    #[test]
    fn determinant() {
        assert_eq!(m(&[&[1, 2], &[3, 4]]).determinant(), Rat::from_i64(-2));
        assert_eq!(m(&[&[2, 4], &[1, 2]]).determinant(), Rat::zero());
        assert_eq!(
            m(&[&[1, 2, 3], &[4, 5, 6], &[7, 8, 10]]).determinant(),
            Rat::from_i64(-3)
        );
        assert_eq!(QMat::identity(4).determinant(), Rat::one());
        // The paper's Example 39 / Figure 1 matrix is singular.
        assert_eq!(m(&[&[2, 4], &[1, 2]]).determinant(), Rat::zero());
    }

    #[test]
    fn inverse() {
        let a = m(&[&[1, 2], &[3, 4]]);
        let inv = a.inverse().unwrap();
        assert_eq!(a.matmul(&inv), QMat::identity(2));
        assert_eq!(inv.matmul(&a), QMat::identity(2));
        assert!(m(&[&[2, 4], &[1, 2]]).inverse().is_none());
        // Example 54's matrix is nonsingular.
        let e54 = m(&[&[1, 4], &[1, 2]]);
        assert!(e54.is_nonsingular());
        let inv = e54.inverse().unwrap();
        assert_eq!(e54.matmul(&inv), QMat::identity(2));
    }

    #[test]
    fn solve_consistent_and_inconsistent() {
        let a = m(&[&[1, 2], &[3, 4]]);
        let x = a.solve(&v(&[5, 11])).unwrap();
        assert_eq!(a.mul_vec(&x), v(&[5, 11]));
        // Singular but consistent.
        let s = m(&[&[1, 2], &[2, 4]]);
        let x = s.solve(&v(&[3, 6])).unwrap();
        assert_eq!(s.mul_vec(&x), v(&[3, 6]));
        // Singular and inconsistent.
        assert!(s.solve(&v(&[3, 7])).is_none());
        // Rectangular, underdetermined.
        let r = m(&[&[1, 1, 1]]);
        let x = r.solve(&v(&[5])).unwrap();
        assert_eq!(r.mul_vec(&x), v(&[5]));
    }

    #[test]
    fn null_space() {
        let a = m(&[&[1, 2], &[2, 4]]);
        let ns = a.null_space();
        assert_eq!(ns.len(), 1);
        assert!(a.mul_vec(&ns[0]).is_zero());
        assert!(!ns[0].is_zero());

        assert!(QMat::identity(3).null_space().is_empty());

        let b = m(&[&[1, 1, 1], &[1, 2, 3]]);
        let ns = b.null_space();
        assert_eq!(ns.len(), 1);
        assert!(b.mul_vec(&ns[0]).is_zero());
    }

    #[test]
    fn span_membership() {
        let v1 = v(&[2, 1, 3]);
        let v2 = v(&[5, 2, 7]);
        // q = 3*v1 - v2 (the relationship in Example 32).
        let q = v(&[1, 1, 2]);
        assert!(span_contains(&[v1.clone(), v2.clone()], &q));
        let coeffs = span_coefficients(&[v1.clone(), v2.clone()], &q).unwrap();
        assert_eq!(coeffs, v(&[3, -1]));
        // Not in span.
        assert!(!span_contains(std::slice::from_ref(&v1), &q));
        // Empty span contains only zero.
        assert!(span_contains(&[], &v(&[0, 0])));
        assert!(!span_contains(&[], &v(&[0, 1])));
        // Zero target is always in span.
        assert!(span_contains(&[v1], &v(&[0, 0, 0])));
    }

    #[test]
    fn fact_5_orthogonal_witness() {
        let v1 = v(&[1, 0, 0]);
        let v2 = v(&[0, 1, 0]);
        let q = v(&[0, 0, 1]);
        let z = orthogonal_witness(&[v1.clone(), v2.clone()], &q).unwrap();
        assert_eq!(dot(&z, &v1), Rat::zero());
        assert_eq!(dot(&z, &v2), Rat::zero());
        assert!(!dot(&z, &q).is_zero());
        // q in span → no witness.
        assert!(orthogonal_witness(&[v(&[1, 0]), v(&[0, 1])], &v(&[2, 3])).is_none());
        // Empty span: any nonzero target has a witness.
        let z = orthogonal_witness(&[], &v(&[0, 7])).unwrap();
        assert!(!dot(&z, &v(&[0, 7])).is_zero());
    }

    #[test]
    fn vandermonde_lemma_46() {
        // Pairwise distinct points → nonsingular.
        let pts: Vec<Rat> = [1i64, 2, 3, 5].iter().map(|&x| Rat::from_i64(x)).collect();
        let m = QMat::vandermonde(&pts);
        assert!(m.is_nonsingular());
        assert_eq!(*m.get(2, 3), Rat::from_i64(27));
        // Repeated point → singular.
        let pts: Vec<Rat> = [1i64, 2, 2].iter().map(|&x| Rat::from_i64(x)).collect();
        assert!(!QMat::vandermonde(&pts).is_nonsingular());
    }

    #[test]
    fn inverse_has_rational_entries() {
        let a = m(&[&[2, 0], &[0, 3]]);
        let inv = a.inverse().unwrap();
        assert_eq!(*inv.get(0, 0), Rat::from_frac(1, 2));
        assert_eq!(*inv.get(1, 1), Rat::from_frac(1, 3));
        assert_eq!(inv.mul_vec(&v(&[4, 9])), v(&[2, 3]));
        assert_eq!(
            inv.mul_vec(&QVec::from_ints(&[Int::from_i64(5), Int::from_i64(5)])),
            QVec(vec![Rat::from_frac(5, 2), Rat::from_frac(5, 3)])
        );
    }
}
