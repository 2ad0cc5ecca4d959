//! Constructive non-determinacy witnesses (Sections 5–7 of the paper).
//!
//! When the Main Lemma's span test fails (`q⃗ ∉ span{v⃗ : v ∈ V}`), the paper
//! does not merely conclude `V₀ ⟶̸_bag q` — it *builds* a counterexample pair
//! `D, D′` with `v(D) = v(D′)` for every `v ∈ V₀` and `q(D) ≠ q(D′)`.  This
//! module follows that construction step by step:
//!
//! 1. **Good basis `S`** (Lemma 40, Section 6): separating structures for every
//!    pair of basis queries (Lemma 43), combined radix-`T` (Step 2), raised to
//!    powers `0..k-1` (Step 3, nonsingular by the Vandermonde Lemma 46) and
//!    multiplied by `q` (Step 4, which makes `S` *decent*).
//! 2. **Perturbation** (Section 7): an integer vector `z⃗` orthogonal to all
//!    view vectors but not to `q⃗` (Fact 5), the interior point `p⃗ = M·𝟙`
//!    of the cone `C = M(ℝ≥0^k)` with coordinates `α⃗ = 𝟙` (Corollary 8),
//!    and `p⃗′ = t^{z⃗} ∘ p⃗` for a rational `t ≈ 1` (Lemma 57): one exact
//!    solve `M·α⃗′ = p⃗′` per probe `t`, which also proves `M` nonsingular.
//! 3. **Scaling** (Lemma 55): multiply `α⃗` and `α⃗′` by the common
//!    denominator of `α⃗′`, so both points become answer vectors of actual
//!    structures `D, D′ ∈ span_ℕ(S)`.
//!
//! The structures are kept **symbolic** ([`StructureExpr`]) because the basis
//! elements are huge; the returned [`Counterexample`] carries a certificate
//! that can be checked exactly (and, for small instances, cross-checked by
//! materialising the structures and recounting homomorphisms).

use crate::boolean::BagDeterminacy;
use cqdet_bigint::Nat;
use cqdet_linalg::{dot, orthogonal_witness, perturb_along, Int, QMat, QVec, Rat};
use cqdet_parallel::CancelToken;
use cqdet_query::ConjunctiveQuery;
use cqdet_structure::{
    components_keyed, hom_count, BasisIndex, Const, Fact, Schema, Structure, StructureExpr,
};
use std::cmp::Reverse;
use std::fmt;

/// Why a witness could not be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WitnessError {
    /// The instance is determined — no counterexample exists (Lemma 31 (⇐)).
    InstanceIsDetermined,
    /// The request's [`cqdet_parallel::CancelToken`] expired during witness
    /// construction.
    DeadlineExceeded {
        /// The boundary that observed the expiry (always a `"witness"`
        /// sub-stage).
        stage: &'static str,
    },
    /// An invariant of the construction failed — a bug (or an `analysis`
    /// that does not belong to the given query), reported as data instead
    /// of a panic so a serving process survives it.
    Internal(String),
}

impl fmt::Display for WitnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WitnessError::InstanceIsDetermined => {
                write!(f, "the instance is determined; no counterexample exists")
            }
            WitnessError::DeadlineExceeded { stage } => {
                write!(f, "deadline exceeded at stage {stage}")
            }
            WitnessError::Internal(message) => write!(f, "internal error: {message}"),
        }
    }
}

impl std::error::Error for WitnessError {}

impl From<cqdet_parallel::Expired> for WitnessError {
    fn from(e: cqdet_parallel::Expired) -> WitnessError {
        WitnessError::DeadlineExceeded { stage: e.stage }
    }
}

/// The witness construction has no knobs.  Kept only for the `perfbench`
/// replay, which still builds it; the next benchmark change deletes it.
#[doc(hidden)]
#[derive(Debug, Clone, Default)]
pub struct WitnessConfig {}

/// A certified counterexample to bag-determinacy.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The schema of the instance.
    pub schema: Schema,
    /// The basis `W` (connected components, Definition 27).
    pub basis: Vec<Structure>,
    /// The good basis structures `S = {s₁, …, s_k}` (symbolic).
    pub good_basis: Vec<StructureExpr>,
    /// The evaluation matrix `M(i,j) = |hom(wᵢ, sⱼ)|` (Definition 37).
    pub evaluation_matrix: QMat,
    /// The integer vector `z⃗` orthogonal to every retained view vector but not
    /// to `q⃗` (Fact 5).
    pub z: QVec,
    /// The rational perturbation factor `t ≠ 1` of Lemma 57.
    pub t: Rat,
    /// Multiplicities `α⃗ ∈ ℕ^k` of the basis structures in `D`.
    pub alpha: Vec<Nat>,
    /// Multiplicities `α⃗′ ∈ ℕ^k` of the basis structures in `D′`.
    pub alpha_prime: Vec<Nat>,
    /// The first structure `D = Σ αᵢ·sᵢ` (symbolic).
    pub d: StructureExpr,
    /// The second structure `D′ = Σ α′ᵢ·sᵢ` (symbolic).
    pub d_prime: StructureExpr,
    /// The base counts every evaluation below is recomposed from.
    table: CountTable,
}

/// Every evaluation below is Lemma 4 arithmetic on the certificate's count
/// table (the base counts of its basis against `S⁽¹⁾` and `q`): no
/// structure is materialised, and a basis element's base counts are never
/// taken again.
impl Counterexample {
    /// Evaluate a boolean query symbolically on `D` (i.e. compute `φ(D)`).
    pub fn eval_on_d(&self, query: &ConjunctiveQuery) -> Nat {
        self.counts(&BasisIndex::new(&self.basis), query).0
    }

    /// Evaluate a boolean query symbolically on `D′`.
    pub fn eval_on_d_prime(&self, query: &ConjunctiveQuery) -> Nat {
        self.counts(&BasisIndex::new(&self.basis), query).1
    }

    /// Check the counterexample against the original instance: every view of
    /// `views` (retained or not) must agree on `D` and `D′`, and `query` must
    /// not.  All evaluations are exact, and recomposed from base counts
    /// without reading the evaluation matrix, so the check is independent of
    /// the arithmetic that built `M`, `α⃗` and `α⃗′`.
    pub fn verify(&self, views: &[ConjunctiveQuery], query: &ConjunctiveQuery) -> bool {
        let index = BasisIndex::new(&self.basis);
        let separates = |q: &ConjunctiveQuery| {
            let (on_d, on_d_prime) = self.counts(&index, q);
            on_d != on_d_prime
        };
        !views.iter().any(separates) && separates(query)
    }

    /// `(φ(D), φ(D′))` for the query `φ`, by Lemma 4: `φ`'s frozen body
    /// factors through its connected components `c` (Lemma 4(5)), and
    /// `|hom(c, Σ αⱼ·sⱼ)| = |hom(c, q)|·Σ αⱼ·b(c)ʲ` (Lemma 4(1)–(4)).  A
    /// component isomorphic to a basis element reads that element's row of
    /// the table; any other one (a component of a non-retained view, say)
    /// is counted fresh against `S⁽¹⁾` and `q`.
    fn counts(&self, index: &BasisIndex, query: &ConjunctiveQuery) -> (Nat, Nat) {
        let (comps, _) = components_keyed(&[query.frozen_body_over(&self.schema)]).remove(0);
        let (mut on_d, mut on_d_prime) = (Nat::one(), Nat::one());
        for c in &comps {
            let fresh;
            let row = match index.position(c).and_then(|i| self.table.rows.get(i)) {
                Some(row) => row,
                None => {
                    fresh = self.table.fresh_row(c);
                    &fresh
                }
            };
            let b = self.table.radix_count(row);
            on_d = on_d
                .mul_ref(&row.query)
                .mul_ref(&polynomial(&self.alpha, &b));
            on_d_prime = on_d_prime
                .mul_ref(&row.query)
                .mul_ref(&polynomial(&self.alpha_prime, &b));
        }
        (on_d, on_d_prime)
    }

    /// Cross-check by materialising `D` and `D′` (when small enough) and
    /// recounting every homomorphism by brute force.
    ///
    /// Returns `None` when either structure exceeds `max_domain` domain
    /// elements; otherwise `Some(result_of_the_check)`.
    pub fn verify_by_materialization(
        &self,
        views: &[ConjunctiveQuery],
        query: &ConjunctiveQuery,
        max_domain: usize,
    ) -> Option<bool> {
        let d = self.d.materialize(&self.schema, max_domain)?;
        let d_prime = self.d_prime.materialize(&self.schema, max_domain)?;
        for v in views {
            let body = v.frozen_body_over(&self.schema);
            if hom_count(&body, &d) != hom_count(&body, &d_prime) {
                return Some(false);
            }
        }
        let qbody = query.frozen_body_over(&self.schema);
        Some(hom_count(&qbody, &d) != hom_count(&qbody, &d_prime))
    }

    /// The answer vectors `(w₁(D), …, w_k(D))` and the same for `D′` — the
    /// points of the space `P` (Definition 51) the construction produced.
    /// Every basis element is connected, so by Lemma 4(1)–(2) they are
    /// `M·α⃗` and `M·α⃗′`.
    pub fn answer_vectors(&self) -> (Vec<Nat>, Vec<Nat>) {
        let m = &self.evaluation_matrix;
        let times = |coeffs: &[Nat]| -> Vec<Nat> {
            (0..m.nrows())
                .map(|i| {
                    let mut acc = Nat::zero();
                    for (j, a) in coeffs.iter().enumerate() {
                        // M's entries are naturals (`Rat::from_nat`), so an
                        // entry is its numerator's magnitude.
                        acc += &m.get(i, j).numer().magnitude().mul_ref(a);
                    }
                    acc
                })
                .collect()
        };
        (times(&self.alpha), times(&self.alpha_prime))
    }
}

/// `Σⱼ cⱼ·xʲ` by Horner's rule.
fn polynomial(coeffs: &[Nat], x: &Nat) -> Nat {
    let mut acc = Nat::zero();
    for c in coeffs.iter().rev() {
        acc = acc.mul_ref(x);
        acc += c;
    }
    acc
}

/// The Lemma 4 base counts of one connected structure `c`.
#[derive(Debug, Clone)]
struct BaseRow {
    /// `|hom(c, s⁽¹⁾ₗ)|` for each separating structure `s⁽¹⁾ₗ`.
    separators: Vec<Nat>,
    /// `|hom(c, q)|`.
    query: Nat,
}

/// The count table a certificate is computed from (Lemma 40,
/// Definition 37): the base row of every basis element against the
/// separating structures `S⁽¹⁾` and the query body `q`, each count taken
/// once.
///
/// For a connected `c`, Lemma 4 factors every count into the good basis:
/// with `b(c) = |hom(c, s⁽²⁾)| = Σₗ T^{l+1}·|hom(c, s⁽¹⁾ₗ)|`, the good basis
/// element `sⱼ = (s⁽²⁾)ʲ × q` has `|hom(c, sⱼ)| = |hom(c, q)|·b(c)ʲ`.  So
/// `|S⁽¹⁾| + 1` counts per basis element give the evaluation matrix, and
/// per query component the count on any `Σ αⱼ·sⱼ`.
#[derive(Debug, Clone)]
struct CountTable {
    /// `S⁽¹⁾` (Step 1).
    separators: Vec<Structure>,
    /// The query body `q` (Step 4).
    query_body: Structure,
    /// The radix `T` (Step 2): greater than every separator count of a
    /// basis element.
    radix: Nat,
    /// Row `i`: the base counts of the basis element `wᵢ`.
    rows: Vec<BaseRow>,
}

impl CountTable {
    /// Steps 1–2 of Lemma 40 and the table: separating structures for
    /// every pair of basis elements (each carrying its column of counts),
    /// the radix `T`, and `|hom(wᵢ, q)|` per basis element.
    ///
    /// The single candidates of [`find_separating_structure`] — the basis
    /// elements, then `q` — are probed through one lazy k × (k + 1) grid,
    /// so each `|hom(wᵢ, c)|` is counted at most once: a pair's probes,
    /// the column of a candidate chosen as separator and the query column
    /// all read it.  Only a pair no candidate separates runs the induced
    /// search, and its separator's column is counted fresh.
    ///
    /// `ctl` is checked before every separating-structure search (whose
    /// induced stage is exponential in the basis elements' size), inside
    /// it, and before the query column (stage `"witness/matrix"`).
    fn count(
        basis: &[Structure],
        query_body: &Structure,
        ctl: &CancelToken,
    ) -> Result<CountTable, WitnessError> {
        let k = basis.len();
        let mut grid = CandidateCounts::new(basis, query_body);

        // Step 1: separating structures for every pair.  Each separator `h`
        // carries its column `|hom(wᵢ, h)|` of the table, counted once: the
        // pair skip, the radix T and the rows all read it.
        let mut columns: Vec<Vec<Nat>> = Vec::new();
        let mut separators: Vec<Structure> = Vec::new();
        for i in 0..k {
            for j in i + 1..k {
                ctl.check("witness/separators")?;
                if columns.iter().any(|col| col[i] != col[j]) {
                    continue;
                }
                // The first candidate that separates the pair, as
                // `find_separating_structure` tries them; else its induced
                // search (the candidates are already known to fail).
                match (0..=k).find(|&c| grid.separates(i, j, c)) {
                    Some(c) => {
                        columns.push(grid.column(c));
                        separators.push(grid.candidate(c).clone());
                    }
                    None => {
                        let h = find_separating_structure(&basis[i], &basis[j], &[], ctl)?;
                        columns.push(basis.iter().map(|w| hom_count(w, &h)).collect());
                        separators.push(h);
                    }
                }
            }
        }
        if separators.is_empty() {
            // k ≤ 1: any single structure will do as S⁽¹⁾.
            columns.push(grid.column(k));
            separators.push(query_body.clone());
        }

        // Step 2: T greater than every separator count.
        ctl.check("witness/matrix")?;
        let t_big = columns.iter().flatten().max();
        let radix = t_big.cloned().unwrap_or_else(Nat::zero) + Nat::one();
        let rows = grid
            .column(k)
            .into_iter()
            .enumerate()
            .map(|(i, query)| BaseRow {
                separators: columns.iter().map(|col| col[i].clone()).collect(),
                query,
            })
            .collect();
        Ok(CountTable {
            separators,
            query_body: query_body.clone(),
            radix,
            rows,
        })
    }

    /// The base row of a connected structure outside the basis:
    /// `|S⁽¹⁾| + 1` fresh counts.
    fn fresh_row(&self, c: &Structure) -> BaseRow {
        BaseRow {
            separators: self.separators.iter().map(|s| hom_count(c, s)).collect(),
            query: hom_count(c, &self.query_body),
        }
    }

    /// `b(c) = Σₗ T^{l+1}·|hom(c, s⁽¹⁾ₗ)|`, by Horner's rule in `T`.
    fn radix_count(&self, row: &BaseRow) -> Nat {
        polynomial(&row.separators, &self.radix).mul_ref(&self.radix)
    }

    /// Steps 2–4 of Lemma 40, symbolically: `s⁽²⁾ = Σₗ T^{l+1}·s⁽¹⁾ₗ`, and
    /// `sⱼ = (s⁽²⁾)ʲ × q` for `j < k` (nonsingular by Lemma 46, decent by
    /// the factor `q`).
    fn good_basis(&self) -> Vec<StructureExpr> {
        let s2 = StructureExpr::weighted_sum(
            self.separators
                .iter()
                .enumerate()
                .map(|(l, s)| (self.radix.pow(l as u64 + 1), StructureExpr::base(s.clone())))
                .collect(),
        );
        let q_expr = StructureExpr::base(self.query_body.clone());
        (0..self.rows.len())
            .map(|j| StructureExpr::product2(s2.clone().pow(j as u64), q_expr.clone()))
            .collect()
    }

    /// The evaluation matrix `M(i, j) = |hom(wᵢ, q)|·b(wᵢ)ʲ`
    /// (Definition 37), each row's powers built by one multiplication per
    /// column.
    fn matrix(&self) -> QMat {
        let k = self.rows.len();
        let mut m = QMat::zeros(k, k);
        for (i, row) in self.rows.iter().enumerate() {
            let b = self.radix_count(row);
            let mut entry = row.query.clone();
            for j in 0..k {
                if j > 0 {
                    entry = entry.mul_ref(&b);
                }
                m.set(i, j, Rat::from_nat(entry.clone()));
            }
        }
        m
    }
}

/// `|hom(wᵢ, c)|` for each basis element `wᵢ` and single separator
/// candidate `c` — the basis elements, then the query body (the all-loops
/// point is no candidate: `|hom(A, A⁰)| = 1` for every `A`) — each counted
/// on first use.
struct CandidateCounts<'a> {
    basis: &'a [Structure],
    query_body: &'a Structure,
    /// Row-major, `basis.len() + 1` cells per basis element.
    cells: Vec<Option<Nat>>,
}

impl<'a> CandidateCounts<'a> {
    fn new(basis: &'a [Structure], query_body: &'a Structure) -> CandidateCounts<'a> {
        CandidateCounts {
            basis,
            query_body,
            cells: vec![None; basis.len() * (basis.len() + 1)],
        }
    }

    /// Candidate `c`: basis element `c`, or the query body for `c = k`.
    fn candidate(&self, c: usize) -> &'a Structure {
        self.basis.get(c).unwrap_or(self.query_body)
    }

    /// `|hom(wᵢ, c)|`, counted on first use.
    fn get(&mut self, i: usize, c: usize) -> &Nat {
        let target = self.candidate(c);
        let source = &self.basis[i];
        self.cells[i * (self.basis.len() + 1) + c].get_or_insert_with(|| hom_count(source, target))
    }

    /// Whether candidate `c` separates `wᵢ` and `wⱼ`.
    fn separates(&mut self, i: usize, j: usize, c: usize) -> bool {
        self.get(i, c);
        self.get(j, c);
        let width = self.basis.len() + 1;
        self.cells[i * width + c] != self.cells[j * width + c]
    }

    /// The column of candidate `c` over every basis element.
    fn column(&mut self, c: usize) -> Vec<Nat> {
        (0..self.basis.len())
            .map(|i| self.get(i, c).clone())
            .collect()
    }
}

/// Search for a structure `H` with `|hom(a, H)| ≠ |hom(b, H)|`; Lemma 43
/// says one exists whenever `a` and `b` are not isomorphic.
///
/// The `candidates` are tried first, in order.  Then, with `X` whichever of
/// `a`, `b` has more elements (on a tie, the one with fewer facts), every
/// induced substructure `X[S]` is tried, `S ⊆ dom X` running from `∅` to
/// `dom X` in binary counting order, the smallest element varying fastest
/// (`X[∅]` keeps the nullary facts).  Every probe is a fresh [`hom_count`].
/// `ctl` is checked before each induced substructure (stage
/// `"witness/separators"`).
///
/// **The induced search is complete** — Lovász's argument, in its
/// vertex-surjective form.  Write `vsurj(A, C)` for the number of
/// homomorphisms `A → C` onto every element of `C`.  A homomorphism
/// `A → C` is onto the induced substructure on its image, so
/// `hom(A, C) = Σ_{S ⊆ dom C} vsurj(A, C[S])`, and by Möbius inversion
/// `vsurj(A, C) = Σ_{S ⊆ dom C} (−1)^{|dom C ∖ S|} · hom(A, C[S])`.  Let `Y`
/// be the other one of `a`, `b`.  If `hom(X, X[S]) = hom(Y, X[S])` for every
/// `S`, then `vsurj(X, X) = vsurj(Y, X)`.  But `vsurj(X, X) ≥ 1`, because
/// the identity is one, while `vsurj(Y, X) = 0`:
///
/// - (i) `Y` has fewer elements, so no map from it covers `dom X`;
/// - (ii) the sizes are equal and `X` has fewer facts: a hom `Y → X` that
///   is bijective on elements is injective on facts, and `X` has too few;
/// - (iii) sizes and fact counts are equal: such a hom is also bijective on
///   facts, so its inverse is a hom and `Y ≅ X`.
///
/// So some `X[S]` separates `a` and `b`, within `2^|dom X|` probes.  An
/// exhausted search means `a ≅ b` — a bug in the caller, reported as
/// [`WitnessError::Internal`].
pub fn find_separating_structure(
    a: &Structure,
    b: &Structure,
    candidates: &[Structure],
    ctl: &CancelToken,
) -> Result<Structure, WitnessError> {
    let separates = |h: &Structure| hom_count(a, h) != hom_count(b, h);
    if let Some(c) = candidates.iter().find(|c| separates(c)) {
        return Ok(c.clone());
    }
    let key = |s: &Structure| (s.domain_size(), Reverse(s.num_facts()));
    let x = if key(b) > key(a) { b } else { a };
    let dom: Vec<Const> = x.domain().into_iter().collect();
    let facts: Vec<Fact> = x.facts().collect();
    // `chosen[i]`: whether `dom[i]` is in `S`.  A vector, not a bit mask,
    // so no shift overflows however large `dom X` is.
    let mut chosen = vec![false; dom.len()];
    loop {
        ctl.check("witness/separators")?;
        let inside = |c: &Const| dom.binary_search(c).is_ok_and(|i| chosen[i]);
        let kept = facts.iter().filter(|f| f.args.iter().all(inside)).cloned();
        let mut h = Structure::from_facts(x.schema().clone(), kept);
        dom.iter()
            .filter(|&c| inside(c))
            .for_each(|&c| h.add_isolated(c));
        if separates(&h) {
            return Ok(h);
        }
        // The next subset: binary increment of `chosen`.
        let Some(zero) = chosen.iter().position(|&keep| !keep) else {
            return Err(WitnessError::Internal(
                "no induced substructure separates the pair, so it is isomorphic (Lemma 43)"
                    .to_string(),
            ));
        };
        chosen[..zero].fill(false);
        chosen[zero] = true;
    }
}

/// Lemma 40: construct a *good* set of basis structures for the basis `W` and
/// query body `q` — decent (every non-retained view vanishes on it) and with a
/// nonsingular evaluation matrix.
///
/// Returns the symbolic basis structures and the evaluation matrix, both
/// derived from one table of `|S⁽¹⁾| + 1` fresh base counts per basis
/// element.  `ctl` is checked before every separating-structure search
/// (whose induced stage is exponential in the basis elements' size), inside
/// it, and at each later step.
pub fn construct_good_basis(
    basis: &[Structure],
    query_body: &Structure,
    ctl: &CancelToken,
) -> Result<(Vec<StructureExpr>, QMat), WitnessError> {
    let table = CountTable::count(basis, query_body, ctl)?;
    Ok((table.good_basis(), table.matrix()))
}

/// Build a certified counterexample for a non-determined instance, from the
/// analysis returned by [`crate::decide_bag_determinacy`].
///
/// `analysis` must come from the same `views`/`query` pair; the function
/// returns [`WitnessError::InstanceIsDetermined`] if the analysis says the
/// instance is determined.  `ctl` is checked at the construction's internal
/// stage boundaries (separator search, the evaluation matrix, the
/// perturbation/scaling arithmetic), so a serving process can bound witness
/// construction — by far the heaviest part of an undetermined request —
/// without killing the worker ([`CancelToken::none`] never expires).
pub fn build_counterexample(
    analysis: &BagDeterminacy,
    query: &ConjunctiveQuery,
    ctl: &CancelToken,
) -> Result<Counterexample, WitnessError> {
    if analysis.determined {
        return Err(WitnessError::InstanceIsDetermined);
    }
    let schema = &analysis.schema;
    let query_body = query.frozen_body_over(schema);

    // Invariant failures below are typed `Internal` errors, not panics: they
    // are unreachable from a consistent `analysis`, but `analysis` and
    // `query` arrive as separate arguments and a serving process must
    // survive a mismatched pair.
    let internal = |what: &str| WitnessError::Internal(what.to_string());

    // Lemma 40: a good basis and its evaluation matrix, from one count table.
    let table = CountTable::count(&analysis.basis, &query_body, ctl)?;
    let (good, m) = (table.good_basis(), table.matrix());

    // Fact 5: z⃗ orthogonal to the view vectors but not to q⃗, scaled to ℤ^k.
    let z0 = orthogonal_witness(&analysis.view_vectors, &analysis.query_vector)
        .ok_or_else(|| internal("no orthogonal witness although q⃗ ∉ span{v⃗} (Fact 5)"))?;
    let z = z0.scale(&Rat::from_int(z0.common_denominator()));
    if !z.is_integral() {
        return Err(internal("common denominator failed to make z⃗ integral"));
    }

    // Corollary 8 + Lemma 57: p⃗ = M·𝟙 is interior to the cone with
    // coordinates α⃗ = 𝟙; each probe's one solve gives the coordinates α⃗′
    // of p⃗′ = t^z⃗ ∘ p⃗ and proves M nonsingular (Lemma 46).
    ctl.check("witness/perturbation")?;
    let k = m.ncols();
    let p = m.mul_vec(&QVec::ones(k));
    let (t, alpha_p_prime) = perturb_along(&m, &p, &z).ok_or_else(|| {
        internal("singular evaluation matrix or no probe in the cone (Lemmas 46, 57)")
    })?;

    // Lemma 55: scale both points into P = {M·u⃗ : u⃗ ∈ ℕ^k}.  α⃗ = 𝟙 is
    // integral, so the common denominator c′ of α⃗′ clears both.
    let c_prime = alpha_p_prime.common_denominator();
    let to_nat = |i: Int| {
        i.to_nat()
            .ok_or_else(|| internal("negative cone coordinate"))
    };
    let alpha = vec![to_nat(c_prime.clone())?; k];
    let alpha_prime = alpha_p_prime
        .scale(&Rat::from_int(c_prime))
        .to_ints()
        .ok_or_else(|| internal("common denominator failed to clear denominators"))?
        .into_iter()
        .map(to_nat)
        .collect::<Result<Vec<Nat>, _>>()?;

    let sum = |coeffs: &[Nat]| {
        StructureExpr::weighted_sum(coeffs.iter().cloned().zip(good.iter().cloned()).collect())
    };
    let (d, d_prime) = (sum(&alpha), sum(&alpha_prime));

    Ok(Counterexample {
        schema: schema.clone(),
        basis: analysis.basis.clone(),
        good_basis: good,
        evaluation_matrix: m,
        z,
        t,
        alpha,
        alpha_prime,
        d,
        d_prime,
        table,
    })
}

/// Check the arithmetic identities that make the certificate sound:
/// `⟨z⃗, v⃗⟩ = 0` for every retained view vector, `⟨z⃗, q⃗⟩ ≠ 0`, and `M`
/// nonsingular.  (The semantic conditions are checked by
/// [`Counterexample::verify`].)
pub fn check_certificate_arithmetic(witness: &Counterexample, analysis: &BagDeterminacy) -> bool {
    if !witness.evaluation_matrix.is_nonsingular() {
        return false;
    }
    if witness.t == Rat::one() {
        return false;
    }
    for v in &analysis.view_vectors {
        if !dot(&witness.z, v).is_zero() {
            return false;
        }
    }
    !dot(&witness.z, &analysis.query_vector).is_zero()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boolean::decide_bag_determinacy;
    use cqdet_query::cq::Atom;

    fn atom(rel: &str, vars: &[&str]) -> Atom {
        Atom::new(rel, vars)
    }

    fn edge(name: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::boolean(name, vec![atom("R", &["x", "y"])])
    }

    fn two_path(name: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::boolean(name, vec![atom("R", &["x", "y"]), atom("R", &["y", "z"])])
    }

    /// A one-shot construction, no deadline.
    fn build(
        analysis: &BagDeterminacy,
        q: &ConjunctiveQuery,
    ) -> Result<Counterexample, WitnessError> {
        build_counterexample(analysis, q, &CancelToken::none())
    }

    #[test]
    fn witness_for_edge_vs_two_path() {
        // q = 2-path, V0 = {edge}: q ⊆_set edge, but q⃗ = (1,0) ∉ span{(0,1)}.
        let q = two_path("q");
        let v = edge("v");
        let analysis = decide_bag_determinacy(std::slice::from_ref(&v), &q).unwrap();
        assert!(!analysis.determined);
        let witness = build(&analysis, &q).unwrap();
        assert!(check_certificate_arithmetic(&witness, &analysis));
        assert!(
            witness.verify(std::slice::from_ref(&v), &q),
            "symbolic verification"
        );
        // The two structures really differ on q and agree on the view.
        assert_eq!(witness.eval_on_d(&v), witness.eval_on_d_prime(&v));
        assert_ne!(witness.eval_on_d(&q), witness.eval_on_d_prime(&q));
    }

    #[test]
    fn witness_respects_non_retained_views() {
        // Extra views that are not retained: v2 over a different relation
        // (q ⊄_set v2), and v3, an in-star beside a 3-path (no 3-path maps
        // into q).  Neither view's components are basis elements, so they
        // are counted fresh against S⁽¹⁾ and q; decency (Step 4) must make
        // both views vanish on both structures.
        let q = two_path("q");
        let v1 = edge("v1");
        let v2 = ConjunctiveQuery::boolean("v2", vec![atom("S", &["x", "y"])]);
        let in_star = [atom("R", &["x", "z"]), atom("R", &["y", "z"])];
        let three_path = [
            atom("R", &["a", "b"]),
            atom("R", &["b", "c"]),
            atom("R", &["c", "d"]),
        ];
        let v3 = ConjunctiveQuery::boolean("v3", [&in_star[..], &three_path].concat());
        let views = [v1, v2, v3];
        let analysis = decide_bag_determinacy(&views, &q).unwrap();
        assert!(!analysis.determined);
        assert_eq!(analysis.retained_views, [0]);
        let witness = build(&analysis, &q).unwrap();
        for v in &views[1..] {
            assert_eq!(witness.eval_on_d(v), Nat::zero());
            assert_eq!(witness.eval_on_d_prime(v), Nat::zero());
        }
        assert!(witness.verify(&views, &q));
        // The in-star alone does map into q, so its fresh row decides a
        // nonzero count: it must match Lemma 4 on the symbolic structures.
        let star = ConjunctiveQuery::boolean("star", in_star.to_vec());
        let body = star.frozen_body_over(&witness.schema);
        let on_d = witness.eval_on_d(&star);
        assert!(!on_d.is_zero());
        assert_eq!(on_d, witness.d.hom_count_from(&body));
        assert_eq!(
            witness.eval_on_d_prime(&star),
            witness.d_prime.hom_count_from(&body)
        );
    }

    #[test]
    fn determined_instance_yields_error() {
        let q = edge("q");
        let v = edge("v");
        let analysis = decide_bag_determinacy(&[v], &q).unwrap();
        let err = build(&analysis, &q).unwrap_err();
        assert_eq!(err, WitnessError::InstanceIsDetermined);
        assert!(err.to_string().contains("determined"));
    }

    #[test]
    fn separating_structure_search() {
        let schema = Schema::binary(["R"]);
        let mut loop1 = Structure::new(schema.clone());
        loop1.add("R", &[0, 0]);
        let mut edge1 = Structure::new(schema.clone());
        edge1.add("R", &[0, 1]);
        // hom(loop, loop) = hom(edge, loop) = 1, but hom(loop, edge) = 0
        // while hom(edge, edge) = 1.
        let search = |candidates: &[Structure], ctl: &CancelToken| {
            find_separating_structure(&loop1, &edge1, candidates, ctl)
        };
        let none = CancelToken::none();
        let h = search(&[loop1.clone(), edge1.clone()], &none).unwrap();
        assert_eq!(h, edge1, "the first separating candidate wins");
        // Induced search: no candidates provided at all.  The edge has more
        // elements, and its induced substructures are tried ∅, {0}, {1},
        // {0, 1}: the single points separate nothing (no loop in them),
        // the whole edge does.
        let h2 = search(&[], &none).unwrap();
        assert_eq!(h2, edge1);
        // An expired token stops the induced search before its first probe.
        let cancelled = CancelToken::new();
        cancelled.cancel();
        assert_eq!(
            search(&[], &cancelled).unwrap_err(),
            WitnessError::DeadlineExceeded {
                stage: "witness/separators"
            }
        );
    }

    #[test]
    fn good_basis_is_nonsingular_and_decent() {
        let q = two_path("q");
        let v = edge("v");
        let analysis = decide_bag_determinacy(&[v], &q).unwrap();
        let qbody = q.frozen_body_over(&analysis.schema);
        let (good, m) =
            construct_good_basis(&analysis.basis, &qbody, &CancelToken::none()).unwrap();
        assert_eq!(good.len(), analysis.basis.len());
        assert!(m.is_nonsingular());
        // Decency is exercised through witness_respects_non_retained_views.
    }

    #[test]
    fn answer_vectors_are_consistent_with_matrix() {
        let q = two_path("q");
        let v = edge("v");
        let analysis = decide_bag_determinacy(&[v], &q).unwrap();
        let witness = build(&analysis, &q).unwrap();
        let (y, y_prime) = witness.answer_vectors();
        // y = M·α and y′ = M·α′ (Lemma 50).
        let alpha_vec = QVec(
            witness
                .alpha
                .iter()
                .map(|a| Rat::from_nat(a.clone()))
                .collect(),
        );
        let alpha_prime_vec = QVec(
            witness
                .alpha_prime
                .iter()
                .map(|a| Rat::from_nat(a.clone()))
                .collect(),
        );
        let m_alpha = witness.evaluation_matrix.mul_vec(&alpha_vec);
        let m_alpha_prime = witness.evaluation_matrix.mul_vec(&alpha_prime_vec);
        for i in 0..y.len() {
            assert_eq!(m_alpha[i], Rat::from_nat(y[i].clone()));
            assert_eq!(m_alpha_prime[i], Rat::from_nat(y_prime[i].clone()));
        }
        assert_ne!(y, y_prime);
    }
}
