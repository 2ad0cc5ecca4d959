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
use cqdet_structure::{hom_count, Const, Fact, Schema, SharedCaches, Structure, StructureExpr};
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
}

/// Every symbolic evaluation below counts through `caches` (Lemma 4 base
/// counts hit its memo); a one-shot caller passes a fresh
/// [`SharedCaches::new`].
impl Counterexample {
    /// Evaluate a boolean query symbolically on `D` (i.e. compute `φ(D)`).
    pub fn eval_on_d(&self, caches: &SharedCaches, query: &ConjunctiveQuery) -> Nat {
        self.d
            .hom_count_from(caches, &query.frozen_body_over(&self.schema))
    }

    /// Evaluate a boolean query symbolically on `D′`.
    pub fn eval_on_d_prime(&self, caches: &SharedCaches, query: &ConjunctiveQuery) -> Nat {
        self.d_prime
            .hom_count_from(caches, &query.frozen_body_over(&self.schema))
    }

    /// Check the counterexample against the original instance: every view of
    /// `views` (retained or not) must agree on `D` and `D′`, and `query` must
    /// not.  All evaluations are symbolic but exact; each query is frozen
    /// once and counted on both structures.
    pub fn verify(
        &self,
        caches: &SharedCaches,
        views: &[ConjunctiveQuery],
        query: &ConjunctiveQuery,
    ) -> bool {
        let separates = |q: &ConjunctiveQuery| {
            let body = q.frozen_body_over(&self.schema);
            self.d.hom_count_from(caches, &body) != self.d_prime.hom_count_from(caches, &body)
        };
        !views.iter().any(separates) && separates(query)
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
    pub fn answer_vectors(&self, caches: &SharedCaches) -> (Vec<Nat>, Vec<Nat>) {
        let on = |expr: &StructureExpr| -> Vec<Nat> {
            self.basis
                .iter()
                .map(|w| expr.hom_count_from_connected(caches, w))
                .collect()
        };
        (on(&self.d), on(&self.d_prime))
    }
}

/// Search for a structure `H` with `|hom(a, H)| ≠ |hom(b, H)|`; Lemma 43
/// says one exists whenever `a` and `b` are not isomorphic.
///
/// The `candidates` are tried first, in order.  Then, with `X` whichever of
/// `a`, `b` has more elements (on a tie, the one with fewer facts), every
/// induced substructure `X[S]` is tried, `S ⊆ dom X` running from `∅` to
/// `dom X` in binary counting order, the smallest element varying fastest
/// (`X[∅]` keeps the nullary facts).  Every probe is a fresh [`hom_count`]:
/// one-off pairs would only churn a memo.  `ctl` is checked before each
/// induced substructure (stage `"witness/separators"`).
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
/// Returns the symbolic basis structures and the evaluation matrix.  `ctl`
/// is checked before every separating-structure search (whose induced
/// stage is exponential in the basis elements' size), inside it, and at
/// each later step.  The evaluation matrix counts through `caches`; the
/// separator probes are one-off pairs, counted fresh.
pub fn construct_good_basis(
    caches: &SharedCaches,
    basis: &[Structure],
    query_body: &Structure,
    ctl: &CancelToken,
) -> Result<(Vec<StructureExpr>, QMat), WitnessError> {
    let k = basis.len();

    // Step 1: separating structures for every pair.  Each separator `h`
    // carries its column `|hom(wᵢ, h)|` of the table M_{S⁽¹⁾}, counted once:
    // the pair skip and the radix T both read it.
    let column = |h: &Structure| -> Vec<Nat> { basis.iter().map(|w| hom_count(w, h)).collect() };
    // The single candidates: the basis elements and the query body.  (The
    // all-loops point is no candidate: |hom(A, A⁰)| = 1 for every A.)
    let mut candidates: Vec<Structure> = basis.to_vec();
    candidates.push(query_body.clone());
    let mut s1: Vec<(Vec<Nat>, Structure)> = Vec::new();
    for i in 0..k {
        for j in i + 1..k {
            ctl.check("witness/separators")?;
            if s1.iter().any(|(col, _)| col[i] != col[j]) {
                continue;
            }
            let h = find_separating_structure(&basis[i], &basis[j], &candidates, ctl)?;
            s1.push((column(&h), h));
        }
    }
    if s1.is_empty() {
        // k ≤ 1: any single structure will do as S⁽¹⁾.
        s1.push((column(query_body), query_body.clone()));
    }

    // Step 2: T greater than every entry of M_{S⁽¹⁾}; s⁽²⁾ = Σ Tⁱ·s⁽¹⁾ᵢ.
    ctl.check("witness/matrix")?;
    let t_big = s1.iter().flat_map(|(col, _)| col).max();
    let t_radix = t_big.cloned().unwrap_or_else(Nat::zero) + Nat::one();
    let s2 = StructureExpr::weighted_sum(
        s1.into_iter()
            .enumerate()
            .map(|(i, (_, s))| (t_radix.pow(i as u64 + 1), StructureExpr::base(s)))
            .collect(),
    );

    // Step 3: s⁽³⁾ⱼ = (s⁽²⁾)^{j-1} for j = 1..k  (nonsingular by Lemma 46).
    // Step 4: s⁽⁴⁾ᵢ = s⁽³⁾ᵢ × q  (decency).
    let q_expr = StructureExpr::base(query_body.clone());
    let good: Vec<StructureExpr> = (0..k)
        .map(|j| StructureExpr::product2(s2.clone().pow(j as u64), q_expr.clone()))
        .collect();

    // Evaluation matrix M(i,j) = |hom(wᵢ, sⱼ)|  (Definition 37).
    let mut m = QMat::zeros(k, k);
    for (i, w) in basis.iter().enumerate() {
        for (j, s) in good.iter().enumerate() {
            let count = s.hom_count_from_connected(caches, w);
            m.set(i, j, Rat::from_nat(count));
        }
    }
    Ok((good, m))
}

/// Build a certified counterexample for a non-determined instance, from the
/// analysis returned by [`crate::decide_bag_determinacy`].
///
/// `analysis` must come from the same `views`/`query` pair; the function
/// returns [`WitnessError::InstanceIsDetermined`] if the analysis says the
/// instance is determined.  Every hom count runs through `caches` (a
/// one-shot caller passes a fresh [`SharedCaches::new`]), and `ctl` is
/// checked at the construction's internal stage boundaries (separator
/// search, the evaluation matrix, the perturbation/scaling arithmetic), so
/// a serving process can bound witness construction — by far the heaviest
/// part of an undetermined request — without killing the worker
/// ([`CancelToken::none`] never expires).
pub fn build_counterexample(
    caches: &SharedCaches,
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

    // Lemma 40: a good basis and its evaluation matrix.
    let (good, m) = construct_good_basis(caches, &analysis.basis, &query_body, ctl)?;

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

    /// A one-shot construction: fresh caches, no deadline.
    fn build(
        analysis: &BagDeterminacy,
        q: &ConjunctiveQuery,
    ) -> Result<Counterexample, WitnessError> {
        build_counterexample(&SharedCaches::new(), analysis, q, &CancelToken::none())
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
        let caches = SharedCaches::new();
        assert!(
            witness.verify(&caches, std::slice::from_ref(&v), &q),
            "symbolic verification"
        );
        // The two structures really differ on q and agree on the view.
        assert_eq!(
            witness.eval_on_d(&caches, &v),
            witness.eval_on_d_prime(&caches, &v)
        );
        assert_ne!(
            witness.eval_on_d(&caches, &q),
            witness.eval_on_d_prime(&caches, &q)
        );
    }

    #[test]
    fn witness_respects_non_retained_views() {
        // An extra view over a different relation is not retained (q ⊄_set v2);
        // decency (Step 4) must make it vanish on both structures.
        let q = two_path("q");
        let v1 = edge("v1");
        let v2 = ConjunctiveQuery::boolean("v2", vec![atom("S", &["x", "y"])]);
        let analysis = decide_bag_determinacy(&[v1.clone(), v2.clone()], &q).unwrap();
        assert!(!analysis.determined);
        let witness = build(&analysis, &q).unwrap();
        let caches = SharedCaches::new();
        assert_eq!(witness.eval_on_d(&caches, &v2), Nat::zero());
        assert_eq!(witness.eval_on_d_prime(&caches, &v2), Nat::zero());
        assert!(witness.verify(&caches, &[v1, v2], &q));
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
        let (good, m) = construct_good_basis(
            &SharedCaches::new(),
            &analysis.basis,
            &qbody,
            &CancelToken::none(),
        )
        .unwrap();
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
        let (y, y_prime) = witness.answer_vectors(&SharedCaches::new());
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
