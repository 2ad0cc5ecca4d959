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
//!    view vectors but not to `q⃗` (Fact 5), a rational interior point
//!    `p⃗ = M·𝟙` of the cone `C = M(ℝ≥0^k)` (Corollary 8), and
//!    `p⃗′ = t^{z⃗} ∘ p⃗` for a rational `t ≈ 1` (Lemma 57).
//! 3. **Scaling** (Lemma 55): multiply by a common denominator so both points
//!    become answer vectors of actual structures `D, D′ ∈ span_ℕ(S)`.
//!
//! The structures are kept **symbolic** ([`StructureExpr`]) because the basis
//! elements are huge; the returned [`Counterexample`] carries a certificate
//! that can be checked exactly (and, for small instances, cross-checked by
//! materialising the structures and recounting homomorphisms).

use crate::boolean::BagDeterminacy;
use cqdet_bigint::Nat;
use cqdet_linalg::{
    cone_coordinates, dot, interior_cone_point, orthogonal_witness, perturb_along, QMat, QVec, Rat,
};
use cqdet_parallel::CancelToken;
use cqdet_query::ConjunctiveQuery;
use cqdet_structure::{
    all_loops_point, hom_count, product, Schema, SharedCaches, Structure, StructureExpr,
};
use std::fmt;

/// Why a witness could not be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WitnessError {
    /// The instance is determined — no counterexample exists (Lemma 31 (⇐)).
    InstanceIsDetermined,
    /// The separating-structure search (Lemma 43) exhausted its candidate
    /// budget.  Raising `separator_domain_limit` makes the search complete for
    /// larger schemas at exponential cost.
    SeparatorNotFound {
        /// Indices (into the basis) of the pair that could not be separated.
        pair: (usize, usize),
    },
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
            WitnessError::SeparatorNotFound { pair } => write!(
                f,
                "could not find a structure separating basis elements {} and {} within the search budget",
                pair.0, pair.1
            ),
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

/// Configuration of the witness construction.
#[derive(Debug, Clone)]
pub struct WitnessConfig {
    /// Maximum domain size for the exhaustive separating-structure fallback.
    pub separator_domain_limit: usize,
    /// Maximum number of domain elements a structure may have to be
    /// materialised during [`Counterexample::verify_by_materialization`].
    pub materialization_limit: usize,
}

impl Default for WitnessConfig {
    fn default() -> Self {
        WitnessConfig {
            separator_domain_limit: 3,
            materialization_limit: 2_000,
        }
    }
}

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
        let (body, _) = query.frozen_body_over(&self.schema);
        self.d.hom_count_from(caches, &body)
    }

    /// Evaluate a boolean query symbolically on `D′`.
    pub fn eval_on_d_prime(&self, caches: &SharedCaches, query: &ConjunctiveQuery) -> Nat {
        let (body, _) = query.frozen_body_over(&self.schema);
        self.d_prime.hom_count_from(caches, &body)
    }

    /// Check the counterexample against the original instance: every view of
    /// `views` (retained or not) must agree on `D` and `D′`, and `query` must
    /// not.  All evaluations are symbolic but exact.
    pub fn verify(
        &self,
        caches: &SharedCaches,
        views: &[ConjunctiveQuery],
        query: &ConjunctiveQuery,
    ) -> bool {
        for v in views {
            if self.eval_on_d(caches, v) != self.eval_on_d_prime(caches, v) {
                return false;
            }
        }
        self.eval_on_d(caches, query) != self.eval_on_d_prime(caches, query)
    }

    /// Cross-check by materialising `D` and `D′` (when small enough) and
    /// recounting every homomorphism by brute force.
    ///
    /// Returns `None` when either structure exceeds `config.materialization_limit`
    /// domain elements; otherwise `Some(result_of_the_check)`.
    pub fn verify_by_materialization(
        &self,
        views: &[ConjunctiveQuery],
        query: &ConjunctiveQuery,
        config: &WitnessConfig,
    ) -> Option<bool> {
        let d = self
            .d
            .materialize(&self.schema, config.materialization_limit)?;
        let d_prime = self
            .d_prime
            .materialize(&self.schema, config.materialization_limit)?;
        for v in views {
            let (body, _) = v.frozen_body_over(&self.schema);
            if hom_count(&body, &d) != hom_count(&body, &d_prime) {
                return Some(false);
            }
        }
        let (qbody, _) = query.frozen_body_over(&self.schema);
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

/// Search for a structure `H` with `|hom(a, H)| ≠ |hom(b, H)|` (Lemma 43
/// guarantees one exists for non-isomorphic `a`, `b`).
///
/// The search tries cheap candidates first (the basis elements themselves,
/// their pairwise products) and falls back to exhaustive enumeration of all
/// structures over the schema with at most `domain_limit` elements.  Every
/// probe counts through `caches`' candidate family, unmemoized.
pub fn find_separating_structure(
    caches: &SharedCaches,
    a: &Structure,
    b: &Structure,
    candidates: &[Structure],
    schema: &Schema,
    domain_limit: usize,
) -> Option<Structure> {
    let separates =
        |h: &Structure| caches.hom_count_unmemoized(a, h) != caches.hom_count_unmemoized(b, h);
    for c in candidates {
        if separates(c) {
            return Some(c.clone());
        }
    }
    for (i, c1) in candidates.iter().enumerate() {
        for c2 in &candidates[i..] {
            let p = product(c1, c2);
            if separates(&p) {
                return Some(p);
            }
        }
    }
    // Complete fallback: enumerate every structure with ≤ domain_limit elements.
    for n in 1..=domain_limit {
        let mut tuples: Vec<(String, Vec<u64>)> = Vec::new();
        for (rel, arity) in schema.relations() {
            let mut idx = vec![0usize; arity];
            loop {
                tuples.push((rel.to_string(), idx.iter().map(|&x| x as u64).collect()));
                let mut pos = 0;
                loop {
                    if pos == arity {
                        break;
                    }
                    idx[pos] += 1;
                    if idx[pos] < n {
                        break;
                    }
                    idx[pos] = 0;
                    pos += 1;
                }
                if arity == 0 || pos == arity {
                    break;
                }
            }
        }
        let total = tuples.len();
        if total > 24 {
            // 2^24 structures is already unreasonable; give up on this size.
            continue;
        }
        for mask in 0u64..(1u64 << total) {
            let mut h = Structure::new(schema.clone());
            for c in 0..n {
                h.add_isolated(c as u64);
            }
            for (bit, (rel, args)) in tuples.iter().enumerate() {
                if mask >> bit & 1 == 1 {
                    h.add(rel, args);
                }
            }
            if separates(&h) {
                return Some(h);
            }
        }
    }
    None
}

/// Lemma 40: construct a *good* set of basis structures for the basis `W` and
/// query body `q` — decent (every non-retained view vanishes on it) and with a
/// nonsingular evaluation matrix.
///
/// Returns the symbolic basis structures and the evaluation matrix.  `ctl`
/// is checked before every separating-structure search (the
/// exponential-in-the-limit part of the construction) and at each later
/// step.  Every hom count runs through `caches`.
pub fn construct_good_basis(
    caches: &SharedCaches,
    basis: &[Structure],
    query_body: &Structure,
    schema: &Schema,
    config: &WitnessConfig,
    ctl: &CancelToken,
) -> Result<(Vec<StructureExpr>, QMat), WitnessError> {
    let k = basis.len();

    // Step 1: separating structures for every pair.
    let mut candidates: Vec<Structure> = basis.to_vec();
    candidates.push(query_body.clone());
    candidates.push(all_loops_point(schema));
    let mut s1: Vec<Structure> = Vec::new();
    for i in 0..k {
        for j in i + 1..k {
            ctl.check("witness/separators")?;
            let already = s1.iter().any(|h| {
                caches.hom_count_unmemoized(&basis[i], h)
                    != caches.hom_count_unmemoized(&basis[j], h)
            });
            if already {
                continue;
            }
            match find_separating_structure(
                caches,
                &basis[i],
                &basis[j],
                &candidates,
                schema,
                config.separator_domain_limit,
            ) {
                Some(h) => s1.push(h),
                None => return Err(WitnessError::SeparatorNotFound { pair: (i, j) }),
            }
        }
    }
    if s1.is_empty() {
        // k ≤ 1: any single structure will do as S⁽¹⁾.
        s1.push(query_body.clone());
    }

    // Step 2: T greater than every entry of M_{S⁽¹⁾}; s⁽²⁾ = Σ Tⁱ·s⁽¹⁾ᵢ.
    ctl.check("witness/matrix")?;
    let mut t_big = Nat::zero();
    for w in basis {
        for s in &s1 {
            let c = caches.hom_count_unmemoized(w, s);
            if c > t_big {
                t_big = c;
            }
        }
    }
    let t_radix = t_big + Nat::one();
    let s2 = StructureExpr::weighted_sum(
        s1.iter()
            .enumerate()
            .map(|(i, s)| (t_radix.pow(i as u64 + 1), StructureExpr::base(s.clone())))
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
/// instance is determined.  The construction counts through a fresh
/// [`SharedCaches`] handle.
pub fn build_counterexample(
    analysis: &BagDeterminacy,
    query: &ConjunctiveQuery,
    config: &WitnessConfig,
) -> Result<Counterexample, WitnessError> {
    let caches = SharedCaches::new();
    build_counterexample_ctl(&caches, analysis, query, config, &CancelToken::none())
}

/// [`build_counterexample`] through a context's `caches` and under a
/// request-scoped [`CancelToken`], checked at the construction's internal
/// stage boundaries (separator search, the evaluation matrix, the
/// perturbation/scaling arithmetic), so a serving process can bound
/// witness construction — by far the heaviest part of an undetermined
/// request — without killing the worker.
pub fn build_counterexample_ctl(
    caches: &SharedCaches,
    analysis: &BagDeterminacy,
    query: &ConjunctiveQuery,
    config: &WitnessConfig,
    ctl: &CancelToken,
) -> Result<Counterexample, WitnessError> {
    if analysis.determined {
        return Err(WitnessError::InstanceIsDetermined);
    }
    let schema = &analysis.schema;
    let (query_body, _) = query.frozen_body_over(schema);

    // Invariant failures below are typed `Internal` errors, not panics: they
    // are unreachable from a consistent `analysis`, but `analysis` and
    // `query` arrive as separate arguments and a serving process must
    // survive a mismatched pair.
    let internal = |what: &str| WitnessError::Internal(what.to_string());

    // Lemma 40: a good basis and its evaluation matrix.
    let (good, m) =
        construct_good_basis(caches, &analysis.basis, &query_body, schema, config, ctl)?;
    debug_assert!(
        m.is_nonsingular(),
        "Step 3 guarantees nonsingularity (Lemma 46)"
    );

    // Fact 5: z⃗ orthogonal to the view vectors but not to q⃗, scaled to ℤ^k.
    let z0 = orthogonal_witness(&analysis.view_vectors, &analysis.query_vector)
        .ok_or_else(|| internal("no orthogonal witness although q⃗ ∉ span{v⃗} (Fact 5)"))?;
    let z = z0.scale(&Rat::from_int(z0.common_denominator()));
    debug_assert!(z.is_integral());

    // Corollary 8 + Lemma 57: p⃗ interior to the cone, p⃗′ = t^z⃗ ∘ p⃗ ∈ C.
    ctl.check("witness/perturbation")?;
    let p = interior_cone_point(&m);
    let (t, p_prime) = perturb_along(&m, &p, &z);

    // Lemma 55: scale both points into P = {M·u⃗ : u⃗ ∈ ℕ^k}.
    let alpha_p =
        cone_coordinates(&m, &p).ok_or_else(|| internal("interior point left the cone"))?;
    let alpha_p_prime = cone_coordinates(&m, &p_prime)
        .ok_or_else(|| internal("perturbed point left the cone (Lemma 57)"))?;
    let c = alpha_p.common_denominator();
    let c_prime = alpha_p_prime.common_denominator();
    let cc = Rat::from_int(c.mul_ref(&c_prime));
    let scale_to_nats = |v: &QVec| -> Result<Vec<Nat>, WitnessError> {
        v.scale(&cc)
            .to_ints()
            .ok_or_else(|| internal("common denominator failed to clear denominators"))?
            .into_iter()
            .map(|i| {
                i.to_nat()
                    .ok_or_else(|| internal("negative cone coordinate"))
            })
            .collect()
    };
    let alpha = scale_to_nats(&alpha_p)?;
    let alpha_prime = scale_to_nats(&alpha_p_prime)?;

    let d = StructureExpr::weighted_sum(
        alpha
            .iter()
            .cloned()
            .zip(good.iter().cloned())
            .collect::<Vec<_>>(),
    );
    let d_prime = StructureExpr::weighted_sum(
        alpha_prime
            .iter()
            .cloned()
            .zip(good.iter().cloned())
            .collect::<Vec<_>>(),
    );

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

    #[test]
    fn witness_for_edge_vs_two_path() {
        // q = 2-path, V0 = {edge}: q ⊆_set edge, but q⃗ = (1,0) ∉ span{(0,1)}.
        let q = two_path("q");
        let v = edge("v");
        let analysis = decide_bag_determinacy(std::slice::from_ref(&v), &q).unwrap();
        assert!(!analysis.determined);
        let config = WitnessConfig::default();
        let witness = build_counterexample(&analysis, &q, &config).unwrap();
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
        let witness = build_counterexample(&analysis, &q, &WitnessConfig::default()).unwrap();
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
        let err = build_counterexample(&analysis, &q, &WitnessConfig::default()).unwrap_err();
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
        // The loop itself separates them: hom(loop, loop)=1, hom(edge, loop)=1?
        // Actually hom(edge, loop)=1 too; but hom into the edge differs:
        // hom(loop, edge)=0 vs hom(edge, edge)=1.
        let caches = SharedCaches::new();
        let candidates = [loop1.clone(), edge1.clone()];
        let h =
            find_separating_structure(&caches, &loop1, &edge1, &candidates, &schema, 2).unwrap();
        assert_ne!(hom_count(&loop1, &h), hom_count(&edge1, &h));
        // Exhaustive fallback: no candidates provided at all.
        let h2 = find_separating_structure(&caches, &loop1, &edge1, &[], &schema, 2).unwrap();
        assert_ne!(hom_count(&loop1, &h2), hom_count(&edge1, &h2));
    }

    #[test]
    fn good_basis_is_nonsingular_and_decent() {
        let q = two_path("q");
        let v = edge("v");
        let analysis = decide_bag_determinacy(&[v], &q).unwrap();
        let (qbody, _) = q.frozen_body_over(&analysis.schema);
        let (good, m) = construct_good_basis(
            &SharedCaches::new(),
            &analysis.basis,
            &qbody,
            &analysis.schema,
            &WitnessConfig::default(),
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
        let witness = build_counterexample(&analysis, &q, &WitnessConfig::default()).unwrap();
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
