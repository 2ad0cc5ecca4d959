//! Symbolic structures: formal expressions over the structure algebra.
//!
//! The good basis `S` of Section 6 is built from radix-`T` weighted sums and
//! `(j−1)`-st powers of structures; materialising those structures would blow
//! up exponentially (a single `s⁽²⁾ = Σ Tⁱ·s⁽¹⁾ᵢ` already has `Σ Tⁱ·|dom s⁽¹⁾ᵢ|`
//! elements).  Fortunately the paper itself never needs the structures, only
//! their homomorphism counts — and Lovász's Lemma 4 computes those counts
//! compositionally.  [`StructureExpr`] is that compositional representation:
//! counting a connected query against an expression is cheap, and the
//! expression can still be materialised on demand (with a size guard) when a
//! test wants to cross-check against brute-force counting.

use crate::components::is_connected;
use crate::hom::hom_count;
use crate::ops::{all_loops_point, disjoint_union, power, product, scalar_multiple};
use crate::schema::Schema;
use crate::structure::Structure;
use cqdet_bigint::Nat;
use std::fmt;
use std::sync::Arc;

/// A formal expression denoting a finite structure built with the operations
/// of Section 2.2.
#[derive(Clone, Debug)]
pub enum StructureExpr {
    /// A concrete base structure.
    Base(Arc<Structure>),
    /// A weighted disjoint sum `Σᵢ cᵢ·eᵢ` (`cᵢ ∈ ℕ`).
    Sum(Vec<(Nat, StructureExpr)>),
    /// A product `Πᵢ eᵢ`; the empty product is the all-loops point `A⁰`.
    Product(Vec<StructureExpr>),
    /// A power `eᵗ`; `e⁰` is the all-loops point `A⁰`.
    Power(Box<StructureExpr>, u64),
}

impl StructureExpr {
    /// Wrap a concrete structure.
    pub fn base(s: Structure) -> Self {
        StructureExpr::Base(Arc::new(s))
    }

    /// The weighted sum `Σ cᵢ·eᵢ`.
    pub fn weighted_sum(terms: Vec<(Nat, StructureExpr)>) -> Self {
        StructureExpr::Sum(terms)
    }

    /// The binary sum `a + b`.
    pub fn sum2(a: StructureExpr, b: StructureExpr) -> Self {
        StructureExpr::Sum(vec![(Nat::one(), a), (Nat::one(), b)])
    }

    /// The product `a × b`.
    pub fn product2(a: StructureExpr, b: StructureExpr) -> Self {
        StructureExpr::Product(vec![a, b])
    }

    /// The power `eᵗ`.
    pub fn pow(self, t: u64) -> Self {
        StructureExpr::Power(Box::new(self), t)
    }

    /// The number of homomorphisms from a **connected** structure `w` into the
    /// structure denoted by this expression, computed by Lemma 4 without
    /// materialising anything.  Every base count is a fresh [`hom_count`]:
    /// this evaluator is the test oracle for the certificate's count table
    /// (`cqdet_core::witness`), which takes each base count once.
    ///
    /// Panics if `w` is not connected (the sum rules (1)–(2) of Lemma 4 need
    /// connectivity); use [`StructureExpr::hom_count_from`] for arbitrary
    /// sources.
    pub fn hom_count_from_connected(&self, w: &Structure) -> Nat {
        assert!(
            is_connected(w),
            "hom_count_from_connected requires a connected source structure"
        );
        self.hom_count_connected_inner(w)
    }

    fn hom_count_connected_inner(&self, w: &Structure) -> Nat {
        match self {
            StructureExpr::Base(s) => hom_count(w, s),
            StructureExpr::Sum(terms) => {
                // Lemma 4 (1)–(2): hom(w, Σ cᵢ·eᵢ) = Σ cᵢ·hom(w, eᵢ).
                let mut acc = Nat::zero();
                for (c, e) in terms {
                    acc += &c.mul_ref(&e.hom_count_connected_inner(w));
                }
                acc
            }
            StructureExpr::Product(factors) => {
                // Lemma 4 (3): hom(w, Π eᵢ) = Π hom(w, eᵢ); empty product = A⁰.
                let mut acc = Nat::one();
                for e in factors {
                    acc = acc.mul_ref(&e.hom_count_connected_inner(w));
                }
                acc
            }
            StructureExpr::Power(e, t) => {
                // Lemma 4 (4): hom(w, eᵗ) = hom(w, e)ᵗ  (0 exponent → 1).
                e.hom_count_connected_inner(w).pow(*t)
            }
        }
    }

    /// The number of homomorphisms from an arbitrary structure, factored
    /// through its connected components (Lemma 4(5)).
    pub fn hom_count_from(&self, source: &Structure) -> Nat {
        let comps = crate::components::connected_components(source);
        if comps.is_empty() {
            return Nat::one();
        }
        let mut acc = Nat::one();
        for c in &comps {
            acc = acc.mul_ref(&self.hom_count_from_connected(c));
            if acc.is_zero() {
                return acc;
            }
        }
        acc
    }

    /// The domain size of the denoted structure (may be astronomically large —
    /// hence returned as a [`Nat`]).
    #[allow(clippy::only_used_in_recursion)]
    pub fn domain_size(&self, schema: &Schema) -> Nat {
        match self {
            StructureExpr::Base(s) => Nat::from_usize(s.domain_size()),
            StructureExpr::Sum(terms) => {
                let mut acc = Nat::zero();
                for (c, e) in terms {
                    acc += &c.mul_ref(&e.domain_size(schema));
                }
                acc
            }
            StructureExpr::Product(factors) => {
                let mut acc = Nat::one();
                for e in factors {
                    acc = acc.mul_ref(&e.domain_size(schema));
                }
                acc
            }
            StructureExpr::Power(e, t) => e.domain_size(schema).pow(*t),
        }
    }

    /// Materialise the expression into a concrete structure, provided its
    /// domain size does not exceed `max_domain`.  Returns `None` if it does.
    ///
    /// Used by tests to cross-check the Lemma-4 evaluation against brute-force
    /// homomorphism counting.
    pub fn materialize(&self, schema: &Schema, max_domain: usize) -> Option<Structure> {
        if self.domain_size(schema) > Nat::from_usize(max_domain) {
            return None;
        }
        Some(self.materialize_unchecked(schema))
    }

    // Documented contract: materializing a symbolic sum whose coefficient
    // exceeds u64 is a caller error, reported by the expect's panic.
    #[allow(clippy::expect_used)]
    fn materialize_unchecked(&self, schema: &Schema) -> Structure {
        match self {
            StructureExpr::Base(s) => (**s).clone(),
            StructureExpr::Sum(terms) => {
                let mut acc = Structure::new(schema.clone());
                for (c, e) in terms {
                    let copies = c
                        .to_u64()
                        .expect("materialize: sum coefficient does not fit in u64");
                    let part = e.materialize_unchecked(schema);
                    acc = disjoint_union(&acc, &scalar_multiple(copies, &part));
                }
                acc
            }
            StructureExpr::Product(factors) => {
                let mut acc = all_loops_point(schema);
                for e in factors {
                    acc = product(&acc, &e.materialize_unchecked(schema));
                }
                acc
            }
            StructureExpr::Power(e, t) => power(&e.materialize_unchecked(schema), *t),
        }
    }
}

impl fmt::Display for StructureExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StructureExpr::Base(s) => {
                write!(f, "⟨{} facts, {} elems⟩", s.num_facts(), s.domain_size())
            }
            StructureExpr::Sum(terms) => {
                write!(f, "(")?;
                for (i, (c, e)) in terms.iter().enumerate() {
                    if i > 0 {
                        write!(f, " + ")?;
                    }
                    if !c.is_one() {
                        write!(f, "{c}·")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            StructureExpr::Product(factors) => {
                if factors.is_empty() {
                    return write!(f, "A⁰");
                }
                write!(f, "(")?;
                for (i, e) in factors.iter().enumerate() {
                    if i > 0 {
                        write!(f, " × ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            StructureExpr::Power(e, t) => write!(f, "{e}^{t}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::Const;

    fn sch() -> Schema {
        Schema::binary(["E"])
    }

    fn path(n: usize) -> Structure {
        let mut s = Structure::new(sch());
        for i in 0..n {
            s.add("E", &[i as Const, (i + 1) as Const]);
        }
        s
    }

    fn cycle(n: usize) -> Structure {
        let mut s = Structure::new(sch());
        for i in 0..n {
            s.add("E", &[i as Const, ((i + 1) % n) as Const]);
        }
        s
    }

    #[test]
    fn base_matches_direct_count() {
        let e = StructureExpr::base(cycle(4));
        assert_eq!(e.hom_count_from_connected(&path(1)), Nat::from_u64(4));
        assert_eq!(e.hom_count_from(&path(1)), Nat::from_u64(4));
    }

    #[test]
    fn sum_product_power_match_materialisation() {
        let w = path(2);
        let expr = StructureExpr::weighted_sum(vec![
            (Nat::from_u64(2), StructureExpr::base(cycle(3))),
            (
                Nat::one(),
                StructureExpr::product2(
                    StructureExpr::base(cycle(2)),
                    StructureExpr::base(path(3)),
                ),
            ),
            (Nat::from_u64(3), StructureExpr::base(cycle(2)).pow(2)),
        ]);
        let symbolic = expr.hom_count_from_connected(&w);
        let concrete = expr.materialize(&sch(), 100).unwrap();
        assert_eq!(symbolic, hom_count(&w, &concrete));
    }

    #[test]
    fn disconnected_source_uses_component_factoring() {
        let mut src = Structure::new(sch());
        src.add("E", &[0, 1]);
        src.add("E", &[5, 6]);
        let expr =
            StructureExpr::sum2(StructureExpr::base(cycle(3)), StructureExpr::base(cycle(4)));
        let symbolic = expr.hom_count_from(&src);
        let concrete = expr.materialize(&sch(), 100).unwrap();
        assert_eq!(symbolic, hom_count(&src, &concrete));
        // (3+4)^2 = 49 single-edge homs.
        assert_eq!(symbolic, Nat::from_u64(49));
    }

    #[test]
    fn empty_product_and_zero_power_are_all_loops() {
        let unit = StructureExpr::Product(vec![]);
        assert_eq!(unit.hom_count_from_connected(&cycle(5)), Nat::one());
        let p0 = StructureExpr::base(cycle(3)).pow(0);
        assert_eq!(p0.hom_count_from_connected(&cycle(5)), Nat::one());
        assert_eq!(p0.domain_size(&sch()), Nat::one());
    }

    #[test]
    fn domain_size_and_materialisation_guard() {
        let expr =
            StructureExpr::weighted_sum(vec![(Nat::from_u64(1000), StructureExpr::base(cycle(3)))]);
        assert_eq!(expr.domain_size(&sch()), Nat::from_u64(3000));
        assert!(expr.materialize(&sch(), 100).is_none());
        assert!(expr.materialize(&sch(), 3000).is_some());
    }

    #[test]
    fn huge_symbolic_counts_do_not_materialise() {
        // (Σ 10^i · C_3 for i = 1..5)^3 — domain size ≈ (3·111110)^3 ≈ 3.7e16.
        let terms: Vec<(Nat, StructureExpr)> = (1..=5u64)
            .map(|i| (Nat::from_u64(10).pow(i), StructureExpr::base(cycle(3))))
            .collect();
        let expr = StructureExpr::weighted_sum(terms).pow(3);
        let count = expr.hom_count_from_connected(&path(1));
        // hom(edge, Σ 10^i C3) = Σ 10^i · 3 = 333330; cubed.
        assert_eq!(count, Nat::from_u64(333330).pow(3));
        assert!(expr.materialize(&sch(), 1_000_000).is_none());
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn connected_counting_rejects_disconnected_sources() {
        let mut src = Structure::new(sch());
        src.add("E", &[0, 1]);
        src.add("E", &[5, 6]);
        let expr = StructureExpr::base(cycle(3));
        let _ = expr.hom_count_from_connected(&src);
    }

    #[test]
    fn zero_coefficient_terms_contribute_nothing() {
        let expr = StructureExpr::weighted_sum(vec![
            (Nat::zero(), StructureExpr::base(cycle(3))),
            (Nat::one(), StructureExpr::base(cycle(4))),
        ]);
        assert_eq!(expr.hom_count_from_connected(&path(1)), Nat::from_u64(4));
        assert_eq!(expr.domain_size(&sch()), Nat::from_u64(4));
    }
}
