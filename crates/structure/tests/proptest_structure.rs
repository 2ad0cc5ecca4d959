//! Property-based tests for structures, homomorphism counting and the
//! structure algebra (Lovász's Lemma 4 is the star witness).

use cqdet_structure::{
    all_loops_point, connected_components, dedup_up_to_iso, disjoint_union, hom_count,
    hom_count_factored, hom_enumerate, hom_exists, isomorphic, power, product, scalar_multiple,
    Nat, Schema, Structure, StructureExpr, StructureGenerator,
};
use proptest::prelude::*;

fn schema() -> Schema {
    Schema::with_relations([("E", 2), ("P", 1)])
}

fn random_structure(seed: u64, domain: usize, facts: usize) -> Structure {
    StructureGenerator::new(schema(), seed).random_with_facts(domain.max(1), facts)
}

fn random_connected(seed: u64, facts: usize) -> Structure {
    StructureGenerator::new(schema(), seed).random_connected(facts.max(1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Renaming constants yields an isomorphic structure; isomorphic structures
    /// have identical left and right homomorphism counts against anything.
    #[test]
    fn isomorphism_invariance(seed in 0u64..10_000, facts in 0usize..6, probe_seed in 0u64..10_000) {
        let s = random_structure(seed, 4, facts);
        let renamed = s.map_constants(|c| c * 7 + 13);
        prop_assert!(isomorphic(&s, &renamed));
        let probe = random_structure(probe_seed, 3, 4);
        prop_assert_eq!(hom_count(&s, &probe), hom_count(&renamed, &probe));
        prop_assert_eq!(hom_count(&probe, &s), hom_count(&probe, &renamed));
        // compact() is also an isomorphism.
        prop_assert!(isomorphic(&s, &s.compact()));
    }

    /// The identity map is a homomorphism, so hom(A, A) ≥ 1 for every A, and
    /// hom composition preserves existence.
    #[test]
    fn identity_and_composition(seed in 0u64..10_000, facts in 0usize..6) {
        let a = random_structure(seed, 3, facts);
        prop_assert!(hom_exists(&a, &a));
        prop_assert!(hom_count(&a, &a) >= Nat::one());
        let b = random_structure(seed.wrapping_add(1), 3, 5);
        let c = random_structure(seed.wrapping_add(2), 3, 5);
        if hom_exists(&a, &b) && hom_exists(&b, &c) {
            prop_assert!(hom_exists(&a, &c));
        }
    }

    /// Every enumerated assignment is a genuine homomorphism, and the count
    /// matches the enumeration length.
    #[test]
    fn enumeration_is_sound_and_complete(seed in 0u64..10_000) {
        let a = random_connected(seed, 2);
        let b = random_structure(seed.wrapping_add(5), 3, 5);
        let homs = hom_enumerate(&a, &b);
        prop_assert_eq!(Nat::from_usize(homs.len()), hom_count(&a, &b));
        for h in &homs {
            for fact in a.facts() {
                let image: Vec<u64> = fact.args.iter().map(|x| h[x]).collect();
                prop_assert!(b.contains_fact(&fact.relation, &image));
            }
        }
    }

    /// Lemma 4, all five parts, on random structures.
    #[test]
    fn lemma_4(seed in 0u64..10_000, t in 0u64..4, exp in 0u64..3) {
        let connected = random_connected(seed, 2);
        let any = random_structure(seed.wrapping_add(1), 3, 3);
        let b = random_structure(seed.wrapping_add(2), 3, 4);
        let c = random_structure(seed.wrapping_add(3), 3, 4);
        // (1) and (2) need a connected source.
        prop_assert_eq!(
            hom_count(&connected, &disjoint_union(&b, &c)),
            hom_count(&connected, &b) + hom_count(&connected, &c)
        );
        prop_assert_eq!(
            hom_count(&connected, &scalar_multiple(t, &b)),
            Nat::from_u64(t) * hom_count(&connected, &b)
        );
        // (3), (4), (5) hold for arbitrary sources.
        prop_assert_eq!(
            hom_count(&any, &product(&b, &c)),
            hom_count(&any, &b) * hom_count(&any, &c)
        );
        prop_assert_eq!(hom_count(&any, &power(&b, exp)), hom_count(&any, &b).pow(exp));
        prop_assert_eq!(
            hom_count(&disjoint_union(&any, &connected), &c),
            hom_count(&any, &c) * hom_count(&connected, &c)
        );
        prop_assert_eq!(hom_count_factored(&any, &b), hom_count(&any, &b));
    }

    /// The all-loops point A⁰ absorbs: hom(x, A⁰) = 1, and A × A⁰ ≅ A.
    #[test]
    fn all_loops_point_is_a_unit(seed in 0u64..10_000, facts in 0usize..6) {
        let a = random_structure(seed, 3, facts);
        let unit = all_loops_point(&schema());
        prop_assert_eq!(hom_count(&a, &unit), Nat::one());
        prop_assert!(isomorphic(&product(&a, &unit), &a));
        prop_assert!(isomorphic(&power(&a, 1), &a));
    }

    /// Connected components partition facts and domain, each component is
    /// connected, and their disjoint union is isomorphic to the original.
    #[test]
    fn components_partition(seed in 0u64..10_000, facts in 0usize..8) {
        let s = random_structure(seed, 5, facts);
        let comps = connected_components(&s);
        let fact_total: usize = comps.iter().map(Structure::num_facts).sum();
        let dom_total: usize = comps.iter().map(Structure::domain_size).sum();
        prop_assert_eq!(fact_total, s.num_facts());
        prop_assert_eq!(dom_total, s.domain_size());
        for c in &comps {
            prop_assert!(cqdet_structure::is_connected(c));
        }
        let mut rebuilt = Structure::new(schema());
        for c in &comps {
            rebuilt = disjoint_union(&rebuilt, c);
        }
        prop_assert!(isomorphic(&rebuilt, &s));
    }

    /// De-duplication up to isomorphism is idempotent and produces pairwise
    /// non-isomorphic representatives covering every input.
    #[test]
    fn dedup_properties(seeds in prop::collection::vec(0u64..200, 1..6)) {
        let items: Vec<Structure> = seeds.iter().map(|&s| random_structure(s, 3, 2)).collect();
        let unique = dedup_up_to_iso(items.clone());
        for (i, a) in unique.iter().enumerate() {
            for b in &unique[i + 1..] {
                prop_assert!(!isomorphic(a, b));
            }
        }
        for item in &items {
            prop_assert!(unique.iter().any(|u| isomorphic(u, item)));
        }
        prop_assert_eq!(dedup_up_to_iso(unique.clone()).len(), unique.len());
    }

    /// Symbolic evaluation agrees with materialised brute-force counting.
    #[test]
    fn symbolic_matches_materialised(seed in 0u64..10_000, c1 in 0u64..4, c2 in 0u64..4, e in 0u64..3) {
        let w = random_connected(seed, 2);
        let b1 = random_structure(seed.wrapping_add(7), 3, 3);
        let b2 = random_structure(seed.wrapping_add(8), 2, 2);
        let expr = StructureExpr::weighted_sum(vec![
            (Nat::from_u64(c1), StructureExpr::base(b1.clone())),
            (Nat::from_u64(c2), StructureExpr::base(b2.clone()).pow(e)),
        ]);
        let symbolic = expr.hom_count_from_connected(&w);
        let concrete = expr
            .materialize(&schema(), 200)
            .expect("small enough to materialise");
        prop_assert_eq!(symbolic, hom_count(&w, &concrete));
    }

    /// Product and disjoint union are commutative and associative up to
    /// isomorphism.
    #[test]
    fn algebra_laws_up_to_iso(seed in 0u64..5000) {
        let a = random_structure(seed, 2, 2);
        let b = random_structure(seed.wrapping_add(1), 2, 2);
        let c = random_structure(seed.wrapping_add(2), 2, 2);
        prop_assert!(isomorphic(&disjoint_union(&a, &b), &disjoint_union(&b, &a)));
        prop_assert!(isomorphic(
            &disjoint_union(&disjoint_union(&a, &b), &c),
            &disjoint_union(&a, &disjoint_union(&b, &c))
        ));
        prop_assert!(isomorphic(&product(&a, &b), &product(&b, &a)));
    }
}
