//! Differential tests for canonical labeling ([`cqdet_structure`]'s `canon`
//! module, reached through `Structure::iso_class_key` / `isomorphic`):
//!
//! * canonical keys must agree with the search-based isomorphism oracle
//!   (profile checks + `hom::reference::injective_hom_exists`, exactly the
//!   test the old `iso.rs` ran) on random structures, renamed copies with
//!   scrambled constant order, and the cycle-vs-near-cycle hard case;
//! * `dedup_up_to_iso` / `multiplicities` must agree with the quadratic
//!   search-based de-duplication;
//! * fact-reordered isomorphic sources must share their canonical key and
//!   every hom count;
//! * the flat-index `connected_components` must agree with the retained
//!   `BTreeMap` reference decomposition, and `components_keyed` with both
//!   `connected_components` and the directly computed keys;
//! * one `components_keyed` call over many bodies (repeating components,
//!   over two schemas) must return what one call per body returns.

use cqdet_structure::components::reference as comp_reference;
use cqdet_structure::hom::reference as hom_reference;
use cqdet_structure::{
    components_keyed, connected_components, dedup_up_to_iso, hom_count, is_connected, isomorphic,
    multiplicities, Schema, Structure, StructureGenerator,
};
use proptest::prelude::*;

fn schema() -> Schema {
    Schema::with_relations([("E", 2), ("P", 1), ("T", 3)])
}

fn random_structure(seed: u64, domain: usize, facts: usize) -> Structure {
    StructureGenerator::new(schema(), seed).random_with_facts(domain.max(1), facts)
}

/// The search-based isomorphism test the old `iso.rs` used: equal profiles
/// plus an injective homomorphism (run on the reference engine, so the test
/// does not depend on the flat engine it is checking).
fn oracle_isomorphic(a: &Structure, b: &Structure) -> bool {
    a.schema() == b.schema()
        && a.domain_size() == b.domain_size()
        && a.profile() == b.profile()
        && hom_reference::injective_hom_exists(a, b)
}

/// An order-scrambling injective renaming (reverses the relative order of
/// all constants), so renamed copies exercise the non-order-preserving case
/// the old `flat().canon()` encoding got wrong.
fn scramble(s: &Structure) -> Structure {
    s.map_constants(|c| u64::MAX - 3 * c)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// canon(a) == canon(b)  ⟺  search-based isomorphic(a, b), on random
    /// structure pairs drawn small enough that both outcomes occur.
    #[test]
    fn canon_equality_iff_isomorphic(seed in 0u64..100_000, dom in 1usize..4,
                                     facts_a in 0usize..5, facts_b in 0usize..5) {
        let mut a = random_structure(seed, dom, facts_a);
        let mut b = random_structure(seed ^ 0x00F5_E77A, dom, facts_b);
        if seed % 3 == 0 {
            a.add_isolated(500 + seed % 2);
        }
        if seed % 5 == 0 {
            b.add_isolated(700);
        }
        let by_key = a.iso_class_key() == b.iso_class_key();
        prop_assert_eq!(by_key, oracle_isomorphic(&a, &b), "{} vs {}", a, b);
        prop_assert_eq!(isomorphic(&a, &b), by_key);
    }

    /// A scrambled-order renamed copy is always isomorphic — same key.
    #[test]
    fn scrambled_copies_share_keys(seed in 0u64..100_000, dom in 1usize..6,
                                   facts in 0usize..8) {
        let a = random_structure(seed, dom, facts);
        let b = scramble(&a);
        prop_assert!(oracle_isomorphic(&a, &b), "renaming is an isomorphism");
        prop_assert_eq!(a.iso_class_key(), b.iso_class_key(), "{} vs {}", a, b);
        prop_assert!(isomorphic(&a, &b));
    }

    /// De-duplication and multiplicity vectors (decided by canonical keys)
    /// match the quadratic search-based reference computation.
    #[test]
    fn dedup_and_vectors_match_the_search_oracle(seed in 0u64..100_000, n in 1usize..10,
                                          dom in 1usize..4, facts in 1usize..4) {
        let mut items: Vec<Structure> = (0..n)
            .map(|i| random_structure(seed ^ (i as u64) << 3, dom, facts))
            .collect();
        // Mix in scrambled copies so classes genuinely repeat.
        for i in 0..n / 2 {
            items.push(scramble(&items[i]));
        }
        let basis = dedup_up_to_iso(items.clone());
        let vector = multiplicities(&basis, &items);
        // Reference: quadratic pairwise de-duplication with the oracle.
        let mut ref_basis: Vec<Structure> = Vec::new();
        for s in &items {
            if !ref_basis.iter().any(|t| oracle_isomorphic(t, s)) {
                ref_basis.push(s.clone());
            }
        }
        prop_assert_eq!(basis.len(), ref_basis.len());
        for (b, r) in basis.iter().zip(ref_basis.iter()) {
            prop_assert!(oracle_isomorphic(b, r), "basis order changed: {} vs {}", b, r);
        }
        let mut ref_counts = vec![0u64; ref_basis.len()];
        for s in &items {
            let idx = ref_basis.iter().position(|b| oracle_isomorphic(b, s)).unwrap();
            ref_counts[idx] += 1;
        }
        prop_assert_eq!(vector, Some(ref_counts));
    }

    /// The flat-index component decomposition agrees with the retained
    /// reference decomposition (as multisets of component structures), and
    /// `is_connected` agrees with counting components.  The keyed
    /// decomposition returns the same components in the same order, with
    /// installed keys equal to the keys computed from scratch, and a body
    /// key equal to the directly computed one.
    #[test]
    fn components_match_reference(seed in 0u64..100_000, dom in 1usize..6,
                                  facts in 0usize..10) {
        let mut s = random_structure(seed, dom, facts);
        if seed % 4 == 0 {
            s.add_isolated(900);
            s.add_isolated(901);
        }
        let flat = connected_components(&s);
        let oracle = comp_reference::connected_components(&s);
        let sort_key = |c: &Structure| format!("{c:?}");
        let mut flat_keys: Vec<String> = flat.iter().map(sort_key).collect();
        let mut oracle_keys: Vec<String> = oracle.iter().map(sort_key).collect();
        flat_keys.sort();
        oracle_keys.sort();
        prop_assert_eq!(flat_keys, oracle_keys, "{}", s);
        prop_assert_eq!(is_connected(&s), flat.len() == 1);
        check_keyed_decomposition(&s);
    }
}

/// `components_keyed` of `s` alone against the unkeyed path: the same
/// components in the same order, each installed key equal to the key of a
/// fresh `connected_components` copy (whose key cell is empty), and the
/// assembled body key equal to the key of a rebuilt `s`.
fn check_keyed_decomposition(s: &Structure) {
    let fresh = connected_components(s);
    let (keyed, body_key) = components_keyed(std::slice::from_ref(s)).remove(0);
    assert_eq!(&keyed, &fresh, "{}", s);
    for (k, f) in keyed.iter().zip(&fresh) {
        assert_eq!(
            k.iso_class_key().canon_bytes(),
            f.iso_class_key().canon_bytes(),
            "component {} of {}",
            f,
            s
        );
    }
    let rebuilt = s.map_constants(|c| c);
    assert_eq!(
        body_key.canon_bytes(),
        rebuilt.iso_class_key().canon_bytes(),
        "{}",
        s
    );
    assert_eq!(s.iso_class_key().canon_bytes(), body_key.canon_bytes());
}

/// A body built from copies of a few small structures: pick `j` places a
/// copy of `pool[pick]` at constants shifted by `16·j`.  The shift keeps the
/// constant order, so equal picks give components of equal content.
fn body_from(pool: &[Structure], picks: &[usize]) -> Structure {
    let mut body = Structure::new(pool[0].schema().clone());
    for (j, &pick) in picks.iter().enumerate() {
        let copy = pool[pick % pool.len()].map_constants(|c| c + 16 * j as u64);
        for f in copy.facts() {
            body.add_fact(f);
        }
        for c in copy.domain() {
            body.add_isolated(c);
        }
    }
    body
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// One `components_keyed` call over a slice of bodies returns, body by
    /// body, the components and the byte-identical body and component keys
    /// of one call per body, which shares nothing across bodies.  The
    /// bodies repeat components within and across each other, and live
    /// over two schemas with the same arities but different relation names,
    /// so components over different relation tables have identical dense
    /// rows.
    #[test]
    fn one_call_over_many_bodies_matches_one_call_per_body(
        seed in 0u64..100_000,
        bodies in prop::collection::vec(
            (any::<bool>(), prop::collection::vec(0usize..3, 0..5)), 1..6),
    ) {
        let other = Schema::with_relations([("F", 2), ("Q", 1), ("U", 3)]);
        let pools: [Vec<Structure>; 2] = [schema(), other].map(|sch| {
            (0..3u64)
                .map(|i| {
                    StructureGenerator::new(sch.clone(), seed ^ (i << 5))
                        .random_with_facts(1 + (seed + i) as usize % 3, (seed + 2 * i) as usize % 4)
                })
                .collect()
        });
        let bodies: Vec<Structure> = bodies
            .iter()
            .map(|(second, picks)| body_from(&pools[usize::from(*second)], picks))
            .collect();
        let together = components_keyed(&bodies);
        prop_assert_eq!(together.len(), bodies.len());
        for (body, (comps, key)) in bodies.iter().zip(&together) {
            // A rebuilt copy has an empty key cell, so its call canonizes
            // afresh instead of reading the key installed above.
            let (alone, alone_key) = components_keyed(&[body.map_constants(|c| c)]).remove(0);
            prop_assert_eq!(comps, &alone, "{}", body);
            prop_assert_eq!(key.canon_bytes(), alone_key.canon_bytes(), "{}", body);
            prop_assert_eq!(
                key.canon_bytes(),
                body.map_constants(|c| c).iso_class_key().canon_bytes()
            );
            for (c, a) in comps.iter().zip(&alone) {
                prop_assert_eq!(c.iso_class_key().canon_bytes(), a.iso_class_key().canon_bytes());
                prop_assert_eq!(
                    c.iso_class_key().canon_bytes(),
                    c.map_constants(|x| x).iso_class_key().canon_bytes()
                );
            }
        }
    }
}

#[test]
fn keyed_decomposition_with_a_nullary_fact() {
    // `connected_components` makes the nullary fact a component of its own,
    // whose key header carries its flag; the body header carries it too.
    let sch = Schema::with_relations([("H", 0), ("E", 2), ("P", 1)]);
    let mut s = Structure::new(sch);
    s.add("H", &[]);
    s.add("E", &[3, 4]);
    s.add("E", &[4, 3]);
    s.add("E", &[7, 8]);
    s.add("P", &[8]);
    s.add_isolated(1);
    let (comps, _) = components_keyed(std::slice::from_ref(&s)).remove(0);
    assert_eq!(comps.len(), 4, "H, {{1}}, {{3,4}}, {{7,8}}");
    assert_eq!(
        comps[0].domain_size(),
        0,
        "the nullary component comes first"
    );
    check_keyed_decomposition(&s);
}

#[test]
fn cycle_vs_near_cycle_hard_case() {
    // Both have 3 edges over 3 vertices and identical profiles; only one is
    // a cycle.  Color refinement alone cannot split the cycle (it is
    // vertex-transitive), so this exercises individualization.
    let sch = Schema::with_relations([("E", 2), ("P", 1)]);
    let mut c3 = Structure::new(sch.clone());
    c3.add("E", &[0, 1]);
    c3.add("E", &[1, 2]);
    c3.add("E", &[2, 0]);
    let mut near = Structure::new(sch);
    near.add("E", &[0, 1]);
    near.add("E", &[1, 2]);
    near.add("E", &[0, 2]);
    assert_eq!(c3.profile(), near.profile());
    assert!(!isomorphic(&c3, &near));
    assert_ne!(c3.iso_class_key(), near.iso_class_key());
    assert!(!oracle_isomorphic(&c3, &near));
    // Rotated + scrambled cycle stays in the class.
    let rotated = scramble(&c3);
    assert_eq!(c3.iso_class_key(), rotated.iso_class_key());
}

#[test]
fn fact_reordered_isomorphic_sources_share_key_and_count() {
    // Two isomorphic sources whose frozen constants sort differently: the
    // order-preserving encodings differ, the canonical keys must not, and
    // neither may any hom count.
    let sch = Schema::binary(["E"]);
    let mut w = Structure::new(sch.clone());
    w.add("E", &[0, 1]);
    w.add("E", &[1, 2]);
    // Scrambled copy: same 2-path, constants in reversed relative order.
    let w2 = scramble(&w);
    assert_ne!(
        format!("{w:?}"),
        format!("{w2:?}"),
        "distinct presentations"
    );
    assert_eq!(w.iso_class_key(), w2.iso_class_key());
    let mut t = Structure::new(sch);
    for i in 0..4u64 {
        for j in 0..4u64 {
            if (i + j) % 2 == 0 {
                t.add("E", &[i, j]);
            }
        }
    }
    assert_eq!(hom_count(&w, &t), hom_count(&w2, &t));
    assert_eq!(hom_count(&w, &t), hom_reference::hom_count(&w, &t));
}
