//! Differential tests: the interned flat-index homomorphism engine must agree
//! with the retained naive `BTreeMap` reference engine ([`hom::reference`]) on
//! random structures — exact counts, existence and enumerated assignments.

use cqdet_structure::hom::reference;
use cqdet_structure::{
    hom_count, hom_count_factored, hom_enumerate, hom_exists, Schema, SharedCaches, Structure,
    StructureGenerator,
};
use proptest::prelude::*;

fn schema() -> Schema {
    Schema::with_relations([("E", 2), ("P", 1), ("T", 3)])
}

/// A schema sharing E/P/T with [`schema`] but with an extra relation sorting
/// *before* the shared ones, so shared relations sit at different slot
/// offsets — the layout the flat engine must remap, not compare raw.
fn shifted_schema() -> Schema {
    Schema::with_relations([("A", 2), ("E", 2), ("P", 1), ("T", 3)])
}

fn random_structure(seed: u64, domain: usize, facts: usize) -> Structure {
    StructureGenerator::new(schema(), seed).random_with_facts(domain.max(1), facts)
}

fn random_shifted(seed: u64, domain: usize, facts: usize) -> Structure {
    StructureGenerator::new(shifted_schema(), seed).random_with_facts(domain.max(1), facts)
}

/// Sprinkle isolated elements so the unconstrained-element paths are hit.
fn with_isolated(mut s: Structure, seed: u64) -> Structure {
    for k in 0..seed % 3 {
        s.add_isolated(1000 + k);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Counts agree between the flat engine, the reference engine, the
    /// component-factored variant and a context's memoized variant.
    #[test]
    fn counts_agree(seed in 0u64..100_000, src_facts in 0usize..5,
                    dom in 1usize..5, tgt_facts in 0usize..12) {
        let source = with_isolated(random_structure(seed, 3, src_facts), seed);
        let target = with_isolated(random_structure(seed ^ 0xABCD, dom, tgt_facts), seed / 3);
        let fast = hom_count(&source, &target);
        let naive = reference::hom_count(&source, &target);
        prop_assert_eq!(&fast, &naive, "count mismatch: {} -> {}", source, target);
        prop_assert_eq!(&hom_count_factored(&source, &target), &naive);
        let caches = SharedCaches::governed(&Default::default());
        prop_assert_eq!(&caches.hom_count(&source, &target), &naive);
    }

    /// Existence agrees.
    #[test]
    fn existence_agrees(seed in 0u64..100_000, src_facts in 0usize..5,
                        dom in 1usize..5, tgt_facts in 0usize..12) {
        let source = with_isolated(random_structure(seed, 3, src_facts), seed);
        let target = with_isolated(random_structure(seed ^ 0xF00D, dom, tgt_facts), seed / 5);
        prop_assert_eq!(
            hom_exists(&source, &target),
            reference::hom_exists(&source, &target),
            "existence mismatch: {} -> {}", source, target
        );
    }

    /// Enumeration returns exactly the same set of assignments.
    #[test]
    fn enumeration_agrees(seed in 0u64..100_000, src_facts in 0usize..4,
                          dom in 1usize..4, tgt_facts in 0usize..8) {
        let source = with_isolated(random_structure(seed, 2, src_facts), seed);
        let target = random_structure(seed ^ 0xBEEF, dom, tgt_facts);
        let mut fast = hom_enumerate(&source, &target);
        let mut naive = reference::hom_enumerate(&source, &target);
        fast.sort();
        naive.sort();
        prop_assert_eq!(fast, naive, "enumeration mismatch: {} -> {}", source, target);
    }

    /// Cross-schema pairs (shared relations at different slot offsets in the
    /// two schemas) agree with the reference engine in both directions.
    #[test]
    fn cross_schema_counts_agree(seed in 0u64..100_000, src_facts in 0usize..5,
                                 dom in 1usize..5, tgt_facts in 0usize..10) {
        let plain = random_structure(seed, 3, src_facts);
        let shifted = random_shifted(seed ^ 0xD00F, dom, tgt_facts);
        prop_assert_eq!(
            hom_count(&plain, &shifted),
            reference::hom_count(&plain, &shifted),
            "plain -> shifted: {} -> {}", plain, shifted
        );
        prop_assert_eq!(
            hom_count(&shifted, &plain),
            reference::hom_count(&shifted, &plain),
            "shifted -> plain: {} -> {}", shifted, plain
        );
        prop_assert_eq!(
            hom_exists(&plain, &shifted),
            reference::hom_exists(&plain, &shifted)
        );
    }

    /// The count equals the number of enumerated homomorphisms (on instances
    /// small enough to enumerate).
    #[test]
    fn count_equals_enumeration(seed in 0u64..100_000, src_facts in 0usize..4,
                                tgt_facts in 0usize..8) {
        let source = random_structure(seed, 3, src_facts);
        let target = random_structure(seed ^ 0x5EED, 3, tgt_facts);
        let count = hom_count(&source, &target);
        let listed = hom_enumerate(&source, &target).len();
        prop_assert_eq!(count.to_usize(), Some(listed));
    }
}

/// Directed fixtures with exactly known counts, run through both engines.
#[test]
fn engines_agree_on_known_fixtures() {
    let sch = Schema::binary(["E"]);
    let path = |n: usize| {
        let mut s = Structure::new(sch.clone());
        for i in 0..n {
            s.add("E", &[i as u64, i as u64 + 1]);
        }
        s
    };
    let cycle = |n: usize| {
        let mut s = Structure::new(sch.clone());
        for i in 0..n {
            s.add("E", &[i as u64, ((i + 1) % n) as u64]);
        }
        s
    };
    for (src, tgt, expect) in [
        (path(2), path(4), 3u64),
        (cycle(3), cycle(3), 3),
        (cycle(3), cycle(4), 0),
        (path(3), cycle(2), 2),
    ] {
        assert_eq!(hom_count(&src, &tgt).to_u64(), Some(expect));
        assert_eq!(reference::hom_count(&src, &tgt).to_u64(), Some(expect));
    }
}
