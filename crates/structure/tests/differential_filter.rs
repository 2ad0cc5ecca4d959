//! Differential test for the candidate-filter kernel end to end:
//! `hom_count` — whose plan-build candidate lists are the only consumer of
//! the filter — must agree with the naive reference engine.  The kernel
//! itself is pinned against its scalar oracle in `filter.rs`'s own tests.

use cqdet_structure::hom::reference;
use cqdet_structure::{hom_count, Schema, StructureGenerator};

/// The lane-filtered `hom_count` agrees with the naive reference engine on
/// random structures.
#[test]
fn lane_filtered_hom_count_matches_reference() {
    let schema = Schema::with_relations([("E", 2), ("P", 1), ("T", 3)]);
    for seed in 0..40u64 {
        let source =
            StructureGenerator::new(schema.clone(), seed).random_with_facts(3, (seed % 5) as usize);
        let target = StructureGenerator::new(schema.clone(), seed ^ 0xBEEF)
            .random_with_facts(1 + (seed % 4) as usize, (seed % 11) as usize);
        assert_eq!(
            hom_count(&source, &target),
            reference::hom_count(&source, &target),
            "engine mismatch at seed {seed}"
        );
    }
}
