//! Differential tests for the candidate-filter kernel: the auto-vectorized
//! lane kernel must agree with the retained scalar oracle on random lane
//! matrices, and `hom_count` — whose plan-build candidate lists are the only
//! consumer of the filter — must agree with the naive reference engine.

use cqdet_structure::filter::{scalar_superset_indices, superset_indices};
use cqdet_structure::hom::reference;
use cqdet_structure::{hom_count, Schema, StructureGenerator};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The two kernels agree on random lane matrices of every stride shape
    /// the specialization covers, including the all-zero mask (matches
    /// every element) and the single-element matrix.
    #[test]
    fn kernels_agree_on_random_lanes(
        stride in 1usize..7,
        n in 0usize..20,
        seed in any::<u64>(),
        zero_mask in any::<bool>(),
    ) {
        // Deterministic xorshift fill: proptest's collection strategies
        // would shrink the lane matrix and stride out of sync.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let lanes: Vec<u64> = (0..n * stride).map(|_| next()).collect();
        let mask: Vec<u64> = (0..stride)
            .map(|_| if zero_mask { 0 } else { next() & next() })
            .collect();
        prop_assert_eq!(
            superset_indices(&mask, &lanes, stride, n),
            scalar_superset_indices(&mask, &lanes, stride, n)
        );
        if n > 0 {
            // Single-element edge case, and an element's own mask is always
            // a superset of itself.
            let first = lanes[..stride].to_vec();
            prop_assert_eq!(
                superset_indices(&first, &lanes, stride, 1),
                vec![0u32]
            );
        }
    }
}

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
