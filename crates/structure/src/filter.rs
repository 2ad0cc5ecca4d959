//! Lane-oriented occurrence-mask filtering kernels.
//!
//! The candidate filter of the homomorphism engine asks one question over
//! and over: *which elements of the target have an occurrence mask that is a
//! superset of this source mask?*  Masks live in a contiguous element-major
//! lane matrix (`stride` words per element, see [`crate::flat`]), so the
//! whole question is a strided sweep over `u64` lanes.
//!
//! [`superset_indices`] is the kernel: the subset test is branch-free
//! (`acc |= sub & !sup` folded over the stride, one compare per element) and
//! the loop is specialised per stride (1, 2, 4 words inline, generic
//! fallback), so the compiler unrolls and auto-vectorises the sweep over
//! whole lane blocks.  [`scalar_superset_indices`] — the original
//! word-at-a-time, short-circuiting filter — is retained only as the
//! differential-testing oracle; differential property tests pin the two
//! against each other on random lane matrices (see
//! `tests/differential_filter.rs`).
//!
//! The module is `#[doc(hidden)] pub` only so integration tests can drive
//! the kernels directly; it is not part of the supported API surface.

/// Branch-free wordwise subset test: whether `sub ⊆ sup`.  Both masks must
/// live in the same slot space (equal word counts); the OR-accumulate shape
/// gives the optimiser a straight-line body with a single final compare.
#[inline]
pub fn mask_subset(sub: &[u64], sup: &[u64]) -> bool {
    debug_assert_eq!(sub.len(), sup.len(), "masks from different slot spaces");
    let mut acc = 0u64;
    for (&a, &b) in sub.iter().zip(sup.iter()) {
        acc |= a & !b;
    }
    acc == 0
}

/// The indices `i < n` whose lane block `lanes[i*stride .. (i+1)*stride]` is
/// a superset of `mask`: branch-free subset tests over whole lane blocks,
/// with the sweep specialised per stride so the inner fold is fully
/// unrolled.
pub fn superset_indices(mask: &[u64], lanes: &[u64], stride: usize, n: usize) -> Vec<u32> {
    debug_assert_eq!(mask.len(), stride);
    debug_assert!(lanes.len() >= n * stride);
    let mut out = Vec::new();
    match stride {
        1 => {
            let m = mask[0];
            for (i, &w) in lanes[..n].iter().enumerate() {
                if m & !w == 0 {
                    out.push(i as u32);
                }
            }
        }
        2 => {
            let (m0, m1) = (mask[0], mask[1]);
            for (i, b) in lanes[..n * 2].chunks_exact(2).enumerate() {
                let acc = (m0 & !b[0]) | (m1 & !b[1]);
                if acc == 0 {
                    out.push(i as u32);
                }
            }
        }
        3 | 4 => {
            // Pad the mask to a 4-wide register-shaped fold; the phantom
            // fourth word of a 3-word layout never constrains (`0 & !x = 0`).
            let m = [
                mask[0],
                mask[1],
                mask[2],
                if stride == 4 { mask[3] } else { 0 },
            ];
            for i in 0..n {
                let b = &lanes[i * stride..i * stride + stride];
                let mut acc = (m[0] & !b[0]) | (m[1] & !b[1]) | (m[2] & !b[2]);
                if stride == 4 {
                    acc |= m[3] & !b[3];
                }
                if acc == 0 {
                    out.push(i as u32);
                }
            }
        }
        _ => {
            for (i, block) in lanes[..n * stride].chunks_exact(stride).enumerate() {
                let mut acc = 0u64;
                for (&a, &b) in mask.iter().zip(block.iter()) {
                    acc |= a & !b;
                }
                if acc == 0 {
                    out.push(i as u32);
                }
            }
        }
    }
    out
}

/// Scalar oracle: the original short-circuiting word-at-a-time filter the
/// engine shipped with before the lane rewrite, kept as the differential
/// baseline of [`superset_indices`].
pub fn scalar_superset_indices(mask: &[u64], lanes: &[u64], stride: usize, n: usize) -> Vec<u32> {
    debug_assert_eq!(mask.len(), stride);
    (0..n as u32)
        .filter(|&i| {
            let block = &lanes[i as usize * stride..(i as usize + 1) * stride];
            mask.iter().zip(block.iter()).all(|(&a, &b)| a & !b == 0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_agree_on_small_cases() {
        // stride 1, including the all-zero mask (matches everything).
        let lanes = [0b011u64, 0b000, 0b111, 0b101];
        for mask in [[0b000u64], [0b001], [0b110], [0b111]] {
            assert_eq!(
                superset_indices(&mask, &lanes, 1, 4),
                scalar_superset_indices(&mask, &lanes, 1, 4),
                "mask {mask:?}"
            );
        }
        // Wider strides, one element, empty lane matrix edge cases.
        for stride in [2usize, 3, 4, 5, 7] {
            let mask: Vec<u64> = (0..stride as u64).map(|w| w | 1).collect();
            let block: Vec<u64> = mask.iter().map(|&w| w | 0b1000).collect();
            assert_eq!(
                superset_indices(&mask, &block, stride, 1),
                vec![0],
                "stride {stride}"
            );
            assert_eq!(
                superset_indices(&mask, &vec![0u64; stride], stride, 1),
                Vec::<u32>::new(),
                "stride {stride} zero block"
            );
            assert_eq!(superset_indices(&mask, &[], stride, 0), Vec::<u32>::new());
        }
    }

    #[test]
    fn mask_subset_matches_definition() {
        assert!(mask_subset(&[0b01], &[0b11]));
        assert!(!mask_subset(&[0b10], &[0b01]));
        assert!(mask_subset(&[0, 0b1], &[0b1, 0b1]));
        assert!(!mask_subset(&[0b1, 0b1], &[0, 0b1]));
        assert!(mask_subset(&[], &[]));
    }
}
