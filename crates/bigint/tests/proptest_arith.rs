//! Property-based tests for the arbitrary-precision arithmetic, checked
//! against `u128`/`i128` reference arithmetic and against algebraic laws.

use cqdet_bigint::{Int, Nat};
use proptest::prelude::*;

fn nat_from_u128(v: u128) -> Nat {
    let hi = (v >> 64) as u64;
    let lo = v as u64;
    Nat::from_u64(hi).mul_ref(&Nat::from_u64(1u64 << 32).pow(2)) + Nat::from_u64(lo)
}

fn int_from_i128(v: i128) -> Int {
    if v >= 0 {
        Int::from_nat(nat_from_u128(v as u128))
    } else {
        Int::from_nat(nat_from_u128(v.unsigned_abs())).neg_ref()
    }
}

proptest! {
    #[test]
    fn nat_add_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let expect = a as u128 + b as u128;
        prop_assert_eq!(Nat::from_u64(a) + Nat::from_u64(b), nat_from_u128(expect));
    }

    #[test]
    fn nat_mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let expect = a as u128 * b as u128;
        prop_assert_eq!(Nat::from_u64(a) * Nat::from_u64(b), nat_from_u128(expect));
    }

    #[test]
    fn nat_divrem_matches_u64(a in any::<u64>(), b in 1u64..) {
        let (q, r) = Nat::from_u64(a).divrem(&Nat::from_u64(b));
        prop_assert_eq!(q, Nat::from_u64(a / b));
        prop_assert_eq!(r, Nat::from_u64(a % b));
    }

    #[test]
    fn nat_mod_u64_matches_divrem(hi in any::<u64>(), lo in any::<u64>(), m in 1u64..) {
        // Exercise both the inline and the heap (limb-folding) paths.
        let big = nat_from_u128(((hi as u128) << 64) | lo as u128);
        let (_, r) = big.divrem(&Nat::from_u64(m));
        prop_assert_eq!(Nat::from_u64(big.mod_u64(m)), r);
        prop_assert_eq!(Nat::from_u64(lo).mod_u64(m), lo % m);
    }

    #[test]
    fn nat_divrem_reconstructs(a in any::<u128>(), b in 1u128..) {
        let an = nat_from_u128(a);
        let bn = nat_from_u128(b);
        let (q, r) = an.divrem(&bn);
        prop_assert!(r < bn);
        prop_assert_eq!(q.mul_ref(&bn) + r, an);
    }

    #[test]
    fn nat_sub_add_round_trip(a in any::<u128>(), b in any::<u128>()) {
        let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
        let h = nat_from_u128(hi);
        let l = nat_from_u128(lo);
        prop_assert_eq!(h.sub_ref(&l) + &l, h);
    }

    #[test]
    fn nat_gcd_divides_both(a in any::<u64>(), b in any::<u64>()) {
        let an = Nat::from_u64(a);
        let bn = Nat::from_u64(b);
        let g = an.gcd(&bn);
        if !g.is_zero() {
            prop_assert!(an.divrem(&g).1.is_zero());
            prop_assert!(bn.divrem(&g).1.is_zero());
        } else {
            prop_assert!(an.is_zero() && bn.is_zero());
        }
        // Reference value.
        prop_assert_eq!(g, Nat::from_u64(gcd_u64(a, b)));
    }

    #[test]
    fn nat_pow_matches_u128(a in 0u64..=13, e in 0u64..=30) {
        let expect = (a as u128).pow(e as u32);
        if a == 0 && e == 0 {
            prop_assert_eq!(Nat::from_u64(a).pow(e), Nat::one());
        } else {
            prop_assert_eq!(Nat::from_u64(a).pow(e), nat_from_u128(expect));
        }
    }

    #[test]
    fn nat_shift_round_trip(a in any::<u128>(), s in 0usize..200) {
        let n = nat_from_u128(a);
        prop_assert_eq!(n.shl_bits(s).shr_bits(s), n);
    }

    #[test]
    fn nat_decimal_round_trip(a in any::<u128>()) {
        let n = nat_from_u128(a);
        prop_assert_eq!(Nat::from_decimal(&n.to_decimal()).unwrap(), n.clone());
        prop_assert_eq!(n.to_decimal(), a.to_string());
    }

    #[test]
    fn write_decimal_matches_to_decimal(a in any::<u128>(), shift in 0u32..128, near in 0u64..8192) {
        // Every width up to 128 bits, plus the 8192 values around
        // `u64::MAX`, where a `Nat` moves from inline to heap limbs.
        for v in [a >> shift, u64::MAX as u128 - 4095 + near as u128] {
            let n = nat_from_u128(v);
            let mut out = String::from("[");
            n.write_decimal(&mut out);
            prop_assert_eq!(&out[1..], n.to_decimal().as_str());
            prop_assert_eq!(&out[1..], v.to_string().as_str());
            for i in [Int::from_nat(n.clone()), Int::from_nat(n).neg_ref()] {
                let mut out = String::new();
                i.write_decimal(&mut out);
                prop_assert_eq!(out, i.to_string());
            }
        }
    }

    #[test]
    fn nat_ordering_matches(a in any::<u128>(), b in any::<u128>()) {
        prop_assert_eq!(nat_from_u128(a).cmp(&nat_from_u128(b)), a.cmp(&b));
    }

    #[test]
    fn int_add_matches_i128(a in any::<i64>(), b in any::<i64>()) {
        let expect = a as i128 + b as i128;
        prop_assert_eq!(Int::from_i64(a) + Int::from_i64(b), int_from_i128(expect));
    }

    #[test]
    fn int_sub_matches_i128(a in any::<i64>(), b in any::<i64>()) {
        let expect = a as i128 - b as i128;
        prop_assert_eq!(Int::from_i64(a) - Int::from_i64(b), int_from_i128(expect));
    }

    #[test]
    fn int_mul_matches_i128(a in any::<i64>(), b in any::<i64>()) {
        let expect = a as i128 * b as i128;
        prop_assert_eq!(Int::from_i64(a) * Int::from_i64(b), int_from_i128(expect));
    }

    #[test]
    fn int_divrem_matches_i128(a in any::<i64>(), b in any::<i64>().prop_filter("nonzero", |v| *v != 0)) {
        let (q, r) = Int::from_i64(a).divrem(&Int::from_i64(b));
        prop_assert_eq!(q, int_from_i128(a as i128 / b as i128));
        prop_assert_eq!(r, int_from_i128(a as i128 % b as i128));
    }

    #[test]
    fn int_distributivity(a in any::<i64>(), b in any::<i64>(), c in any::<i64>()) {
        let (ai, bi, ci) = (Int::from_i64(a), Int::from_i64(b), Int::from_i64(c));
        prop_assert_eq!(ai.mul_ref(&bi.add_ref(&ci)), ai.mul_ref(&bi) + ai.mul_ref(&ci));
    }

    #[test]
    fn int_parse_round_trip(a in any::<i128>()) {
        let v = int_from_i128(a);
        prop_assert_eq!(Int::from_decimal(&v.to_string()).unwrap(), v.clone());
        prop_assert_eq!(v.to_string(), a.to_string());
    }
}

fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[test]
fn large_factorial_consistency() {
    // 50! computed two ways: incrementally and by divide-and-conquer products.
    let mut f = Nat::one();
    for i in 1u64..=50 {
        f = f * Nat::from_u64(i);
    }
    fn range_prod(lo: u64, hi: u64) -> Nat {
        if lo > hi {
            return Nat::one();
        }
        if lo == hi {
            return Nat::from_u64(lo);
        }
        let mid = (lo + hi) / 2;
        range_prod(lo, mid) * range_prod(mid + 1, hi)
    }
    assert_eq!(f, range_prod(1, 50));
    assert_eq!(
        f.to_decimal(),
        "30414093201713378043612608166064768844377641568960512000000000000"
    );
}
