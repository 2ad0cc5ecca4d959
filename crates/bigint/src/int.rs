//! Signed arbitrary-precision integers (sign + magnitude).

use crate::nat::Nat;
use crate::ParseBigIntError;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// Sign of an [`Int`]. Zero is always [`Sign::Zero`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sign {
    /// Strictly negative.
    Negative,
    /// Zero.
    Zero,
    /// Strictly positive.
    Positive,
}

/// An arbitrary-precision signed integer.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Int {
    sign: Sign,
    mag: Nat,
}

impl Default for Int {
    fn default() -> Self {
        Int::zero()
    }
}

impl Int {
    /// The integer zero.
    pub fn zero() -> Self {
        Int {
            sign: Sign::Zero,
            mag: Nat::zero(),
        }
    }

    /// The integer one.
    pub fn one() -> Self {
        Int {
            sign: Sign::Positive,
            mag: Nat::one(),
        }
    }

    /// Bytes of heap storage owned by this value (zero when the magnitude
    /// is inline).  See [`Nat::heap_bytes`].
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        self.mag.heap_bytes()
    }

    /// The integer minus one.
    pub fn neg_one() -> Self {
        Int {
            sign: Sign::Negative,
            mag: Nat::one(),
        }
    }

    /// Construct from an `i64`.
    pub fn from_i64(v: i64) -> Self {
        match v.cmp(&0) {
            Ordering::Equal => Int::zero(),
            Ordering::Greater => Int {
                sign: Sign::Positive,
                mag: Nat::from_u64(v as u64),
            },
            Ordering::Less => Int {
                sign: Sign::Negative,
                mag: Nat::from_u64(v.unsigned_abs()),
            },
        }
    }

    /// Construct from a `u64` (always non-negative).
    pub fn from_u64(v: u64) -> Self {
        Int::from_nat(Nat::from_u64(v))
    }

    /// Construct from an `i128`.
    pub fn from_i128(v: i128) -> Self {
        match v.cmp(&0) {
            Ordering::Equal => Int::zero(),
            Ordering::Greater => Int {
                sign: Sign::Positive,
                mag: Nat::from_u128(v as u128),
            },
            Ordering::Less => Int {
                sign: Sign::Negative,
                mag: Nat::from_u128(v.unsigned_abs()),
            },
        }
    }

    /// Try to convert to `i128`; returns `None` if the value does not fit.
    pub fn to_i128(&self) -> Option<i128> {
        let m = self.mag.to_u128()?;
        match self.sign {
            Sign::Zero => Some(0),
            Sign::Positive => i128::try_from(m).ok(),
            Sign::Negative => {
                if m <= i128::MAX as u128 + 1 {
                    Some((m as i128).wrapping_neg())
                } else {
                    None
                }
            }
        }
    }

    /// Construct a non-negative integer from a [`Nat`].
    pub fn from_nat(mag: Nat) -> Self {
        if mag.is_zero() {
            Int::zero()
        } else {
            Int {
                sign: Sign::Positive,
                mag,
            }
        }
    }

    /// Construct from an explicit sign and magnitude (sign is normalised if the
    /// magnitude is zero).
    pub fn from_sign_mag(sign: Sign, mag: Nat) -> Self {
        if mag.is_zero() {
            Int::zero()
        } else {
            match sign {
                Sign::Zero => Int::zero(),
                s => Int { sign: s, mag },
            }
        }
    }

    /// The sign of this integer.
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// The magnitude (absolute value) as a [`Nat`].
    pub fn magnitude(&self) -> &Nat {
        &self.mag
    }

    /// Absolute value.
    pub fn abs(&self) -> Int {
        Int::from_nat(self.mag.clone())
    }

    /// Whether this integer is zero.
    pub fn is_zero(&self) -> bool {
        self.sign == Sign::Zero
    }

    /// Whether this integer is one.
    pub fn is_one(&self) -> bool {
        self.sign == Sign::Positive && self.mag.is_one()
    }

    /// Whether this integer is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.sign == Sign::Negative
    }

    /// Whether this integer is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.sign == Sign::Positive
    }

    /// Try to convert to `i64`; returns `None` if the value does not fit.
    pub fn to_i64(&self) -> Option<i64> {
        let m = self.mag.to_u64()?;
        match self.sign {
            Sign::Zero => Some(0),
            Sign::Positive => i64::try_from(m).ok(),
            Sign::Negative => {
                if m <= i64::MAX as u64 + 1 {
                    Some((-(m as i128)) as i64)
                } else {
                    None
                }
            }
        }
    }

    /// Try to convert to a [`Nat`]; `None` if negative.
    pub fn to_nat(&self) -> Option<Nat> {
        match self.sign {
            Sign::Negative => None,
            _ => Some(self.mag.clone()),
        }
    }

    /// Addition.
    pub fn add_ref(&self, other: &Int) -> Int {
        match (self.sign, other.sign) {
            (Sign::Zero, _) => other.clone(),
            (_, Sign::Zero) => self.clone(),
            (a, b) if a == b => Int {
                sign: a,
                mag: self.mag.add_ref(&other.mag),
            },
            _ => {
                // Opposite signs: subtract magnitudes.
                match self.mag.cmp(&other.mag) {
                    Ordering::Equal => Int::zero(),
                    Ordering::Greater => Int {
                        sign: self.sign,
                        mag: self.mag.sub_ref(&other.mag),
                    },
                    Ordering::Less => Int {
                        sign: other.sign,
                        mag: other.mag.sub_ref(&self.mag),
                    },
                }
            }
        }
    }

    /// Subtraction.
    pub fn sub_ref(&self, other: &Int) -> Int {
        self.add_ref(&other.neg_ref())
    }

    /// Multiplication.
    pub fn mul_ref(&self, other: &Int) -> Int {
        if self.is_zero() || other.is_zero() {
            return Int::zero();
        }
        let sign = if self.sign == other.sign {
            Sign::Positive
        } else {
            Sign::Negative
        };
        Int {
            sign,
            mag: self.mag.mul_ref(&other.mag),
        }
    }

    /// Negation.
    pub fn neg_ref(&self) -> Int {
        match self.sign {
            Sign::Zero => Int::zero(),
            Sign::Positive => Int {
                sign: Sign::Negative,
                mag: self.mag.clone(),
            },
            Sign::Negative => Int {
                sign: Sign::Positive,
                mag: self.mag.clone(),
            },
        }
    }

    /// Truncated division with remainder: `self = q*divisor + r` with
    /// `|r| < |divisor|` and `r` having the sign of `self` (or zero).
    pub fn divrem(&self, divisor: &Int) -> (Int, Int) {
        assert!(!divisor.is_zero(), "division by zero Int");
        let (qm, rm) = self.mag.divrem(&divisor.mag);
        let qsign = if self.sign == divisor.sign {
            Sign::Positive
        } else {
            Sign::Negative
        };
        (
            Int::from_sign_mag(qsign, qm),
            Int::from_sign_mag(self.sign, rm),
        )
    }

    /// Exact division; panics if `divisor` does not divide `self`.
    pub fn div_exact(&self, divisor: &Int) -> Int {
        let (q, r) = self.divrem(divisor);
        assert!(r.is_zero(), "div_exact: remainder is not zero");
        q
    }

    /// Exponentiation by squaring. `0^0 = 1` (the paper's convention).
    pub fn pow(&self, exp: u64) -> Int {
        let mag = self.mag.pow(exp);
        let sign = match self.sign {
            Sign::Zero => {
                if exp == 0 {
                    Sign::Positive
                } else {
                    Sign::Zero
                }
            }
            Sign::Positive => Sign::Positive,
            Sign::Negative => {
                if exp.is_multiple_of(2) {
                    Sign::Positive
                } else {
                    Sign::Negative
                }
            }
        };
        Int::from_sign_mag(sign, mag)
    }

    /// Non-negative greatest common divisor.
    pub fn gcd(&self, other: &Int) -> Int {
        Int::from_nat(self.mag.gcd(&other.mag))
    }

    /// Non-negative least common multiple.
    pub fn lcm(&self, other: &Int) -> Int {
        Int::from_nat(self.mag.lcm(&other.mag))
    }

    /// Append the decimal digits, with a leading `-` when negative, to
    /// `out` (see [`Nat::write_decimal`]).
    pub fn write_decimal(&self, out: &mut String) {
        if self.sign == Sign::Negative {
            out.push('-');
        }
        self.mag.write_decimal(out);
    }

    /// Parse from a decimal string with optional leading `+` or `-`.
    pub fn from_decimal(s: &str) -> Result<Int, ParseBigIntError> {
        if s.is_empty() {
            return Err(ParseBigIntError::empty());
        }
        let (neg, rest) = match s.as_bytes()[0] {
            b'-' => (true, &s[1..]),
            b'+' => (false, &s[1..]),
            _ => (false, s),
        };
        let mag = Nat::from_decimal(rest)?;
        Ok(Int::from_sign_mag(
            if neg { Sign::Negative } else { Sign::Positive },
            mag,
        ))
    }
}

impl fmt::Display for Int {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.sign == Sign::Negative {
            write!(f, "-")?;
        }
        write!(f, "{}", self.mag)
    }
}

impl fmt::Debug for Int {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Int({self})")
    }
}

impl Ord for Int {
    fn cmp(&self, other: &Self) -> Ordering {
        use Sign::*;
        match (self.sign, other.sign) {
            (Negative, Negative) => other.mag.cmp(&self.mag),
            (Negative, _) => Ordering::Less,
            (Zero, Negative) => Ordering::Greater,
            (Zero, Zero) => Ordering::Equal,
            (Zero, Positive) => Ordering::Less,
            (Positive, Positive) => self.mag.cmp(&other.mag),
            (Positive, _) => Ordering::Greater,
        }
    }
}

impl PartialOrd for Int {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl From<i64> for Int {
    fn from(v: i64) -> Self {
        Int::from_i64(v)
    }
}

impl From<i32> for Int {
    fn from(v: i32) -> Self {
        Int::from_i64(v as i64)
    }
}

impl From<u64> for Int {
    fn from(v: u64) -> Self {
        Int::from_u64(v)
    }
}

impl From<usize> for Int {
    fn from(v: usize) -> Self {
        Int::from_u64(v as u64)
    }
}

impl From<Nat> for Int {
    fn from(v: Nat) -> Self {
        Int::from_nat(v)
    }
}

impl FromStr for Int {
    type Err = ParseBigIntError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Int::from_decimal(s)
    }
}

impl Neg for Int {
    type Output = Int;
    fn neg(self) -> Int {
        self.neg_ref()
    }
}

impl Neg for &Int {
    type Output = Int;
    fn neg(self) -> Int {
        self.neg_ref()
    }
}

macro_rules! forward_binop_int {
    ($trait:ident, $method:ident, $impl_method:ident) => {
        impl $trait for Int {
            type Output = Int;
            fn $method(self, rhs: Int) -> Int {
                self.$impl_method(&rhs)
            }
        }
        impl $trait<&Int> for Int {
            type Output = Int;
            fn $method(self, rhs: &Int) -> Int {
                self.$impl_method(rhs)
            }
        }
        impl $trait<&Int> for &Int {
            type Output = Int;
            fn $method(self, rhs: &Int) -> Int {
                self.$impl_method(rhs)
            }
        }
        impl $trait<Int> for &Int {
            type Output = Int;
            fn $method(self, rhs: Int) -> Int {
                self.$impl_method(&rhs)
            }
        }
    };
}

forward_binop_int!(Add, add, add_ref);
forward_binop_int!(Sub, sub, sub_ref);
forward_binop_int!(Mul, mul, mul_ref);

impl AddAssign<&Int> for Int {
    fn add_assign(&mut self, rhs: &Int) {
        *self = self.add_ref(rhs);
    }
}

impl SubAssign<&Int> for Int {
    fn sub_assign(&mut self, rhs: &Int) {
        *self = self.sub_ref(rhs);
    }
}

impl MulAssign<&Int> for Int {
    fn mul_assign(&mut self, rhs: &Int) {
        *self = self.mul_ref(rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i(v: i64) -> Int {
        Int::from_i64(v)
    }

    #[test]
    fn construction_and_sign() {
        assert!(Int::zero().is_zero());
        assert!(Int::one().is_one());
        assert!(Int::neg_one().is_negative());
        assert_eq!(i(0).sign(), Sign::Zero);
        assert_eq!(i(5).sign(), Sign::Positive);
        assert_eq!(i(-5).sign(), Sign::Negative);
        assert_eq!(Int::from_sign_mag(Sign::Negative, Nat::zero()), Int::zero());
        assert_eq!(Int::default(), Int::zero());
    }

    #[test]
    fn add_sub_signs() {
        assert_eq!(i(3) + i(5), i(8));
        assert_eq!(i(3) + i(-5), i(-2));
        assert_eq!(i(-3) + i(5), i(2));
        assert_eq!(i(-3) + i(-5), i(-8));
        assert_eq!(i(5) - i(5), i(0));
        assert_eq!(i(3) - i(10), i(-7));
        assert_eq!(i(-3) - i(-10), i(7));
    }

    #[test]
    fn mul_signs() {
        assert_eq!(i(3) * i(5), i(15));
        assert_eq!(i(-3) * i(5), i(-15));
        assert_eq!(i(3) * i(-5), i(-15));
        assert_eq!(i(-3) * i(-5), i(15));
        assert_eq!(i(0) * i(-5), i(0));
    }

    #[test]
    fn divrem_truncated() {
        let (q, r) = i(7).divrem(&i(2));
        assert_eq!((q, r), (i(3), i(1)));
        let (q, r) = i(-7).divrem(&i(2));
        assert_eq!((q, r), (i(-3), i(-1)));
        let (q, r) = i(7).divrem(&i(-2));
        assert_eq!((q, r), (i(-3), i(1)));
        let (q, r) = i(-7).divrem(&i(-2));
        assert_eq!((q, r), (i(3), i(-1)));
    }

    #[test]
    fn divrem_invariant() {
        for a in [-20i64, -7, -1, 0, 1, 7, 20, 1000] {
            for b in [-9i64, -3, -1, 1, 3, 9] {
                let (q, r) = i(a).divrem(&i(b));
                assert_eq!(q * i(b) + &r, i(a), "a={a} b={b}");
                assert!(r.magnitude() < i(b).magnitude());
            }
        }
    }

    #[test]
    fn div_exact_ok_and_panic() {
        assert_eq!(i(42).div_exact(&i(-7)), i(-6));
        let res = std::panic::catch_unwind(|| i(43).div_exact(&i(7)));
        assert!(res.is_err());
    }

    #[test]
    fn pow_signs() {
        assert_eq!(i(-2).pow(3), i(-8));
        assert_eq!(i(-2).pow(4), i(16));
        assert_eq!(i(0).pow(0), i(1));
        assert_eq!(i(0).pow(3), i(0));
        assert_eq!(i(10).pow(25).to_string(), "10000000000000000000000000");
    }

    #[test]
    fn gcd_lcm_nonnegative() {
        assert_eq!(i(-12).gcd(&i(18)), i(6));
        assert_eq!(i(12).gcd(&i(-18)), i(6));
        assert_eq!(i(-4).lcm(&i(-6)), i(12));
    }

    #[test]
    fn ordering() {
        assert!(i(-5) < i(-3));
        assert!(i(-3) < i(0));
        assert!(i(0) < i(2));
        assert!(i(2) < i(10));
        let big = Int::from_decimal("-123456789012345678901234567890").unwrap();
        assert!(big < i(-5));
    }

    #[test]
    fn parse_display_round_trip() {
        for s in [
            "0",
            "1",
            "-1",
            "123456789012345678901234567890",
            "-987654321",
        ] {
            let v = Int::from_decimal(s).unwrap();
            assert_eq!(v.to_string(), s);
        }
        assert_eq!(Int::from_decimal("+17").unwrap(), i(17));
        assert_eq!(Int::from_decimal("-0").unwrap(), Int::zero());
        assert!(Int::from_decimal("").is_err());
        assert!(Int::from_decimal("--1").is_err());
    }

    #[test]
    fn conversions() {
        assert_eq!(i(-42).to_i64(), Some(-42));
        assert_eq!(i(42).to_nat(), Some(Nat::from_u64(42)));
        assert_eq!(i(-42).to_nat(), None);
        assert_eq!(Int::from(7u64), i(7));
        assert_eq!(Int::from(Nat::from_u64(9)), i(9));
        assert_eq!(i(i64::MIN).to_i64(), Some(i64::MIN));
    }

    #[test]
    fn neg() {
        assert_eq!(-i(5), i(-5));
        assert_eq!(-i(-5), i(5));
        assert_eq!(-Int::zero(), Int::zero());
        assert_eq!(i(5).abs(), i(5));
        assert_eq!(i(-5).abs(), i(5));
    }
}
