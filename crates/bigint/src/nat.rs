//! Unsigned arbitrary-precision natural numbers.
//!
//! Values that fit in a machine word — the overwhelming majority of the
//! homomorphism counts and rational components the decision procedure
//! manipulates — are stored inline as a `u64` and computed with single
//! machine instructions (widening through `u128` where needed); only values
//! above `u64::MAX` spill to a heap-allocated little-endian limb vector.
//! The representation is canonical (anything that fits inline *is* inline),
//! so derived equality and hashing are exact.

use crate::ParseBigIntError;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Rem, Shl, Shr, Sub, SubAssign};
use std::str::FromStr;

const LIMB_BITS: u32 = 32;
const LIMB_BASE: u64 = 1 << LIMB_BITS;

#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// The value itself; the fast path.
    Inline(u64),
    /// Little-endian limbs; invariant: `limbs.len() >= 3` and
    /// `limbs.last() != Some(&0)` (so the value exceeds `u64::MAX`).
    Heap(Vec<u32>),
}

/// An arbitrary-precision natural number (including zero).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Nat {
    repr: Repr,
}

impl Default for Nat {
    fn default() -> Self {
        Nat::zero()
    }
}

/// Build the canonical representation from raw limbs.
fn from_limbs(mut limbs: Vec<u32>) -> Nat {
    while let Some(&0) = limbs.last() {
        limbs.pop();
    }
    match limbs.len() {
        0 => Nat::zero(),
        1 => Nat::from_u64(limbs[0] as u64),
        2 => Nat::from_u64(limbs[0] as u64 | ((limbs[1] as u64) << 32)),
        _ => Nat {
            repr: Repr::Heap(limbs),
        },
    }
}

/// View a `u64` as (at most two) limbs in a caller-provided buffer.
#[inline]
fn inline_limbs(v: u64, buf: &mut [u32; 2]) -> &[u32] {
    buf[0] = (v & 0xFFFF_FFFF) as u32;
    buf[1] = (v >> 32) as u32;
    let n = if v == 0 {
        0
    } else if v >> 32 == 0 {
        1
    } else {
        2
    };
    &buf[..n]
}

// ---- slice kernels (shared by the heap paths) ------------------------------

fn add_slices(a: &[u32], b: &[u32]) -> Vec<u32> {
    let (longer, shorter) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(longer.len() + 1);
    let mut carry = 0u64;
    for (i, &limb) in longer.iter().enumerate() {
        let x = limb as u64;
        let y = *shorter.get(i).unwrap_or(&0) as u64;
        let sum = x + y + carry;
        out.push((sum & 0xFFFF_FFFF) as u32);
        carry = sum >> 32;
    }
    if carry > 0 {
        out.push(carry as u32);
    }
    out
}

/// `a - b`; the caller guarantees `a >= b`.
fn sub_slices(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len());
    let mut borrow = 0i64;
    for (i, &limb) in a.iter().enumerate() {
        let x = limb as i64;
        let y = *b.get(i).unwrap_or(&0) as i64;
        let mut diff = x - y - borrow;
        if diff < 0 {
            diff += LIMB_BASE as i64;
            borrow = 1;
        } else {
            borrow = 0;
        }
        out.push(diff as u32);
    }
    debug_assert_eq!(borrow, 0);
    out
}

fn mul_slices(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = vec![0u32; a.len() + b.len()];
    for (i, &x) in a.iter().enumerate() {
        let mut carry = 0u64;
        let x = x as u64;
        for (j, &y) in b.iter().enumerate() {
            let idx = i + j;
            let cur = out[idx] as u64 + x * (y as u64) + carry;
            out[idx] = (cur & 0xFFFF_FFFF) as u32;
            carry = cur >> 32;
        }
        let mut idx = i + b.len();
        while carry > 0 {
            let cur = out[idx] as u64 + carry;
            out[idx] = (cur & 0xFFFF_FFFF) as u32;
            carry = cur >> 32;
            idx += 1;
        }
    }
    out
}

fn cmp_slices(a: &[u32], b: &[u32]) -> Ordering {
    match a.len().cmp(&b.len()) {
        Ordering::Equal => {
            for i in (0..a.len()).rev() {
                match a[i].cmp(&b[i]) {
                    Ordering::Equal => continue,
                    ord => return ord,
                }
            }
            Ordering::Equal
        }
        ord => ord,
    }
}

impl Nat {
    /// The natural number zero.
    pub fn zero() -> Self {
        Nat {
            repr: Repr::Inline(0),
        }
    }

    /// The natural number one.
    pub fn one() -> Self {
        Nat {
            repr: Repr::Inline(1),
        }
    }

    /// Construct from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        Nat {
            repr: Repr::Inline(v),
        }
    }

    /// Construct from a `usize`.
    pub fn from_usize(v: usize) -> Self {
        Self::from_u64(v as u64)
    }

    /// Construct from little-endian 32-bit limbs (canonicalizing: trailing
    /// zero limbs are stripped and word-sized values go inline).  The
    /// inverse of [`Nat::to_limbs`]; used by the warm-start snapshot codec.
    pub fn from_limbs(limbs: Vec<u32>) -> Self {
        from_limbs(limbs)
    }

    /// The value as little-endian 32-bit limbs (empty for zero).  The
    /// inverse of [`Nat::from_limbs`].
    pub fn to_limbs(&self) -> Vec<u32> {
        match &self.repr {
            Repr::Inline(v) => {
                let mut buf = [0u32; 2];
                inline_limbs(*v, &mut buf).to_vec()
            }
            Repr::Heap(l) => l.clone(),
        }
    }

    /// Bytes of heap storage owned by this value (zero for the inline
    /// fast path).  Feeds the byte-accurate cost accounting of the
    /// governed caches: a hom count that spilled to limbs charges its
    /// true footprint, not a flat struct size.
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Inline(_) => 0,
            Repr::Heap(l) => l.capacity() * std::mem::size_of::<u32>(),
        }
    }

    /// Construct from a `u128`.
    pub fn from_u128(v: u128) -> Self {
        if v <= u64::MAX as u128 {
            return Nat::from_u64(v as u64);
        }
        from_limbs(vec![
            v as u32,
            (v >> 32) as u32,
            (v >> 64) as u32,
            (v >> 96) as u32,
        ])
    }

    /// Whether this number is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        matches!(self.repr, Repr::Inline(0))
    }

    /// Whether this number is one.
    #[inline]
    pub fn is_one(&self) -> bool {
        matches!(self.repr, Repr::Inline(1))
    }

    /// Try to convert to `u64`; returns `None` if the value does not fit.
    #[inline]
    pub fn to_u64(&self) -> Option<u64> {
        match self.repr {
            Repr::Inline(v) => Some(v),
            Repr::Heap(_) => None,
        }
    }

    /// Try to convert to `u128`; returns `None` if the value does not fit.
    pub fn to_u128(&self) -> Option<u128> {
        match &self.repr {
            Repr::Inline(v) => Some(*v as u128),
            Repr::Heap(l) if l.len() <= 4 => {
                let mut v = 0u128;
                for (i, &limb) in l.iter().enumerate() {
                    v |= (limb as u128) << (32 * i);
                }
                Some(v)
            }
            Repr::Heap(_) => None,
        }
    }

    /// Try to convert to `usize`; returns `None` if the value does not fit.
    pub fn to_usize(&self) -> Option<usize> {
        self.to_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// Number of significant bits (0 for the value zero).
    pub fn bit_len(&self) -> usize {
        match &self.repr {
            Repr::Inline(v) => (64 - v.leading_zeros()) as usize,
            Repr::Heap(l) => {
                // The heap repr is never empty, so an empty slice degrades to
                // a zero top limb rather than a panic path in the hot loop.
                let top = l.last().copied().unwrap_or(0);
                (l.len() - 1) * LIMB_BITS as usize + (32 - top.leading_zeros() as usize)
            }
        }
    }

    /// The value of the `i`-th bit (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        match &self.repr {
            Repr::Inline(v) => i < 64 && (v >> i) & 1 == 1,
            Repr::Heap(l) => {
                let limb = i / LIMB_BITS as usize;
                let off = i % LIMB_BITS as usize;
                match l.get(limb) {
                    None => false,
                    Some(&x) => (x >> off) & 1 == 1,
                }
            }
        }
    }

    /// Whether the value is even.
    pub fn is_even(&self) -> bool {
        !self.bit(0)
    }

    /// Addition, allocating the result (inline values stay allocation-free).
    pub fn add_ref(&self, other: &Nat) -> Nat {
        if let (Repr::Inline(a), Repr::Inline(b)) = (&self.repr, &other.repr) {
            return match a.checked_add(*b) {
                Some(s) => Nat::from_u64(s),
                None => Nat::from_u128(*a as u128 + *b as u128),
            };
        }
        let (mut ba, mut bb) = ([0u32; 2], [0u32; 2]);
        from_limbs(add_slices(
            self.limb_slice(&mut ba),
            other.limb_slice(&mut bb),
        ))
    }

    /// Subtraction `self - other`; panics if `other > self`.
    pub fn sub_ref(&self, other: &Nat) -> Nat {
        assert!(
            self >= other,
            "Nat subtraction underflow: cannot subtract a larger natural number"
        );
        if let (Repr::Inline(a), Repr::Inline(b)) = (&self.repr, &other.repr) {
            return Nat::from_u64(a - b);
        }
        let (mut ba, mut bb) = ([0u32; 2], [0u32; 2]);
        from_limbs(sub_slices(
            self.limb_slice(&mut ba),
            other.limb_slice(&mut bb),
        ))
    }

    /// Checked subtraction: `None` if `other > self`.
    pub fn checked_sub(&self, other: &Nat) -> Option<Nat> {
        if self >= other {
            Some(self.sub_ref(other))
        } else {
            None
        }
    }

    /// Multiplication, allocating the result (inline×inline runs in `u128`).
    pub fn mul_ref(&self, other: &Nat) -> Nat {
        if let (Repr::Inline(a), Repr::Inline(b)) = (&self.repr, &other.repr) {
            return Nat::from_u128(*a as u128 * *b as u128);
        }
        if self.is_zero() || other.is_zero() {
            return Nat::zero();
        }
        let (mut ba, mut bb) = ([0u32; 2], [0u32; 2]);
        from_limbs(mul_slices(
            self.limb_slice(&mut ba),
            other.limb_slice(&mut bb),
        ))
    }

    /// Multiply by a single `u32`.
    pub fn mul_u32(&self, m: u32) -> Nat {
        if let Repr::Inline(v) = self.repr {
            return Nat::from_u128(v as u128 * m as u128);
        }
        if m == 0 {
            return Nat::zero();
        }
        let mut buf = [0u32; 2];
        let limbs = self.limb_slice(&mut buf);
        let mut out = Vec::with_capacity(limbs.len() + 1);
        let m = m as u64;
        let mut carry = 0u64;
        for &a in limbs {
            let cur = (a as u64) * m + carry;
            out.push((cur & 0xFFFF_FFFF) as u32);
            carry = cur >> 32;
        }
        if carry > 0 {
            out.push(carry as u32);
        }
        from_limbs(out)
    }

    /// The limbs of this value, inline values via the scratch buffer.
    #[inline]
    fn limb_slice<'a>(&'a self, buf: &'a mut [u32; 2]) -> &'a [u32] {
        match &self.repr {
            Repr::Inline(v) => inline_limbs(*v, buf),
            Repr::Heap(l) => l.as_slice(),
        }
    }

    /// Number of limbs in the canonical limb representation.
    fn limb_len(&self) -> usize {
        match &self.repr {
            Repr::Inline(0) => 0,
            Repr::Inline(v) if v >> 32 == 0 => 1,
            Repr::Inline(_) => 2,
            Repr::Heap(l) => l.len(),
        }
    }

    /// Shift left by `bits` bits.
    pub fn shl_bits(&self, bits: usize) -> Nat {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        if bits <= 64 {
            if let Repr::Inline(v) = self.repr {
                return Nat::from_u128((v as u128) << bits);
            }
        }
        let mut buf = [0u32; 2];
        let limbs = self.limb_slice(&mut buf);
        let limb_shift = bits / LIMB_BITS as usize;
        let bit_shift = (bits % LIMB_BITS as usize) as u32;
        let mut out = vec![0u32; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(limbs);
        } else {
            let mut carry = 0u32;
            for &l in limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (LIMB_BITS - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        from_limbs(out)
    }

    /// Shift right by `bits` bits (floor division by `2^bits`).
    pub fn shr_bits(&self, bits: usize) -> Nat {
        if let Repr::Inline(v) = self.repr {
            return if bits >= 64 {
                Nat::zero()
            } else {
                Nat::from_u64(v >> bits)
            };
        }
        let mut buf = [0u32; 2];
        let limbs = self.limb_slice(&mut buf);
        let limb_shift = bits / LIMB_BITS as usize;
        if limb_shift >= limbs.len() {
            return Nat::zero();
        }
        let bit_shift = (bits % LIMB_BITS as usize) as u32;
        let src = &limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let lo = src[i] >> bit_shift;
                let hi = if i + 1 < src.len() {
                    src[i + 1] << (LIMB_BITS - bit_shift)
                } else {
                    0
                };
                out.push(lo | hi);
            }
        }
        from_limbs(out)
    }

    /// Division with remainder: returns `(self / divisor, self % divisor)`.
    ///
    /// Panics if `divisor` is zero.
    pub fn divrem(&self, divisor: &Nat) -> (Nat, Nat) {
        assert!(!divisor.is_zero(), "division by zero Nat");
        if let (Repr::Inline(a), Repr::Inline(b)) = (&self.repr, &divisor.repr) {
            return (Nat::from_u64(a / b), Nat::from_u64(a % b));
        }
        if self < divisor {
            return (Nat::zero(), self.clone());
        }
        if divisor.limb_len() == 1 {
            if let Some(d) = divisor.to_u64() {
                let (q, r) = self.divrem_u32(d as u32);
                return (q, Nat::from_u64(r as u64));
            }
        }
        // Shift–subtract long division on the bit level.  Quadratic, but the
        // operands in this workspace stay in the low thousands of bits.
        let n = self.bit_len();
        let d = divisor.bit_len();
        let mut rem = Nat::zero();
        let mut quot_limbs = vec![0u32; self.limb_len()];
        let mut i = n;
        // Start remainder with the top (d-1) bits of self to skip pointless steps.
        if n >= d {
            rem = self.shr_bits(n - (d - 1));
            i = n - (d - 1);
        }
        while i > 0 {
            i -= 1;
            // rem = rem * 2 + bit_i(self)
            rem = rem.shl_bits(1);
            if self.bit(i) {
                rem = rem.add_ref(&Nat::one());
            }
            if &rem >= divisor {
                rem = rem.sub_ref(divisor);
                quot_limbs[i / 32] |= 1 << (i % 32);
            }
        }
        (from_limbs(quot_limbs), rem)
    }

    /// Division with remainder by a single `u32` divisor.
    pub fn divrem_u32(&self, divisor: u32) -> (Nat, u32) {
        assert!(divisor != 0, "division by zero");
        if let Repr::Inline(v) = self.repr {
            return (
                Nat::from_u64(v / divisor as u64),
                (v % divisor as u64) as u32,
            );
        }
        let mut buf = [0u32; 2];
        let limbs = self.limb_slice(&mut buf);
        let d = divisor as u64;
        let mut out = vec![0u32; limbs.len()];
        let mut rem = 0u64;
        for i in (0..limbs.len()).rev() {
            let cur = (rem << 32) | limbs[i] as u64;
            out[i] = (cur / d) as u32;
            rem = cur % d;
        }
        (from_limbs(out), rem as u32)
    }

    /// The remainder `self mod m` for a machine-word modulus, without
    /// allocating a quotient.  Folds the limbs most-significant-first:
    /// `acc ← (acc·2³² + limb) mod m`, which fits `u128` for any `m ≤ u64`.
    ///
    /// This is the reduction the modular rank prescreen of `cqdet-linalg`
    /// uses to map exact rationals into `ℤ/p` — it runs once per matrix
    /// entry, so it must not pay the full `divrem` long division.  Panics if
    /// `m` is zero.
    pub fn mod_u64(&self, m: u64) -> u64 {
        assert!(m != 0, "modulus must be non-zero");
        if let Repr::Inline(v) = self.repr {
            return v % m;
        }
        let mut buf = [0u32; 2];
        let limbs = self.limb_slice(&mut buf);
        let mut acc: u128 = 0;
        for &limb in limbs.iter().rev() {
            acc = ((acc << 32) | limb as u128) % m as u128;
        }
        acc as u64
    }

    /// Exponentiation by squaring. `0^0 = 1` (the paper's convention).
    pub fn pow(&self, mut exp: u64) -> Nat {
        let mut base = self.clone();
        let mut result = Nat::one();
        while exp > 0 {
            if exp & 1 == 1 {
                result = result.mul_ref(&base);
            }
            exp >>= 1;
            if exp > 0 {
                base = base.mul_ref(&base);
            }
        }
        result
    }

    /// Greatest common divisor (`gcd(0, x) = x`).
    pub fn gcd(&self, other: &Nat) -> Nat {
        if let (Repr::Inline(a), Repr::Inline(b)) = (&self.repr, &other.repr) {
            return Nat::from_u64(gcd_u64(*a, *b));
        }
        // Binary GCD on the general representation.
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        // Count common factors of two.
        let mut shift = 0usize;
        while a.is_even() && b.is_even() {
            a = a.shr_bits(1);
            b = b.shr_bits(1);
            shift += 1;
        }
        while a.is_even() {
            a = a.shr_bits(1);
        }
        loop {
            // Drop to the machine-word fast path as soon as both fit.
            if let (Some(x), Some(y)) = (a.to_u64(), b.to_u64()) {
                return Nat::from_u64(gcd_u64(x, y)).shl_bits(shift);
            }
            while b.is_even() {
                b = b.shr_bits(1);
            }
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            b = b.sub_ref(&a);
            if b.is_zero() {
                break;
            }
        }
        a.shl_bits(shift)
    }

    /// Least common multiple. `lcm(0, x) = 0`.
    pub fn lcm(&self, other: &Nat) -> Nat {
        if self.is_zero() || other.is_zero() {
            return Nat::zero();
        }
        let g = self.gcd(other);
        self.divrem(&g).0.mul_ref(other)
    }

    /// Append the decimal digits to `out`.  An inline value goes through a
    /// plain digit loop (no `fmt`, no temporary string); a heap value
    /// appends [`Nat::to_decimal`].  Certificates render every multiplicity
    /// through here, straight into the response line.
    pub fn write_decimal(&self, out: &mut String) {
        match &self.repr {
            Repr::Inline(v) => {
                let mut buf = [0u8; 20];
                let mut i = buf.len();
                let mut v = *v;
                loop {
                    i -= 1;
                    buf[i] = b'0' + (v % 10) as u8;
                    v /= 10;
                    if v == 0 {
                        break;
                    }
                }
                for &d in &buf[i..] {
                    out.push(d as char);
                }
            }
            Repr::Heap(_) => out.push_str(&self.to_decimal()),
        }
    }

    /// Render in decimal.
    pub fn to_decimal(&self) -> String {
        if let Repr::Inline(v) = self.repr {
            return v.to_string();
        }
        let mut chunks: Vec<u32> = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.divrem_u32(1_000_000_000);
            chunks.push(r);
            cur = q;
        }
        let mut s = String::new();
        for (i, chunk) in chunks.iter().enumerate().rev() {
            if i == chunks.len() - 1 {
                s.push_str(&chunk.to_string());
            } else {
                s.push_str(&format!("{chunk:09}"));
            }
        }
        s
    }

    /// Parse from a decimal string of ASCII digits.
    pub fn from_decimal(s: &str) -> Result<Nat, ParseBigIntError> {
        if s.is_empty() {
            return Err(ParseBigIntError::empty());
        }
        let mut n = Nat::zero();
        let mut any_digit = false;
        for c in s.chars() {
            if c == '_' {
                continue;
            }
            let d = c.to_digit(10).ok_or_else(|| ParseBigIntError::invalid(c))?;
            any_digit = true;
            n = n.mul_u32(10).add_ref(&Nat::from_u64(d as u64));
        }
        if !any_digit {
            return Err(ParseBigIntError::empty());
        }
        Ok(n)
    }
}

/// Euclidean GCD on machine words (`gcd(0, x) = x`).
#[inline]
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl fmt::Display for Nat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Inline values are written directly, with no intermediate string
        // (and, as before, without the caller's width or fill flags).
        match self.repr {
            Repr::Inline(v) => write!(f, "{v}"),
            Repr::Heap(_) => write!(f, "{}", self.to_decimal()),
        }
    }
}

impl fmt::Debug for Nat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Nat({})", self.to_decimal())
    }
}

impl Ord for Nat {
    fn cmp(&self, other: &Self) -> Ordering {
        match (&self.repr, &other.repr) {
            (Repr::Inline(a), Repr::Inline(b)) => a.cmp(b),
            // Canonical invariant: a heap value always exceeds u64::MAX.
            (Repr::Inline(_), Repr::Heap(_)) => Ordering::Less,
            (Repr::Heap(_), Repr::Inline(_)) => Ordering::Greater,
            (Repr::Heap(a), Repr::Heap(b)) => cmp_slices(a, b),
        }
    }
}

impl PartialOrd for Nat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl From<u32> for Nat {
    fn from(v: u32) -> Self {
        Nat::from_u64(v as u64)
    }
}

impl From<u64> for Nat {
    fn from(v: u64) -> Self {
        Nat::from_u64(v)
    }
}

impl From<usize> for Nat {
    fn from(v: usize) -> Self {
        Nat::from_usize(v)
    }
}

impl FromStr for Nat {
    type Err = ParseBigIntError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Nat::from_decimal(s)
    }
}

macro_rules! forward_binop_nat {
    ($trait:ident, $method:ident, $impl_method:ident) => {
        impl $trait for Nat {
            type Output = Nat;
            fn $method(self, rhs: Nat) -> Nat {
                self.$impl_method(&rhs)
            }
        }
        impl $trait<&Nat> for Nat {
            type Output = Nat;
            fn $method(self, rhs: &Nat) -> Nat {
                self.$impl_method(rhs)
            }
        }
        impl $trait<&Nat> for &Nat {
            type Output = Nat;
            fn $method(self, rhs: &Nat) -> Nat {
                self.$impl_method(rhs)
            }
        }
        impl $trait<Nat> for &Nat {
            type Output = Nat;
            fn $method(self, rhs: Nat) -> Nat {
                self.$impl_method(&rhs)
            }
        }
    };
}

forward_binop_nat!(Add, add, add_ref);
forward_binop_nat!(Sub, sub, sub_ref);
forward_binop_nat!(Mul, mul, mul_ref);

impl AddAssign<&Nat> for Nat {
    fn add_assign(&mut self, rhs: &Nat) {
        // In-place fast path: no allocation, no clone.
        if let (Repr::Inline(a), Repr::Inline(b)) = (&mut self.repr, &rhs.repr) {
            if let Some(s) = a.checked_add(*b) {
                *a = s;
                return;
            }
        }
        *self = self.add_ref(rhs);
    }
}

impl SubAssign<&Nat> for Nat {
    fn sub_assign(&mut self, rhs: &Nat) {
        if let (Repr::Inline(a), Repr::Inline(b)) = (&mut self.repr, &rhs.repr) {
            assert!(
                *a >= *b,
                "Nat subtraction underflow: cannot subtract a larger natural number"
            );
            *a -= *b;
            return;
        }
        *self = self.sub_ref(rhs);
    }
}

impl MulAssign<&Nat> for Nat {
    fn mul_assign(&mut self, rhs: &Nat) {
        if let (Repr::Inline(a), Repr::Inline(b)) = (&mut self.repr, &rhs.repr) {
            if let Some(p) = a.checked_mul(*b) {
                *a = p;
                return;
            }
        }
        *self = self.mul_ref(rhs);
    }
}

impl Rem<&Nat> for &Nat {
    type Output = Nat;
    fn rem(self, rhs: &Nat) -> Nat {
        self.divrem(rhs).1
    }
}

impl Shl<usize> for &Nat {
    type Output = Nat;
    fn shl(self, bits: usize) -> Nat {
        self.shl_bits(bits)
    }
}

impl Shr<usize> for &Nat {
    type Output = Nat;
    fn shr(self, bits: usize) -> Nat {
        self.shr_bits(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u64) -> Nat {
        Nat::from_u64(v)
    }

    #[test]
    fn zero_and_one() {
        assert!(Nat::zero().is_zero());
        assert!(Nat::one().is_one());
        assert!(!Nat::one().is_zero());
        assert_eq!(Nat::zero().to_u64(), Some(0));
        assert_eq!(Nat::one().to_u64(), Some(1));
        assert_eq!(Nat::default(), Nat::zero());
    }

    #[test]
    fn add_small() {
        assert_eq!(n(2) + n(3), n(5));
        assert_eq!(n(0) + n(7), n(7));
        assert_eq!(n(u32::MAX as u64) + n(1), n(1 << 32));
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = n(u64::MAX);
        let b = n(1);
        let sum = a + b;
        assert_eq!(sum.to_decimal(), "18446744073709551616");
        assert_eq!(sum.bit_len(), 65);
    }

    #[test]
    fn sub_small() {
        assert_eq!(n(10) - n(3), n(7));
        assert_eq!(n(10) - n(10), Nat::zero());
        assert_eq!(n(1 << 32) - n(1), n(u32::MAX as u64));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = n(3) - n(5);
    }

    #[test]
    fn checked_sub_none_on_underflow() {
        assert_eq!(n(3).checked_sub(&n(5)), None);
        assert_eq!(n(5).checked_sub(&n(3)), Some(n(2)));
    }

    #[test]
    fn mul_small() {
        assert_eq!(n(6) * n(7), n(42));
        assert_eq!(n(0) * n(7), Nat::zero());
        assert_eq!(
            n(u32::MAX as u64) * n(u32::MAX as u64),
            n(18446744065119617025)
        );
    }

    #[test]
    fn mul_large() {
        // (2^64)^2 = 2^128
        let a = n(u64::MAX) + n(1);
        let sq = a.mul_ref(&a);
        assert_eq!(sq.to_decimal(), "340282366920938463463374607431768211456");
        assert_eq!(sq.bit_len(), 129);
    }

    #[test]
    fn divrem_basic() {
        let (q, r) = n(100).divrem(&n(7));
        assert_eq!(q, n(14));
        assert_eq!(r, n(2));
        let (q, r) = n(5).divrem(&n(10));
        assert_eq!(q, Nat::zero());
        assert_eq!(r, n(5));
    }

    #[test]
    fn divrem_multi_limb() {
        let a = Nat::from_decimal("340282366920938463463374607431768211457").unwrap();
        let b = Nat::from_decimal("18446744073709551616").unwrap();
        let (q, r) = a.divrem(&b);
        assert_eq!(q, b);
        assert_eq!(r, Nat::one());
        // Recompose.
        assert_eq!(q.mul_ref(&b).add_ref(&r), a);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = n(1).divrem(&Nat::zero());
    }

    #[test]
    fn pow_and_zero_conventions() {
        assert_eq!(n(2).pow(10), n(1024));
        assert_eq!(n(0).pow(0), Nat::one(), "the paper's 0^0 = 1 convention");
        assert_eq!(n(0).pow(5), Nat::zero());
        assert_eq!(n(7).pow(0), Nat::one());
        assert_eq!(n(10).pow(20).to_decimal(), "100000000000000000000");
    }

    #[test]
    fn gcd_lcm() {
        assert_eq!(n(12).gcd(&n(18)), n(6));
        assert_eq!(n(0).gcd(&n(5)), n(5));
        assert_eq!(n(5).gcd(&n(0)), n(5));
        assert_eq!(n(17).gcd(&n(13)), n(1));
        assert_eq!(n(12).lcm(&n(18)), n(36));
        assert_eq!(n(0).lcm(&n(5)), Nat::zero());
        let a = n(2).pow(40) * n(3).pow(5);
        let b = n(2).pow(20) * n(5).pow(3);
        assert_eq!(a.gcd(&b), n(2).pow(20));
    }

    #[test]
    fn gcd_across_the_inline_boundary() {
        // 2^80·3 and 2^20·9 — one operand heap, one inline.
        let a = n(3).shl_bits(80);
        let b = n(9).shl_bits(20);
        assert_eq!(a.gcd(&b), n(3).shl_bits(20));
        // Both heap.
        let c = n(6).shl_bits(100);
        let d = n(4).shl_bits(90);
        assert_eq!(c.gcd(&d), n(2).shl_bits(91));
    }

    #[test]
    fn shifts() {
        assert_eq!(n(1).shl_bits(40), n(1 << 40));
        assert_eq!(n(1 << 40).shr_bits(40), n(1));
        assert_eq!(n(0b1011).shr_bits(2), n(0b10));
        assert_eq!(Nat::zero().shl_bits(100), Nat::zero());
        assert_eq!(n(5).shr_bits(100), Nat::zero());
        // Shifts across the inline/heap boundary round-trip.
        let big = n(0xDEAD_BEEF_u64).shl_bits(77);
        assert_eq!(big.shr_bits(77), n(0xDEAD_BEEF_u64));
        assert!(big.to_u64().is_none());
    }

    #[test]
    fn decimal_round_trip() {
        for s in [
            "0",
            "1",
            "999999999",
            "1000000000",
            "123456789012345678901234567890",
            "340282366920938463463374607431768211456",
        ] {
            let v = Nat::from_decimal(s).unwrap();
            assert_eq!(v.to_decimal(), s);
        }
    }

    #[test]
    fn decimal_parse_errors() {
        assert!(Nat::from_decimal("").is_err());
        assert!(Nat::from_decimal("12a").is_err());
        assert!("x".parse::<Nat>().is_err());
        assert_eq!("1_000".parse::<Nat>().unwrap(), n(1000));
        assert!(
            Nat::from_decimal("_").is_err(),
            "separators alone are not a number"
        );
    }

    #[test]
    fn ordering() {
        assert!(n(3) < n(5));
        assert!(n(1 << 40) > n(u32::MAX as u64));
        let a = Nat::from_decimal("123456789012345678901234567890").unwrap();
        let b = Nat::from_decimal("123456789012345678901234567891").unwrap();
        assert!(a < b);
        assert_eq!(a.cmp(&a), Ordering::Equal);
        // Inline vs heap ordering via the canonical invariant.
        assert!(n(u64::MAX) < a);
        assert!(a > n(u64::MAX));
    }

    #[test]
    fn bits() {
        assert_eq!(Nat::zero().bit_len(), 0);
        assert_eq!(n(1).bit_len(), 1);
        assert_eq!(n(255).bit_len(), 8);
        assert_eq!(n(256).bit_len(), 9);
        assert!(n(4).is_even());
        assert!(!n(5).is_even());
        assert!(n(5).bit(0) && !n(5).bit(1) && n(5).bit(2));
    }

    #[test]
    fn mul_u32_and_divrem_u32() {
        let a = Nat::from_decimal("123456789012345678901234567890").unwrap();
        let b = a.mul_u32(1000);
        assert_eq!(b.to_decimal(), "123456789012345678901234567890000");
        let (q, r) = b.divrem_u32(1000);
        assert_eq!(q, a);
        assert_eq!(r, 0);
    }

    #[test]
    fn canonical_representation_at_the_boundary() {
        // u64::MAX is inline; u64::MAX + 1 is heap; subtracting brings it back
        // to an inline value that must compare/hash equal to a fresh inline.
        let max = n(u64::MAX);
        assert_eq!(max.to_u64(), Some(u64::MAX));
        let over = max.add_ref(&Nat::one());
        assert_eq!(over.to_u64(), None);
        let back = over.sub_ref(&Nat::one());
        assert_eq!(back, max);
        assert_eq!(back.to_u64(), Some(u64::MAX));
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |x: &Nat| {
            let mut s = DefaultHasher::new();
            x.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&back), h(&max));
    }

    #[test]
    fn assign_ops_match_ref_ops() {
        let mut a = n(10);
        a += &n(5);
        assert_eq!(a, n(15));
        a -= &n(6);
        assert_eq!(a, n(9));
        a *= &n(3);
        assert_eq!(a, n(27));
        // Across the overflow boundary.
        let mut b = n(u64::MAX);
        b += &n(u64::MAX);
        assert_eq!(b, n(u64::MAX).add_ref(&n(u64::MAX)));
        let mut c = n(u64::MAX);
        c *= &n(u64::MAX);
        assert_eq!(c, n(u64::MAX).mul_ref(&n(u64::MAX)));
        let mut d = c.clone();
        d -= &n(1);
        assert_eq!(d, c.sub_ref(&n(1)));
    }

    #[test]
    fn u128_round_trip() {
        for v in [0u128, 1, u64::MAX as u128, u64::MAX as u128 + 1, u128::MAX] {
            assert_eq!(Nat::from_u128(v).to_u128(), Some(v));
        }
        let too_big = Nat::from_u128(u128::MAX).mul_ref(&Nat::from_u64(2));
        assert_eq!(too_big.to_u128(), None);
    }
}
