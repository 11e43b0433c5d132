//! Exact, order-independent summation of `f64` values.
//!
//! [`ExactSum`] is a Kulisch-style fixed-point superaccumulator: a 2176-bit
//! two's-complement integer whose least-significant bit has weight 2^-1074 (the
//! smallest subnormal). Every finite `f64` is an integer multiple of that unit
//! with magnitude below 2^1024, so each summand lands in the accumulator
//! *exactly* — addition is plain integer addition, which is associative and
//! commutative. The final [`ExactSum::to_f64`] rounds the true sum once
//! (half-to-even), so the result is independent of summation order, partitioning
//! and thread count: the engine merging per-worker partials in any order
//! produces the bit-identical value one worker produces row by row. Non-finite inputs are tracked as flags (also
//! order-independent): any NaN — or both +inf and -inf — makes the sum NaN,
//! otherwise a single-signed infinity wins.
//!
//! Capacity: bit 2098 is the top bit of the largest finite `f64`, leaving ~77
//! headroom bits before the sign bit — the accumulator would need on the order
//! of 2^77 maximal summands to overflow, which no workload reaches.
//!
//! One deliberate semantic difference from running `f64` addition: a sequence
//! whose *intermediate* running total overflows (`1e308 + 1e308 - 1e308`)
//! saturated to `inf` under the old scheme but now yields the finite, exact
//! result. That is a strict accuracy improvement and is what makes the value
//! order-independent in the first place.

/// Number of 64-bit limbs: 34 × 64 = 2176 bits.
const LIMBS: usize = 34;

/// An exact `f64` accumulator (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactSum {
    /// Little-endian two's-complement fixed-point value; bit 0 weighs 2^-1074.
    limbs: [u64; LIMBS],
    /// A NaN was added.
    has_nan: bool,
    /// A +inf was added.
    has_pos_inf: bool,
    /// A -inf was added.
    has_neg_inf: bool,
}

impl Default for ExactSum {
    fn default() -> Self {
        Self::new()
    }
}

impl ExactSum {
    /// The zero sum.
    pub fn new() -> Self {
        ExactSum {
            limbs: [0; LIMBS],
            has_nan: false,
            has_pos_inf: false,
            has_neg_inf: false,
        }
    }

    /// Add one `f64` summand, exactly.
    pub fn add(&mut self, v: f64) {
        let bits = v.to_bits();
        let negative = bits >> 63 == 1;
        let bexp = ((bits >> 52) & 0x7ff) as u32;
        let frac = bits & ((1u64 << 52) - 1);
        if bexp == 0x7ff {
            if frac != 0 {
                self.has_nan = true;
            } else if negative {
                self.has_neg_inf = true;
            } else {
                self.has_pos_inf = true;
            }
            return;
        }
        // value = mant * 2^(pos - 1074): normals carry the implicit leading bit,
        // subnormals share the minimum exponent (pos = 0).
        let mant = if bexp == 0 { frac } else { frac | (1u64 << 52) };
        if mant == 0 {
            return; // ±0.0
        }
        let pos = (bexp.max(1) - 1) as usize;
        let (limb, off) = (pos / 64, pos % 64);
        let wide = (mant as u128) << off; // ≤ 53 + 63 bits, fits u128
        let lo = wide as u64;
        let hi = (wide >> 64) as u64;
        if negative {
            let mut borrow;
            (self.limbs[limb], borrow) = self.limbs[limb].overflowing_sub(lo);
            let (v2, b2) = self.limbs[limb + 1].overflowing_sub(hi);
            let (v3, b3) = v2.overflowing_sub(borrow as u64);
            self.limbs[limb + 1] = v3;
            borrow = b2 || b3;
            let mut i = limb + 2;
            while borrow && i < LIMBS {
                (self.limbs[i], borrow) = self.limbs[i].overflowing_sub(1);
                i += 1;
            }
        } else {
            let mut carry;
            (self.limbs[limb], carry) = self.limbs[limb].overflowing_add(lo);
            let (v2, c2) = self.limbs[limb + 1].overflowing_add(hi);
            let (v3, c3) = v2.overflowing_add(carry as u64);
            self.limbs[limb + 1] = v3;
            carry = c2 || c3;
            let mut i = limb + 2;
            while carry && i < LIMBS {
                (self.limbs[i], carry) = self.limbs[i].overflowing_add(1);
                i += 1;
            }
        }
    }

    /// Merge another partial sum into this one (exact; order-independent).
    pub fn merge(&mut self, other: &ExactSum) {
        let mut carry = false;
        for i in 0..LIMBS {
            let (v1, c1) = self.limbs[i].overflowing_add(other.limbs[i]);
            let (v2, c2) = v1.overflowing_add(carry as u64);
            self.limbs[i] = v2;
            carry = c1 || c2;
        }
        self.has_nan |= other.has_nan;
        self.has_pos_inf |= other.has_pos_inf;
        self.has_neg_inf |= other.has_neg_inf;
    }

    /// The sum, rounded once to the nearest `f64` (ties to even). Overflow past
    /// the largest finite `f64` rounds to ±inf, the exact zero is +0.0.
    pub fn to_f64(&self) -> f64 {
        if self.has_nan || (self.has_pos_inf && self.has_neg_inf) {
            return f64::NAN;
        }
        if self.has_pos_inf {
            return f64::INFINITY;
        }
        if self.has_neg_inf {
            return f64::NEG_INFINITY;
        }
        let negative = self.limbs[LIMBS - 1] >> 63 == 1;
        let mut mag = self.limbs;
        if negative {
            // Two's-complement negate to get the magnitude.
            let mut carry = true;
            for limb in mag.iter_mut() {
                let (v, c) = (!*limb).overflowing_add(carry as u64);
                *limb = v;
                carry = c;
            }
        }
        let msb = match (0..LIMBS)
            .rev()
            .find(|&i| mag[i] != 0)
            .map(|i| i * 64 + 63 - mag[i].leading_zeros() as usize)
        {
            Some(msb) => msb,
            None => return 0.0,
        };
        let magnitude = if msb <= 52 {
            // Below 2^53 units the bit pattern *is* the (sub)normal encoding:
            // value = mag[0] * 2^-1074 for every mag[0] < 2^53.
            f64::from_bits(mag[0])
        } else {
            // Take the top 53 bits, round half-to-even on the guard/sticky bits.
            let mut m53 = bits_from(&mag, msb - 52, 53);
            let guard = bit_at(&mag, msb - 53);
            let sticky = (0..msb - 53).any(|i| bit_at(&mag, i));
            let mut exp = msb;
            if guard && (sticky || m53 & 1 == 1) {
                m53 += 1;
                if m53 == 1 << 53 {
                    m53 >>= 1;
                    exp += 1;
                }
            }
            // value = 1.f × 2^(exp - 1074); biased exponent = exp - 1074 + 1023.
            let bexp = exp as u64 - 51;
            if bexp >= 0x7ff {
                f64::INFINITY
            } else {
                f64::from_bits((bexp << 52) | (m53 & ((1u64 << 52) - 1)))
            }
        };
        if negative {
            -magnitude
        } else {
            magnitude
        }
    }

    /// Whether any non-finite value was added.
    pub fn non_finite(&self) -> bool {
        self.has_nan || self.has_pos_inf || self.has_neg_inf
    }

    /// Encode as (flags, limbs) for spill records: limbs bit-cast to `i64`.
    pub fn encode(&self) -> (i64, [i64; LIMBS]) {
        let flags = self.has_nan as i64 | (self.has_pos_inf as i64) << 1 | (self.has_neg_inf as i64) << 2;
        let mut limbs = [0i64; LIMBS];
        for (out, limb) in limbs.iter_mut().zip(self.limbs.iter()) {
            *out = *limb as i64;
        }
        (flags, limbs)
    }

    /// Rebuild from [`ExactSum::encode`] output.
    pub fn decode(flags: i64, limbs: impl Iterator<Item = i64>) -> Option<Self> {
        let mut sum = ExactSum::new();
        sum.has_nan = flags & 1 != 0;
        sum.has_pos_inf = flags & 2 != 0;
        sum.has_neg_inf = flags & 4 != 0;
        let mut n = 0;
        for (slot, limb) in sum.limbs.iter_mut().zip(limbs) {
            *slot = limb as u64;
            n += 1;
        }
        (n == LIMBS).then_some(sum)
    }

    /// Number of limbs [`ExactSum::encode`] produces (spill-record sizing).
    pub const ENCODED_LIMBS: usize = LIMBS;
}

/// Bit `i` of the little-endian limb array.
fn bit_at(limbs: &[u64; LIMBS], i: usize) -> bool {
    limbs[i / 64] >> (i % 64) & 1 == 1
}

/// `count` bits starting at bit `lo` (little-endian), as a u64. `count` < 64.
fn bits_from(limbs: &[u64; LIMBS], lo: usize, count: usize) -> u64 {
    let (limb, off) = (lo / 64, lo % 64);
    let mut v = limbs[limb] >> off;
    if off != 0 && limb + 1 < LIMBS {
        v |= limbs[limb + 1] << (64 - off);
    }
    v & ((1u64 << count) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_of(values: &[f64]) -> f64 {
        let mut acc = ExactSum::new();
        for &v in values {
            acc.add(v);
        }
        acc.to_f64()
    }

    #[test]
    fn exact_on_simple_sequences() {
        assert_eq!(sum_of(&[]), 0.0);
        assert_eq!(sum_of(&[1.5]), 1.5);
        assert_eq!(sum_of(&[0.1, 0.2]), 0.1f64 + 0.2f64);
        assert_eq!(sum_of(&[1.0, 2.0, 3.0]), 6.0);
        assert_eq!(sum_of(&[-1.0, 1.0]), 0.0);
        assert!(sum_of(&[-1.0, 1.0]).is_sign_positive(), "exact zero is +0.0");
        assert_eq!(sum_of(&[1e308, 1e308, -1e308]), 1e308);
        assert_eq!(sum_of(&[5e-324, 5e-324]), 1e-323);
        assert_eq!(sum_of(&[f64::MAX, f64::MIN_POSITIVE, -f64::MIN_POSITIVE]), f64::MAX);
    }

    #[test]
    fn catastrophic_cancellation_is_exact() {
        // 1e16 + 1 - 1e16 loses the 1 under running f64 addition when the order
        // is unlucky; the superaccumulator never does.
        assert_eq!(sum_of(&[1e16, 1.0, -1e16]), 1.0);
        assert_eq!(sum_of(&[1.0, 1e16, -1e16]), 1.0);
        assert_eq!(sum_of(&[1e300, 5e-324, -1e300]), 5e-324);
    }

    #[test]
    fn order_and_partitioning_independent() {
        let values = [
            0.1, -0.3, 1e15, 3.7e-12, -2.5e8, 1e-300, 9.9e200, -9.9e200, 42.0, -0.0, 7.25e-30,
        ];
        let forward = sum_of(&values);
        let mut reversed = values;
        reversed.reverse();
        assert_eq!(forward.to_bits(), sum_of(&reversed).to_bits());
        // Every split point, merged in both orders.
        for split in 0..values.len() {
            let (a, b) = values.split_at(split);
            let mut left = ExactSum::new();
            a.iter().for_each(|&v| left.add(v));
            let mut right = ExactSum::new();
            b.iter().for_each(|&v| right.add(v));
            let mut ab = left.clone();
            ab.merge(&right);
            let mut ba = right.clone();
            ba.merge(&left);
            assert_eq!(ab, ba);
            assert_eq!(ab.to_f64().to_bits(), forward.to_bits());
        }
    }

    #[test]
    fn rounding_is_half_to_even() {
        // 2^53 + 1 is not representable; the exact sum must round to even (2^53).
        let two53 = 9007199254740992.0f64;
        assert_eq!(sum_of(&[two53, 1.0]), two53);
        // 2^53 + 2 is representable.
        assert_eq!(sum_of(&[two53, 2.0]), two53 + 2.0);
        // 2^53 + 3 rounds up to 2^53 + 4 (ties to even on the guard+sticky).
        assert_eq!(sum_of(&[two53, 1.0, 1.0, 1.0]), two53 + 4.0);
    }

    #[test]
    fn overflow_rounds_to_infinity_flags_win() {
        assert_eq!(sum_of(&[f64::MAX, f64::MAX]), f64::INFINITY);
        assert_eq!(sum_of(&[-f64::MAX, -f64::MAX]), f64::NEG_INFINITY);
        // A saturating intermediate no longer poisons the result…
        assert_eq!(sum_of(&[f64::MAX, f64::MAX, -f64::MAX]), f64::MAX);
        // …but real infinities do, order-independently.
        assert_eq!(sum_of(&[f64::INFINITY, 1.0]), f64::INFINITY);
        assert_eq!(sum_of(&[1.0, f64::NEG_INFINITY]), f64::NEG_INFINITY);
        assert!(sum_of(&[f64::INFINITY, f64::NEG_INFINITY]).is_nan());
        assert!(sum_of(&[f64::NAN, 1.0]).is_nan());
        let mut with_inf = ExactSum::new();
        with_inf.add(f64::INFINITY);
        assert!(with_inf.non_finite());
    }

    #[test]
    fn matches_running_sum_on_integers() {
        // Integer-valued doubles below 2^53 sum associatively either way; the
        // accumulator must agree bit-for-bit with the running total.
        let values: Vec<f64> = (0..10_000).map(|i| (i * 7 % 1000) as f64).collect();
        let running: f64 = values.iter().sum();
        assert_eq!(sum_of(&values).to_bits(), running.to_bits());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut acc = ExactSum::new();
        for v in [0.1, -7.5e300, 5e-324, f64::INFINITY] {
            acc.add(v);
        }
        let (flags, limbs) = acc.encode();
        let back = ExactSum::decode(flags, limbs.iter().copied()).expect("decodes");
        assert_eq!(back, acc);
        assert!(ExactSum::decode(0, [0i64; 3].iter().copied()).is_none(), "truncated");
    }

    #[test]
    fn subnormal_accumulation_promotes_to_normal() {
        let mut acc = ExactSum::new();
        for _ in 0..1_000_000 {
            acc.add(5e-324);
        }
        // The sum is exactly 1_000_000 units of 2^-1074, i.e. the f64 whose raw
        // bit pattern is 1_000_000 (still subnormal, no rounding involved).
        assert_eq!(acc.to_f64().to_bits(), 1_000_000);
    }
}
