//! Scalar unit newtypes used throughout the simulator.
//!
//! Power, energy and time quantities are kept in dedicated newtypes so that
//! a watt value can never be accidentally added to a joule value. Arithmetic
//! is implemented only where it is physically meaningful
//! (`Watts * Seconds = Joules`, `Joules / Seconds = Watts`, ...).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Electrical power in watts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Watts(pub f64);

/// Energy in joules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Joules(pub f64);

/// Wall-clock (simulated) time in seconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Seconds(pub f64);

/// Core supply voltage in volts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Volts(pub f64);

macro_rules! impl_unit {
    ($ty:ident, $sym:expr) => {
        impl $ty {
            /// Raw scalar value.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Zero of this unit.
            pub const ZERO: $ty = $ty(0.0);

            /// Clamp to the inclusive range `[lo, hi]`.
            #[inline]
            pub fn clamp(self, lo: $ty, hi: $ty) -> $ty {
                $ty(self.0.clamp(lo.0, hi.0))
            }

            /// Component-wise maximum.
            #[inline]
            pub fn max(self, other: $ty) -> $ty {
                $ty(self.0.max(other.0))
            }

            /// Component-wise minimum.
            #[inline]
            pub fn min(self, other: $ty) -> $ty {
                $ty(self.0.min(other.0))
            }

            /// Absolute value.
            #[inline]
            pub fn abs(self) -> $ty {
                $ty(self.0.abs())
            }

            /// True when the value is finite and non-negative.
            #[inline]
            pub fn is_valid(self) -> bool {
                self.0.is_finite() && self.0 >= 0.0
            }
        }

        impl Add for $ty {
            type Output = $ty;
            #[inline]
            fn add(self, rhs: $ty) -> $ty {
                $ty(self.0 + rhs.0)
            }
        }

        impl Sub for $ty {
            type Output = $ty;
            #[inline]
            fn sub(self, rhs: $ty) -> $ty {
                $ty(self.0 - rhs.0)
            }
        }

        impl AddAssign for $ty {
            #[inline]
            fn add_assign(&mut self, rhs: $ty) {
                self.0 += rhs.0;
            }
        }

        impl SubAssign for $ty {
            #[inline]
            fn sub_assign(&mut self, rhs: $ty) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $ty {
            type Output = $ty;
            #[inline]
            fn neg(self) -> $ty {
                $ty(-self.0)
            }
        }

        impl Mul<f64> for $ty {
            type Output = $ty;
            #[inline]
            fn mul(self, rhs: f64) -> $ty {
                $ty(self.0 * rhs)
            }
        }

        impl Div<f64> for $ty {
            type Output = $ty;
            #[inline]
            fn div(self, rhs: f64) -> $ty {
                $ty(self.0 / rhs)
            }
        }

        impl Div for $ty {
            type Output = f64;
            #[inline]
            fn div(self, rhs: $ty) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $ty {
            fn sum<I: Iterator<Item = $ty>>(iter: I) -> $ty {
                $ty(iter.map(|v| v.0).sum())
            }
        }

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $sym)
                } else {
                    write!(f, "{:.3} {}", self.0, $sym)
                }
            }
        }
    };
}

impl_unit!(Watts, "W");
impl_unit!(Joules, "J");
impl_unit!(Seconds, "s");
impl_unit!(Volts, "V");

impl Mul<Seconds> for Watts {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Seconds) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

impl Mul<Watts> for Seconds {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Watts) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

impl Div<Seconds> for Joules {
    type Output = Watts;
    #[inline]
    fn div(self, rhs: Seconds) -> Watts {
        Watts(self.0 / rhs.0)
    }
}

impl Seconds {
    /// Construct from milliseconds.
    #[inline]
    pub fn from_millis(ms: f64) -> Seconds {
        Seconds(ms / 1e3)
    }

    /// Construct from microseconds.
    #[inline]
    pub fn from_micros(us: f64) -> Seconds {
        Seconds(us / 1e6)
    }
}

/// Significand field of an `f64`.
const FRAC_MASK: u64 = (1 << 52) - 1;
/// Bits of `+inf`; every pattern at or above it is `+inf`, a NaN or
/// carries the sign bit.
const INF_BITS: u64 = 0x7ff0_0000_0000_0000;

/// The value `x` holds after `k` ticks of `for a in tick { x += a }`,
/// bit-identical to running that loop, in O(binades crossed) steps
/// instead of `k·N` dependent adds.
///
/// Inside one binade every double is a whole number `m` of ulps `u`, so
/// an add that stays inside it lands exactly on `(m + q)·u` with
/// `q = round(a/u)` — unless `a/u` is an exact odd multiple of ½, where
/// ties-to-even makes the step depend on the parity of `m`. `q` is read
/// exactly from the bit patterns, and the ticks that keep `m` inside the
/// binade collapse into one integer add on the bit pattern. A tie, or
/// the tick that leaves the binade, takes single adds; a tick whose
/// addends all round to `q = 0` (a `+0` addend among them) leaves `x`
/// fixed, so the rest of the ticks return at once. Negative, `-0.0` or
/// non-finite operands take the plain loop. `k = 1` is a plain inlined
/// add.
#[inline]
pub fn repeat_add<const N: usize>(x: f64, tick: [f64; N], k: usize) -> f64 {
    if k == 1 {
        tick.iter().fold(x, |x, &a| x + a)
    } else {
        fast_forward(x, tick, k).0
    }
}

/// [`repeat_add`] past its `k = 1` case; also returns how many steps
/// (integer collapses and single ticks) it took.
fn fast_forward<const N: usize>(mut x: f64, tick: [f64; N], mut k: usize) -> (f64, usize) {
    let step = |x: f64| tick.iter().fold(x, |x, &a| x + a);
    if x.to_bits() >= INF_BITS || tick.iter().any(|a| a.to_bits() >= INF_BITS) {
        for _ in 0..k {
            x = step(x);
        }
        return (x, k);
    }
    let mut steps = 0;
    while k > 0 {
        let bits = x.to_bits();
        if bits == INF_BITS {
            // `+inf` plus finite addends stays `+inf`.
            break;
        }
        // Biased exponent of the binade; subnormals share the ulp of
        // the lowest normal binade, so they fold into it.
        let e = (bits >> 52).max(1);
        let q = tick
            .iter()
            .try_fold(0, |q, a| Some(q + ulps(a.to_bits(), e)?));
        if q == Some(0) {
            break;
        }
        steps += 1;
        if let Some(q) = q {
            let room = ((e << 52) | FRAC_MASK) - bits;
            // Most batches fit whole; only a crossing pays the division.
            let j = if q.saturating_mul(k as u64) <= room {
                k as u64
            } else {
                room / q
            };
            if j > 0 {
                x = f64::from_bits(bits + j * q);
                k -= j as usize;
                continue;
            }
        }
        x = step(x);
        k -= 1;
    }
    (x, steps)
}

/// `a / u` rounded to the nearest integer, for the bits `a` of a
/// non-negative finite addend and the ulp `u = 2^(e − 1075)` of binade
/// `e ≥ 1`, or `None` when `a / u` is an exact odd multiple of ½. A
/// quotient of a binade or more comes back as `2⁵³`, which no binade
/// has room for.
#[inline]
fn ulps(a: u64, e: u64) -> Option<u64> {
    let biased = a >> 52;
    let m = (a & FRAC_MASK) | if biased > 0 { 1 << 52 } else { 0 };
    let ea = biased.max(1);
    if ea >= e {
        return Some(if ea == e { m } else { 1 << 53 });
    }
    let s = e - ea;
    if s > 53 {
        // a < 2⁵³·2^(ea − 1075) ≤ u/2.
        return Some(0);
    }
    let (q, rem, half) = (m >> s, m & ((1 << s) - 1), 1 << (s - 1));
    match rem.cmp(&half) {
        std::cmp::Ordering::Less => Some(q),
        std::cmp::Ordering::Greater => Some(q + 1),
        std::cmp::Ordering::Equal => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn power_times_time_is_energy() {
        let e = Watts(10.0) * Seconds(2.5);
        assert_eq!(e, Joules(25.0));
        let e2 = Seconds(2.5) * Watts(10.0);
        assert_eq!(e2, e);
    }

    #[test]
    fn energy_over_time_is_power() {
        let p = Joules(30.0) / Seconds(3.0);
        assert_eq!(p, Watts(10.0));
    }

    #[test]
    fn unit_arithmetic() {
        let a = Watts(3.0) + Watts(4.0) - Watts(2.0);
        assert_eq!(a, Watts(5.0));
        let mut b = Watts(1.0);
        b += Watts(2.0);
        b -= Watts(0.5);
        assert!((b.value() - 2.5).abs() < 1e-12);
        assert_eq!(Watts(8.0) / Watts(2.0), 4.0);
        assert_eq!(Watts(2.0) * 3.0, Watts(6.0));
        assert_eq!(Watts(6.0) / 3.0, Watts(2.0));
        assert_eq!(-Watts(1.5), Watts(-1.5));
    }

    #[test]
    fn clamp_min_max() {
        assert_eq!(Watts(5.0).clamp(Watts(0.0), Watts(4.0)), Watts(4.0));
        assert_eq!(Watts(-1.0).clamp(Watts(0.0), Watts(4.0)), Watts(0.0));
        assert_eq!(Watts(2.0).max(Watts(3.0)), Watts(3.0));
        assert_eq!(Watts(2.0).min(Watts(3.0)), Watts(2.0));
        assert_eq!(Watts(-2.0).abs(), Watts(2.0));
    }

    #[test]
    fn validity() {
        assert!(Watts(1.0).is_valid());
        assert!(!Watts(-1.0).is_valid());
        assert!(!Watts(f64::NAN).is_valid());
        assert!(!Watts(f64::INFINITY).is_valid());
    }

    #[test]
    fn sum_and_display() {
        let total: Watts = [Watts(1.0), Watts(2.0), Watts(3.0)].into_iter().sum();
        assert_eq!(total, Watts(6.0));
        assert_eq!(format!("{:.1}", Watts(1.25)), "1.2 W");
        assert_eq!(format!("{}", Seconds(2.0)), "2.000 s");
    }

    #[test]
    fn seconds_constructors() {
        assert!((Seconds::from_millis(1500.0).value() - 1.5).abs() < 1e-12);
        assert!((Seconds::from_micros(250.0).value() - 0.00025).abs() < 1e-12);
    }

    fn plain<const N: usize>(mut x: f64, tick: [f64; N], k: usize) -> f64 {
        for _ in 0..k {
            for a in tick {
                x += a;
            }
        }
        x
    }

    /// An accumulator start: `+0`, `-0.0`, a subnormal, `2^e − ulp`, a
    /// negative value, or a random double in binade `e`.
    fn start((class, frac, e): (u8, u64, i32)) -> f64 {
        let binade = 2f64.powi(e);
        match class {
            0 => 0.0,
            1 => -0.0,
            2 => f64::from_bits(frac.max(1)),
            3 => f64::from_bits(binade.to_bits() - 1),
            4 => -f64::from_bits(binade.to_bits() | frac),
            _ => f64::from_bits(binade.to_bits() | frac),
        }
    }

    /// An addend scaled to `x`'s ulp `u`: `+0`, an exact tie
    /// `(q + ½)·u`, `x` itself or more, a subnormal, `-0.0`, or a random
    /// double 0–40 binades below `x`.
    fn addend(x: f64, (class, frac, shift): (u8, u64, i32)) -> f64 {
        let u = if x.abs() < f64::MIN_POSITIVE {
            f64::from_bits(1)
        } else {
            f64::from_bits(x.abs().to_bits() & !FRAC_MASK) * f64::EPSILON
        };
        match class {
            0 => 0.0,
            1 => (frac % 64) as f64 * u + u / 2.0,
            2 => x.abs() * (1.0 + (frac % 8) as f64),
            3 => f64::from_bits(frac.max(1)),
            4 => -0.0,
            _ => f64::from_bits(x.abs().max(1.0).to_bits() | frac) * 2f64.powi(-shift),
        }
    }

    /// Ticks: 0, 1, 2, a few hundred, or anything up to 100 000.
    fn ticks((class, k): (u8, usize)) -> usize {
        match class {
            0 => 0,
            1 => 1,
            2 => 2,
            3 => k % 500,
            _ => k,
        }
    }

    /// A class, significand bits and a binade shift for [`addend`].
    fn draw() -> impl Strategy<Value = (u8, u64, i32)> {
        (0u8..8, 0u64..(1 << 52), 0i32..40)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn repeat_add_is_the_loop_bit_for_bit(
            x in (0u8..8, 0u64..(1 << 52), -60i32..60),
            a in draw(),
            b in draw(),
            k in (0u8..6, 0usize..100_001),
        ) {
            let x = start(x);
            let (a, b, k) = (addend(x, a), addend(x, b), ticks(k));
            prop_assert_eq!(
                repeat_add(x, [a], k).to_bits(),
                plain(x, [a], k).to_bits(),
                "x = {x:e}, a = {a:e}, k = {k}"
            );
            prop_assert_eq!(
                repeat_add(x, [a, b], k).to_bits(),
                plain(x, [a, b], k).to_bits(),
                "x = {x:e}, a = {a:e}, b = {b:e}, k = {k}"
            );
        }
    }

    #[test]
    fn repeat_add_edge_cases() {
        let eps = f64::EPSILON;
        let under = ((1u64 << 53) as f64).to_bits() - 1;
        let cases: [(f64, f64, usize); 9] = [
            (1.0, eps / 2.0, 100_000),
            (1.0, 1.5 * eps, 100_000),
            (f64::from_bits(under), 1.0, 10),
            (1.0, 1e-3, 100_000),
            (0.0, f64::from_bits(1), 100_000),
            (f64::MAX / 2.0, f64::MAX / 4.0, 3),
            (-0.0, 0.0, 7),
            (f64::NAN, 1.0, 5),
            (0.5, 3.0, 1),
        ];
        for (x, a, k) in cases {
            assert_eq!(
                repeat_add(x, [a], k).to_bits(),
                plain(x, [a], k).to_bits(),
                "x = {x:e}, a = {a:e}, k = {k}"
            );
        }
    }

    #[test]
    fn a_parked_c0_slot_returns_without_stepping() {
        // `+0 + 0`, 499 times: the C0 slot of a parked core in every
        // steady replay. It must not fall back to single adds.
        let (x, steps) = fast_forward(0.0, [0.0], 499);
        assert_eq!(x.to_bits(), 0.0f64.to_bits());
        assert_eq!(steps, 0);
        // A steady accumulator well inside its binade is one collapse.
        let (x, steps) = fast_forward(5.0, [1e-3], 499);
        assert_eq!(x.to_bits(), plain(5.0, [1e-3], 499).to_bits());
        assert_eq!(steps, 1);
    }
}
