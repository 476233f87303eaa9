//! Exact rational arithmetic over `i128`.
//!
//! The fractional covering numbers, vertex covers and share exponents of
//! the paper are small rationals (denominators bounded by the query size),
//! so `i128` arithmetic with eager normalisation never overflows in
//! practice; all operations are nevertheless checked and report
//! [`LpError::Overflow`] instead of wrapping.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

use crate::error::LpError;
use crate::Result;

/// An exact rational number `num / den` with `den > 0` and
/// `gcd(|num|, den) = 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Rational {
    num: i128,
    den: i128,
}

/// Greatest common divisor of `|a|` and `b`, for `b > 0` (every caller
/// passes a denominator there, so the result — at most `b` — fits).
/// Computed unsigned: `i128::MIN % -1` and `i128::MIN.abs()` overflow.
fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    i128::try_from(a).expect("gcd(a, b) <= b for b > 0")
}

impl Rational {
    /// The rational 0.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// The rational 1.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Construct `num / den`, normalising sign and common factors.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0` or either argument is `i128::MIN`. Use
    /// [`Rational::checked_new`] for a fallible variant — always, for
    /// numbers that come from outside the program.
    pub fn new(num: i128, den: i128) -> Rational {
        Self::checked_new(num, den).expect("non-zero denominator, no i128::MIN")
    }

    /// Construct `num / den`.
    ///
    /// # Errors
    ///
    /// [`LpError::DivisionByZero`] when `den == 0`, [`LpError::Overflow`]
    /// when either argument is `i128::MIN`: it has no negation, so it can
    /// neither be sign-normalised as a denominator nor be a numerator
    /// that [`Neg`], [`Rational::abs`] and [`Rational::recip`] must negate.
    pub fn checked_new(num: i128, den: i128) -> Result<Rational> {
        if den == 0 {
            return Err(LpError::DivisionByZero);
        }
        if num == i128::MIN || den == i128::MIN {
            return Err(LpError::Overflow("new"));
        }
        let (num, den) = if den < 0 { (-num, -den) } else { (num, den) };
        let g = gcd(num, den);
        Ok(Rational { num: num / g, den: den / g })
    }

    /// The integer `n` as a rational.
    pub fn from_int(n: i64) -> Rational {
        Rational { num: n as i128, den: 1 }
    }

    /// Convert to `f64` (used only for reporting and plotting; all decisions
    /// are made on exact values).
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// True if the value is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// True if the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num > 0
    }

    /// True if the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// Absolute value.
    pub fn abs(&self) -> Rational {
        Rational { num: self.num.abs(), den: self.den }
    }

    /// Multiplicative inverse.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::DivisionByZero`] if the value is zero.
    pub fn recip(&self) -> Result<Rational> {
        Rational::checked_new(self.den, self.num)
    }

    /// Checked addition, normalising via the GCD of the denominators
    /// *before* multiplying: `a/b + c/d = (a·(d/g) + c·(b/g)) / (b·(d/g))`
    /// with `g = gcd(b, d)`. This keeps the intermediates minimal — the
    /// difference between finishing and overflowing on long simplex pivot
    /// sequences.
    pub fn checked_add(&self, other: &Rational) -> Result<Rational> {
        let g = gcd(self.den, other.den);
        let (rb, rd) = (self.den / g, other.den / g);
        let num = self
            .num
            .checked_mul(rd)
            .and_then(|a| other.num.checked_mul(rb).and_then(|b| a.checked_add(b)))
            .ok_or(LpError::Overflow("add"))?;
        let den = self.den.checked_mul(rd).ok_or(LpError::Overflow("add"))?;
        Rational::checked_new(num, den)
    }

    /// Checked subtraction.
    pub fn checked_sub(&self, other: &Rational) -> Result<Rational> {
        self.checked_add(&(-*other))
    }

    /// Checked multiplication.
    pub fn checked_mul(&self, other: &Rational) -> Result<Rational> {
        // Cross-reduce first to keep the intermediate products small.
        let g1 = gcd(self.num, other.den);
        let g2 = gcd(other.num, self.den);
        let num = (self.num / g1).checked_mul(other.num / g2).ok_or(LpError::Overflow("mul"))?;
        let den = (self.den / g2).checked_mul(other.den / g1).ok_or(LpError::Overflow("mul"))?;
        Rational::checked_new(num, den)
    }

    /// Checked division.
    pub fn checked_div(&self, other: &Rational) -> Result<Rational> {
        self.checked_mul(&other.recip()?)
    }

    /// The smaller of two rationals.
    pub fn min(self, other: Rational) -> Rational {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two rationals.
    pub fn max(self, other: Rational) -> Rational {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Ceiling of the rational as an integer.
    pub fn ceil(&self) -> i128 {
        if self.num >= 0 {
            (self.num + self.den - 1) / self.den
        } else {
            self.num / self.den
        }
    }

    /// Floor of the rational as an integer.
    pub fn floor(&self) -> i128 {
        if self.num >= 0 {
            self.num / self.den
        } else {
            -((-self.num + self.den - 1) / self.den)
        }
    }

    /// Sum an iterator of rationals.
    ///
    /// # Errors
    ///
    /// Propagates overflow errors.
    pub fn sum<'a, I: IntoIterator<Item = &'a Rational>>(iter: I) -> Result<Rational> {
        let mut acc = Rational::ZERO;
        for r in iter {
            acc = acc.checked_add(r)?;
        }
        Ok(acc)
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Exact overflow-free comparison of `a/b` and `c/d` (`b, d > 0`) by
/// Euclidean descent on the continued-fraction expansions: equal integer
/// parts reduce the problem to comparing the reciprocals of the remainders,
/// whose denominators strictly shrink.
fn cmp_fractions(a: i128, b: i128, c: i128, d: i128) -> Ordering {
    let (q1, r1) = (a.div_euclid(b), a.rem_euclid(b));
    let (q2, r2) = (c.div_euclid(d), c.rem_euclid(d));
    match q1.cmp(&q2) {
        Ordering::Equal => match (r1 == 0, r2 == 0) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            // r1/b vs r2/d  ==  d/r2 vs b/r1 (taking reciprocals of values
            // in (0,1) flips the order twice).
            (false, false) => cmp_fractions(d, r2, b, r1),
        },
        unequal => unequal,
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b ? c/d  <=>  a·d ? c·b  (b, d > 0) — with an exact
        // Euclidean-descent fallback when the cross products would
        // overflow i128 (long simplex runs produce large entries; a
        // wrapped comparison would corrupt pivoting silently).
        match (self.num.checked_mul(other.den), other.num.checked_mul(self.den)) {
            (Some(lhs), Some(rhs)) => lhs.cmp(&rhs),
            _ => cmp_fractions(self.num, self.den, other.num, other.den),
        }
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational { num: -self.num, den: self.den }
    }
}

// The panicking operators are provided for ergonomic use inside the solver,
// where magnitudes are tiny; the checked methods are used at API boundaries.
impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        self.checked_add(&rhs).expect("rational addition overflow")
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        self.checked_sub(&rhs).expect("rational subtraction overflow")
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        self.checked_mul(&rhs).expect("rational multiplication overflow")
    }
}

impl Div for Rational {
    type Output = Rational;
    fn div(self, rhs: Rational) -> Rational {
        self.checked_div(&rhs).expect("rational division error")
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Rational) {
        *self = *self - rhs;
    }
}

impl From<i64> for Rational {
    fn from(n: i64) -> Self {
        Rational::from_int(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalisation() {
        assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
        assert_eq!(Rational::new(-2, -4), Rational::new(1, 2));
        assert_eq!(Rational::new(2, -4), Rational::new(-1, 2));
        assert_eq!(Rational::new(0, 5), Rational::ZERO);
        assert_eq!(Rational::new(7, 1).den, 1);
    }

    #[test]
    fn zero_denominator_is_error() {
        assert_eq!(Rational::checked_new(1, 0), Err(LpError::DivisionByZero));
    }

    #[test]
    fn i128_min_is_overflow_not_a_panic() {
        // `i128::MIN` has no negation: as a denominator it cannot be
        // sign-normalised, as a numerator `-r` and `r.abs()` would wrap.
        let overflow = Err(LpError::Overflow("new"));
        for other in [1, -1, 3, i128::MAX] {
            assert_eq!(Rational::checked_new(i128::MIN, other), overflow, "MIN/{other}");
            assert_eq!(Rational::checked_new(other, i128::MIN), overflow, "{other}/MIN");
        }
        assert_eq!(Rational::checked_new(i128::MIN, i128::MIN), overflow);
        // One off the edge is an ordinary value, negation included.
        let big = Rational::checked_new(i128::MAX, -1).unwrap();
        assert_eq!(big.num, -i128::MAX);
        assert_eq!((-big).num, i128::MAX);
        assert_eq!(Rational::checked_new(i128::MAX, i128::MAX), Ok(Rational::ONE));
    }

    #[test]
    fn arithmetic() {
        let a = Rational::new(1, 2);
        let b = Rational::new(1, 3);
        assert_eq!(a + b, Rational::new(5, 6));
        assert_eq!(a - b, Rational::new(1, 6));
        assert_eq!(a * b, Rational::new(1, 6));
        assert_eq!(a / b, Rational::new(3, 2));
        assert_eq!(-a, Rational::new(-1, 2));
        assert_eq!(a.abs(), a);
        assert_eq!((-a).abs(), a);
    }

    #[test]
    fn comparisons() {
        assert!(Rational::new(1, 3) < Rational::new(1, 2));
        assert!(Rational::new(-1, 2) < Rational::ZERO);
        assert!(Rational::new(3, 2) > Rational::ONE);
        assert_eq!(Rational::new(2, 6).cmp(&Rational::new(1, 3)), Ordering::Equal);
        assert_eq!(Rational::new(1, 2).min(Rational::new(2, 3)), Rational::new(1, 2));
        assert_eq!(Rational::new(1, 2).max(Rational::new(2, 3)), Rational::new(2, 3));
    }

    #[test]
    fn floor_and_ceil() {
        assert_eq!(Rational::new(7, 2).ceil(), 4);
        assert_eq!(Rational::new(7, 2).floor(), 3);
        assert_eq!(Rational::new(-7, 2).ceil(), -3);
        assert_eq!(Rational::new(-7, 2).floor(), -4);
        assert_eq!(Rational::new(4, 2).ceil(), 2);
        assert_eq!(Rational::new(4, 2).floor(), 2);
    }

    #[test]
    fn reciprocal() {
        assert_eq!(Rational::new(3, 4).recip().unwrap(), Rational::new(4, 3));
        assert_eq!(Rational::new(-3, 4).recip().unwrap(), Rational::new(-4, 3));
        assert!(Rational::ZERO.recip().is_err());
    }

    #[test]
    fn predicates() {
        assert!(Rational::ZERO.is_zero());
        assert!(Rational::new(1, 7).is_positive());
        assert!(Rational::new(-1, 7).is_negative());
    }

    #[test]
    fn display() {
        assert_eq!(Rational::new(3, 2).to_string(), "3/2");
        assert_eq!(Rational::from_int(-4).to_string(), "-4");
        assert_eq!(Rational::ZERO.to_string(), "0");
    }

    #[test]
    fn to_f64() {
        assert!((Rational::new(1, 3).to_f64() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn summation() {
        let xs = [Rational::new(1, 2), Rational::new(1, 3), Rational::new(1, 6)];
        assert_eq!(Rational::sum(xs.iter()).unwrap(), Rational::ONE);
        let empty: Vec<Rational> = vec![];
        assert_eq!(Rational::sum(empty.iter()).unwrap(), Rational::ZERO);
    }

    #[test]
    fn overflow_detected() {
        let big = Rational::new(i128::MAX / 2, 1);
        assert!(big.checked_mul(&Rational::from_int(4)).is_err());
        let max = Rational::new(i128::MAX, 1);
        assert!(max.checked_add(&max).is_err());
    }

    #[test]
    fn gcd_normalised_add_avoids_needless_overflow() {
        // Denominators share a huge factor: the naive b·d denominator
        // product overflows, but gcd-first addition stays exact.
        let big = 1_i128 << 100;
        let a = Rational::new(1, big);
        let b = Rational::new(1, big * 2);
        assert_eq!(a.checked_add(&b).unwrap(), Rational::new(3, big * 2));
    }

    #[test]
    fn comparison_survives_cross_product_overflow() {
        // Both cross products exceed i128, forcing the Euclidean fallback.
        let big = (1_i128 << 90) + 1;
        let a = Rational::new(big, big - 2);
        let b = Rational::new(big + 2, big);
        assert!(a > b, "1 + 2/(big-2) > 1 + 2/big");
        assert!(b < a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
        let neg_a = -a;
        let neg_b = -b;
        assert!(neg_a < neg_b);
    }

    #[test]
    fn assign_operators() {
        let mut x = Rational::new(1, 4);
        x += Rational::new(1, 4);
        assert_eq!(x, Rational::new(1, 2));
        x -= Rational::new(1, 2);
        assert!(x.is_zero());
    }
}
