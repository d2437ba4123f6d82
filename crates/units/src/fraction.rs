//! A unit-interval fraction type.

/// A dimensionless fraction guaranteed to lie in `[0, 1]`.
///
/// Used for utilizations, melt fractions, blockage fractions, PSU
/// efficiencies and the like. Construction clamps into range so that
/// accumulated floating-point drift (e.g. a melt fraction integrated over
/// thousands of steps) can never escape the unit interval.
///
/// ```
/// use tts_units::Fraction;
/// let u = Fraction::new(0.95);
/// assert_eq!(u.value(), 0.95);
/// assert_eq!(Fraction::new(1.2), Fraction::ONE);   // clamped
/// assert_eq!(Fraction::new(-0.1), Fraction::ZERO); // clamped
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Fraction(f64);

crate::derive_json! { newtype Fraction }

impl Fraction {
    /// Zero.
    pub const ZERO: Fraction = Fraction(0.0);

    /// One.
    pub const ONE: Fraction = Fraction(1.0);

    /// Creates a fraction, clamping into `[0, 1]`.
    ///
    /// NaN inputs are mapped to zero so that downstream physics never sees a
    /// NaN utilization.
    #[inline]
    pub fn new(value: f64) -> Self {
        if value.is_nan() {
            Fraction(0.0)
        } else {
            Fraction(value.clamp(0.0, 1.0))
        }
    }

    /// The raw value in `[0, 1]`.
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// The value expressed as a percentage in `[0, 100]`.
    #[inline]
    pub fn percent(self) -> f64 {
        self.0 * 100.0
    }

    /// The complement `1 - self`.
    #[inline]
    pub fn complement(self) -> Self {
        Fraction(1.0 - self.0)
    }

    /// Saturating addition (stays ≤ 1).
    #[inline]
    pub fn saturating_add(self, other: Self) -> Self {
        Self::new(self.0 + other.0)
    }

    /// Saturating subtraction (stays ≥ 0).
    #[inline]
    pub fn saturating_sub(self, other: Self) -> Self {
        Self::new(self.0 - other.0)
    }
}

impl core::ops::Mul for Fraction {
    type Output = Fraction;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        // Product of two unit-interval values is already in range.
        Fraction(self.0 * rhs.0)
    }
}

impl core::ops::Mul<f64> for Fraction {
    type Output = f64;
    #[inline]
    fn mul(self, rhs: f64) -> f64 {
        self.0 * rhs
    }
}

impl core::ops::Mul<Fraction> for f64 {
    type Output = f64;
    #[inline]
    fn mul(self, rhs: Fraction) -> f64 {
        self * rhs.0
    }
}

impl core::fmt::Display for Fraction {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if let Some(prec) = f.precision() {
            write!(f, "{:.*}%", prec, self.percent())
        } else {
            write!(f, "{}%", self.percent())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tts_rng::prop::prelude::*;

    #[test]
    fn clamping_on_construction() {
        assert_eq!(Fraction::new(2.0), Fraction::ONE);
        assert_eq!(Fraction::new(-2.0), Fraction::ZERO);
        assert_eq!(Fraction::new(f64::NAN), Fraction::ZERO);
    }

    #[test]
    fn complement_and_percent() {
        let f = Fraction::new(0.7);
        assert!((f.complement().value() - 0.3).abs() < 1e-12);
        assert!((f.percent() - 70.0).abs() < 1e-12);
        assert_eq!(format!("{:.1}", f), "70.0%");
    }

    #[test]
    fn saturating_ops() {
        let a = Fraction::new(0.8);
        let b = Fraction::new(0.5);
        assert_eq!(a.saturating_add(b), Fraction::ONE);
        assert_eq!(b.saturating_sub(a), Fraction::ZERO);
        assert!((a.saturating_sub(b).value() - 0.3).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn always_in_unit_interval(v in -10.0f64..10.0) {
            let f = Fraction::new(v);
            prop_assert!(f.value() >= 0.0 && f.value() <= 1.0);
        }

        #[test]
        fn product_in_unit_interval(a in 0.0f64..1.0, b in 0.0f64..1.0) {
            let p = Fraction::new(a) * Fraction::new(b);
            prop_assert!(p.value() >= 0.0 && p.value() <= 1.0);
        }

        #[test]
        fn complement_is_involutive(v in 0.0f64..1.0) {
            let f = Fraction::new(v);
            prop_assert!((f.complement().complement().value() - f.value()).abs() < 1e-12);
        }
    }
}
