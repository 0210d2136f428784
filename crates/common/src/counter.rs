//! Saturating counters.

use std::fmt;

/// A saturating up/down counter in the inclusive range `0..=max`.
///
/// Saturating counters are the universal building block of the paper's
/// confidence machinery: the per-load *accuracy confidence* counter
/// saturates at 7, the per-stream-buffer *priority* counter saturates at
/// 12, and the classic bimodal branch predictor uses 2-bit (max 3)
/// counters.
///
/// # Example
///
/// ```
/// use psb_common::SatCounter;
/// let mut c = SatCounter::new(3);
/// c.inc_by(10);          // saturates at 3
/// assert_eq!(c.get(), 3);
/// c.dec();
/// assert_eq!(c.get(), 2);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
pub struct SatCounter {
    value: u32,
    max: u32,
}

impl SatCounter {
    /// Creates a counter saturating at `max`, starting at zero.
    pub const fn new(max: u32) -> Self {
        SatCounter { value: 0, max }
    }

    /// Creates a counter saturating at `max`, starting at `value`
    /// (clamped into range).
    pub const fn with_value(max: u32, value: u32) -> Self {
        let v = if value > max { max } else { value };
        SatCounter { value: v, max }
    }

    /// Current value.
    #[inline]
    pub const fn get(self) -> u32 {
        self.value
    }

    /// The saturation ceiling.
    #[inline]
    pub const fn max(self) -> u32 {
        self.max
    }

    /// Increments by one, saturating at `max`.
    #[inline]
    pub fn inc(&mut self) {
        self.inc_by(1);
    }

    /// Increments by `n`, saturating at `max`.
    #[inline]
    pub fn inc_by(&mut self, n: u32) {
        self.value = self.value.saturating_add(n).min(self.max);
    }

    /// Decrements by one, saturating at zero.
    #[inline]
    pub fn dec(&mut self) {
        self.dec_by(1);
    }

    /// Decrements by `n`, saturating at zero.
    #[inline]
    pub fn dec_by(&mut self, n: u32) {
        self.value = self.value.saturating_sub(n);
    }

    /// Sets the value, clamped into `0..=max`.
    #[inline]
    pub fn set(&mut self, value: u32) {
        self.value = value.min(self.max);
    }

    /// Resets to zero.
    #[inline]
    pub fn reset(&mut self) {
        self.value = 0;
    }

    /// True if the counter is at or above the midpoint (`> max/2`),
    /// the conventional "taken"/"confident" test for 2-bit predictors.
    #[inline]
    pub fn is_high(self) -> bool {
        self.value > self.max / 2
    }
}

impl fmt::Debug for SatCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SatCounter({}/{})", self.value, self.max)
    }
}

impl fmt::Display for SatCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.value, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturates_both_ends() {
        let mut c = SatCounter::new(7);
        for _ in 0..20 {
            c.inc();
        }
        assert_eq!(c.get(), 7);
        for _ in 0..20 {
            c.dec();
        }
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn bulk_ops() {
        let mut c = SatCounter::new(12);
        c.inc_by(2);
        c.inc_by(2);
        assert_eq!(c.get(), 4);
        c.inc_by(100);
        assert_eq!(c.get(), 12);
        c.dec_by(5);
        assert_eq!(c.get(), 7);
        c.dec_by(100);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn with_value_clamps() {
        assert_eq!(SatCounter::with_value(7, 99).get(), 7);
        assert_eq!(SatCounter::with_value(7, 3).get(), 3);
        let mut c = SatCounter::new(7);
        c.set(5);
        assert_eq!(c.get(), 5);
        c.set(100);
        assert_eq!(c.get(), 7);
    }

    #[test]
    fn midpoint_test_matches_bimodal_convention() {
        // 2-bit counter: 0,1 = not-taken; 2,3 = taken.
        let mut c = SatCounter::new(3);
        assert!(!c.is_high());
        c.inc();
        assert!(!c.is_high());
        c.inc();
        assert!(c.is_high());
        c.inc();
        assert!(c.is_high());
    }

    #[test]
    fn zero_max_counter_is_inert() {
        let mut c = SatCounter::new(0);
        c.inc();
        assert_eq!(c.get(), 0);
    }
}
