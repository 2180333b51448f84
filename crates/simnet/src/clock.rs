//! Simulated wall clock.
//!
//! All simulated durations in this workspace are `f64` seconds. The clock
//! only ever moves forward; phases advance it by the makespan the
//! [`crate::scheduler`] or the [`crate::transfer`] models compute.

/// A monotonically non-decreasing simulated clock, in seconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimClock {
    now: f64,
}

impl SimClock {
    /// A clock at t = 0.
    pub fn new() -> Self {
        SimClock { now: 0.0 }
    }

    /// Current simulated time in seconds since the clock was created.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advance by `dt` seconds.
    ///
    /// # Panics
    /// Panics if `dt` is negative or not finite — a negative advance always
    /// indicates a bug in a time model, and silently clamping would corrupt
    /// every downstream report.
    pub fn advance(&mut self, dt: f64) {
        assert!(
            dt.is_finite() && dt >= 0.0,
            "clock advance must be finite and non-negative (got {dt})"
        );
        self.now += dt;
    }

    /// Reset to t = 0 (used between independent experiment runs).
    pub fn reset(&mut self) {
        self.now = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_accumulates() {
        let mut c = SimClock::new();
        assert_eq!(c.now(), 0.0);
        c.advance(1.5);
        c.advance(0.0);
        c.advance(2.5);
        assert!((c.now() - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_advance_panics() {
        SimClock::new().advance(-1.0);
    }

    #[test]
    fn reset_returns_to_zero() {
        let mut c = SimClock::new();
        c.advance(3.0);
        c.reset();
        assert_eq!(c.now(), 0.0);
    }
}
