//! Simulated wall clock.
//!
//! All simulated durations in this workspace are `f64` seconds. The clock
//! only ever moves forward; phases advance it by the makespan the
//! [`crate::scheduler`] or the [`crate::transfer`] models compute.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically non-decreasing simulated clock, in seconds.
///
/// The engine owns its clock by value and is the only owner of simulated
/// time: the tracer holds no clock and records the times it is given.
/// Lock-free: the seconds live in an [`AtomicU64`] as `f64` bits, so every
/// method takes `&self` and a shared `&Engine` can advance time.
/// [`SimClock::advance`] is a load then a store, so the clock has one
/// writer: the thread driving the engine. `Relaxed` suffices, as the
/// seconds publish no other data.
#[derive(Debug, Default)]
pub struct SimClock {
    bits: AtomicU64,
}

impl SimClock {
    /// A clock at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time in seconds since the clock was created.
    pub fn now(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Advance by `dt` seconds.
    ///
    /// # Panics
    /// Panics if `dt` is negative or not finite — a negative advance always
    /// indicates a bug in a time model, and silently clamping would corrupt
    /// every downstream report.
    pub fn advance(&self, dt: f64) {
        assert!(
            dt.is_finite() && dt >= 0.0,
            "clock advance must be finite and non-negative (got {dt})"
        );
        self.bits
            .store((self.now() + dt).to_bits(), Ordering::Relaxed);
    }

    /// Reset to t = 0 (used between independent experiment runs).
    pub fn reset(&self) {
        self.bits.store(0.0f64.to_bits(), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_accumulates() {
        let c = SimClock::new();
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
        let c = SimClock::new();
        c.advance(3.0);
        c.reset();
        assert_eq!(c.now(), 0.0);
    }
}
