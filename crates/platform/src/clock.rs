//! Simulated campaign-time accounting.
//!
//! The paper reports campaign durations (≈18 s per 30-sample EM
//! measurement, ≈15 h for a 60-generation GA run, ≈2 days of V_MIN
//! testing). The simulation completes in seconds, so a separate
//! simulated clock tracks what the *physical* campaign would have cost.
//!
//! [`SimClock`] is *not* a wall clock: it never reads host time, only
//! accumulates modeled costs, which is what keeps campaign durations
//! reproducible. (Real wall-clock stamping is the optional injected
//! closure on `emvolt-obs`'s `Telemetry`.)

/// Accumulates simulated campaign time for a measurement session.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimClock {
    seconds: f64,
}

impl SimClock {
    /// A fresh clock at zero.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Advances the clock.
    pub fn advance(&mut self, seconds: f64) {
        self.seconds += seconds.max(0.0);
    }

    /// Elapsed seconds.
    pub fn seconds(&self) -> f64 {
        self.seconds
    }

    /// Elapsed hours.
    pub fn hours(&self) -> f64 {
        self.seconds / 3600.0
    }

    /// Human-readable duration.
    pub fn display(&self) -> String {
        let s = self.seconds;
        if s < 120.0 {
            format!("{s:.0} s")
        } else if s < 7200.0 {
            format!("{:.1} min", s / 60.0)
        } else {
            format!("{:.1} h", s / 3600.0)
        }
    }
}

/// Canonical cost model for one GA individual: compile + run + 30-sample
/// EM measurement + teardown over SSH (§3.2: ~18 s of measurement
/// dominates).
pub const INDIVIDUAL_MEASUREMENT_SECONDS: f64 = 18.0;
/// Compile/deploy/kill overhead per individual.
pub const INDIVIDUAL_OVERHEAD_SECONDS: f64 = 2.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_formats() {
        let mut c = SimClock::new();
        c.advance(30.0);
        c.advance(-5.0); // ignored
        assert_eq!(c.seconds(), 30.0);
        assert_eq!(c.display(), "30 s");
        c.advance(600.0);
        assert!(c.display().contains("min"));
        c.advance(4.0 * 3600.0);
        assert!(c.display().contains('h'));
    }

    #[test]
    fn ga_campaign_cost_matches_paper_scale() {
        // 60 generations x 50 individuals x ~20 s ≈ 16.7 h (~15 h in the
        // paper).
        let mut c = SimClock::new();
        for _ in 0..60 * 50 {
            c.advance(INDIVIDUAL_MEASUREMENT_SECONDS + INDIVIDUAL_OVERHEAD_SECONDS);
        }
        assert!(c.hours() > 14.0 && c.hours() < 18.0, "{}", c.hours());
    }
}
