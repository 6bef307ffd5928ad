//! The synthetic current load (SCL) block integrated next to the OC-DSO
//! on the Juno board (§4, Fig. 8): a programmable square-wave current
//! source used to find the PDN resonance by direct stimulation.

use crate::domain::{DomainError, RunConfig, VoltageDomain};
use emvolt_circuit::Stimulus;

/// The SCL block: injects a square-wave current into its domain's die
/// node and records the resulting peak-to-peak voltage via the OC-DSO.
#[derive(Debug, Clone, PartialEq)]
pub struct Scl {
    /// Square-wave amplitude in amps.
    pub amplitude_a: f64,
}

impl Default for Scl {
    fn default() -> Self {
        Scl { amplitude_a: 0.4 }
    }
}

/// One point of an SCL sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SclPoint {
    /// Stimulus frequency in Hz.
    pub freq_hz: f64,
    /// Peak-to-peak die-voltage response in volts.
    pub p2p_v: f64,
}

impl Scl {
    /// Loads the domain's PDN with a square wave at `freq` and returns the
    /// peak-to-peak die voltage.
    ///
    /// # Errors
    ///
    /// Propagates PDN analysis failures.
    pub fn excite(
        &self,
        domain: &VoltageDomain,
        freq: f64,
        config: &RunConfig,
    ) -> Result<SclPoint, DomainError> {
        let idle = domain.active_cores() as f64 * domain.core_model().idle_current;
        let load = Stimulus::Pulse {
            lo: idle,
            hi: idle + self.amplitude_a,
            period: 1.0 / freq,
            duty: 0.5,
            t0: 0.0,
        };
        let (v_die, _) = domain.run_pdn_with_load(load, config)?;
        Ok(SclPoint {
            freq_hz: freq,
            p2p_v: v_die.peak_to_peak(),
        })
    }

    /// Sweeps the stimulus frequency (the paper steps 1 MHz) and returns
    /// the response curve; the peak reveals the first-order resonance.
    ///
    /// # Errors
    ///
    /// Propagates per-point failures.
    pub fn sweep(
        &self,
        domain: &VoltageDomain,
        freqs: &[f64],
        config: &RunConfig,
    ) -> Result<Vec<SclPoint>, DomainError> {
        freqs
            .iter()
            .map(|&f| self.excite(domain, f, config))
            .collect()
    }

    /// The sweep point with the largest response.
    pub fn peak(points: &[SclPoint]) -> Option<SclPoint> {
        points
            .iter()
            .max_by(|a, b| a.p2p_v.total_cmp(&b.p2p_v))
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emvolt_cpu::CoreModel;
    use emvolt_pdn::PdnParams;

    fn domain() -> VoltageDomain {
        VoltageDomain::new(
            "a72",
            CoreModel::cortex_a72(),
            PdnParams::generic_mobile(),
            1.2e9,
        )
    }

    #[test]
    fn sweep_peaks_at_first_order_resonance() {
        let d = domain();
        let scl = Scl::default();
        let f_expected = d.expected_resonance_hz();
        let freqs: Vec<f64> = (40..=120).step_by(2).map(|m| m as f64 * 1e6).collect();
        let points = scl.sweep(&d, &freqs, &RunConfig::fast()).unwrap();
        let peak = Scl::peak(&points).unwrap();
        assert!(
            (peak.freq_hz - f_expected).abs() / f_expected < 0.08,
            "peak {:.2e} vs expected {:.2e}",
            peak.freq_hz,
            f_expected
        );
    }

    #[test]
    fn gating_shifts_the_scl_peak_upward() {
        let mut d = domain();
        let scl = Scl::default();
        let freqs: Vec<f64> = (40..=130).step_by(3).map(|m| m as f64 * 1e6).collect();
        let cfg = RunConfig::fast();
        let peak2 = Scl::peak(&scl.sweep(&d, &freqs, &cfg).unwrap()).unwrap();
        d.try_power_gate(1).unwrap();
        let peak1 = Scl::peak(&scl.sweep(&d, &freqs, &cfg).unwrap()).unwrap();
        assert!(
            peak1.freq_hz > peak2.freq_hz,
            "1-core peak {:.2e} must exceed 2-core {:.2e}",
            peak1.freq_hz,
            peak2.freq_hz
        );
    }

    #[test]
    fn larger_amplitude_gives_larger_response() {
        let d = domain();
        let f = d.expected_resonance_hz();
        let cfg = RunConfig::fast();
        let small = Scl { amplitude_a: 0.1 }.excite(&d, f, &cfg).unwrap();
        let large = Scl { amplitude_a: 0.4 }.excite(&d, f, &cfg).unwrap();
        assert!(large.p2p_v > 2.0 * small.p2p_v);
    }

    #[test]
    fn empty_sweep_has_no_peak() {
        assert!(Scl::peak(&[]).is_none());
    }
}
