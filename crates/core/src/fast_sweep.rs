//! The fast EM resonance-detection methodology of §5.3.
//!
//! A hand-written loop with a high-current burst (8 ADDs) and a
//! low-current stall (1 DIV) produces one current pulse per iteration —
//! a visible EM spike at the loop frequency. Sweeping the CPU clock with
//! DVFS slides that spike across the spectrum; the clock at which its
//! amplitude peaks puts the loop frequency on the PDN's first-order
//! resonance. The whole procedure takes ~15 minutes on hardware versus
//! ~15 hours for a GA run.

use crate::campaigns::fast_resonance_sweep_resumable;
use emvolt_backend::MeasurementBackend;
use emvolt_engine::DriveOptions;
use emvolt_obs::Telemetry;
use emvolt_platform::{DomainError, SimClock, VoltageDomain};

/// One point of a loop-frequency sweep (Figs. 11, 13, 16).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// CPU clock at this point, Hz.
    pub cpu_freq_hz: f64,
    /// Resulting loop frequency, Hz.
    pub loop_freq_hz: f64,
    /// EM amplitude of the loop-frequency spike, dBm.
    pub amplitude_dbm: f64,
}

/// Result of a fast resonance sweep.
#[derive(Debug, Clone)]
pub struct FastSweepResult {
    /// All sweep points, in the order visited.
    pub points: Vec<SweepPoint>,
    /// Estimated first-order resonance: the loop frequency with maximal
    /// EM amplitude.
    pub resonance_hz: f64,
    /// Simulated wall-clock cost of the physical sweep.
    pub campaign: SimClock,
}

/// Configuration of the fast sweep.
#[derive(Debug, Clone)]
pub struct FastSweepConfig {
    /// CPU frequencies to visit (the paper steps 1.2 GHz down to 120 MHz
    /// in 20 MHz steps on the A72).
    pub cpu_freqs_hz: Vec<f64>,
    /// Cores loaded with the sweep loop (one in the paper, so EM
    /// amplitude differences come from the PDN rather than total power).
    pub loaded_cores: usize,
    /// Spectrum samples per point.
    pub samples_per_point: usize,
    /// Half-width of the band around the expected loop frequency in
    /// which the spike amplitude is read, Hz.
    pub marker_halfwidth_hz: f64,
    /// Physics fidelity per point.
    pub run: emvolt_platform::RunConfig,
    /// Telemetry handle: the points run a lane group at a time but are
    /// reported one by one, so each point's solver, analyzer and `sweep`
    /// events are emitted in visit order, stamped with the simulated
    /// campaign clock — the same trace at any lane width. Defaults to
    /// the inert handle.
    pub telemetry: Telemetry,
}

impl FastSweepConfig {
    /// The paper's A72 sweep: max clock down to 10% in 20 MHz steps.
    pub fn for_domain(domain: &VoltageDomain) -> Self {
        Self::for_max_frequency(domain.max_frequency())
    }

    /// As [`FastSweepConfig::for_domain`], from the top clock alone —
    /// useful when the domain lives behind a [`MeasurementBackend`] and
    /// only its [`DomainInfo`](emvolt_backend::DomainInfo) is at hand.
    pub fn for_max_frequency(max_hz: f64) -> Self {
        let step = 20e6 * (max_hz / 1.2e9).max(0.5); // scale step to platform
        let mut freqs = Vec::new();
        let mut f = max_hz;
        while f >= max_hz * 0.1 {
            freqs.push(f);
            f -= step;
        }
        FastSweepConfig {
            cpu_freqs_hz: freqs,
            loaded_cores: 1,
            samples_per_point: 5,
            marker_halfwidth_hz: 3e6,
            run: emvolt_platform::RunConfig::fast(),
            telemetry: Telemetry::noop(),
        }
    }
}

/// Runs the fast sweep over any [`MeasurementBackend`] — the live chain
/// ([`LiveBackend::single`](emvolt_backend::LiveBackend::single)), a
/// recording wrapper or a replayed trace. Each DVFS point is one serial
/// rig measurement, and the points go to the backend a lane width at a
/// time ([`emvolt_simd::preferred_lanes`]): the live backend runs their
/// physics as one lane group with a clock per lane on a single warm
/// runner (PDN netlist, factorizations and transient scratch built once),
/// then draws each point's analyzer noise in visit order.
///
/// # Errors
///
/// Propagates simulation failures; backend-layer failures surface as
/// [`DomainError::Backend`].
pub fn fast_resonance_sweep_on<B: MeasurementBackend + ?Sized>(
    backend: &mut B,
    domain_name: &str,
    config: &FastSweepConfig,
) -> Result<FastSweepResult, DomainError> {
    // No batch limit in the default options, so the drive always runs to
    // completion.
    let result =
        fast_resonance_sweep_resumable(backend, domain_name, config, &DriveOptions::default())?;
    Ok(result.expect("campaign without a batch limit always completes"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use emvolt_backend::LiveBackend;
    use emvolt_cpu::CoreModel;
    use emvolt_platform::{a72_pdn, EmBench};

    #[test]
    fn sweep_finds_a72_resonance() {
        let domain =
            emvolt_platform::VoltageDomain::new("A72", CoreModel::cortex_a72(), a72_pdn(), 1.2e9);
        let cfg = FastSweepConfig::for_domain(&domain);
        let mut live = LiveBackend::single(domain.clone(), EmBench::new(4), cfg.run.clone());
        let result = fast_resonance_sweep_on(&mut live, "A72", &cfg).unwrap();
        let expected = domain.expected_resonance_hz();
        assert!(
            (result.resonance_hz - expected).abs() / expected < 0.20,
            "sweep says {:.2e}, analytic {:.2e}",
            result.resonance_hz,
            expected
        );
        assert_eq!(result.points.len(), cfg.cpu_freqs_hz.len());
        // Physical campaign takes minutes, not hours.
        assert!(result.campaign.seconds() < 3600.0);
    }

    #[test]
    fn loop_frequency_tracks_clock() {
        let domain =
            emvolt_platform::VoltageDomain::new("A72", CoreModel::cortex_a72(), a72_pdn(), 1.2e9);
        let cfg = FastSweepConfig {
            cpu_freqs_hz: vec![1.2e9, 600e6],
            ..FastSweepConfig::for_domain(&domain)
        };
        let mut live = LiveBackend::single(domain, EmBench::new(5), cfg.run.clone());
        let result = fast_resonance_sweep_on(&mut live, "A72", &cfg).unwrap();
        let ratio = result.points[0].loop_freq_hz / result.points[1].loop_freq_hz;
        assert!((ratio - 2.0).abs() < 0.1, "ratio {ratio}");
    }
}
