//! Request and observation types exchanged with a [`MeasurementBackend`].
//!
//! These are deliberately plain data: everything a backend needs to
//! reproduce a measurement is in the request, and everything a campaign
//! consumes is in the observation. That closure property is what makes
//! record/replay possible — a `(request, run-config)` pair keys a trace
//! entry, and the observation is the entry's payload.
//!
//! [`MeasurementBackend`]: crate::MeasurementBackend

use emvolt_isa::{Isa, Kernel};
use emvolt_platform::EmReading;

pub use emvolt_platform::Load;

/// The frequency band the analyzer integrates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BandSpec {
    /// Fixed band edges in Hz.
    Explicit {
        /// Lower edge (Hz).
        lo_hz: f64,
        /// Upper edge (Hz).
        hi_hz: f64,
    },
    /// A window centred on the kernel's loop frequency, which the
    /// backend resolves after running the load (fast-sweep §5.3 tracks
    /// the loop tone as DVFS moves it). The lower edge is clamped to
    /// 1 MHz.
    AroundLoop {
        /// Half-width of the window (Hz).
        halfwidth_hz: f64,
    },
}

impl BandSpec {
    /// Resolves to concrete edges given the load's loop frequency.
    pub fn resolve(&self, loop_frequency_hz: f64) -> (f64, f64) {
        match *self {
            BandSpec::Explicit { lo_hz, hi_hz } => (lo_hz, hi_hz),
            BandSpec::AroundLoop { halfwidth_hz } => (
                (loop_frequency_hz - halfwidth_hz).max(1e6),
                loop_frequency_hz + halfwidth_hz,
            ),
        }
    }
}

/// One measurement request: run `load` on `domain` (optionally at an
/// overridden clock) and report the band amplitude from `samples`
/// analyzer sweeps.
#[derive(Debug, Clone, Copy)]
pub struct MeasureRequest<'a> {
    /// Name of the voltage domain to drive.
    pub domain: &'a str,
    /// What executes during the measurement.
    pub load: Load<'a>,
    /// Clock override in Hz; `None` keeps the domain's configured
    /// frequency.
    pub freq_hz: Option<f64>,
    /// Analyzer band.
    pub band: BandSpec,
    /// Analyzer sweeps to aggregate.
    pub samples: usize,
    /// Measurement-noise seed. Required on the parallel path; `None` on
    /// the serial path draws from the backend's stateful rig RNG.
    pub seed: Option<u64>,
}

/// Everything one measurement call observes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmObservation {
    /// The analyzer's band reading (amplitude + dominant tone).
    pub reading: EmReading,
    /// The kernel's loop frequency at the effective clock (0 for idle).
    pub loop_frequency_hz: f64,
    /// Instructions per cycle of the run (0 for idle).
    pub ipc: f64,
    /// Worst supply droop below nominal during the run (V).
    pub max_droop_v: f64,
    /// Peak-to-peak supply excursion during the run (V).
    pub peak_to_peak_v: f64,
    /// The concrete band edges the analyzer integrated (Hz).
    pub band: (f64, f64),
    /// Whether a caching layer served this without a fresh measurement.
    pub cached: bool,
}

/// Description of a domain a backend serves — the control state
/// campaigns plan against.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainInfo {
    /// Domain name (request routing key).
    pub name: String,
    /// Instruction set its cores execute.
    pub isa: Isa,
    /// DVFS ceiling (Hz).
    pub max_frequency_hz: f64,
    /// Currently configured clock (Hz).
    pub frequency_hz: f64,
    /// Supply voltage (V).
    pub voltage_v: f64,
    /// Cores not power-gated.
    pub active_cores: usize,
    /// PDN resonance estimate (Hz) from the domain's RLC parameters.
    pub expected_resonance_hz: f64,
}

/// One emitter in a combined multi-domain capture.
#[derive(Debug, Clone, Copy)]
pub struct CombinedSource<'a> {
    /// Domain to run.
    pub domain: &'a str,
    /// Kernel to execute, or `None` for idle.
    pub kernel: Option<&'a Kernel>,
    /// Cores loaded when a kernel is present.
    pub loaded_cores: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn around_loop_band_clamps_lower_edge() {
        let band = BandSpec::AroundLoop { halfwidth_hz: 30e6 };
        let (lo, hi) = band.resolve(20e6);
        assert_eq!(lo, 1e6);
        assert_eq!(hi, 50e6);
    }

    #[test]
    fn explicit_band_passes_through() {
        let band = BandSpec::Explicit {
            lo_hz: 50e6,
            hi_hz: 200e6,
        };
        assert_eq!(band.resolve(123e6), (50e6, 200e6));
    }
}
