//! PDN fingerprinting and tamper detection (§5.3(c) / §10).
//!
//! The paper notes that quickly measuring the first-order resonance is
//! useful "for post-production purposes like PDN simulation validation,
//! tampering detection etc.": hardware implants, removed decoupling
//! capacitors or package rework all change the PDN's capacitance or
//! inductance, which moves the resonance — and the EM sweep sees that
//! from outside the case. This module captures a golden fingerprint and
//! compares later measurements against it.

use crate::fast_sweep::{fast_resonance_sweep_on, FastSweepConfig};
use emvolt_backend::MeasurementBackend;
use emvolt_platform::DomainError;

/// A PDN fingerprint: where the first-order resonance sits and how
/// strongly it radiates under the reference sweep loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PdnFingerprint {
    /// First-order resonance estimate, Hz.
    pub resonance_hz: f64,
    /// EM amplitude at the resonance, dBm.
    pub peak_dbm: f64,
}

/// Verdict of a fingerprint comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TamperVerdict {
    /// The measured fingerprint matches the baseline within tolerance.
    Clean,
    /// The resonance moved: capacitance or inductance changed.
    ResonanceShift {
        /// Baseline resonance, Hz.
        baseline_hz: f64,
        /// Measured resonance, Hz.
        measured_hz: f64,
        /// Relative shift (`measured/baseline - 1`).
        shift: f64,
    },
}

impl TamperVerdict {
    /// `true` for any deviation.
    pub fn is_tampered(self) -> bool {
        self != TamperVerdict::Clean
    }
}

/// Captures a golden fingerprint with the §5.3 fast sweep over any
/// [`MeasurementBackend`] — a replayed trace of the golden sweep
/// fingerprints the board without re-simulation.
///
/// # Errors
///
/// Propagates simulation failures; backend-layer failures surface as
/// [`DomainError::Backend`].
pub fn fingerprint<B: MeasurementBackend + ?Sized>(
    backend: &mut B,
    domain_name: &str,
    config: &FastSweepConfig,
) -> Result<PdnFingerprint, DomainError> {
    let sweep = fast_resonance_sweep_on(backend, domain_name, config)?;
    Ok(fingerprint_of(&sweep))
}

fn fingerprint_of(sweep: &crate::fast_sweep::FastSweepResult) -> PdnFingerprint {
    let peak_dbm = sweep
        .points
        .iter()
        .map(|p| p.amplitude_dbm)
        .fold(f64::NEG_INFINITY, f64::max);
    PdnFingerprint {
        resonance_hz: sweep.resonance_hz,
        peak_dbm,
    }
}

/// Compares a fresh fingerprint against the golden baseline; resonance
/// shifts beyond `tolerance` (relative, e.g. `0.05` = 5%) are flagged.
pub fn compare(
    baseline: &PdnFingerprint,
    measured: &PdnFingerprint,
    tolerance: f64,
) -> TamperVerdict {
    let shift = measured.resonance_hz / baseline.resonance_hz - 1.0;
    if shift.abs() > tolerance {
        TamperVerdict::ResonanceShift {
            baseline_hz: baseline.resonance_hz,
            measured_hz: measured.resonance_hz,
            shift,
        }
    } else {
        TamperVerdict::Clean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emvolt_backend::LiveBackend;
    use emvolt_cpu::CoreModel;
    use emvolt_platform::{a72_pdn, EmBench, VoltageDomain};

    fn sparse_config(domain: &VoltageDomain) -> FastSweepConfig {
        let mut cfg = FastSweepConfig::for_domain(domain);
        cfg.cpu_freqs_hz = cfg.cpu_freqs_hz.iter().step_by(2).copied().collect();
        cfg.samples_per_point = 3;
        cfg
    }

    /// Fingerprints `domain` through a fresh live rig seeded `seed`.
    fn fingerprint_live(domain: &VoltageDomain, seed: u64) -> PdnFingerprint {
        let cfg = sparse_config(domain);
        let mut live = LiveBackend::single(domain.clone(), EmBench::new(seed), cfg.run.clone());
        fingerprint(&mut live, domain.name(), &cfg).unwrap()
    }

    #[test]
    fn untampered_board_reads_clean() {
        let domain = VoltageDomain::new("A72", CoreModel::cortex_a72(), a72_pdn(), 1.2e9);
        let golden = fingerprint_live(&domain, 31);
        let fresh = fingerprint_live(&domain, 32);
        assert_eq!(compare(&golden, &fresh, 0.08), TamperVerdict::Clean);
    }

    #[test]
    fn removed_decap_is_detected() {
        let domain = VoltageDomain::new("A72", CoreModel::cortex_a72(), a72_pdn(), 1.2e9);
        let golden = fingerprint_live(&domain, 33);

        // Tamper: 35% of the shared die/package decap slice is removed
        // (e.g. a reworked package), raising the resonance.
        let mut params = a72_pdn();
        params.die_capacitance.cluster_farads *= 0.50;
        let tampered = VoltageDomain::new("A72*", CoreModel::cortex_a72(), params, 1.2e9);
        let fresh = fingerprint_live(&tampered, 33);

        let verdict = compare(&golden, &fresh, 0.08);
        assert!(verdict.is_tampered(), "verdict {verdict:?}");
        if let TamperVerdict::ResonanceShift { shift, .. } = verdict {
            assert!(shift > 0.0, "less capacitance must raise the resonance");
        }
    }

    #[test]
    fn tolerance_is_respected() {
        let base = PdnFingerprint {
            resonance_hz: 69e6,
            peak_dbm: -60.0,
        };
        let close = PdnFingerprint {
            resonance_hz: 70e6,
            peak_dbm: -61.0,
        };
        let far = PdnFingerprint {
            resonance_hz: 80e6,
            peak_dbm: -60.0,
        };
        assert_eq!(compare(&base, &close, 0.05), TamperVerdict::Clean);
        assert!(compare(&base, &far, 0.05).is_tampered());
    }
}
