//! Simultaneous multi-domain voltage-noise monitoring (§6.1, Fig. 15).
//!
//! A single antenna picks up the emanations of every voltage domain in
//! range at once — something no physically attached probe can do. Running
//! the A72 and A53 viruses together produces a spectrum with both
//! frequency signatures visible. The capture itself is
//! [`MeasurementBackend::capture_combined`](emvolt_backend::MeasurementBackend::capture_combined);
//! this module picks the signatures out of its reading.

use emvolt_inst::SweepReading;

/// A detected voltage-noise signature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Signature {
    /// Frequency of the spike, Hz.
    pub freq_hz: f64,
    /// Level in dBm.
    pub level_dbm: f64,
}

/// Analyzer-noise seed of a multi-domain monitoring capture.
pub const CAPTURE_SEED: u64 = 0x515;

/// Extracts up to `count` signatures at least `min_separation_hz` apart
/// and at least `min_above_floor_db` above the analyzer noise floor.
///
/// Candidates are considered strongest-first; two spikes at exactly the
/// same level are tie-broken by ascending frequency, so the selection is
/// a pure function of the reading rather than of the analyzer's point
/// order. The returned signatures are sorted by ascending frequency.
pub fn detect_signatures(
    reading: &SweepReading,
    noise_floor_dbm: f64,
    count: usize,
    min_separation_hz: f64,
    min_above_floor_db: f64,
) -> Vec<Signature> {
    let mut candidates: Vec<(f64, f64)> = reading
        .points
        .iter()
        .copied()
        .filter(|(_, dbm)| *dbm > noise_floor_dbm + min_above_floor_db)
        .collect();
    candidates.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.total_cmp(&b.0)));
    let mut picked: Vec<Signature> = Vec::new();
    for (f, dbm) in candidates {
        if picked.len() >= count {
            break;
        }
        if picked
            .iter()
            .all(|s| (s.freq_hz - f).abs() >= min_separation_hz)
        {
            picked.push(Signature {
                freq_hz: f,
                level_dbm: dbm,
            });
        }
    }
    picked.sort_by(|a, b| a.freq_hz.total_cmp(&b.freq_hz));
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use emvolt_backend::{CombinedSource, LiveBackend, MeasurementBackend};
    use emvolt_cpu::CoreModel;
    use emvolt_isa::{kernels::padded_sweep_kernel, Isa};
    use emvolt_obs::Telemetry;
    use emvolt_platform::{a53_pdn, a72_pdn, EmBench, RunConfig, VoltageDomain};

    #[test]
    fn both_domain_signatures_are_visible() {
        let a72 = VoltageDomain::new("A72", CoreModel::cortex_a72(), a72_pdn(), 1.2e9);
        let a53 = VoltageDomain::new("A53", CoreModel::cortex_a53(), a53_pdn(), 950e6);
        // Kernels whose loop frequencies sit near each cluster's
        // first-order resonance, so both radiate strongly and at
        // distinct frequencies (69 vs 76.5 MHz).
        let k72 = padded_sweep_kernel(Isa::ArmV8, 17);
        let k53 = padded_sweep_kernel(Isa::ArmV8, 8);
        let mut backend = LiveBackend::new(vec![a72, a53], EmBench::new(6), RunConfig::fast());
        let reading = backend
            .capture_combined(
                &[
                    CombinedSource {
                        domain: "A72",
                        kernel: Some(&k72),
                        loaded_cores: 2,
                    },
                    CombinedSource {
                        domain: "A53",
                        kernel: Some(&k53),
                        loaded_cores: 4,
                    },
                ],
                CAPTURE_SEED,
                &Telemetry::noop(),
            )
            .unwrap();
        let sigs = detect_signatures(&reading, -95.0, 4, 4e6, 10.0);
        assert!(
            sigs.len() >= 2,
            "expected at least two signatures, got {sigs:?}"
        );
        assert!(
            sigs.windows(2).all(|w| w[0].freq_hz < w[1].freq_hz),
            "signatures must come back frequency-sorted: {sigs:?}"
        );
    }

    fn reading_of(points: Vec<(f64, f64)>) -> SweepReading {
        SweepReading { points }
    }

    #[test]
    fn equal_levels_tie_break_toward_lower_frequency() {
        // Three equal-level spikes: with room for two picks separated by
        // 10 MHz, the selection must prefer the lower frequencies rather
        // than depend on input order.
        let reading = reading_of(vec![(90e6, -50.0), (70e6, -50.0), (110e6, -50.0)]);
        let sigs = detect_signatures(&reading, -95.0, 2, 10e6, 10.0);
        assert_eq!(sigs.len(), 2);
        assert_eq!(sigs[0].freq_hz, 70e6);
        assert_eq!(sigs[1].freq_hz, 90e6);

        // Input order must not matter.
        let shuffled = reading_of(vec![(110e6, -50.0), (90e6, -50.0), (70e6, -50.0)]);
        assert_eq!(detect_signatures(&shuffled, -95.0, 2, 10e6, 10.0), sigs);
    }

    #[test]
    fn signatures_return_sorted_by_frequency() {
        // Strongest spike sits at the highest frequency; output must
        // still be frequency-ascending.
        let reading = reading_of(vec![(150e6, -40.0), (60e6, -55.0), (100e6, -45.0)]);
        let sigs = detect_signatures(&reading, -95.0, 3, 5e6, 10.0);
        assert_eq!(sigs.len(), 3);
        let freqs: Vec<f64> = sigs.iter().map(|s| s.freq_hz).collect();
        assert_eq!(freqs, vec![60e6, 100e6, 150e6]);
        // The strongest level survives selection untouched.
        assert_eq!(sigs[2].level_dbm, -40.0);
    }

    #[test]
    fn no_signatures_in_silence() {
        let a72 = VoltageDomain::new("A72", CoreModel::cortex_a72(), a72_pdn(), 1.2e9);
        let mut backend = LiveBackend::single(a72, EmBench::new(7), RunConfig::fast());
        let idle = CombinedSource {
            domain: "A72",
            kernel: None,
            loaded_cores: 0,
        };
        let reading = backend
            .capture_combined(&[idle], CAPTURE_SEED, &Telemetry::noop())
            .unwrap();
        let sigs = detect_signatures(&reading, -95.0, 4, 10e6, 15.0);
        assert!(sigs.is_empty(), "unexpected signatures {sigs:?}");
    }
}
