//! Property-based tests for the instrument models.

use emvolt_circuit::Trace;
use emvolt_dsp::{dbm_to_watts, watts_to_dbm, BandSpectrum, SpectralBins, Spectrum, Window};
use emvolt_inst::{AnalyzerConfig, Oscilloscope, ScopeConfig, SpectrumAnalyzer};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeMap;

fn tone_spectrum(f0: f64, amp_v: f64) -> Spectrum {
    let fs = 1e9;
    let n = 4096;
    let s: Vec<f64> = (0..n)
        .map(|i| amp_v * (2.0 * std::f64::consts::PI * f0 * i as f64 / fs).sin())
        .collect();
    Spectrum::of_samples(&s, fs, Window::Hann)
}

/// `peak_metric` spelled out sweep by sweep: `n.max(1)` public sweeps,
/// each read with the marker, folded into the vote and the RMS.
fn reference_peak_metric<S: SpectralBins>(
    sa: &mut SpectrumAnalyzer,
    input: &S,
    lo: f64,
    hi: f64,
    n: usize,
    rng: &mut StdRng,
) -> (f64, f64) {
    let mut acc = 0.0;
    let mut freq_votes: BTreeMap<i64, usize> = BTreeMap::new();
    let mut hits = 0usize;
    for _ in 0..n.max(1) {
        if let Some((f, dbm)) = sa.sweep(input, rng).peak_in_band(lo, hi) {
            let p = dbm_to_watts(dbm);
            acc += p * p;
            hits += 1;
            *freq_votes.entry((f / 1e6).round() as i64).or_insert(0) += 1;
        }
    }
    if hits == 0 {
        return (sa.config().noise_floor_dbm, lo);
    }
    let (&key, _) = freq_votes.iter().max_by_key(|(_, &v)| v).unwrap();
    (watts_to_dbm((acc / hits as f64).sqrt()), key as f64 * 1e6)
}

/// Runs `peak_metric` and the sweep-by-sweep reference from one seed and
/// checks they agree bit for bit, including the analyzer clock and where
/// the RNG stream is left.
fn assert_peak_metric_matches_reference<S: SpectralBins>(
    input: &S,
    (lo, hi): (f64, f64),
    n: usize,
    sigma_db: f64,
    seed: u64,
) {
    let cfg = AnalyzerConfig {
        noise_sigma_db: sigma_db,
        ..AnalyzerConfig::default()
    };
    let mut sa_fast = SpectrumAnalyzer::new(cfg.clone());
    let mut sa_ref = SpectrumAnalyzer::new(cfg);
    let mut rng_fast = StdRng::seed_from_u64(seed);
    let mut rng_ref = StdRng::seed_from_u64(seed);
    let (dbm, f) = sa_fast.peak_metric(input, lo, hi, n, &mut rng_fast);
    let (dbm_ref, f_ref) = reference_peak_metric(&mut sa_ref, input, lo, hi, n, &mut rng_ref);
    prop_assert_eq!(
        dbm.to_bits(),
        dbm_ref.to_bits(),
        "metric {dbm} vs {dbm_ref}"
    );
    prop_assert_eq!(f.to_bits(), f_ref.to_bits(), "dominant {f} vs {f_ref}");
    prop_assert_eq!(sa_fast.elapsed().to_bits(), sa_ref.elapsed().to_bits());
    prop_assert_eq!(rng_fast.gen::<u64>(), rng_ref.gen::<u64>());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `peak_metric` computes each display point's noise-free level once
    /// and skips points that cannot be the peak; it must still equal the
    /// sweep-by-sweep reading on dense and band inputs, for bands that
    /// are empty, outside the span, narrow, the paper's, or the whole
    /// span, and for zero, negative and large noise.
    #[test]
    fn peak_metric_matches_sweep_by_sweep_reference(
        freq_step in 0.1e6..0.6e6f64,
        bins in prop::collection::vec(
            (0u32..4, 1e-6..1e-2f64).prop_map(|(z, a)| if z == 0 { a } else { 0.0 }),
            0..1200,
        ),
        band_view in any::<bool>(),
        band_cut in (0.0..1.0f64, 0.0..1.0f64),
        band_kind in 0usize..5,
        center in 10e6..250e6f64,
        n in 0usize..=40,
        sigma_pick in 0usize..4,
        seed in any::<u64>(),
    ) {
        let sigma_db = [0.0, 0.7, 3.0, -1.3][sigma_pick];
        let band = match band_kind {
            0 => (120e6, 110e6),
            1 => (300e6, 400e6),
            2 => (center - 3e6, center + 3e6),
            3 => (50e6, 200e6),
            _ => (10e6, 250e6),
        };
        if band_view {
            let len = bins.len();
            let k0 = (band_cut.0 * len as f64) as usize;
            let k1 = (k0 + (band_cut.1 * (len - k0) as f64) as usize).min(len);
            let mut view = BandSpectrum::default();
            view.refill_from_bins(freq_step, k0, len, bins[k0..k1].iter().copied());
            assert_peak_metric_matches_reference(&view, band, n, sigma_db, seed);
        } else {
            let dense = Spectrum::from_bins(freq_step, bins);
            assert_peak_metric_matches_reference(&dense, band, n, sigma_db, seed);
        }
    }

    /// Analytic oracle: without noise, a single-bin tone of amplitude `a`
    /// at offset `df` from a display point reads `w a^2 / (2R)` plus the
    /// floor there, with `w = exp(-df^2 / (2 sigma^2))` and
    /// `sigma = RBW / 2.355`.
    #[test]
    fn single_bin_tone_reads_the_gaussian_rbw_level(
        point in 1usize..480,
        offset_sigmas in -3.5..3.5f64,
        freq_step in 50e3..300e3f64,
        a in 1e-6..1e-1f64,
    ) {
        let cfg = AnalyzerConfig {
            noise_sigma_db: 0.0,
            ..AnalyzerConfig::default()
        };
        let sigma = cfg.rbw_hz / 2.355;
        let f_point = cfg.start_hz
            + (cfg.stop_hz - cfg.start_hz) * point as f64 / (cfg.points - 1) as f64;
        let k = ((f_point + offset_sigmas * sigma) / freq_step).round() as usize;
        let mut bins = vec![0.0; k + 8];
        bins[k] = a;
        let input = Spectrum::from_bins(freq_step, bins);

        let mut sa = SpectrumAnalyzer::new(cfg.clone());
        let reading = sa.sweep(&input, &mut StdRng::seed_from_u64(0));
        let (f, dbm) = reading.points[point];
        prop_assert_eq!(f, f_point);

        let df = k as f64 * freq_step - f_point;
        let w = (-(df * df) / (2.0 * sigma * sigma)).exp();
        let floor_w = 1e-3 * 10f64.powf(cfg.noise_floor_dbm / 10.0);
        let expected = 10.0 * ((w * a * a / (2.0 * cfg.input_ohms) + floor_w) / 1e-3).log10();
        prop_assert!((dbm - expected).abs() < 1e-9, "{dbm} vs {expected}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Analyzer monotonicity: a stronger tone never reads lower (with
    /// noise disabled).
    #[test]
    fn analyzer_is_monotone(f0 in 20e6..240e6f64, a in 1e-5..1e-2f64, k in 1.5..10.0f64) {
        let mut sa = SpectrumAnalyzer::new(AnalyzerConfig {
            noise_sigma_db: 0.0,
            ..AnalyzerConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(0);
        let (weak, _) = sa.peak_metric(&tone_spectrum(f0, a), 10e6, 250e6, 1, &mut rng);
        let (strong, _) = sa.peak_metric(&tone_spectrum(f0, a * k), 10e6, 250e6, 1, &mut rng);
        prop_assert!(strong >= weak, "strong {strong} < weak {weak}");
    }

    /// A noiseless tone reads within 2 dB of its theoretical dBm level
    /// whenever it is comfortably above the floor.
    #[test]
    fn analyzer_levels_match_theory(f0 in 20e6..240e6f64, a in 3e-4..1e-2f64) {
        let mut sa = SpectrumAnalyzer::new(AnalyzerConfig {
            noise_sigma_db: 0.0,
            ..AnalyzerConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(1);
        let (dbm, f) = sa.peak_metric(&tone_spectrum(f0, a), 10e6, 250e6, 1, &mut rng);
        let expected = 10.0 * ((a * a / 100.0) / 1e-3).log10();
        prop_assert!((dbm - expected).abs() < 2.0, "{dbm} vs {expected}");
        prop_assert!((f - f0).abs() < 2e6, "marker at {f}, tone {f0}");
    }

    /// Scope output always lies on the quantization grid and inside the
    /// vertical range, for any input.
    #[test]
    fn scope_output_is_on_grid(
        amp in 0.0..3.0f64,
        offset in -1.0..3.0f64,
        f0 in 1e6..200e6f64,
    ) {
        let cfg = ScopeConfig {
            noise_v: 0.0,
            ..ScopeConfig::oc_dso()
        };
        let scope = Oscilloscope::new(cfg.clone());
        let mut rng = StdRng::seed_from_u64(2);
        let analog = Trace::from_samples(
            0.25e-9,
            (0..4000)
                .map(|i| offset + amp * (2.0 * std::f64::consts::PI * f0 * i as f64 * 0.25e-9).sin())
                .collect(),
        );
        let shot = scope.capture(&analog, &mut rng);
        let lo = cfg.v_center - cfg.v_span / 2.0;
        let hi = cfg.v_center + cfg.v_span / 2.0;
        let lsb = cfg.v_span / (1u64 << cfg.bits) as f64;
        for &v in shot.samples() {
            prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
            let steps = (v - lo) / lsb;
            prop_assert!((steps - steps.round()).abs() < 1e-9);
        }
    }

    /// Scope capture of an in-range signal preserves its mean within an
    /// LSB plus noise.
    #[test]
    fn scope_preserves_mean(offset in 0.8..1.2f64) {
        let cfg = ScopeConfig::oc_dso();
        let lsb = cfg.v_span / (1u64 << cfg.bits) as f64;
        let scope = Oscilloscope::new(cfg);
        let mut rng = StdRng::seed_from_u64(3);
        let analog = Trace::from_samples(1e-9, vec![offset; 4000]);
        let shot = scope.capture(&analog, &mut rng);
        prop_assert!((shot.mean() - offset).abs() < lsb + 1e-3);
    }
}
