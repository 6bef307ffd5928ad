//! Swept spectrum-analyzer model (Agilent E4402B / N9332C stand-in).

use emvolt_dsp::{dbm_to_watts, watts_to_dbm, SpectralBins};
use rand::Rng;
use rand_distr_normal::{sample_normal, skip_normals, NOISE_BOUND_SIGMAS};

/// Gaussian sampling helper without an extra dependency.
mod rand_distr_normal {
    use rand::Rng;

    /// Bound on `|sample_normal(rng, sigma)| / |sigma|`. `u1 >= 1e-12`
    /// caps the Box–Muller radius at `sqrt(-2 ln 1e-12) ≈ 7.434`; the
    /// margin above that covers rounding in the products.
    pub const NOISE_BOUND_SIGMAS: f64 = 7.5;

    /// Box–Muller standard-normal sample scaled to `sigma`.
    pub fn sample_normal<R: Rng>(rng: &mut R, sigma: f64) -> f64 {
        let u1: f64 = rng.gen_range(1e-12..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos() * sigma
    }

    /// Advances `rng` past `count` [`sample_normal`] draws without
    /// computing them: each `gen_range` above is exactly one `next_u64`.
    pub fn skip_normals<R: Rng>(rng: &mut R, count: usize) {
        for _ in 0..2 * count {
            rng.next_u64();
        }
    }
}

/// Spectrum-analyzer configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzerConfig {
    /// Sweep start frequency in Hz.
    pub start_hz: f64,
    /// Sweep stop frequency in Hz.
    pub stop_hz: f64,
    /// Resolution bandwidth in Hz (Gaussian filter sigma ~ RBW/2.355).
    pub rbw_hz: f64,
    /// Displayed average noise level in dBm.
    pub noise_floor_dbm: f64,
    /// Standard deviation of per-point measurement noise in dB.
    pub noise_sigma_db: f64,
    /// Input impedance in ohms (50 by convention).
    pub input_ohms: f64,
    /// Number of displayed points per sweep.
    pub points: usize,
    /// Wall-clock seconds one sweep takes (drives the paper's ~18 s per
    /// 30-sample measurement accounting).
    pub sweep_time_s: f64,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            start_hz: 10e6,
            stop_hz: 250e6,
            rbw_hz: 1e6,
            noise_floor_dbm: -95.0,
            noise_sigma_db: 0.7,
            input_ohms: 50.0,
            points: 481,
            sweep_time_s: 0.6,
        }
    }
}

/// One displayed sweep: `(frequency, level_dbm)` pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReading {
    /// Displayed points.
    pub points: Vec<(f64, f64)>,
}

impl SweepReading {
    /// The marker peak: highest-level point within `[lo, hi]` Hz.
    pub fn peak_in_band(&self, lo: f64, hi: f64) -> Option<(f64, f64)> {
        self.points
            .iter()
            .filter(|(f, _)| *f >= lo && *f <= hi)
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .copied()
    }
}

/// A swept spectrum analyzer measuring the voltage spectrum at its input.
#[derive(Debug, Clone, PartialEq)]
pub struct SpectrumAnalyzer {
    config: AnalyzerConfig,
    elapsed_s: f64,
}

impl SpectrumAnalyzer {
    /// Creates an analyzer with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is non-physical: an empty or
    /// non-finite span, fewer than two points, a non-finite or
    /// non-positive RBW or input impedance, a non-finite noise floor or
    /// noise sigma, or a negative or non-finite sweep time.
    pub fn new(config: AnalyzerConfig) -> Self {
        let c = &config;
        assert!(
            c.start_hz.is_finite()
                && c.stop_hz.is_finite()
                && c.stop_hz > c.start_hz
                && c.rbw_hz.is_finite()
                && c.rbw_hz > 0.0
                && c.points >= 2
                && c.noise_floor_dbm.is_finite()
                && c.noise_sigma_db.is_finite()
                && c.input_ohms.is_finite()
                && c.input_ohms > 0.0
                && c.sweep_time_s.is_finite()
                && c.sweep_time_s >= 0.0,
            "invalid analyzer configuration"
        );
        SpectrumAnalyzer {
            config,
            elapsed_s: 0.0,
        }
    }

    /// Sweeps [`SpectrumAnalyzer::peak_metric`] takes for a request of
    /// `n`: at least one, so a zero-sample request still reads the band.
    pub fn metric_sweeps(n: usize) -> usize {
        n.max(1)
    }

    /// The active configuration.
    pub fn config(&self) -> &AnalyzerConfig {
        &self.config
    }

    /// Accumulated measurement wall-clock in seconds.
    pub fn elapsed(&self) -> f64 {
        self.elapsed_s
    }

    /// Adds externally accounted sweep time — used when sweeps ran on a
    /// detached analyzer clone (e.g. a parallel measurement batch) and
    /// their wall-clock is folded back into this instrument's total.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite `seconds`.
    pub fn advance_elapsed(&mut self, seconds: f64) {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "invalid elapsed advance {seconds}"
        );
        self.elapsed_s += seconds;
    }

    /// Performs one sweep over the input voltage spectrum (volts per bin
    /// at the analyzer input). Generic over [`SpectralBins`], so a
    /// band-limited spectrum sweeps exactly like a dense one: the sweep
    /// already skips zero-amplitude bins, and a band view reads zero
    /// outside its covered range.
    pub fn sweep<R: Rng, S: SpectralBins>(&mut self, input: &S, rng: &mut R) -> SweepReading {
        self.elapsed_s += self.config.sweep_time_s;
        let mut plan = AnalyzerPlan::new();
        plan.prepare(&self.config, input, f64::NEG_INFINITY, f64::INFINITY);
        let floor_w = dbm_to_watts(self.config.noise_floor_dbm);
        let points = plan
            .points
            .iter()
            .map(|p| {
                let level = self.noise_free_level(input, p, &plan.weights, floor_w)
                    + sample_normal(rng, self.config.noise_sigma_db);
                (p.freq, level)
            })
            .collect();
        SweepReading { points }
    }

    /// Displayed level in dBm at display point `point` (of a plan for
    /// this configuration and `input`'s shape) before measurement noise
    /// is added. It depends only on the input and the configuration, so
    /// it is the same in every sweep of one input.
    fn noise_free_level<S: SpectralBins>(
        &self,
        input: &S,
        point: &PlanPoint,
        weights: &[f64],
        floor_w: f64,
    ) -> f64 {
        // Positive-peak detector through the Gaussian RBW filter: the
        // displayed level is the strongest RBW-weighted component in
        // view, which reads a narrowband spike at exactly its power
        // without double-counting the analysis window's main lobe.
        let mut power_w = 0.0f64;
        for (k, &w) in (point.k0..).zip(&weights[point.weights.clone()]) {
            let a = input.amplitude_at(k);
            if a == 0.0 {
                continue;
            }
            // Sine of amplitude a into R: P = a^2 / (2R).
            power_w = power_w.max(w * a * a / (2.0 * self.config.input_ohms));
        }
        watts_to_dbm(power_w + floor_w)
    }

    /// The paper's GA fitness metric: the *mean root square* of `n`
    /// max-amplitude marker readings in `[lo, hi]` Hz — `n` sweeps are
    /// taken (at least one, see [`SpectrumAnalyzer::metric_sweeps`]), each
    /// contributing its band peak in linear power; the metric is the RMS
    /// of those peaks, reported in dBm.
    ///
    /// Bit-identical to taking the sweeps one by one with
    /// [`SpectrumAnalyzer::sweep`] and reading
    /// [`SweepReading::peak_in_band`]: same readings, same elapsed time,
    /// same RNG stream position afterwards. The noise-free levels are
    /// computed once per call, and each sweep only adds noise to the
    /// points that can still be the band peak.
    ///
    /// This is [`SpectrumAnalyzer::peak_metric_planned`] with a plan of
    /// its own.
    ///
    /// Returns `(metric_dbm, dominant_frequency_hz)`.
    pub fn peak_metric<R: Rng, S: SpectralBins>(
        &mut self,
        input: &S,
        lo: f64,
        hi: f64,
        n: usize,
        rng: &mut R,
    ) -> (f64, f64) {
        self.peak_metric_planned(input, lo, hi, n, rng, &mut AnalyzerPlan::new())
    }

    /// [`SpectrumAnalyzer::peak_metric`] through a caller-kept
    /// [`AnalyzerPlan`]: repeated measurements of inputs of one shape over
    /// one band under one configuration reuse its display points, bin
    /// ranges and RBW weights instead of recomputing them. The plan is
    /// rebuilt first whenever the shape, the band or the configuration
    /// differs from the one it was made for, so the result is the same
    /// for any plan passed.
    pub fn peak_metric_planned<R: Rng, S: SpectralBins>(
        &mut self,
        input: &S,
        lo: f64,
        hi: f64,
        n: usize,
        rng: &mut R,
        plan: &mut AnalyzerPlan,
    ) -> (f64, f64) {
        plan.prepare(&self.config, input, lo, hi);
        let floor_w = dbm_to_watts(self.config.noise_floor_dbm);
        // `(display index, frequency, noise-free level)` of the in-band
        // points, in display order.
        let AnalyzerPlan {
            points,
            weights,
            candidates,
            ..
        } = plan;
        candidates.clear();
        candidates.extend(points.iter().map(|p| {
            (
                p.index,
                p.freq,
                self.noise_free_level(input, p, weights, floor_w),
            )
        }));
        // Noise never moves a reading by more than `bound`, so a point
        // whose highest possible reading is below the top point's lowest
        // possible reading can never be the peak (not even on a tie, where
        // the later point would win). Rounding is monotone, so the strict
        // comparison survives it.
        let bound = NOISE_BOUND_SIGMAS * self.config.noise_sigma_db.abs();
        let top = candidates
            .iter()
            .map(|&(_, _, level)| level)
            .fold(f64::NEG_INFINITY, f64::max);
        if top.is_finite() && bound.is_finite() {
            // `partial_cmp` keeps a NaN level, which `total_cmp` could rank
            // as the peak.
            candidates.retain(|&(_, _, level)| {
                (level + bound).partial_cmp(&(top - bound)) != Some(std::cmp::Ordering::Less)
            });
        }

        let c = &self.config;
        let mut acc = 0.0;
        let mut freq_votes: std::collections::BTreeMap<i64, usize> =
            std::collections::BTreeMap::new();
        let mut best_freq = lo;
        let mut hits = 0usize;
        for _ in 0..Self::metric_sweeps(n) {
            // One addition per sweep, as `sweep` does: a single
            // `n * sweep_time_s` would round differently.
            self.elapsed_s += c.sweep_time_s;
            let mut peak: Option<(f64, f64)> = None;
            let mut next = 0;
            for &(i, f, level) in candidates.iter() {
                skip_normals(rng, i - next);
                let reading = level + sample_normal(rng, c.noise_sigma_db);
                // `>=` keeps the last of equal maxima, like `max_by`.
                if peak.is_none_or(|(_, best)| reading.total_cmp(&best).is_ge()) {
                    peak = Some((f, reading));
                }
                next = i + 1;
            }
            skip_normals(rng, c.points - next);
            if let Some((f, dbm)) = peak {
                let p = dbm_to_watts(dbm);
                acc += p * p;
                hits += 1;
                let key = (f / 1e6).round() as i64;
                *freq_votes.entry(key).or_insert(0) += 1;
            }
        }
        if hits == 0 {
            // The requested band holds no displayed points (e.g. a marker
            // outside the sweep span): report the instrument floor.
            return (c.noise_floor_dbm, best_freq);
        }
        if let Some((&key, _)) = freq_votes.iter().max_by_key(|(_, &v)| v) {
            best_freq = key as f64 * 1e6;
        }
        let rms_w = (acc / hits as f64).sqrt();
        (watts_to_dbm(rms_w), best_freq)
    }
}

/// The input-independent part of an analyzer's displayed levels for one
/// input shape and band: the frequency of every display point in the
/// band, the range of bins its Gaussian RBW filter reaches (`f ± 4σ`,
/// `σ = RBW / 2.355`, clamped to the spectrum) and the filter weight of
/// each of those bins.
///
/// A plan is keyed by the input's frequency step (by bits), its bin
/// count, the band edges (by bits) and the analyzer configuration fields
/// it reads (by bits), and [`SpectrumAnalyzer::peak_metric_planned`]
/// rebuilds it whenever one of them differs. The weights are computed by
/// the expressions the per-bin scan used, so a planned level is
/// bit-identical to an unplanned one.
#[derive(Debug, Clone, Default)]
pub struct AnalyzerPlan {
    key: Option<PlanKey>,
    points: Vec<PlanPoint>,
    /// RBW filter weights, point after point.
    weights: Vec<f64>,
    /// `(display index, frequency, noise-free level)` of the points of
    /// the current call.
    candidates: Vec<(usize, f64, f64)>,
}

/// What an [`AnalyzerPlan`] was built for.
#[derive(Debug, Clone, PartialEq)]
struct PlanKey {
    freq_step: u64,
    total_bins: usize,
    /// `lo` and `hi` by bits.
    band: [u64; 2],
    /// `start_hz`, `stop_hz`, `rbw_hz` by bits, and `points`.
    config: [u64; 4],
}

/// One display point of an [`AnalyzerPlan`].
#[derive(Debug, Clone)]
struct PlanPoint {
    /// Position on the display.
    index: usize,
    freq: f64,
    /// First bin the RBW filter reaches.
    k0: usize,
    /// The point's span of [`AnalyzerPlan::weights`], one weight per bin
    /// from `k0` on.
    weights: std::ops::Range<usize>,
}

impl AnalyzerPlan {
    /// An empty plan; the first measurement through it builds it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds the plan for `config`, `input`'s shape and the display
    /// points in `[lo, hi]` unless it was built for them already.
    fn prepare<S: SpectralBins>(&mut self, config: &AnalyzerConfig, input: &S, lo: f64, hi: f64) {
        let key = PlanKey {
            freq_step: input.freq_step().to_bits(),
            total_bins: input.len(),
            band: [lo.to_bits(), hi.to_bits()],
            config: [
                config.start_hz.to_bits(),
                config.stop_hz.to_bits(),
                config.rbw_hz.to_bits(),
                config.points as u64,
            ],
        };
        if self.key.as_ref() == Some(&key) {
            return;
        }
        let sigma = config.rbw_hz / 2.355; // FWHM -> sigma
        self.points.clear();
        self.weights.clear();
        for i in 0..config.points {
            let f_center = config.start_hz
                + (config.stop_hz - config.start_hz) * i as f64 / (config.points - 1) as f64;
            if !(f_center >= lo && f_center <= hi) {
                continue;
            }
            let (f_lo, f_hi) = (f_center - 4.0 * sigma, f_center + 4.0 * sigma);
            let first = self.weights.len();
            let mut k0 = 0;
            if !input.is_empty() {
                k0 = ((f_lo / input.freq_step()).floor().max(0.0)) as usize;
                let k1 = (((f_hi / input.freq_step()).ceil()) as usize).min(input.len() - 1);
                self.weights.extend((k0..=k1).map(|k| {
                    let df = input.freq_at(k) - f_center;
                    (-0.5 * (df / sigma) * (df / sigma)).exp()
                }));
            }
            self.points.push(PlanPoint {
                index: i,
                freq: f_center,
                k0,
                weights: first..self.weights.len(),
            });
        }
        self.key = Some(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emvolt_dsp::{Spectrum, Window};
    use rand::{rngs::StdRng, SeedableRng};

    fn tone_spectrum(f0: f64, amp_v: f64) -> Spectrum {
        let fs = 1e9;
        let n = 8192;
        let s: Vec<f64> = (0..n)
            .map(|i| amp_v * (2.0 * std::f64::consts::PI * f0 * i as f64 / fs).sin())
            .collect();
        Spectrum::of_samples(&s, fs, Window::Hann)
    }

    #[test]
    fn tone_level_is_close_to_theory() {
        // 1 mV peak into 50 ohm: P = 1e-6/100 = 10 nW = -50 dBm.
        let mut sa = SpectrumAnalyzer::new(AnalyzerConfig {
            noise_sigma_db: 0.0,
            ..AnalyzerConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(1);
        let reading = sa.sweep(&tone_spectrum(100e6, 1e-3), &mut rng);
        let (f, dbm) = reading.peak_in_band(50e6, 200e6).unwrap();
        assert!((f - 100e6).abs() < 1e6, "peak at {f:.3e}");
        assert!((dbm - (-50.0)).abs() < 1.5, "level {dbm} dBm");
    }

    #[test]
    fn noise_floor_dominates_when_no_signal() {
        let mut sa = SpectrumAnalyzer::new(AnalyzerConfig::default());
        let mut rng = StdRng::seed_from_u64(2);
        let empty = Spectrum::from_bins(1e6, vec![0.0; 300]);
        let reading = sa.sweep(&empty, &mut rng);
        for (_, dbm) in &reading.points {
            assert!((*dbm - (-95.0)).abs() < 5.0, "floor point {dbm}");
        }
    }

    #[test]
    fn weak_tone_below_floor_is_invisible() {
        let mut sa = SpectrumAnalyzer::new(AnalyzerConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        // -130 dBm-ish tone: far below the -95 dBm floor.
        let reading = sa.sweep(&tone_spectrum(100e6, 1e-7), &mut rng);
        let (_, dbm) = reading.peak_in_band(90e6, 110e6).unwrap();
        assert!(dbm < -88.0, "tone should be buried, got {dbm}");
    }

    #[test]
    fn peak_metric_votes_for_dominant_frequency() {
        let mut sa = SpectrumAnalyzer::new(AnalyzerConfig::default());
        let mut rng = StdRng::seed_from_u64(4);
        let (dbm, f) = sa.peak_metric(&tone_spectrum(67e6, 1e-3), 50e6, 200e6, 30, &mut rng);
        assert!((f - 67e6).abs() < 1.5e6, "dominant {f:.3e}");
        assert!((dbm - (-50.0)).abs() < 2.0, "metric {dbm}");
    }

    #[test]
    fn sweep_time_accumulates() {
        let mut sa = SpectrumAnalyzer::new(AnalyzerConfig::default());
        let mut rng = StdRng::seed_from_u64(5);
        let s = tone_spectrum(80e6, 1e-3);
        let _ = sa.peak_metric(&s, 50e6, 200e6, 30, &mut rng);
        // ~18 s for 30 samples, as the paper reports.
        assert!(
            (sa.elapsed() - 18.0).abs() < 1.0,
            "elapsed {}",
            sa.elapsed()
        );
    }

    #[test]
    fn stronger_tone_reads_higher() {
        let mut sa = SpectrumAnalyzer::new(AnalyzerConfig::default());
        let mut rng = StdRng::seed_from_u64(6);
        let (weak, _) = sa.peak_metric(&tone_spectrum(70e6, 1e-4), 50e6, 200e6, 5, &mut rng);
        let (strong, _) = sa.peak_metric(&tone_spectrum(70e6, 1e-3), 50e6, 200e6, 5, &mut rng);
        assert!(strong > weak + 15.0, "strong {strong} vs weak {weak}");
    }

    /// A band view holding the same bin values as the dense spectrum must
    /// sweep bit-identically inside the band: same displayed levels, same
    /// RNG draw order. This is the contract that lets the measurement
    /// layer swap in Goertzel bands without disturbing seeded campaigns
    /// beyond the documented bin-value tolerance.
    #[test]
    fn band_view_sweep_matches_dense_sweep_in_band() {
        use emvolt_dsp::BandSpectrum;
        let spec = tone_spectrum(100e6, 1e-3);
        let (lo, hi) = (50e6, 200e6);
        let margin = 4.0 * (1e6 / 2.355);
        let k0 = (((lo - margin) / spec.freq_step()).floor()) as usize;
        let k1 = ((((hi + margin) / spec.freq_step()).ceil()) as usize).min(spec.len() - 1);
        let mut band = BandSpectrum::default();
        band.refill_from_bins(
            spec.freq_step(),
            k0,
            spec.len(),
            (k0..=k1).map(|k| spec.amplitude_at(k)),
        );

        let mut sa_dense = SpectrumAnalyzer::new(AnalyzerConfig::default());
        let mut sa_band = SpectrumAnalyzer::new(AnalyzerConfig::default());
        let mut rng_dense = StdRng::seed_from_u64(9);
        let mut rng_band = StdRng::seed_from_u64(9);
        let dense = sa_dense.sweep(&spec, &mut rng_dense);
        let banded = sa_band.sweep(&band, &mut rng_band);
        assert_eq!(dense.points.len(), banded.points.len());
        for ((f1, d1), (f2, d2)) in dense.points.iter().zip(&banded.points) {
            assert_eq!(f1.to_bits(), f2.to_bits());
            if *f1 >= lo && *f1 <= hi {
                assert_eq!(d1.to_bits(), d2.to_bits(), "level diverged at {f1:.3e}");
            }
        }
        // The RNG streams stayed aligned across the whole sweep.
        assert_eq!(rng_dense.gen::<u64>(), rng_band.gen::<u64>());
    }

    /// One plan fed alternating input shapes, bands and configurations
    /// must give what a fresh plan gives on every call: a stale display
    /// point, bin range or weight would show here.
    #[test]
    fn plan_follows_every_shape_and_config_change() {
        let narrow = AnalyzerConfig {
            rbw_hz: 3e6,
            points: 101,
            start_hz: 40e6,
            ..AnalyzerConfig::default()
        };
        let inputs = [tone_spectrum(67e6, 1e-3), {
            let s: Vec<f64> = (0..3000)
                .map(|i| 1e-3 * (2.0 * std::f64::consts::PI * 91e6 * i as f64 / 1e9).sin())
                .collect();
            Spectrum::of_samples(&s, 1e9, Window::Hann)
        }];
        let calls = [
            (0, AnalyzerConfig::default(), (50e6, 200e6)),
            (1, AnalyzerConfig::default(), (50e6, 200e6)),
            (1, narrow.clone(), (50e6, 200e6)),
            (1, narrow.clone(), (80e6, 100e6)),
            (0, narrow, (80e6, 100e6)),
            (0, AnalyzerConfig::default(), (60e6, 70e6)),
        ];
        let mut plan = AnalyzerPlan::new();
        for round in 0..2 {
            for (c, (input, config, (lo, hi))) in calls.iter().enumerate() {
                let input = &inputs[*input];
                let mut fresh = SpectrumAnalyzer::new(config.clone());
                let mut planned = SpectrumAnalyzer::new(config.clone());
                let want = fresh.peak_metric(input, *lo, *hi, 7, &mut StdRng::seed_from_u64(3));
                let got = planned.peak_metric_planned(
                    input,
                    *lo,
                    *hi,
                    7,
                    &mut StdRng::seed_from_u64(3),
                    &mut plan,
                );
                assert_eq!(
                    (want.0.to_bits(), want.1.to_bits()),
                    (got.0.to_bits(), got.1.to_bits()),
                    "round {round}, call {c}"
                );
            }
        }
    }

    /// The Box–Muller extremes, `u1` at its 1e-12 floor with `cos = ±1`,
    /// stay inside the bound `peak_metric`'s skipping relies on, down to
    /// subnormal sigmas.
    #[test]
    fn noise_extremes_stay_inside_the_bound() {
        use rand::rngs::mock::StepRng;
        for sigma in [0.7, -3.0, 1e-300, 5e-324] {
            // Draws 0 then `u2_bits`: u1 = 1e-12, u2 = 0 or 0.5.
            for u2_bits in [0, 1 << 63] {
                let x = sample_normal(&mut StepRng::new(0, u2_bits), sigma);
                assert!(
                    x.abs() <= NOISE_BOUND_SIGMAS * sigma.abs(),
                    "sigma {sigma:e}: |{x:e}| above the bound"
                );
            }
        }
        let worst = sample_normal(&mut StepRng::new(0, 0), 1.0);
        assert!(worst > 7.43, "extreme {worst} should be the Box–Muller cap");
    }

    /// Builds an analyzer from the default configuration with one field
    /// made hostile.
    fn hostile(edit: impl FnOnce(&mut AnalyzerConfig)) {
        let mut config = AnalyzerConfig::default();
        edit(&mut config);
        let _ = SpectrumAnalyzer::new(config);
    }

    #[test]
    #[should_panic(expected = "invalid analyzer configuration")]
    fn rejects_nan_noise_sigma() {
        hostile(|c| c.noise_sigma_db = f64::NAN);
    }

    #[test]
    #[should_panic(expected = "invalid analyzer configuration")]
    fn rejects_infinite_noise_floor() {
        hostile(|c| c.noise_floor_dbm = f64::NEG_INFINITY);
    }

    #[test]
    #[should_panic(expected = "invalid analyzer configuration")]
    fn rejects_nan_rbw() {
        hostile(|c| c.rbw_hz = f64::NAN);
    }

    #[test]
    #[should_panic(expected = "invalid analyzer configuration")]
    fn rejects_infinite_rbw() {
        hostile(|c| c.rbw_hz = f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "invalid analyzer configuration")]
    fn rejects_zero_input_impedance() {
        hostile(|c| c.input_ohms = 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid analyzer configuration")]
    fn rejects_negative_sweep_time() {
        hostile(|c| c.sweep_time_s = -0.6);
    }

    #[test]
    #[should_panic(expected = "invalid analyzer configuration")]
    fn rejects_infinite_sweep_time() {
        hostile(|c| c.sweep_time_s = f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "invalid analyzer configuration")]
    fn rejects_infinite_stop_frequency() {
        hostile(|c| c.stop_hz = f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "invalid analyzer configuration")]
    fn rejects_empty_span() {
        let _ = SpectrumAnalyzer::new(AnalyzerConfig {
            start_hz: 100e6,
            stop_hz: 100e6,
            ..AnalyzerConfig::default()
        });
    }
}
