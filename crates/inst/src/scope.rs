//! Digital-storage-oscilloscope model, used both as the Juno board's
//! on-chip power-supply monitor (OC-DSO, up to 1.6 GS/s) and as the
//! bench scope probing the AMD board's Kelvin pads.

use emvolt_circuit::Trace;
use rand::Rng;

/// Oscilloscope configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ScopeConfig {
    /// Sampling rate in samples/second.
    pub sample_rate_hz: f64,
    /// ADC resolution in bits.
    pub bits: u32,
    /// Full-scale input range: the scope captures `[v_center - v_span/2,
    /// v_center + v_span/2]`.
    pub v_center: f64,
    /// Full-scale span in volts.
    pub v_span: f64,
    /// RMS input-referred noise in volts.
    pub noise_v: f64,
    /// Maximum record length in samples.
    pub record_len: usize,
}

impl ScopeConfig {
    /// The Juno OC-DSO: 1.6 GS/s, 10-bit, centred on a 1 V rail.
    pub fn oc_dso() -> Self {
        ScopeConfig {
            sample_rate_hz: 1.6e9,
            bits: 10,
            v_center: 1.0,
            v_span: 0.5,
            noise_v: 0.4e-3,
            record_len: 65_536,
        }
    }

    /// A bench scope with a differential probe on package pads.
    pub fn bench_scope() -> Self {
        ScopeConfig {
            sample_rate_hz: 2.5e9,
            bits: 8,
            v_center: 1.4,
            v_span: 1.0,
            noise_v: 1.5e-3,
            record_len: 131_072,
        }
    }
}

/// A sampling oscilloscope.
#[derive(Debug, Clone, PartialEq)]
pub struct Oscilloscope {
    config: ScopeConfig,
}

impl Oscilloscope {
    /// Creates a scope.
    ///
    /// # Panics
    ///
    /// Panics for non-physical configurations.
    pub fn new(config: ScopeConfig) -> Self {
        assert!(
            config.sample_rate_hz > 0.0
                && config.bits >= 4
                && config.v_span > 0.0
                && config.record_len > 0,
            "invalid scope configuration"
        );
        Oscilloscope { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &ScopeConfig {
        &self.config
    }

    /// Captures the analog waveform: resamples to the scope clock,
    /// adds input noise, clips to the vertical range and quantizes.
    pub fn capture<R: Rng>(&self, analog: &Trace, rng: &mut R) -> Trace {
        let c = &self.config;
        let dt_out = 1.0 / c.sample_rate_hz;
        let n_out = ((analog.duration() / dt_out).floor() as usize).min(c.record_len);
        let lsb = c.v_span / (1u64 << c.bits) as f64;
        let lo = c.v_center - c.v_span / 2.0;
        let hi = c.v_center + c.v_span / 2.0;
        let samples: Vec<f64> = (0..n_out)
            .map(|i| {
                let t = i as f64 * dt_out;
                // Linear interpolation between analog samples.
                let x = t / analog.dt();
                let k = x.floor() as usize;
                let frac = x - k as f64;
                let s = analog.samples();
                let v = if k + 1 < s.len() {
                    s[k] * (1.0 - frac) + s[k + 1] * frac
                } else {
                    *s.last().unwrap_or(&0.0)
                };
                let noisy = v + gaussian(rng, c.noise_v);
                let clipped = noisy.clamp(lo, hi);
                // Mid-tread quantization.
                lo + ((clipped - lo) / lsb).round() * lsb
            })
            .collect();
        Trace::from_samples(dt_out, samples)
    }
}

fn gaussian<R: Rng>(rng: &mut R, sigma: f64) -> f64 {
    if sigma <= 0.0 {
        return 0.0;
    }
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos() * sigma
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn sine_trace(f0: f64, amp: f64, offset: f64, fs: f64, n: usize) -> Trace {
        Trace::from_samples(
            1.0 / fs,
            (0..n)
                .map(|i| offset + amp * (2.0 * std::f64::consts::PI * f0 * i as f64 / fs).sin())
                .collect(),
        )
    }

    #[test]
    fn captures_amplitude_faithfully() {
        let scope = Oscilloscope::new(ScopeConfig::oc_dso());
        let mut rng = StdRng::seed_from_u64(1);
        let analog = sine_trace(67e6, 0.02, 1.0, 8e9, 8000);
        let shot = scope.capture(&analog, &mut rng);
        assert!(
            (shot.peak_to_peak() - 0.04).abs() < 0.005,
            "p2p {}",
            shot.peak_to_peak()
        );
        assert!((shot.mean() - 1.0).abs() < 0.002);
    }

    #[test]
    fn quantization_grid_is_respected() {
        let mut cfg = ScopeConfig::oc_dso();
        cfg.noise_v = 0.0;
        cfg.bits = 6;
        let scope = Oscilloscope::new(cfg.clone());
        let mut rng = StdRng::seed_from_u64(2);
        let analog = sine_trace(10e6, 0.1, 1.0, 8e9, 4000);
        let shot = scope.capture(&analog, &mut rng);
        let lsb = cfg.v_span / 64.0;
        let lo = cfg.v_center - cfg.v_span / 2.0;
        for &v in shot.samples() {
            let steps = (v - lo) / lsb;
            assert!((steps - steps.round()).abs() < 1e-9, "off-grid sample {v}");
        }
    }

    #[test]
    fn clipping_at_range_edges() {
        let mut cfg = ScopeConfig::oc_dso();
        cfg.noise_v = 0.0;
        let scope = Oscilloscope::new(cfg.clone());
        let mut rng = StdRng::seed_from_u64(3);
        let analog = sine_trace(10e6, 2.0, 1.0, 8e9, 4000); // way over range
        let shot = scope.capture(&analog, &mut rng);
        let hi = cfg.v_center + cfg.v_span / 2.0;
        let lo = cfg.v_center - cfg.v_span / 2.0;
        assert!(shot.max() <= hi + 1e-9);
        assert!(shot.min() >= lo - 1e-9);
    }

    #[test]
    fn record_length_caps_capture() {
        let mut cfg = ScopeConfig::oc_dso();
        cfg.record_len = 100;
        let scope = Oscilloscope::new(cfg);
        let mut rng = StdRng::seed_from_u64(4);
        let analog = sine_trace(10e6, 0.01, 1.0, 8e9, 100_000);
        let shot = scope.capture(&analog, &mut rng);
        assert_eq!(shot.len(), 100);
    }

    #[test]
    fn resampling_preserves_frequency() {
        use emvolt_dsp::{Spectrum, Window};
        let scope = Oscilloscope::new(ScopeConfig::oc_dso());
        let mut rng = StdRng::seed_from_u64(5);
        let analog = sine_trace(67e6, 0.02, 1.0, 8e9, 65_536);
        let shot = scope.capture(&analog, &mut rng);
        let spec = Spectrum::of_trace(&shot, Window::Hann);
        let (f, _) = spec.peak_in_band(10e6, 400e6).unwrap();
        assert!((f - 67e6).abs() < 1e6, "peak {f:.3e}");
    }
}
