//! The radiation link: die current spectrum -> received voltage spectrum.
//!
//! §2.2 of the paper: on-chip interconnect acts as a distributed
//! transmitting antenna whose radiated power at frequency `f` is
//! *quadratic* in the oscillatory feed-current amplitude at `f` (Hertzian
//! dipole, radiation resistance ∝ f²). The received *voltage* amplitude at
//! the spectrum-analyzer input is therefore proportional to
//! `f · |I_die(f)|`, scaled by near-field coupling and the receive
//! antenna's transfer gain.

use crate::antenna::LoopAntenna;
use emvolt_dsp::{BandSpectrum, Spectrum};

/// An EM measurement channel: emitter coupling + receive antenna.
#[derive(Debug, Clone, PartialEq)]
pub struct EmChannel {
    /// Receive antenna.
    pub antenna: LoopAntenna,
    /// Antenna-to-die distance in metres (5–10 cm in the paper).
    pub distance_m: f64,
    /// Dimensionless emitter strength: captures die geometry, package
    /// shielding and probe orientation. Calibrated per platform so
    /// received levels land in a realistic dBm range.
    pub coupling: f64,
    /// Reference distance at which `coupling` is specified.
    pub reference_distance_m: f64,
}

impl Default for EmChannel {
    fn default() -> Self {
        EmChannel {
            antenna: LoopAntenna::default(),
            distance_m: 0.07,
            coupling: 1.0e-3,
            reference_distance_m: 0.07,
        }
    }
}

impl EmChannel {
    /// Frequency-dependent transfer magnitude from die-current amplitude
    /// (amps) to received voltage amplitude (volts) at `freq`.
    ///
    /// `|H(f)| = coupling * (f / 100 MHz) * gain(f) * (d_ref / d)^3`
    ///
    /// The `f` term is the Hertzian radiation-resistance slope expressed
    /// on the amplitude; the cubic distance law models magnetic near-field
    /// coupling at centimetre range.
    pub fn transfer(&self, freq: f64) -> f64 {
        if freq <= 0.0 {
            return 0.0;
        }
        let distance_factor = (self.reference_distance_m / self.distance_m).powi(3);
        self.coupling * (freq / 100e6) * self.antenna.gain(freq) * distance_factor
    }

    /// Maps a die-current amplitude spectrum (amps per bin) to the
    /// received voltage amplitude spectrum (volts per bin) at the analyzer
    /// input.
    pub fn received_spectrum(&self, die_current: &Spectrum) -> Spectrum {
        let mut out = Spectrum::default();
        self.received_spectrum_into_with(die_current, &mut out, &emvolt_obs::Telemetry::noop());
        out
    }

    /// Maps a die-current amplitude spectrum into an existing `Spectrum`,
    /// reusing its bin storage, and charges the propagation to
    /// `telemetry`'s received-spectrum counter. Bit-identical to
    /// [`EmChannel::received_spectrum`].
    pub fn received_spectrum_into_with(
        &self,
        die_current: &Spectrum,
        out: &mut Spectrum,
        telemetry: &emvolt_obs::Telemetry,
    ) {
        out.refill_from_bins(
            die_current.freq_step(),
            (0..die_current.len())
                .map(|k| die_current.amplitude_at(k) * self.transfer(die_current.freq_at(k))),
        );
        telemetry.count(emvolt_obs::CounterId::RxSpectra, 1);
    }

    /// Maps a band-limited die-current spectrum to the received band at
    /// the analyzer input — the [`BandSpectrum`] counterpart of
    /// [`EmChannel::received_spectrum_into_with`], applying the identical
    /// per-bin transfer to only the covered bins. This is the one-lane
    /// call of [`EmChannel::received_spectrum_batch_into`].
    pub fn received_band_into_with(
        &self,
        die_current: &BandSpectrum,
        out: &mut BandSpectrum,
        telemetry: &emvolt_obs::Telemetry,
    ) {
        self.received_spectrum_batch_into(
            &[die_current],
            std::slice::from_mut(out),
            &mut Vec::new(),
            telemetry,
        );
    }

    /// Batched band propagation: maps several lanes' die-current bands to
    /// received bands, scaling each covered bin `k` by `|H(f_k)|`.
    ///
    /// The transfer values are computed into `transfer` once per bin grid
    /// and shared by every following lane on the same grid (the batched
    /// measurement chain's case — equal record lengths and band), so a
    /// lane's output never depends on which lanes it was batched with.
    /// One received-spectrum counter tick is charged per lane.
    ///
    /// # Panics
    ///
    /// Panics if `outs` is shorter than `die_currents`.
    pub fn received_spectrum_batch_into(
        &self,
        die_currents: &[&BandSpectrum],
        outs: &mut [BandSpectrum],
        transfer: &mut Vec<f64>,
        telemetry: &emvolt_obs::Telemetry,
    ) {
        use emvolt_dsp::SpectralBins;
        assert!(outs.len() >= die_currents.len(), "one output band per lane");
        let mut grid = None;
        for (band, out) in die_currents.iter().zip(outs.iter_mut()) {
            let k0 = band.first_bin();
            let band_grid = (band.freq_step().to_bits(), k0, band.covered_bins());
            if grid != Some(band_grid) {
                transfer.clear();
                transfer
                    .extend((k0..k0 + band.covered_bins()).map(|k| self.transfer(band.freq_at(k))));
                grid = Some(band_grid);
            }
            // Per-lane scaling through the dispatched SIMD multiply: the
            // plain `a * h` product per bin.
            out.refill_from_product(
                band.freq_step(),
                k0,
                band.len(),
                band.amplitudes(),
                transfer,
            );
        }
        telemetry.count(emvolt_obs::CounterId::RxSpectra, die_currents.len() as u64);
    }

    /// Combines several simultaneously radiating sources (e.g. the two
    /// voltage domains of §6.1) incoherently: received power adds, so
    /// amplitudes combine root-sum-square per bin.
    ///
    /// Accepts any slice of owned spectra or references, so callers need
    /// not build an intermediate `Vec<&Spectrum>`.
    ///
    /// # Panics
    ///
    /// Panics if the spectra have different bin widths or lengths.
    pub fn received_multi<S: std::borrow::Borrow<Spectrum>>(&self, sources: &[S]) -> Spectrum {
        if sources.is_empty() {
            return Spectrum::from_bins(1.0, Vec::new());
        }
        let first = sources[0].borrow();
        let step = first.freq_step();
        let len = first.len();
        for s in sources {
            let s = s.borrow();
            assert!(
                (s.freq_step() - step).abs() < 1e-9 * step && s.len() == len,
                "source spectra must share the same grid"
            );
        }
        let amps: Vec<f64> = (0..len)
            .map(|k| {
                let f = first.freq_at(k);
                let h = self.transfer(f);
                let p: f64 = sources
                    .iter()
                    .map(|s| {
                        let a = s.borrow().amplitude_at(k) * h;
                        a * a
                    })
                    .sum();
                p.sqrt()
            })
            .collect();
        Spectrum::from_bins(step, amps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emvolt_dsp::Window;

    fn tone_spectrum(f0: f64, amp: f64) -> Spectrum {
        let fs = 1e9;
        let n = 4096;
        let s: Vec<f64> = (0..n)
            .map(|i| amp * (2.0 * std::f64::consts::PI * f0 * i as f64 / fs).sin())
            .collect();
        Spectrum::of_samples(&s, fs, Window::Hann)
    }

    #[test]
    fn quadratic_power_in_current_amplitude() {
        let ch = EmChannel::default();
        let a1 = ch
            .received_spectrum(&tone_spectrum(70e6, 1.0))
            .peak_in_band(10e6, 400e6)
            .unwrap()
            .1;
        let a2 = ch
            .received_spectrum(&tone_spectrum(70e6, 2.0))
            .peak_in_band(10e6, 400e6)
            .unwrap()
            .1;
        // Voltage doubles => received power quadruples.
        assert!((a2 / a1 - 2.0).abs() < 0.02, "ratio {}", a2 / a1);
    }

    #[test]
    fn closer_antenna_receives_more() {
        let mut ch = EmChannel::default();
        let far = ch
            .received_spectrum(&tone_spectrum(70e6, 1.0))
            .peak_in_band(10e6, 400e6)
            .unwrap()
            .1;
        ch.distance_m = 0.05;
        let near = ch
            .received_spectrum(&tone_spectrum(70e6, 1.0))
            .peak_in_band(10e6, 400e6)
            .unwrap()
            .1;
        assert!(near > 2.0 * far, "near {near}, far {far}");
    }

    #[test]
    fn peak_frequency_is_preserved() {
        let ch = EmChannel::default();
        let rx = ch.received_spectrum(&tone_spectrum(120e6, 0.5));
        let (f, _) = rx.peak_in_band(10e6, 400e6).unwrap();
        assert!((f - 120e6).abs() < 1e6);
    }

    #[test]
    fn multi_source_shows_both_signatures() {
        let ch = EmChannel::default();
        let a = tone_spectrum(67e6, 1.0);
        let b = tone_spectrum(150e6, 0.8);
        let rx = ch.received_multi(&[&a, &b]);
        let peaks = rx.peaks_in_band(20e6, 400e6, 2, 20e6);
        assert_eq!(peaks.len(), 2);
        let freqs: Vec<f64> = peaks.iter().map(|p| p.0).collect();
        assert!(freqs.iter().any(|&f| (f - 67e6).abs() < 2e6));
        assert!(freqs.iter().any(|&f| (f - 150e6).abs() < 2e6));
    }

    /// The band path applies the same per-bin transfer arithmetic, so
    /// covered bins must match the full received spectrum to rounding of
    /// the underlying Goertzel-vs-FFT input bins.
    #[test]
    fn band_transfer_matches_full_transfer_per_bin() {
        use emvolt_dsp::{of_samples_band_into, BandSpectrum, GoertzelScratch, SpectralBins};
        let ch = EmChannel::default();
        let fs = 1e9;
        let s: Vec<f64> = (0..4096)
            .map(|i| (2.0 * std::f64::consts::PI * 70e6 * i as f64 / fs).sin())
            .collect();
        let full_i = Spectrum::of_samples(&s, fs, Window::Hann);
        let mut rx_full = Spectrum::default();
        ch.received_spectrum_into_with(&full_i, &mut rx_full, &emvolt_obs::Telemetry::noop());

        let mut scratch = GoertzelScratch::new();
        let mut band_i = BandSpectrum::default();
        of_samples_band_into(&s, fs, Window::Hann, 50e6, 200e6, &mut scratch, &mut band_i);
        let mut rx_band = BandSpectrum::default();
        ch.received_band_into_with(&band_i, &mut rx_band, &emvolt_obs::Telemetry::noop());

        assert_eq!(rx_band.freq_step(), rx_full.freq_step());
        assert_eq!(SpectralBins::len(&rx_band), rx_full.len());
        let peak = rx_full.amplitudes().iter().fold(0.0f64, |m, &v| m.max(v));
        for k in rx_band.first_bin()..rx_band.first_bin() + rx_band.covered_bins() {
            let a = rx_full.amplitude_at(k);
            let b = SpectralBins::amplitude_at(&rx_band, k);
            assert!(
                (a - b).abs() <= 1e-9 * peak.max(1e-300),
                "bin {k}: full={a}, band={b}"
            );
        }
    }

    /// The batched band propagation must reproduce per-lane serial calls
    /// bit-for-bit, both on the shared-grid fast path and the mixed-grid
    /// fallback.
    #[test]
    fn batched_band_transfer_is_bit_identical_to_serial() {
        use emvolt_dsp::{of_samples_band_into, BandSpectrum, GoertzelScratch, SpectralBins};
        let ch = EmChannel::default();
        let tel = emvolt_obs::Telemetry::noop();
        let fs = 1e9;
        let make_band = |f0: f64, n: usize| {
            let s: Vec<f64> = (0..n)
                .map(|i| (2.0 * std::f64::consts::PI * f0 * i as f64 / fs).sin())
                .collect();
            let mut band = BandSpectrum::default();
            let mut sc = GoertzelScratch::new();
            of_samples_band_into(&s, fs, Window::Hann, 50e6, 200e6, &mut sc, &mut band);
            band
        };

        for lens in [[4096usize, 4096, 4096], [4096, 2048, 4096]] {
            let bands: Vec<BandSpectrum> = [70e6, 110e6, 150e6]
                .iter()
                .zip(lens)
                .map(|(&f0, n)| make_band(f0, n))
                .collect();
            let refs: Vec<&BandSpectrum> = bands.iter().collect();
            let mut outs = vec![BandSpectrum::default(); bands.len()];
            let mut transfer = Vec::new();
            ch.received_spectrum_batch_into(&refs, &mut outs, &mut transfer, &tel);
            for (band, out) in bands.iter().zip(&outs) {
                let mut serial = BandSpectrum::default();
                ch.received_band_into_with(band, &mut serial, &tel);
                assert_eq!(serial.first_bin(), out.first_bin());
                assert_eq!(serial.covered_bins(), out.covered_bins());
                assert_eq!(serial.freq_step().to_bits(), out.freq_step().to_bits());
                for (a, b) in serial.amplitudes().iter().zip(out.amplitudes()) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    #[test]
    fn multi_source_power_addition() {
        let ch = EmChannel::default();
        let a = tone_spectrum(70e6, 1.0);
        let single = ch
            .received_multi(&[&a])
            .peak_in_band(10e6, 400e6)
            .unwrap()
            .1;
        let double = ch
            .received_multi(&[&a, &a])
            .peak_in_band(10e6, 400e6)
            .unwrap()
            .1;
        assert!(
            (double / single - std::f64::consts::SQRT_2).abs() < 0.02,
            "incoherent sum must grow by sqrt(2), got {}",
            double / single
        );
    }
}
