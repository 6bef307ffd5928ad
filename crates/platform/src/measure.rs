//! The EM measurement rig: antenna + spectrum analyzer aimed at a
//! platform, plus helpers that run the full physics chain
//! (kernel -> current -> PDN -> radiation -> analyzer).

use crate::domain::DomainRun;
use emvolt_dsp::{
    of_samples_band_multi_into, BandSpectrum, GoertzelScratch, Spectrum, SpectrumScratch, Window,
};
use emvolt_em::EmChannel;
use emvolt_inst::{AnalyzerConfig, AnalyzerPlan, SpectrumAnalyzer, SweepReading};
use emvolt_obs::{CounterId, HistId, Layer, Telemetry};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The paper's first-order search band: 50–200 MHz.
pub const RESONANCE_BAND: (f64, f64) = (50e6, 200e6);

/// Widens `[lo, hi]` by the analyzer's Gaussian RBW skirt (the scan
/// evaluates each display point over `f ± 4σ`, `σ = RBW / 2.355`), so the
/// band path feeds every bin the sweep can touch.
fn band_with_margin(config: &AnalyzerConfig, lo: f64, hi: f64) -> (f64, f64) {
    let margin = 4.0 * (config.rbw_hz / 2.355);
    (lo - margin, hi + margin)
}

/// Reusable buffers for the spectrum half of a measurement: the FFT
/// scratch plus the die-current and received spectra. Checking one out
/// per evaluation slot makes repeated measurements allocation-free at
/// steady state.
#[derive(Debug, Clone, Default)]
pub struct MeasureScratch {
    spec: SpectrumScratch,
    i_spec: Spectrum,
    rx: Spectrum,
    goertzel: GoertzelScratch,
    /// Per-lane die-current bands, lane order.
    i_bands: Vec<BandSpectrum>,
    /// Per-lane received bands, lane order.
    rx_bands: Vec<BandSpectrum>,
    /// Shared per-bin channel-transfer values.
    transfer: Vec<f64>,
    /// The analyzer's display points, bin ranges and RBW weights for the
    /// last band shape, reused by the serial rig and the seeded lanes.
    analyzer: AnalyzerPlan,
    telemetry: Telemetry,
}

impl MeasureScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a telemetry handle, propagating it to the spectrum
    /// scratch so FFT and channel-propagation work is charged too. The
    /// default handle is inert.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.spec.set_telemetry(telemetry.clone());
        self.goertzel.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// The attached telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Fills `self.rx` with the received spectrum of `run` through
    /// `channel`, reusing every buffer.
    fn refresh_rx(&mut self, channel: &EmChannel, run: &DomainRun) {
        Spectrum::of_trace_into(&run.i_die, Window::Hann, &mut self.spec, &mut self.i_spec);
        channel.received_spectrum_into_with(&self.i_spec, &mut self.rx, &self.telemetry);
    }

    /// Fills `self.rx_bands[..runs.len()]` with the received bands
    /// `[lo, hi]` Hz of `runs` through `channel`, evaluating only the
    /// covered bins: one multi-lane Goertzel pass, then one batched
    /// channel propagation.
    fn refresh_rx_bands(&mut self, channel: &EmChannel, runs: &[&DomainRun], lo: f64, hi: f64) {
        let samples: Vec<&[f64]> = runs.iter().map(|r| r.i_die.samples()).collect();
        self.i_bands.resize_with(runs.len(), BandSpectrum::default);
        self.rx_bands.resize_with(runs.len(), BandSpectrum::default);
        of_samples_band_multi_into(
            &samples,
            runs[0].i_die.sample_rate(),
            Window::Hann,
            lo,
            hi,
            &mut self.goertzel,
            &mut self.i_bands,
        );
        let i_refs: Vec<&BandSpectrum> = self.i_bands.iter().collect();
        channel.received_spectrum_batch_into(
            &i_refs,
            &mut self.rx_bands,
            &mut self.transfer,
            &self.telemetry,
        );
    }
}

/// Where an in-band measurement draws its analyzer noise from — the one
/// thing that differs between the stateful rig and the seeded shared
/// chain.
enum Noise<'a> {
    /// The rig's own analyzer and RNG, advanced call over call.
    Rig {
        analyzer: &'a mut SpectrumAnalyzer,
        rng: &'a mut StdRng,
    },
    /// A throwaway analyzer per lane, lane `l` drawing from `seeds[l]`;
    /// sweep time accumulates into `elapsed`.
    Seeded {
        config: &'a AnalyzerConfig,
        seeds: &'a [u64],
        elapsed: &'a Mutex<f64>,
    },
}

impl Noise<'_> {
    fn config(&self) -> &AnalyzerConfig {
        match self {
            Noise::Rig { analyzer, .. } => analyzer.config(),
            Noise::Seeded { config, .. } => config,
        }
    }

    /// Lane `lane`'s `(metric_dbm, dominant_hz)` over `rx`, through
    /// `plan`.
    fn peak(
        &mut self,
        lane: usize,
        rx: &BandSpectrum,
        (lo, hi): (f64, f64),
        n: usize,
        plan: &mut AnalyzerPlan,
    ) -> (f64, f64) {
        match self {
            Noise::Rig { analyzer, rng } => analyzer.peak_metric_planned(rx, lo, hi, n, *rng, plan),
            Noise::Seeded {
                config,
                seeds,
                elapsed,
            } => {
                let mut analyzer = SpectrumAnalyzer::new((*config).clone());
                let mut rng = StdRng::seed_from_u64(seeds[lane]);
                let reading = analyzer.peak_metric_planned(rx, lo, hi, n, &mut rng, plan);
                *elapsed.lock() += analyzer.elapsed();
                reading
            }
        }
    }
}

/// The in-band measurement chain behind every `measure*` entry point:
/// `n` analyzer sweeps over `[lo, hi]` Hz for each lane of `runs`, in
/// lane order.
///
/// The received spectrum is evaluated only over the bins the analyzer
/// scan can reach (the band plus its RBW skirt), by Goertzel. It applies
/// the same window, per-bin scaling and channel transfer as the full
/// FFT, so readings agree with an FFT-fed analyzer to rounding (~1e-9
/// relative on bin amplitudes); displayed sweeps keep the full FFT.
///
/// Lanes sharing one record length and sample rate go through the
/// multi-lane Goertzel and the batched channel propagation together;
/// otherwise each lane goes alone. Either way a lane's reading depends
/// only on its run and its noise, so it is bit-identical whatever it was
/// batched with, and per-lane measurement accounting is recorded in lane
/// order.
fn measure_lanes(
    channel: &EmChannel,
    runs: &[&DomainRun],
    lo: f64,
    hi: f64,
    n: usize,
    noise: &mut Noise<'_>,
    scratch: &mut MeasureScratch,
) -> Vec<EmReading> {
    let Some(first) = runs.first() else {
        return Vec::new();
    };
    let (blo, bhi) = band_with_margin(noise.config(), lo, hi);
    let uniform = runs.iter().all(|r| {
        r.i_die.samples().len() == first.i_die.samples().len()
            && r.i_die.sample_rate() == first.i_die.sample_rate()
    });
    let groups: Vec<&[&DomainRun]> = if uniform {
        vec![runs]
    } else {
        runs.chunks(1).collect()
    };
    let mut readings = Vec::with_capacity(runs.len());
    for group in groups {
        scratch.refresh_rx_bands(channel, group, blo, bhi);
        for rx in &scratch.rx_bands[..group.len()] {
            let (metric_dbm, dominant_hz) =
                noise.peak(readings.len(), rx, (lo, hi), n, &mut scratch.analyzer);
            record_measurement(&scratch.telemetry, lo, hi, n, metric_dbm, dominant_hz);
            readings.push(EmReading {
                metric_dbm,
                dominant_hz,
            });
        }
    }
    readings
}

/// One EM reading of a running workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmReading {
    /// The GA metric: mean-root-square of the per-sweep band peaks, dBm.
    pub metric_dbm: f64,
    /// The frequency at which the peak most often occurred.
    pub dominant_hz: f64,
}

/// An antenna + spectrum-analyzer rig pointed at one or more domains.
#[derive(Debug)]
pub struct EmBench {
    /// The radiation channel (antenna, distance, coupling).
    pub channel: EmChannel,
    /// The spectrum analyzer at the end of the coax.
    pub analyzer: SpectrumAnalyzer,
    rng: StdRng,
    scratch: MeasureScratch,
}

impl EmBench {
    /// Creates a rig with default channel/analyzer and a measurement-noise
    /// seed.
    pub fn new(seed: u64) -> Self {
        EmBench {
            channel: EmChannel::default(),
            analyzer: SpectrumAnalyzer::new(AnalyzerConfig::default()),
            rng: StdRng::seed_from_u64(seed),
            scratch: MeasureScratch::new(),
        }
    }

    /// Received spectrum with several domains radiating at once (§6.1).
    pub fn received_spectrum_multi(&self, runs: &[&DomainRun]) -> Spectrum {
        let specs: Vec<Spectrum> = runs
            .iter()
            .map(|r| Spectrum::of_trace(&r.i_die, Window::Hann))
            .collect();
        self.channel.received_multi(&specs)
    }

    /// Attaches a telemetry handle: measurements through this rig then
    /// charge analyzer counters, the band-amplitude histogram and (for
    /// emitting handles) `measure` spans.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.scratch.set_telemetry(telemetry);
    }

    /// One displayed analyzer sweep of a run.
    pub fn sweep(&mut self, run: &DomainRun) -> SweepReading {
        self.scratch.refresh_rx(&self.channel, run);
        self.scratch.telemetry.count(CounterId::AnalyzerSweeps, 1);
        self.analyzer.sweep(&self.scratch.rx, &mut self.rng)
    }

    /// The paper's GA fitness measurement: `n` sweeps (30 in the paper),
    /// metric = mean root square of the band-peak amplitudes.
    pub fn measure(&mut self, run: &DomainRun, n: usize) -> EmReading {
        self.measure_in_band(run, RESONANCE_BAND.0, RESONANCE_BAND.1, n)
    }

    /// Like [`EmBench::measure`] but over an explicit band — used when the
    /// resonance has already been located and the analyzer span is
    /// narrowed to speed up the GA (§5.3 motivation (b)).
    pub fn measure_in_band(&mut self, run: &DomainRun, lo: f64, hi: f64, n: usize) -> EmReading {
        let mut noise = Noise::Rig {
            analyzer: &mut self.analyzer,
            rng: &mut self.rng,
        };
        measure_lanes(
            &self.channel,
            &[run],
            lo,
            hi,
            n,
            &mut noise,
            &mut self.scratch,
        )[0]
    }

    /// Total analyzer wall-clock consumed so far (for the paper's
    /// measurement-latency accounting).
    pub fn elapsed(&self) -> f64 {
        self.analyzer.elapsed()
    }

    /// Splits off the immutable measurement chain for concurrent use; see
    /// [`SharedEmBench`]. Accumulated sweep time is folded back with
    /// [`EmBench::absorb_elapsed`].
    pub fn share(&self) -> SharedEmBench {
        SharedEmBench {
            channel: self.channel.clone(),
            analyzer_config: self.analyzer.config().clone(),
            elapsed_s: Mutex::new(0.0),
        }
    }

    /// Folds the sweep time accumulated by a [`SharedEmBench`] batch back
    /// into this rig's analyzer, keeping [`EmBench::elapsed`] equal to
    /// what a serial measurement sequence would have reported.
    pub fn absorb_elapsed(&mut self, shared: &SharedEmBench) {
        self.analyzer.advance_elapsed(shared.take_elapsed());
    }

    /// Raw words of the rig's measurement-noise RNG, for campaign
    /// checkpoints: un-seeded serial measurements advance this stream, so
    /// resuming a campaign mid-way must restore it exactly.
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Restores the measurement-noise RNG from words captured by
    /// [`EmBench::rng_state`].
    pub fn set_rng_state(&mut self, s: [u64; 4]) {
        self.rng = StdRng::from_state(s);
    }

    /// Rewinds or advances the analyzer's occupancy clock to an absolute
    /// total, for checkpoint restore (the underlying analyzer only counts
    /// forward, so this adds the delta to the current total).
    pub fn restore_elapsed(&mut self, total_s: f64) {
        self.analyzer
            .advance_elapsed(total_s - self.analyzer.elapsed());
    }
}

/// The thread-shareable half of an [`EmBench`]: the radiation channel and
/// the analyzer configuration, both immutable, plus a locked running total
/// of sweep time.
///
/// The mutable per-measurement state (analyzer noise RNG, elapsed-time
/// counter) is what stops `EmBench::measure_in_band` being called from
/// several threads. Here each measurement instead builds a throwaway
/// analyzer from the shared config and draws its noise from a caller-
/// provided seed, so results depend only on `(run, band, n, seed)` — not
/// on which thread or in which order the measurement executed. That is
/// the property the parallel GA path relies on for thread-count-invariant
/// fitness.
#[derive(Debug)]
pub struct SharedEmBench {
    channel: EmChannel,
    analyzer_config: AnalyzerConfig,
    elapsed_s: Mutex<f64>,
}

impl SharedEmBench {
    /// Seeded counterpart of [`EmBench::measure_in_band`]: `n` sweeps over
    /// `[lo, hi]` Hz with measurement noise drawn from `seed`, reusing a
    /// caller-owned [`MeasureScratch`] so repeated measurements allocate
    /// nothing transient-sized at steady state. This is the one-lane call
    /// of [`SharedEmBench::measure_in_band_batch_seeded_with`].
    pub fn measure_in_band_seeded_with(
        &self,
        run: &DomainRun,
        lo: f64,
        hi: f64,
        n: usize,
        seed: u64,
        scratch: &mut MeasureScratch,
    ) -> EmReading {
        self.measure_in_band_batch_seeded_with(&[run], lo, hi, n, &[seed], scratch)[0]
    }

    /// Measures every lane of `runs` over `[lo, hi]` Hz, lane `l` drawing
    /// its measurement noise from `seeds[l]` on a throwaway analyzer.
    ///
    /// Lanes sharing one record length and sample rate go through the
    /// band path together: one multi-lane Goertzel pass and one batched
    /// channel propagation.
    /// Reading `l` depends only on `runs[l]` and `seeds[l]`, so it is
    /// bit-identical to measuring that lane alone, and counter totals and
    /// the accumulated sweep time do not depend on batching.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is shorter than `runs`.
    pub fn measure_in_band_batch_seeded_with(
        &self,
        runs: &[&DomainRun],
        lo: f64,
        hi: f64,
        n: usize,
        seeds: &[u64],
        scratch: &mut MeasureScratch,
    ) -> Vec<EmReading> {
        assert!(seeds.len() >= runs.len(), "one noise seed per lane");
        let mut noise = Noise::Seeded {
            config: &self.analyzer_config,
            seeds,
            elapsed: &self.elapsed_s,
        };
        measure_lanes(&self.channel, runs, lo, hi, n, &mut noise, scratch)
    }

    /// Sweep time accumulated since creation (or the last
    /// [`SharedEmBench::take_elapsed`]).
    pub fn elapsed(&self) -> f64 {
        *self.elapsed_s.lock()
    }

    /// Returns the accumulated sweep time and resets the total.
    pub fn take_elapsed(&self) -> f64 {
        std::mem::take(&mut *self.elapsed_s.lock())
    }
}

/// Shared accounting for one in-band measurement of `n` requested
/// samples: counters, the band-amplitude histogram and (for emitting
/// handles) a `measure` span, all charged with the sweeps actually taken.
fn record_measurement(
    telemetry: &Telemetry,
    lo: f64,
    hi: f64,
    n: usize,
    metric_dbm: f64,
    dominant_hz: f64,
) {
    let sweeps = SpectrumAnalyzer::metric_sweeps(n);
    telemetry.count(CounterId::Measurements, 1);
    telemetry.count(CounterId::AnalyzerSweeps, sweeps as u64);
    telemetry.record_value(HistId::BandAmplitudeDbm, metric_dbm);
    telemetry.span(
        "measure",
        Layer::Platform,
        &[
            ("lo_mhz", lo / 1e6),
            ("hi_mhz", hi / 1e6),
            ("sweeps", sweeps as f64),
            ("metric_dbm", metric_dbm),
            ("dominant_mhz", dominant_hz / 1e6),
        ],
    );
    if telemetry.wave_enabled() {
        // Point readings: each measurement appends one sample past the
        // trace high-water mark, so a campaign's swept-band history reads
        // as a step waveform alongside the analog traces.
        let band_id = telemetry.wave_register("inst.band_dbm", emvolt_obs::WaveKind::Real);
        telemetry.wave_append(band_id, metric_dbm);
        let dom_id = telemetry.wave_register("inst.dominant_mhz", emvolt_obs::WaveKind::Real);
        telemetry.wave_append(dom_id, dominant_hz / 1e6);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{RunConfig, VoltageDomain};
    use emvolt_cpu::CoreModel;
    use emvolt_isa::{
        kernels::{padded_sweep_kernel, sweep_kernel},
        Isa,
    };
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
    fn busy_core_reads_above_idle() {
        let d = domain();
        let mut bench = EmBench::new(1);
        let cfg = RunConfig::fast();
        // A kernel whose loop frequency sits on the PDN resonance: the
        // busy cluster radiates well above the idle noise floor.
        let busy = d
            .run(&padded_sweep_kernel(Isa::ArmV8, 17), 2, &cfg)
            .unwrap();
        let idle = d.run_idle(&cfg).unwrap();
        let busy_reading = bench.measure(&busy, 5);
        let idle_reading = bench.measure(&idle, 5);
        assert!(
            busy_reading.metric_dbm > idle_reading.metric_dbm + 10.0,
            "busy {} vs idle {}",
            busy_reading.metric_dbm,
            idle_reading.metric_dbm
        );
    }

    #[test]
    fn dominant_frequency_is_in_band() {
        let d = domain();
        let mut bench = EmBench::new(2);
        let run = d
            .run(&sweep_kernel(Isa::ArmV8), 2, &RunConfig::fast())
            .unwrap();
        let r = bench.measure(&run, 10);
        assert!(
            (RESONANCE_BAND.0..=RESONANCE_BAND.1).contains(&r.dominant_hz),
            "dominant {:.2e}",
            r.dominant_hz
        );
    }

    /// Seeded shared measurements must not depend on call order — the
    /// property the parallel GA evaluation path rests on.
    #[test]
    fn shared_measurements_are_order_invariant() {
        let mut s = MeasureScratch::new();
        let d = domain();
        let bench = EmBench::new(7);
        let shared = bench.share();
        let cfg = RunConfig::fast();
        let run_a = d.run(&sweep_kernel(Isa::ArmV8), 2, &cfg).unwrap();
        let run_b = d
            .run(&padded_sweep_kernel(Isa::ArmV8, 17), 2, &cfg)
            .unwrap();

        let a_first = shared.measure_in_band_seeded_with(&run_a, 50e6, 200e6, 5, 11, &mut s);
        let b_second = shared.measure_in_band_seeded_with(&run_b, 50e6, 200e6, 5, 12, &mut s);
        // Reversed order, fresh shared bench: identical readings.
        let shared2 = bench.share();
        let b_first = shared2.measure_in_band_seeded_with(&run_b, 50e6, 200e6, 5, 12, &mut s);
        let a_second = shared2.measure_in_band_seeded_with(&run_a, 50e6, 200e6, 5, 11, &mut s);
        assert_eq!(a_first, a_second);
        assert_eq!(b_first, b_second);
    }

    #[test]
    fn shared_elapsed_folds_back_into_the_bench() {
        let mut s = MeasureScratch::new();
        let d = domain();
        let mut bench = EmBench::new(9);
        let run = d
            .run(&sweep_kernel(Isa::ArmV8), 1, &RunConfig::fast())
            .unwrap();
        let shared = bench.share();
        let _ = shared.measure_in_band_seeded_with(&run, 50e6, 200e6, 30, 1, &mut s);
        assert!(
            (shared.elapsed() - 18.0).abs() < 1.0,
            "{}",
            shared.elapsed()
        );
        let before = bench.elapsed();
        bench.absorb_elapsed(&shared);
        assert!((bench.elapsed() - before - 18.0).abs() < 1.0);
        // The total was taken: absorbing twice adds nothing.
        bench.absorb_elapsed(&shared);
        assert!((bench.elapsed() - before - 18.0).abs() < 1.0);
    }

    /// The reading an FFT-fed analyzer gives: the full one-sided spectrum
    /// of the die current, propagated through the channel, then a seeded
    /// analyzer over `[lo, hi]`.
    fn fft_reference(
        bench: &EmBench,
        run: &DomainRun,
        lo: f64,
        hi: f64,
        n: usize,
        seed: u64,
    ) -> EmReading {
        let mut i_spec = Spectrum::default();
        let mut rx = Spectrum::default();
        Spectrum::of_trace_into(
            &run.i_die,
            Window::Hann,
            &mut SpectrumScratch::new(),
            &mut i_spec,
        );
        bench
            .channel
            .received_spectrum_into_with(&i_spec, &mut rx, &Telemetry::noop());
        let mut analyzer = SpectrumAnalyzer::new(bench.analyzer.config().clone());
        let (metric_dbm, dominant_hz) =
            analyzer.peak_metric(&rx, lo, hi, n, &mut StdRng::seed_from_u64(seed));
        EmReading {
            metric_dbm,
            dominant_hz,
        }
    }

    /// The Goertzel band path must reproduce the FFT-fed reading to
    /// rounding: same seed, same band, same sweep count. It holds for the
    /// paper's 50–200 MHz band and for a band spanning nearly the whole
    /// spectrum.
    #[test]
    fn band_path_matches_full_fft_within_tolerance() {
        let mut s = MeasureScratch::new();
        let d = domain();
        let bench = EmBench::new(4);
        let run = d
            .run(&sweep_kernel(Isa::ArmV8), 2, &RunConfig::fast())
            .unwrap();
        let nyquist = 0.5 * run.i_die.sample_rate();
        let shared = bench.share();
        for (lo, hi) in [RESONANCE_BAND, (1e6, nyquist)] {
            let full = fft_reference(&bench, &run, lo, hi, 5, 21);
            let band = shared.measure_in_band_seeded_with(&run, lo, hi, 5, 21, &mut s);
            assert!(
                (full.metric_dbm - band.metric_dbm).abs() < 1e-6,
                "[{lo}, {hi}]: full {} vs band {}",
                full.metric_dbm,
                band.metric_dbm
            );
            assert_eq!(full.dominant_hz, band.dominant_hz, "[{lo}, {hi}]");
        }
    }

    /// One batched call over L lanes must reproduce the L serial seeded
    /// measurements bit-for-bit, for a narrow band and a near-full-span
    /// one alike, and accumulate the same sweep time.
    #[test]
    fn batched_measurements_match_serial_seeded_calls() {
        let d = domain();
        let cfg = RunConfig::fast();
        let runs = [
            d.run(&sweep_kernel(Isa::ArmV8), 1, &cfg).unwrap(),
            d.run(&padded_sweep_kernel(Isa::ArmV8, 17), 2, &cfg)
                .unwrap(),
            d.run(&sweep_kernel(Isa::ArmV8), 2, &cfg).unwrap(),
        ];
        let refs: Vec<&DomainRun> = runs.iter().collect();
        let seeds = [101u64, 202, 303];
        let nyquist = 0.5 * runs[0].i_die.sample_rate();

        for (lo, hi) in [RESONANCE_BAND, (1e6, nyquist)] {
            let bench = EmBench::new(5);
            let shared = bench.share();
            let mut scratch = MeasureScratch::new();
            let batched =
                shared.measure_in_band_batch_seeded_with(&refs, lo, hi, 4, &seeds, &mut scratch);
            let batched_elapsed = shared.take_elapsed();

            let serial_shared = bench.share();
            let mut serial_scratch = MeasureScratch::new();
            assert_eq!(batched.len(), refs.len());
            for ((run, &seed), got) in refs.iter().zip(&seeds).zip(&batched) {
                let want = serial_shared.measure_in_band_seeded_with(
                    run,
                    lo,
                    hi,
                    4,
                    seed,
                    &mut serial_scratch,
                );
                assert_eq!(want.metric_dbm.to_bits(), got.metric_dbm.to_bits());
                assert_eq!(want.dominant_hz.to_bits(), got.dominant_hz.to_bits());
            }
            assert_eq!(
                batched_elapsed.to_bits(),
                serial_shared.take_elapsed().to_bits(),
                "sweep-time accounting must not depend on batching"
            );
        }
    }

    /// One scratch fed alternating record lengths, bands and analyzer
    /// configurations must read exactly what a fresh scratch reads on
    /// every call: a stale Goertzel or analyzer plan would show here.
    #[test]
    fn one_scratch_follows_record_band_and_config_changes() {
        let d = domain();
        let kernel = sweep_kernel(Isa::ArmV8);
        let runs = [
            d.run(&kernel, 2, &RunConfig::fast()).unwrap(),
            d.run(&kernel, 2, &RunConfig::default()).unwrap(),
        ];
        assert_ne!(runs[0].i_die.samples().len(), runs[1].i_die.samples().len());
        let mut wide = EmBench::new(1);
        wide.analyzer = SpectrumAnalyzer::new(AnalyzerConfig {
            rbw_hz: 3e6,
            points: 201,
            ..AnalyzerConfig::default()
        });
        let benches = [EmBench::new(1).share(), wide.share()];
        let calls = [
            (0, 0, RESONANCE_BAND),
            (1, 0, RESONANCE_BAND),
            (1, 1, RESONANCE_BAND),
            (1, 1, (70e6, 90e6)),
            (0, 1, (70e6, 90e6)),
            (0, 0, (70e6, 90e6)),
        ];
        let mut scratch = MeasureScratch::new();
        for round in 0..2 {
            for (c, &(run, bench, (lo, hi))) in calls.iter().enumerate() {
                let (run, shared) = (&runs[run], &benches[bench]);
                let want = shared.measure_in_band_seeded_with(
                    run,
                    lo,
                    hi,
                    6,
                    9,
                    &mut MeasureScratch::new(),
                );
                let got = shared.measure_in_band_seeded_with(run, lo, hi, 6, 9, &mut scratch);
                assert_eq!(
                    (want.metric_dbm.to_bits(), want.dominant_hz.to_bits()),
                    (got.metric_dbm.to_bits(), got.dominant_hz.to_bits()),
                    "round {round}, call {c}"
                );
            }
        }
    }

    /// A zero-sample request still takes one sweep; the sweep counter
    /// must charge that sweep, just as the analyzer clock does.
    #[test]
    fn zero_sample_request_counts_the_sweep_taken() {
        let d = domain();
        let run = d
            .run(&sweep_kernel(Isa::ArmV8), 1, &RunConfig::fast())
            .unwrap();
        let telemetry = Telemetry::new(std::sync::Arc::new(emvolt_obs::NoopRecorder));
        let mut bench = EmBench::new(3);
        bench.set_telemetry(telemetry.clone());
        let _ = bench.measure(&run, 0);
        assert_eq!(telemetry.counter(CounterId::AnalyzerSweeps), 1);
        assert_eq!(bench.elapsed(), bench.analyzer.config().sweep_time_s);

        let shared = bench.share();
        let mut scratch = MeasureScratch::new();
        scratch.set_telemetry(telemetry.clone());
        let _ = shared.measure_in_band_batch_seeded_with(
            &[&run, &run],
            50e6,
            200e6,
            0,
            &[1, 2],
            &mut scratch,
        );
        assert_eq!(telemetry.counter(CounterId::AnalyzerSweeps), 3);
        assert_eq!(shared.elapsed(), 2.0 * bench.analyzer.config().sweep_time_s);
    }

    #[test]
    fn measurement_time_accumulates_like_the_paper() {
        let d = domain();
        let mut bench = EmBench::new(3);
        let run = d
            .run(&sweep_kernel(Isa::ArmV8), 1, &RunConfig::fast())
            .unwrap();
        let _ = bench.measure(&run, 30);
        assert!((bench.elapsed() - 18.0).abs() < 1.0, "{}", bench.elapsed());
    }
}
