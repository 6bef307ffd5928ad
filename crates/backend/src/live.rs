//! The live backend: the full simulated measurement chain.
//!
//! This is the pre-trait measurement path, re-homed behind
//! [`MeasurementBackend`]: per-worker [`EvalSlot`] pools keep warm
//! [`DomainRunner`]s (netlist + LU factorizations built once), seeded
//! requests measure through a [`SharedEmBench`] with explicit seeds, and
//! the unseeded serial path drives the bench's own stateful RNG. Every
//! seeded request is served by [`MeasurementBackend::measure_batch`]; a
//! single request is a batch of one. Seeded campaigns through this
//! backend are bit-identical to the code they replaced.

use crate::request::{CombinedSource, DomainInfo, EmObservation, Load, MeasureRequest};
use crate::{BackendError, MeasurementBackend, Served};
use emvolt_inst::SweepReading;
use emvolt_obs::snap::{parse_bits, Bits};
use emvolt_obs::{CounterId, Telemetry};
use emvolt_platform::{
    DomainError, DomainRun, DomainRunner, EmBench, EmReading, MeasureScratch, RunConfig,
    SessionCosts, SharedEmBench, VoltageDomain,
};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::ControlFlow;

/// One worker's reusable evaluation state: a warm [`DomainRunner`]
/// (netlist + LU factorizations already built), recycled per-lane
/// [`DomainRun`]s and the spectrum [`MeasureScratch`]. Holding all three
/// together means a steady-state evaluation allocates nothing
/// transient-sized anywhere in the kernel → current → PDN → spectrum →
/// metric chain.
#[derive(Debug)]
pub struct EvalSlot {
    /// The warm per-worker runner.
    pub runner: DomainRunner,
    /// Recycled spectrum/measurement scratch.
    pub measure: MeasureScratch,
    /// Recycled per-lane run buffers.
    pub runs: Vec<DomainRun>,
}

impl EvalSlot {
    /// Builds a cold slot for `domain` (pays netlist construction and LU
    /// factorization).
    ///
    /// # Errors
    ///
    /// Propagates netlist/factorization failures.
    pub fn new(
        domain: &VoltageDomain,
        run_config: &RunConfig,
        telemetry: &Telemetry,
    ) -> Result<Self, DomainError> {
        let runner = DomainRunner::new_with(domain, run_config.clone(), telemetry.clone())?;
        let mut measure = MeasureScratch::new();
        measure.set_telemetry(telemetry.clone());
        Ok(EvalSlot {
            runner,
            measure,
            runs: Vec::new(),
        })
    }
}

/// Coordinator-side state for one domain: a warm runner for serial
/// measurements (fast sweep, post-campaign re-measurement) and the run
/// buffer each request's run is read into in turn.
#[derive(Debug)]
struct SerialSlot {
    runner: DomainRunner,
    run: DomainRun,
}

/// Most requests one rig lane group runs. During the batched
/// transient every lane holds its load stimulus and recorded die
/// waveforms (≈85 KB per lane on the A72, ≈115 KB on the Athlon at
/// `RunConfig::fast`), so a longer run of rig requests is served as
/// several groups: four lanes raise the DVFS sweep's peak RSS about 7%
/// over one-lane runs, where eight cost ~15%, and already take most of
/// the batched transient's per-lane saving.
const MAX_RIG_LANES: usize = 4;

/// [`MeasurementBackend`] over the full simulation chain.
#[derive(Debug)]
pub struct LiveBackend {
    domains: Vec<VoltageDomain>,
    run_config: RunConfig,
    bench: EmBench,
    shared: SharedEmBench,
    /// Per-domain checkout pools for the parallel path. At steady state
    /// each holds one slot per worker thread, so per-individual setup is
    /// paid `threads` times per campaign instead of
    /// `population x generations` times.
    pools: Vec<Mutex<Vec<EvalSlot>>>,
    serial: Vec<Option<SerialSlot>>,
}

impl LiveBackend {
    /// Builds a backend over `domains` measuring through `bench`.
    pub fn new(domains: Vec<VoltageDomain>, bench: EmBench, run_config: RunConfig) -> Self {
        let shared = bench.share();
        let n = domains.len();
        LiveBackend {
            domains,
            run_config,
            bench,
            shared,
            pools: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
            serial: (0..n).map(|_| None).collect(),
        }
    }

    /// Single-domain convenience constructor.
    pub fn single(domain: VoltageDomain, bench: EmBench, run_config: RunConfig) -> Self {
        LiveBackend::new(vec![domain], bench, run_config)
    }

    /// Direct access to a served domain.
    pub fn domain(&self, name: &str) -> Option<&VoltageDomain> {
        self.domains.iter().find(|d| d.name() == name)
    }

    /// Mutable access to a served domain (DVFS, power gating). Warm
    /// runner state for that domain is dropped, since pooled runners
    /// carry clones of the old control settings.
    pub fn domain_mut(&mut self, name: &str) -> Option<&mut VoltageDomain> {
        let idx = self.domains.iter().position(|d| d.name() == name)?;
        self.pools[idx].lock().clear();
        self.serial[idx] = None;
        Some(&mut self.domains[idx])
    }

    fn index(&self, name: &str) -> Result<usize, BackendError> {
        self.domains
            .iter()
            .position(|d| d.name() == name)
            .ok_or_else(|| BackendError::UnknownDomain(name.to_string()))
    }

    /// The coordinator's warm runner for domain `idx`. The slot takes
    /// over a pooled runner on first use (the post-campaign path reuses
    /// a worker's), or builds one cold charging its setup to `telemetry`.
    fn serial_slot(
        &mut self,
        idx: usize,
        telemetry: &Telemetry,
    ) -> Result<&mut SerialSlot, BackendError> {
        if self.serial[idx].is_none() {
            let runner = match self.pools[idx].lock().pop() {
                Some(s) => s.runner,
                None => DomainRunner::new_with(
                    &self.domains[idx],
                    self.run_config.clone(),
                    telemetry.clone(),
                )?,
            };
            self.serial[idx] = Some(SerialSlot {
                runner,
                run: DomainRun::empty(),
            });
        }
        let slot = self.serial[idx].as_mut().expect("slot installed");
        slot.runner.set_telemetry(telemetry.clone());
        Ok(slot)
    }

    /// Serves a run of unseeded requests on domain `idx` on the serial
    /// rig: their physics runs as one lane group, then each request in
    /// turn has its lane reported to `telemetry`, draws its analyzer
    /// noise from the bench's own RNG and goes to `on_result` — the
    /// emissions, rig draws and outcomes of one-request calls, in their
    /// order. The previous group's lanes are freed first, so its recorded
    /// waveforms do not stack on this group's core sims.
    fn serve_rig(
        &mut self,
        idx: usize,
        reqs: &[MeasureRequest<'_>],
        telemetry: &Telemetry,
        on_result: &mut dyn FnMut(Served) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let default_clock = self.domains[idx].frequency();
        let loads: Vec<Load<'_>> = reqs.iter().map(|r| r.load).collect();
        let clocks: Vec<f64> = reqs
            .iter()
            .map(|r| r.freq_hz.unwrap_or(default_clock))
            .collect();
        let ran = self.serial_slot(idx, telemetry).and_then(|slot| {
            slot.runner.release_lanes();
            Ok(slot.runner.run_lanes(&loads, &clocks)?)
        });
        for (i, req) in reqs.iter().enumerate() {
            let result = ran
                .clone()
                .and_then(|()| self.measure_rig_lane(idx, i, req, telemetry));
            on_result(Served {
                result,
                elapsed_s: self.elapsed_seconds(),
                rig: self.rig_state(),
            })?;
        }
        ControlFlow::Continue(())
    }

    /// Reports lane `i` of domain `idx`'s rig group and measures it on the
    /// serial rig: the bench's own RNG advances call over call.
    fn measure_rig_lane(
        &mut self,
        idx: usize,
        i: usize,
        req: &MeasureRequest<'_>,
        telemetry: &Telemetry,
    ) -> Result<EmObservation, BackendError> {
        let LiveBackend {
            bench,
            shared,
            serial,
            ..
        } = self;
        let slot = serial[idx].as_mut().expect("slot installed");
        slot.runner.report_lane(i, &mut slot.run)?;
        bench.absorb_elapsed(shared);
        bench.set_telemetry(telemetry.clone());
        let band = req.band.resolve(slot.run.loop_frequency);
        let reading = bench.measure_in_band(&slot.run, band.0, band.1, req.samples);
        Ok(Self::observation(&slot.run, reading, band))
    }

    /// Serves one group of seeded requests on one domain: checks out a
    /// warm slot and runs the lanes, each at its own clock. Checkout
    /// accounting matches a loop of one-request calls: one checkout per
    /// request, and a miss when a cold slot had to be built.
    fn serve_group(
        &self,
        idx: usize,
        reqs: &[MeasureRequest<'_>],
        telemetry: &Telemetry,
    ) -> Vec<Result<EmObservation, BackendError>> {
        let domain = &self.domains[idx];
        let fail = |e: DomainError| reqs.iter().map(|_| Err(e.clone().into())).collect();
        telemetry.count(CounterId::ScratchCheckouts, reqs.len() as u64);
        let mut slot = match self.pools[idx].lock().pop() {
            Some(s) => s,
            None => {
                telemetry.count(CounterId::ScratchMisses, 1);
                match EvalSlot::new(domain, &self.run_config, telemetry) {
                    Ok(s) => s,
                    Err(e) => return fail(e),
                }
            }
        };
        slot.runner.set_telemetry(telemetry.clone());
        slot.measure.set_telemetry(telemetry.clone());
        let results = self.run_lanes(&mut slot, domain, reqs);
        // The slot goes back whatever happened — a failed run leaves the
        // runner's plan and netlist untouched.
        self.pools[idx].lock().push(slot);
        results
    }

    /// Runs every lane of `reqs` as one lane group on `slot`, then
    /// measures each run of consecutive lanes sharing a resolved band and
    /// sweep count together, so measurement accounting follows request
    /// order. A lane that fails gets the outcome it would get alone (e.g.
    /// one lane loading more cores than are powered fails only that lane).
    fn run_lanes(
        &self,
        slot: &mut EvalSlot,
        domain: &VoltageDomain,
        reqs: &[MeasureRequest<'_>],
    ) -> Vec<Result<EmObservation, BackendError>> {
        let n = reqs.len();
        let loads: Vec<Load<'_>> = reqs.iter().map(|r| r.load).collect();
        let clocks: Vec<f64> = reqs
            .iter()
            .map(|r| r.freq_hz.unwrap_or_else(|| domain.frequency()))
            .collect();
        if slot.runs.len() < n {
            slot.runs.resize_with(n, DomainRun::empty);
        }
        let ran = slot.runner.run_lanes(&loads, &clocks);
        let bands: Vec<Result<(f64, f64), DomainError>> = (0..n)
            .map(|l| {
                ran.clone()?;
                slot.runner.report_lane(l, &mut slot.runs[l])?;
                Ok(reqs[l].band.resolve(slot.runs[l].loop_frequency))
            })
            .collect();
        let runs = &slot.runs[..n];
        let key = |l: usize| {
            let band = bands[l].as_ref().ok()?;
            Some((band.0.to_bits(), band.1.to_bits(), reqs[l].samples))
        };
        let mut results = Vec::with_capacity(n);
        let mut start = 0;
        while start < n {
            let (lo, hi) = match &bands[start] {
                Ok(band) => *band,
                Err(e) => {
                    results.push(Err(e.clone().into()));
                    start += 1;
                    continue;
                }
            };
            let lanes = start..start + (start..n).take_while(|&m| key(m) == key(start)).count();
            start = lanes.end;
            let lane_runs: Vec<&DomainRun> = runs[lanes.clone()].iter().collect();
            let seeds: Vec<u64> = reqs[lanes.clone()]
                .iter()
                .map(|r| r.seed.expect("measure_batch checked the seeds"))
                .collect();
            let readings = self.shared.measure_in_band_batch_seeded_with(
                &lane_runs,
                lo,
                hi,
                reqs[lanes.start].samples,
                &seeds,
                &mut slot.measure,
            );
            results.extend(
                lanes
                    .zip(readings)
                    .map(|(m, reading)| Ok(Self::observation(&runs[m], reading, (lo, hi)))),
            );
        }
        results
    }

    fn observation(run: &DomainRun, reading: EmReading, band: (f64, f64)) -> EmObservation {
        EmObservation {
            reading,
            loop_frequency_hz: run.loop_frequency,
            ipc: run.ipc,
            max_droop_v: run.max_droop(),
            peak_to_peak_v: run.peak_to_peak(),
            band,
            cached: false,
        }
    }
}

impl MeasurementBackend for LiveBackend {
    fn label(&self) -> &'static str {
        "live"
    }

    fn domains(&self) -> Vec<DomainInfo> {
        self.domains
            .iter()
            .map(|d| DomainInfo {
                name: d.name().to_string(),
                isa: d.core_model().isa,
                max_frequency_hz: d.max_frequency(),
                frequency_hz: d.frequency(),
                voltage_v: d.voltage(),
                active_cores: d.active_cores(),
                expected_resonance_hz: d.expected_resonance_hz(),
            })
            .collect()
    }

    fn configure_run(&mut self, config: &RunConfig) -> Result<(), BackendError> {
        if *config != self.run_config {
            self.run_config = config.clone();
            // Fold outstanding shared-analyzer time back: `elapsed_seconds`
            // sums the two halves, so where the fold happens decides how
            // the total rounds.
            self.bench.absorb_elapsed(&self.shared);
            for pool in &self.pools {
                pool.lock().clear();
            }
            for slot in &mut self.serial {
                *slot = None;
            }
        }
        Ok(())
    }

    fn measure(
        &self,
        req: &MeasureRequest<'_>,
        telemetry: &Telemetry,
    ) -> Result<EmObservation, BackendError> {
        self.measure_batch(std::slice::from_ref(req), telemetry)
            .pop()
            .expect("one result per request")
    }

    /// Serves every request shape through the lane-group chain. Each run
    /// of consecutive requests on one domain is a lane group: it checks
    /// out one warm slot, runs all its loads (kernels and idle alike,
    /// each at its own clock) through one batched transient, reports
    /// each lane as the one-request run it stands for, and measures
    /// lanes that share a resolved band and sweep count in one
    /// multi-lane pass. Reading `l` depends only on request `l`, so it is
    /// bit-identical whatever the batch holds, and a failing lane gets
    /// the error it would get alone; groups are served in request order
    /// and `ScratchCheckouts` is charged once per request.
    fn measure_batch(
        &self,
        reqs: &[MeasureRequest<'_>],
        telemetry: &Telemetry,
    ) -> Vec<Result<EmObservation, BackendError>> {
        let group_of = |req: &MeasureRequest<'_>| -> Result<usize, BackendError> {
            let idx = self.index(req.domain)?;
            if req.seed.is_none() {
                return Err(BackendError::SeedRequired);
            }
            Ok(idx)
        };
        let mut results = Vec::with_capacity(reqs.len());
        let mut rest = reqs;
        while let Some(first) = rest.first() {
            let len = match group_of(first) {
                Ok(idx) => {
                    let len = rest
                        .iter()
                        .take_while(|r| group_of(r).ok() == Some(idx))
                        .count();
                    results.extend(self.serve_group(idx, &rest[..len], telemetry));
                    len
                }
                Err(e) => {
                    results.push(Err(e));
                    1
                }
            };
            rest = &rest[len..];
        }
        results
    }

    fn measure_serial(
        &mut self,
        req: &MeasureRequest<'_>,
        telemetry: &Telemetry,
    ) -> Result<EmObservation, BackendError> {
        let mut result = None;
        self.measure_serial_batch(std::slice::from_ref(req), telemetry, &mut |served| {
            result = Some(served.result);
            ControlFlow::Continue(())
        });
        result.expect("one result per request")
    }

    /// Each run of consecutive unseeded requests on one domain is served
    /// by the rig as lane groups of at most four requests; seeded
    /// requests take the [`MeasurementBackend::measure`] path and an
    /// unknown domain fails its request alone.
    fn measure_serial_batch(
        &mut self,
        reqs: &[MeasureRequest<'_>],
        telemetry: &Telemetry,
        on_result: &mut dyn FnMut(Served) -> ControlFlow<()>,
    ) {
        let rig_domain = |be: &Self, req: &MeasureRequest<'_>| match req.seed {
            Some(_) => None,
            None => be.index(req.domain).ok(),
        };
        let mut rest = reqs;
        while let Some(first) = rest.first() {
            let flow = match rig_domain(self, first) {
                Some(idx) => {
                    let len = rest
                        .iter()
                        .take(MAX_RIG_LANES)
                        .take_while(|r| rig_domain(self, r) == Some(idx))
                        .count();
                    let flow = self.serve_rig(idx, &rest[..len], telemetry, on_result);
                    rest = &rest[len..];
                    flow
                }
                None => {
                    let result = match first.seed {
                        Some(_) => self.measure(first, telemetry),
                        None => Err(BackendError::UnknownDomain(first.domain.to_string())),
                    };
                    rest = &rest[1..];
                    on_result(Served {
                        result,
                        elapsed_s: self.elapsed_seconds(),
                        rig: self.rig_state(),
                    })
                }
            };
            if flow.is_break() {
                return;
            }
        }
    }

    fn capture_combined(
        &mut self,
        sources: &[CombinedSource<'_>],
        seed: u64,
        telemetry: &Telemetry,
    ) -> Result<SweepReading, BackendError> {
        self.bench.set_telemetry(telemetry.clone());
        let mut runs = Vec::with_capacity(sources.len());
        for src in sources {
            let idx = self.index(src.domain)?;
            let load = match src.kernel {
                Some(kernel) => Load::Kernel {
                    kernel,
                    loaded_cores: src.loaded_cores,
                },
                None => Load::Idle,
            };
            let clock = self.domains[idx].frequency();
            let slot = self.serial_slot(idx, telemetry)?;
            slot.runner
                .run_batch_into(&[load], &[clock], std::slice::from_mut(&mut slot.run))?;
            runs.push(slot.run.clone());
        }
        let refs: Vec<&DomainRun> = runs.iter().collect();
        let rx = self.bench.received_spectrum_multi(&refs);
        let mut rng = StdRng::seed_from_u64(seed);
        Ok(self.bench.analyzer.sweep(&rx, &mut rng))
    }

    fn elapsed_seconds(&self) -> f64 {
        self.bench.elapsed() + self.shared.elapsed()
    }

    fn costs(&self) -> SessionCosts {
        SessionCosts::default()
    }

    /// The analyzer noise RNG's words and the total analyzer time.
    fn rig_state(&self) -> Vec<(String, String)> {
        let words = self.bench.rng_state().map(|w| Bits(w).to_string());
        vec![
            ("rig_rng".to_string(), words.join(":")),
            (
                "elapsed".to_string(),
                Bits(self.elapsed_seconds().to_bits()).to_string(),
            ),
        ]
    }

    fn restore_rig_state(&mut self, state: &[(String, String)]) -> Result<(), BackendError> {
        // Fold any outstanding shared-analyzer time in first so the
        // restored absolute total lands on the bench alone.
        self.bench.absorb_elapsed(&self.shared);
        for (key, value) in state {
            match key.as_str() {
                "rig_rng" => {
                    let words = value
                        .split(':')
                        .map(parse_bits)
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(|e| BackendError::Store(format!("bad rig_rng word: {e}")))?;
                    let words: [u64; 4] = words.try_into().map_err(|w: Vec<u64>| {
                        BackendError::Store(format!("rig_rng holds {} words, expected 4", w.len()))
                    })?;
                    self.bench.set_rng_state(words);
                }
                "elapsed" => {
                    let bits = parse_bits(value)
                        .map_err(|e| BackendError::Store(format!("bad elapsed bits: {e}")))?;
                    let total = f64::from_bits(bits);
                    // The analyzer's clock only runs forward.
                    if !(total.is_finite() && total >= self.bench.elapsed()) {
                        return Err(BackendError::Store(format!(
                            "elapsed {total} s is not a time the analyzer can reach"
                        )));
                    }
                    self.bench.restore_elapsed(total);
                }
                other => {
                    return Err(BackendError::Store(format!(
                        "live backend knows no rig-state key `{other}`"
                    )))
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::BandSpec;
    use emvolt_cpu::CoreModel;
    use emvolt_isa::{kernels::padded_sweep_kernel, Isa};
    use emvolt_obs::{HistId, JsonlRecorder};
    use emvolt_platform::{a53_pdn, a72_pdn, RESONANCE_BAND};
    use std::sync::Arc;

    fn a72() -> VoltageDomain {
        VoltageDomain::new("A72", CoreModel::cortex_a72(), a72_pdn(), 1.2e9)
    }

    fn backend() -> LiveBackend {
        LiveBackend::single(a72(), EmBench::new(11), RunConfig::fast())
    }

    #[test]
    fn seeded_measure_matches_the_direct_chain() {
        let kernel = padded_sweep_kernel(Isa::ArmV8, 17);
        let be = backend();
        let req = MeasureRequest {
            domain: "A72",
            load: Load::Kernel {
                kernel: &kernel,
                loaded_cores: 1,
            },
            freq_hz: None,
            band: BandSpec::Explicit {
                lo_hz: RESONANCE_BAND.0,
                hi_hz: RESONANCE_BAND.1,
            },
            samples: 3,
            seed: Some(42),
        };
        let tel = Telemetry::noop();
        let obs = be.measure(&req, &tel).unwrap();

        // The same measurement, spelled out by hand.
        let domain = a72();
        let mut runner = DomainRunner::new(&domain, RunConfig::fast()).unwrap();
        let run = runner.run(&kernel, 1).unwrap();
        let bench = EmBench::new(11);
        let shared = bench.share();
        let mut scratch = MeasureScratch::new();
        let expect = shared.measure_in_band_seeded_with(
            &run,
            RESONANCE_BAND.0,
            RESONANCE_BAND.1,
            3,
            42,
            &mut scratch,
        );
        assert_eq!(obs.reading, expect);
        assert_eq!(obs.loop_frequency_hz, run.loop_frequency);
        assert!(!obs.cached);
    }

    #[test]
    fn measure_requires_a_seed() {
        let kernel = padded_sweep_kernel(Isa::ArmV8, 3);
        let be = backend();
        let req = MeasureRequest {
            domain: "A72",
            load: Load::Kernel {
                kernel: &kernel,
                loaded_cores: 1,
            },
            freq_hz: None,
            band: BandSpec::Explicit {
                lo_hz: RESONANCE_BAND.0,
                hi_hz: RESONANCE_BAND.1,
            },
            samples: 1,
            seed: None,
        };
        assert!(matches!(
            be.measure(&req, &Telemetry::noop()),
            Err(BackendError::SeedRequired)
        ));
    }

    #[test]
    fn unknown_domain_is_a_typed_error() {
        let mut be = backend();
        let req = MeasureRequest {
            domain: "GPU",
            load: Load::Idle,
            freq_hz: None,
            band: BandSpec::Explicit {
                lo_hz: 5e7,
                hi_hz: 2e8,
            },
            samples: 1,
            seed: Some(1),
        };
        assert!(matches!(
            be.measure(&req, &Telemetry::noop()),
            Err(BackendError::UnknownDomain(_))
        ));
        assert!(matches!(
            be.measure_serial(&req, &Telemetry::noop()),
            Err(BackendError::UnknownDomain(_))
        ));
    }

    #[test]
    fn serial_rig_advances_like_a_plain_bench() {
        let kernel = padded_sweep_kernel(Isa::ArmV8, 17);
        let mut be = backend();
        let req = MeasureRequest {
            domain: "A72",
            load: Load::Kernel {
                kernel: &kernel,
                loaded_cores: 1,
            },
            freq_hz: None,
            band: BandSpec::Explicit {
                lo_hz: RESONANCE_BAND.0,
                hi_hz: RESONANCE_BAND.1,
            },
            samples: 2,
            seed: None,
        };
        let tel = Telemetry::noop();
        let first = be.measure_serial(&req, &tel).unwrap();
        let second = be.measure_serial(&req, &tel).unwrap();

        let domain = a72();
        let mut runner = DomainRunner::new(&domain, RunConfig::fast()).unwrap();
        let run = runner.run(&kernel, 1).unwrap();
        let mut bench = EmBench::new(11);
        let e1 = bench.measure_in_band(&run, RESONANCE_BAND.0, RESONANCE_BAND.1, 2);
        let e2 = bench.measure_in_band(&run, RESONANCE_BAND.0, RESONANCE_BAND.1, 2);
        assert_eq!(first.reading, e1);
        assert_eq!(second.reading, e2);
        assert_ne!(first.reading, second.reading, "rig RNG must advance");
    }

    #[test]
    fn dvfs_override_moves_the_loop_frequency() {
        let kernel = emvolt_isa::kernels::sweep_kernel(Isa::ArmV8);
        let mut be = backend();
        let tel = Telemetry::noop();
        let at = |be: &mut LiveBackend, hz: Option<f64>| {
            be.measure_serial(
                &MeasureRequest {
                    domain: "A72",
                    load: Load::Kernel {
                        kernel: &kernel,
                        loaded_cores: 1,
                    },
                    freq_hz: hz,
                    band: BandSpec::AroundLoop { halfwidth_hz: 3e6 },
                    samples: 1,
                    seed: Some(9),
                },
                &tel,
            )
            .unwrap()
        };
        let full = at(&mut be, Some(1.2e9));
        let half = at(&mut be, Some(0.6e9));
        let ratio = full.loop_frequency_hz / half.loop_frequency_hz;
        assert!((ratio - 2.0).abs() < 0.1, "ratio {ratio}");
        // And with no override the runner returns to the domain default.
        let default = at(&mut be, None);
        assert_eq!(default.loop_frequency_hz, full.loop_frequency_hz);
    }

    /// A two-domain combined capture is bit-identical to the direct
    /// chain: run each domain, superimpose their emissions, and take one
    /// seeded analyzer sweep.
    #[test]
    fn combined_capture_matches_direct_multi_domain_sweep() {
        let a53 = || VoltageDomain::new("A53", CoreModel::cortex_a53(), a53_pdn(), 950e6);
        let k72 = padded_sweep_kernel(Isa::ArmV8, 17);
        let k53 = padded_sweep_kernel(Isa::ArmV8, 8);
        let mut be = LiveBackend::new(vec![a72(), a53()], EmBench::new(6), RunConfig::fast());
        let reading = be
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
                0x515,
                &Telemetry::noop(),
            )
            .unwrap();

        let run72 = a72().run(&k72, 2, &RunConfig::fast()).unwrap();
        let run53 = a53().run(&k53, 4, &RunConfig::fast()).unwrap();
        let mut bench = EmBench::new(6);
        let rx = bench.received_spectrum_multi(&[&run72, &run53]);
        let mut rng = StdRng::seed_from_u64(0x515);
        let expect = bench.analyzer.sweep(&rx, &mut rng);
        let bits = |points: &[(f64, f64)]| -> Vec<(u64, u64)> {
            points
                .iter()
                .map(|(f, dbm)| (f.to_bits(), dbm.to_bits()))
                .collect()
        };
        assert_eq!(bits(&reading.points), bits(&expect.points));
    }

    /// The batched path must return exactly what the default serial loop
    /// over `measure` would — observation bits, lane order and
    /// trace-visible checkout counters alike.
    #[test]
    fn batched_measure_matches_the_serial_loop_bit_for_bit() {
        let kernels: Vec<_> = [3usize, 17, 9]
            .iter()
            .map(|&p| padded_sweep_kernel(Isa::ArmV8, p))
            .collect();
        let reqs: Vec<MeasureRequest<'_>> = kernels
            .iter()
            .enumerate()
            .map(|(i, kernel)| MeasureRequest {
                domain: "A72",
                load: Load::Kernel {
                    kernel,
                    loaded_cores: 1 + i % 2,
                },
                freq_hz: None,
                band: BandSpec::Explicit {
                    lo_hz: RESONANCE_BAND.0,
                    hi_hz: RESONANCE_BAND.1,
                },
                samples: 3,
                seed: Some(40 + i as u64),
            })
            .collect();
        let tel = Telemetry::noop();

        let batched_be = backend();
        let batched = batched_be.measure_batch(&reqs, &tel);

        let serial_be = backend();
        for (req, got) in reqs.iter().zip(&batched) {
            let want = serial_be.measure(req, &tel).unwrap();
            let got = got.as_ref().expect("batched lane failed");
            assert_eq!(
                want.reading.metric_dbm.to_bits(),
                got.reading.metric_dbm.to_bits()
            );
            assert_eq!(
                want.reading.dominant_hz.to_bits(),
                got.reading.dominant_hz.to_bits()
            );
            assert_eq!(want.loop_frequency_hz, got.loop_frequency_hz);
            assert_eq!(want.ipc, got.ipc);
            assert_eq!(want.max_droop_v, got.max_droop_v);
            assert_eq!(want.peak_to_peak_v, got.peak_to_peak_v);
        }
        assert_eq!(
            batched_be.elapsed_seconds().to_bits(),
            serial_be.elapsed_seconds().to_bits()
        );
    }

    /// LU-only plans batch too: every lane runs the LU reference, and
    /// each batched reading is bit-identical to the one-request call.
    #[test]
    fn batched_lu_readings_match_one_request_calls_bit_for_bit() {
        use emvolt_platform::KernelChoice;
        let kernels: Vec<_> = [17usize, 5, 11]
            .iter()
            .map(|&p| padded_sweep_kernel(Isa::ArmV8, p))
            .collect();
        let mut cfg = RunConfig::fast();
        cfg.kernel = KernelChoice::Lu;
        let be = LiveBackend::single(a72(), EmBench::new(11), cfg.clone());
        let reqs: Vec<MeasureRequest<'_>> = kernels
            .iter()
            .enumerate()
            .map(|(i, kernel)| MeasureRequest {
                domain: "A72",
                load: Load::Kernel {
                    kernel,
                    loaded_cores: 1 + i % 2,
                },
                freq_hz: None,
                band: BandSpec::Explicit {
                    lo_hz: RESONANCE_BAND.0,
                    hi_hz: RESONANCE_BAND.1,
                },
                samples: 2,
                seed: Some(70 + i as u64),
            })
            .collect();
        let tel = Telemetry::noop();
        let batched = be.measure_batch(&reqs, &tel);
        let serial_be = LiveBackend::single(a72(), EmBench::new(11), cfg);
        for (req, got) in reqs.iter().zip(&batched) {
            let want = serial_be.measure(req, &tel).unwrap();
            let got = got.as_ref().unwrap();
            assert_eq!(
                want.reading.metric_dbm.to_bits(),
                got.reading.metric_dbm.to_bits()
            );
            assert_eq!(
                want.reading.dominant_hz.to_bits(),
                got.reading.dominant_hz.to_bits()
            );
            assert_eq!(want.max_droop_v.to_bits(), got.max_droop_v.to_bits());
        }
    }

    /// A batch mixing every request shape — idle loads, bands around the
    /// loop frequency, two clocks, a lane clocked above the maximum
    /// between two lanes measured in one band, a lane loading more cores
    /// than are powered, a missing seed and an unknown domain — returns, lane by
    /// lane, exactly what one-request calls return, and records its
    /// measurements in the same order.
    #[test]
    fn mixed_batches_match_one_request_calls() {
        let kernel = padded_sweep_kernel(Isa::ArmV8, 17);
        let other = padded_sweep_kernel(Isa::ArmV8, 6);
        let explicit = BandSpec::Explicit {
            lo_hz: RESONANCE_BAND.0,
            hi_hz: RESONANCE_BAND.1,
        };
        let req = |load, freq_hz, band, seed, domain| MeasureRequest {
            domain,
            load,
            freq_hz,
            band,
            samples: 2,
            seed,
        };
        let on = |kernel, loaded_cores| Load::Kernel {
            kernel,
            loaded_cores,
        };
        let around = BandSpec::AroundLoop { halfwidth_hz: 3e6 };
        let reqs = [
            req(on(&kernel, 1), None, explicit, Some(1), "A72"),
            req(on(&kernel, 1), Some(2.0e9), explicit, Some(8), "A72"),
            req(Load::Idle, None, explicit, Some(2), "A72"),
            req(on(&other, 2), None, around, Some(6), "A72"),
            req(on(&other, 2), Some(0.6e9), around, Some(3), "A72"),
            req(on(&kernel, 3), Some(0.6e9), explicit, Some(4), "A72"),
            req(on(&kernel, 1), None, explicit, None, "A72"),
            req(on(&other, 1), None, explicit, Some(5), "GPU"),
            req(on(&kernel, 2), None, explicit, Some(7), "A72"),
        ];
        let recording = || Telemetry::new(Arc::new(JsonlRecorder::new(std::io::sink())));
        let (tel, serial_tel) = (recording(), recording());
        let batched_be = backend();
        let batched = batched_be.measure_batch(&reqs, &tel);
        let serial_be = backend();
        assert_eq!(batched.len(), reqs.len());
        for (i, (req, got)) in reqs.iter().zip(&batched).enumerate() {
            match (serial_be.measure(req, &serial_tel), got) {
                (Ok(want), Ok(got)) => {
                    assert_eq!(want.reading, got.reading, "lane {i}");
                    assert_eq!(want.band, got.band, "lane {i}");
                    assert_eq!(want.loop_frequency_hz, got.loop_frequency_hz, "lane {i}");
                    assert_eq!(want.max_droop_v, got.max_droop_v, "lane {i}");
                }
                (Err(want), Err(got)) => {
                    assert_eq!(want.to_string(), got.to_string(), "lane {i}")
                }
                (want, got) => panic!("lane {i}: one-request {want:?} vs batched {got:?}"),
            }
        }
        assert!(matches!(batched[1], Err(BackendError::Domain(_))));
        assert!(matches!(batched[5], Err(BackendError::Domain(_))));
        assert!(matches!(batched[6], Err(BackendError::SeedRequired)));
        assert!(matches!(batched[7], Err(BackendError::UnknownDomain(_))));
        let bits = |t: &Telemetry| -> Vec<u64> {
            t.hist_values(HistId::BandAmplitudeDbm)
                .iter()
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(bits(&tel), bits(&serial_tel));
        assert_eq!(
            batched_be.elapsed_seconds().to_bits(),
            serial_be.elapsed_seconds().to_bits()
        );
    }

    /// The slice-form rig path serves a run of requests — clocks across
    /// the DVFS range, idle and kernel loads, a seeded request, an
    /// unknown domain, a clock above the maximum and a lane loading more
    /// cores than are powered, over more than one lane group — exactly
    /// as one-request calls do: results, emitted events, rig state and
    /// analyzer time. A `Break` stops it after that result.
    #[test]
    fn serial_batches_match_one_request_calls() {
        let kernel = padded_sweep_kernel(Isa::ArmV8, 17);
        let on = |loaded_cores| Load::Kernel {
            kernel: &kernel,
            loaded_cores,
        };
        let req = |load, freq_hz, seed, domain| MeasureRequest {
            domain,
            load,
            freq_hz,
            band: BandSpec::AroundLoop { halfwidth_hz: 3e6 },
            samples: 2,
            seed,
        };
        let reqs = [
            req(on(1), Some(1.2e9), None, "A72"),
            req(on(1), Some(0.9e9), None, "A72"),
            req(Load::Idle, None, None, "A72"),
            req(on(2), Some(0.6e9), None, "A72"),
            req(on(1), Some(0.7e9), None, "A72"),
            req(on(1), Some(0.5e9), Some(4), "A72"),
            req(on(1), Some(0.45e9), None, "A72"),
            req(on(1), None, None, "GPU"),
            req(on(1), Some(2.0e9), None, "A72"),
            req(on(3), Some(0.4e9), None, "A72"),
            req(on(1), Some(0.3e9), None, "A72"),
        ];
        let recording = || {
            let buf = Arc::new(parking_lot::Mutex::new(Vec::new()));
            struct Sink(Arc<parking_lot::Mutex<Vec<u8>>>);
            impl std::io::Write for Sink {
                fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                    self.0.lock().extend_from_slice(b);
                    Ok(b.len())
                }
                fn flush(&mut self) -> std::io::Result<()> {
                    Ok(())
                }
            }
            let tel = Telemetry::new(Arc::new(JsonlRecorder::new(Sink(buf.clone()))));
            (tel, buf)
        };
        let render = |r: &Result<EmObservation, BackendError>| match r {
            Ok(obs) => format!(
                "{:?}",
                (obs.reading, obs.loop_frequency_hz, obs.max_droop_v)
            ),
            Err(e) => e.to_string(),
        };

        let (tel, events) = recording();
        let mut one = backend();
        let mut want = Vec::new();
        for (i, r) in reqs.iter().enumerate() {
            tel.set_sim_time(i as f64);
            want.push(render(&one.measure_serial(r, &tel)));
        }

        let (batch_tel, batch_events) = recording();
        let mut batched = backend();
        let mut got = Vec::new();
        batch_tel.set_sim_time(0.0);
        batched.measure_serial_batch(&reqs, &batch_tel, &mut |served| {
            got.push(render(&served.result));
            batch_tel.set_sim_time(got.len() as f64);
            ControlFlow::Continue(())
        });
        assert_eq!(want, got);
        assert!(got[7].contains("GPU") && got[8].contains("frequency"));
        assert_eq!(*events.lock(), *batch_events.lock());
        assert_eq!(one.rig_state(), batched.rig_state());

        let mut stopped = backend();
        let mut served = 0;
        stopped.measure_serial_batch(&reqs, &Telemetry::noop(), &mut |_| {
            served += 1;
            if served == 2 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(served, 2);
    }

    /// An analyzer time the rig cannot reach — NaN, -inf, negative, or
    /// behind the analyzer's own clock — is a store error, not a panic.
    #[test]
    fn an_unreachable_analyzer_time_is_refused() {
        let mut be = backend();
        let tel = Telemetry::noop();
        be.restore_rig_state(&be.rig_state()).unwrap();
        let req = MeasureRequest {
            domain: "A72",
            load: Load::Idle,
            freq_hz: None,
            band: BandSpec::AroundLoop { halfwidth_hz: 3e6 },
            samples: 1,
            seed: None,
        };
        be.measure_serial(&req, &tel).unwrap();
        for t in [f64::NAN, f64::NEG_INFINITY, -2.0, 0.0] {
            let state = [("elapsed".to_string(), Bits(t.to_bits()).to_string())];
            assert!(
                matches!(be.restore_rig_state(&state), Err(BackendError::Store(_))),
                "{t}"
            );
        }
    }

    #[test]
    fn configure_run_drops_warm_state_only_on_change() {
        let mut be = backend();
        let kernel = padded_sweep_kernel(Isa::ArmV8, 5);
        let req = MeasureRequest {
            domain: "A72",
            load: Load::Kernel {
                kernel: &kernel,
                loaded_cores: 1,
            },
            freq_hz: None,
            band: BandSpec::Explicit {
                lo_hz: 5e7,
                hi_hz: 2e8,
            },
            samples: 1,
            seed: Some(3),
        };
        let tel = Telemetry::noop();
        be.measure(&req, &tel).unwrap();
        assert_eq!(be.pools[0].lock().len(), 1);
        be.configure_run(&RunConfig::fast()).unwrap();
        assert_eq!(be.pools[0].lock().len(), 1, "same config keeps the pool");
        be.configure_run(&RunConfig::default()).unwrap();
        assert_eq!(be.pools[0].lock().len(), 0, "new fidelity drops warm slots");
    }
}
