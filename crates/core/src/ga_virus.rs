//! EM-amplitude-driven dI/dt virus generation (§3, §5.1).
//!
//! A GA evolves 50-instruction loop bodies; each individual is executed
//! on the target domain and its fitness is the spectrum-analyzer metric —
//! the mean root square of 30 max-amplitude samples in the 50–200 MHz
//! band. No voltage probe is involved: this is the paper's central
//! zero-overhead characterization flow. A voltage-feedback variant
//! (OC-DSO / Kelvin-pad driven, used by the paper for validation) is also
//! provided.

use crate::campaigns::generate_em_virus_resumable;
use emvolt_backend::MeasurementBackend;
use emvolt_engine::DriveOptions;
use emvolt_ga::{map_parallel, EvalContext, GaConfig, GaState, KernelRepresentation};
use emvolt_inst::Oscilloscope;
use emvolt_isa::{InstructionPool, Kernel};
use emvolt_obs::{CounterId, Telemetry};
use emvolt_platform::{
    DomainError, DomainRun, DomainRunner, RunConfig, SimClock, VoltageDomain,
    INDIVIDUAL_OVERHEAD_SECONDS, RESONANCE_BAND,
};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hash::{Hash, Hasher};

/// Configuration for a virus-generation campaign.
#[derive(Debug, Clone)]
pub struct VirusGenConfig {
    /// GA engine parameters (population 50, 60 generations by default).
    pub ga: GaConfig,
    /// Instructions per individual (50 in the paper, Table 2).
    pub kernel_len: usize,
    /// Cores loaded with each individual during measurement.
    pub loaded_cores: usize,
    /// Spectrum samples per individual (30 in the paper).
    pub samples_per_individual: usize,
    /// Search band in Hz; defaults to the paper's 50–200 MHz.
    pub band: (f64, f64),
    /// Physics fidelity per run.
    pub run: RunConfig,
    /// Worker threads for fitness evaluation: `0` picks the machine's
    /// available parallelism, `1` evaluates serially. Any value yields
    /// bit-identical campaigns — per-individual measurement seeds are
    /// derived from `(ga.seed, generation, index)`, never from a shared
    /// RNG.
    pub threads: usize,
    /// Evaluation lane width: each generation's population is split into
    /// contiguous groups of up to `lanes` individuals, and every group is
    /// measured through one batched backend call (lock-step transient,
    /// multi-lane Goertzel, shared EM transfer). `0` picks the default
    /// width. Any value yields bit-identical campaigns — batched readings
    /// are bit-identical to serial ones and the per-individual seeds are
    /// unchanged — so `lanes` (like `threads`) is purely a performance
    /// knob.
    pub lanes: usize,
    /// Opt-in genome-keyed fitness cache for the EM-driven GA (off by
    /// default). When enabled, a kernel already measured in this campaign
    /// is not re-simulated or re-measured: its recorded reading is
    /// reused, and the campaign clock only advances for actual
    /// measurements. Measurement seeds then derive from the genome itself
    /// so duplicated individuals read identically. This trades the
    /// paper's "re-measure everything" realism for speed. The
    /// voltage-feedback GA has no cache and rejects this flag.
    pub cache_fitness: bool,
    /// Telemetry handle charged across the whole campaign: counters and
    /// histogram values accumulate from worker threads (order-independent
    /// atomics), while span events are emitted only from the
    /// single-threaded generation barrier and the post-campaign
    /// re-measurement — traces are byte-identical for every `threads`
    /// value. Defaults to the inert [`Telemetry::noop`] handle.
    pub telemetry: Telemetry,
}

impl Default for VirusGenConfig {
    fn default() -> Self {
        VirusGenConfig {
            ga: GaConfig::default(),
            kernel_len: 50,
            loaded_cores: 1,
            samples_per_individual: 30,
            band: RESONANCE_BAND,
            run: RunConfig::fast(),
            threads: 0,
            lanes: 0,
            cache_fitness: false,
            telemetry: Telemetry::noop(),
        }
    }
}

/// A stable identity hash for a kernel: ISA plus every instruction's
/// operation and operand bindings. Two kernels with equal bodies on the
/// same architecture collapse to the same key regardless of how they were
/// produced, which is exactly the equivalence the cache-mode measurement
/// seeds and the dominant-frequency memoization need.
pub(crate) fn kernel_identity(kernel: &Kernel) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    kernel.arch().isa().hash(&mut h);
    for i in kernel.body() {
        i.op.hash(&mut h);
        i.dst.hash(&mut h);
        i.srcs.hash(&mut h);
        i.mem_slot.hash(&mut h);
    }
    h.finish()
}

/// Resolves the `threads` knob: `0` means one worker per available core.
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Resolves the `lanes` knob: `0` picks the detected SIMD level's
/// preferred width ([`emvolt_simd::preferred_lanes`] — eight on AVX2
/// hosts, four on narrower vectors), so the SoA fold fills the widest
/// FMA block the dispatched kernels will actually run. Any explicit
/// width is honored as-is; results are bit-identical at every width.
pub(crate) fn resolve_lanes(lanes: usize) -> usize {
    if lanes == 0 {
        emvolt_simd::preferred_lanes()
    } else {
        lanes
    }
}

/// One worker's reusable evaluation state for the voltage-feedback GA: a
/// warm [`DomainRunner`] (netlist + LU factorizations already built) and
/// a recycled [`DomainRun`]. The EM-driven flow pools its slots inside
/// the measurement backend instead ([`emvolt_backend::EvalSlot`]).
struct EvalSlot {
    runner: DomainRunner,
    run: DomainRun,
}

impl EvalSlot {
    fn new(
        domain: &VoltageDomain,
        run_config: &RunConfig,
        telemetry: &Telemetry,
    ) -> Result<Self, DomainError> {
        let runner = DomainRunner::new_with(domain, run_config.clone(), telemetry.clone())?;
        Ok(EvalSlot {
            runner,
            run: DomainRun::empty(),
        })
    }
}

/// A checkout pool of [`EvalSlot`]s: each worker thread pops a warm slot
/// or builds one on first use, and returns it after the evaluation. At
/// steady state the pool holds one slot per worker, so per-individual
/// setup cost is paid `threads` times per campaign instead of
/// `population x generations` times.
struct RunnerPool<'a> {
    domain: &'a VoltageDomain,
    run_config: &'a RunConfig,
    /// Quiet handle shared with every slot: worker-side emissions are
    /// counter/histogram updates only, never events.
    telemetry: Telemetry,
    idle: Mutex<Vec<EvalSlot>>,
}

impl<'a> RunnerPool<'a> {
    fn new(domain: &'a VoltageDomain, run_config: &'a RunConfig, telemetry: Telemetry) -> Self {
        RunnerPool {
            domain,
            run_config,
            telemetry,
            idle: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` with a pooled slot checked out. The slot goes back to the
    /// pool whatever `f` returns — a failed run leaves the runner's plan
    /// and netlist untouched, and the scratch buffers carry no state
    /// between evaluations. Each checkout charges the scratch-pool
    /// counters: a miss means a cold slot (netlist + LU factorization)
    /// had to be built.
    fn with<T>(
        &self,
        f: impl FnOnce(&mut EvalSlot) -> Result<T, DomainError>,
    ) -> Result<T, DomainError> {
        self.telemetry.count(CounterId::ScratchCheckouts, 1);
        let mut slot = match self.idle.lock().pop() {
            Some(s) => s,
            None => {
                self.telemetry.count(CounterId::ScratchMisses, 1);
                EvalSlot::new(self.domain, self.run_config, &self.telemetry)?
            }
        };
        let result = f(&mut slot);
        self.idle.lock().push(slot);
        result
    }
}

/// Per-generation record of the fittest individual (the series plotted in
/// Figs. 7, 12 and 17).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerationRecord {
    /// Generation index.
    pub index: usize,
    /// Best fitness: EM metric in dBm (or droop in volts for the
    /// voltage-driven variant).
    pub best_fitness: f64,
    /// Mean fitness of the generation.
    pub mean_fitness: f64,
    /// Dominant frequency of the strongest individual, Hz.
    pub dominant_hz: f64,
    /// Maximum droop of the strongest individual in volts, when measured
    /// (the paper re-runs each generation's best against the OC-DSO).
    pub droop_v: Option<f64>,
}

/// Per-generation progress snapshot handed to the observer callback of
/// [`generate_em_virus_on`] (and printed by `emvolt virus
/// --progress`). All figures describe the generation that just finished.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerationProgress {
    /// Generation index, starting at 0.
    pub index: usize,
    /// Best EM metric of the generation, dBm.
    pub best_dbm: f64,
    /// Mean EM metric of the generation, dBm.
    pub mean_dbm: f64,
    /// Worst EM metric of the generation, dBm.
    pub worst_dbm: f64,
    /// Individuals evaluated this generation (measured + cache hits).
    pub evaluated: usize,
    /// Evaluations served from the fitness cache.
    pub cache_hits: usize,
    /// Simulated campaign seconds elapsed so far.
    pub sim_seconds: f64,
}

impl GenerationProgress {
    /// Fitness-cache hit rate for this generation, percent.
    pub fn cache_hit_pct(&self) -> f64 {
        if self.evaluated == 0 {
            0.0
        } else {
            100.0 * self.cache_hits as f64 / self.evaluated as f64
        }
    }
}

/// The product of a virus-generation campaign.
#[derive(Debug, Clone)]
pub struct Virus {
    /// Name tag, e.g. `"a72em"`.
    pub name: String,
    /// The winning kernel.
    pub kernel: Kernel,
    /// Its final fitness (dBm for EM-driven, volts for voltage-driven).
    pub fitness: f64,
    /// Dominant frequency of the winner, Hz.
    pub dominant_hz: f64,
    /// Per-generation progression.
    pub history: Vec<GenerationRecord>,
    /// The fittest kernel of each generation (re-run by the paper against
    /// the OC-DSO to produce the droop series of Fig. 7).
    pub generation_best: Vec<Kernel>,
    /// Simulated wall-clock the physical campaign would have taken.
    pub campaign: SimClock,
}

/// Runs the EM-driven GA (the paper's §5.1 flow) over any
/// [`MeasurementBackend`]: the GA never touches a domain or a bench
/// directly — every observation flows through `backend`, so the same
/// campaign runs against the live chain
/// ([`LiveBackend::single`](emvolt_backend::LiveBackend::single)), a
/// recording wrapper, or a replayed trace with byte-identical telemetry.
///
/// Each generation is measured in lane groups of
/// [`VirusGenConfig::lanes`] spread over [`VirusGenConfig::threads`]
/// workers, with measurement seeds derived from `(ga.seed, generation,
/// index)`, so campaigns are bit-identical for every thread count and
/// lane width. The campaign clock advances ~18 s + 2 s per measured
/// individual. `on_generation` receives a [`GenerationProgress`] at
/// every generation barrier, on the coordinator thread, in generation
/// order.
///
/// When [`VirusGenConfig::cache_fitness`] is set the backend is wrapped
/// in a [`CachingBackend`](emvolt_backend::CachingBackend) for the
/// duration of the campaign, so repeated genomes are served from memory
/// (including cached failures).
///
/// # Errors
///
/// [`DomainError::InvalidConfig`] for a degenerate GA configuration.
/// Individuals that fail to simulate (e.g. exotic kernels hitting the
/// cycle cap) are scored at the noise floor instead of aborting the
/// campaign, so simulation errors surface only from the final
/// re-measurement; backend-layer failures (missing replay entries, trace
/// I/O) surface as [`DomainError::Backend`].
pub fn generate_em_virus_on<B: MeasurementBackend + ?Sized>(
    name: &str,
    backend: &mut B,
    domain_name: &str,
    config: &VirusGenConfig,
    on_generation: impl FnMut(&GenerationProgress),
) -> Result<Virus, DomainError> {
    // No batch limit in the default options, so the drive always runs to
    // completion (`threads`/`lanes` of 0 resolve from `config`, exactly
    // as this entry point always resolved them).
    let virus = generate_em_virus_resumable(
        name,
        backend,
        domain_name,
        config,
        &DriveOptions::default(),
        on_generation,
    )?;
    Ok(virus.expect("campaign without a batch limit always completes"))
}

/// Voltage-feedback GA (the paper's validation baseline): fitness is the
/// maximum voltage droop captured by a scope on the die rail (OC-DSO on
/// the Juno, Kelvin pads + bench scope on the AMD).
///
/// Each generation is scored over [`map_parallel`] with
/// [`VirusGenConfig::threads`] workers; scope noise for each individual
/// is drawn from a seed derived from `(scope_seed, generation, index)`,
/// so campaigns are bit-identical for every thread count.
///
/// # Errors
///
/// [`DomainError::InvalidConfig`] for a degenerate GA configuration or
/// when [`VirusGenConfig::cache_fitness`] is set (this campaign has no
/// fitness cache). Individuals that fail to simulate score zero droop;
/// simulation errors surface only from the final re-run of the winner.
pub fn generate_voltage_virus(
    name: &str,
    domain: &VoltageDomain,
    scope: &Oscilloscope,
    config: &VirusGenConfig,
    scope_seed: u64,
) -> Result<Virus, DomainError> {
    if config.cache_fitness {
        return Err(DomainError::InvalidConfig(
            "the voltage-feedback GA has no fitness cache; unset cache_fitness".to_string(),
        ));
    }
    let pool = InstructionPool::default_for(domain.core_model().isa);
    let repr = KernelRepresentation::new(pool, config.kernel_len);
    let mut state = GaState::new(&repr, &config.ga).map_err(ga_config_error)?;
    // Summary-only (host-dependent, never emitted into traces).
    config.telemetry.count(
        CounterId::SimdDispatchLevel,
        emvolt_simd::level().code() as u64,
    );
    let mut clock = SimClock::new();
    let threads = resolve_threads(config.threads);

    let quiet = config.telemetry.quiet();
    let runners = RunnerPool::new(domain, &config.run, quiet.clone());
    let nominal_v = domain.voltage();
    let indices: Vec<usize> = (0..config.ga.population).collect();

    while !state.is_done(&config.ga) {
        let generation = state.generation;
        let population = &state.population;
        let scores = map_parallel(
            &indices,
            |&index| {
                let ctx = EvalContext::new(scope_seed, generation, index);
                runners
                    .with(|slot| {
                        slot.runner.run_into(
                            &population[index],
                            config.loaded_cores,
                            &mut slot.run,
                        )?;
                        let mut rng = StdRng::seed_from_u64(ctx.seed);
                        let shot = scope.capture(&slot.run.v_die, &mut rng);
                        Ok(shot.max_droop_below(nominal_v))
                    })
                    .unwrap_or(0.0)
            },
            threads,
        );
        state.absorb_scores(&repr, &config.ga, &config.telemetry, &scores, |_| {
            clock.advance(scores.len() as f64 * (INDIVIDUAL_OVERHEAD_SECONDS + 2.0));
        });
    }
    let result = state.into_result();

    let history = result
        .history
        .iter()
        .map(|s| GenerationRecord {
            index: s.index,
            best_fitness: s.best_fitness,
            mean_fitness: s.mean_fitness,
            dominant_hz: 0.0,
            droop_v: Some(s.best_fitness),
        })
        .collect();

    let mut post = match runners.idle.into_inner().pop() {
        Some(slot) => slot,
        None => EvalSlot::new(domain, &config.run, &quiet)?,
    };
    post.runner
        .run_into(&result.best, config.loaded_cores, &mut post.run)?;
    let dominant = dominant_from_run(&post.run);
    Ok(Virus {
        name: name.to_owned(),
        kernel: result.best,
        fitness: result.best_fitness,
        dominant_hz: dominant,
        history,
        generation_best: result.generation_best,
        campaign: clock,
    })
}

/// Maps a rejected GA configuration into the domain error space.
pub(crate) fn ga_config_error(e: emvolt_ga::GaConfigError) -> DomainError {
    DomainError::InvalidConfig(e.to_string())
}

/// Re-measures each generation-best kernel's droop through a scope —
/// the paper's Fig. 7 right axis is produced exactly this way after the
/// EM-driven search completes.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn annotate_droop(
    virus: &mut Virus,
    domain: &VoltageDomain,
    scope: &Oscilloscope,
    config: &VirusGenConfig,
    scope_seed: u64,
) -> Result<(), DomainError> {
    let mut rng = StdRng::seed_from_u64(scope_seed);
    let kernels = virus.generation_best.clone();
    for (record, kernel) in virus.history.iter_mut().zip(&kernels) {
        let run = domain.run(kernel, config.loaded_cores, &config.run)?;
        let shot = scope.capture(&run.v_die, &mut rng);
        record.droop_v = Some(shot.max_droop_below(domain.voltage()));
    }
    Ok(())
}

/// Dominant frequency straight from the die-current spectrum (no
/// analyzer noise) — used where an exact value is needed for reporting.
pub fn dominant_from_run(run: &DomainRun) -> f64 {
    use emvolt_dsp::{Spectrum, Window};
    let spec = Spectrum::of_trace(&run.i_die, Window::Hann);
    spec.peak_in_band(RESONANCE_BAND.0, RESONANCE_BAND.1)
        .map(|(f, _)| f)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use emvolt_backend::LiveBackend;
    use emvolt_cpu::CoreModel;
    use emvolt_platform::{a72_pdn, EmBench};

    fn small_config() -> VirusGenConfig {
        VirusGenConfig {
            ga: GaConfig {
                population: 8,
                generations: 6,
                ..GaConfig::default()
            },
            kernel_len: 20,
            samples_per_individual: 3,
            ..VirusGenConfig::default()
        }
    }

    fn a72() -> VoltageDomain {
        VoltageDomain::new("A72", CoreModel::cortex_a72(), a72_pdn(), 1.2e9)
    }

    #[test]
    fn em_ga_improves_and_tracks_resonance() {
        let mut live = LiveBackend::single(a72(), EmBench::new(11), RunConfig::fast());
        let virus =
            generate_em_virus_on("a72em-test", &mut live, "A72", &small_config(), |_| {}).unwrap();
        assert_eq!(virus.history.len(), 6);
        // Fitness improves (or at least does not regress) overall.
        let first = virus.history.first().unwrap().best_fitness;
        let last = virus.history.last().unwrap().best_fitness;
        assert!(last >= first - 1.0, "no improvement: {first} -> {last}");
        // Dominant frequency within the search band.
        assert!(
            (RESONANCE_BAND.0..=RESONANCE_BAND.1).contains(&virus.dominant_hz),
            "dominant {:.2e}",
            virus.dominant_hz
        );
        // Campaign accounting: 8 individuals x 6 generations, 3 samples
        // each at 0.6 s plus 2 s overhead.
        let expected = 8.0 * 6.0 * (3.0 * 0.6 + 2.0);
        assert!(
            virus.campaign.seconds() >= expected - 1e-6,
            "campaign {} < {expected}",
            virus.campaign.seconds()
        );
    }

    #[test]
    fn voltage_ga_produces_droop() {
        let domain = a72();
        let scope = Oscilloscope::new(emvolt_inst::ScopeConfig::oc_dso());
        let virus =
            generate_voltage_virus("a72ocdso-test", &domain, &scope, &small_config(), 3).unwrap();
        assert!(virus.fitness > 0.0, "droop {}", virus.fitness);
        assert!(virus.history.iter().all(|r| r.droop_v.is_some()));
    }

    /// Every degenerate GA shape, each with the message it must carry.
    fn degenerate_configs() -> Vec<(GaConfig, &'static str)> {
        let base = small_config().ga;
        vec![
            (
                GaConfig {
                    population: 1,
                    elitism: 0,
                    ..base.clone()
                },
                "population",
            ),
            (
                GaConfig {
                    tournament_k: 0,
                    ..base.clone()
                },
                "tournament",
            ),
            (
                GaConfig {
                    elitism: base.population,
                    ..base.clone()
                },
                "elitism",
            ),
            (
                GaConfig {
                    generations: 0,
                    ..base
                },
                "generations",
            ),
        ]
    }

    #[test]
    fn em_ga_rejects_degenerate_configs() {
        for (ga, what) in degenerate_configs() {
            let cfg = VirusGenConfig {
                ga,
                ..small_config()
            };
            let mut live = LiveBackend::single(a72(), EmBench::new(1), RunConfig::fast());
            match generate_em_virus_on("bad", &mut live, "A72", &cfg, |_| {}) {
                Err(DomainError::InvalidConfig(msg)) => assert!(msg.contains(what), "{msg}"),
                other => panic!("{what}: expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn voltage_ga_rejects_degenerate_configs() {
        let scope = Oscilloscope::new(emvolt_inst::ScopeConfig::oc_dso());
        for (ga, what) in degenerate_configs() {
            let cfg = VirusGenConfig {
                ga,
                ..small_config()
            };
            match generate_voltage_virus("bad", &a72(), &scope, &cfg, 1) {
                Err(DomainError::InvalidConfig(msg)) => assert!(msg.contains(what), "{msg}"),
                other => panic!("{what}: expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn voltage_ga_rejects_the_fitness_cache_flag() {
        let scope = Oscilloscope::new(emvolt_inst::ScopeConfig::oc_dso());
        let cfg = VirusGenConfig {
            cache_fitness: true,
            ..small_config()
        };
        match generate_voltage_virus("cached", &a72(), &scope, &cfg, 1) {
            Err(DomainError::InvalidConfig(msg)) => assert!(msg.contains("cache_fitness")),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }
}
