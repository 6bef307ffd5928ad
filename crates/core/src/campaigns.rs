//! Step-engine ports of the core campaigns.
//!
//! [`VirusCampaign`] and [`SweepCampaign`] decompose the GA virus search
//! (§5.1) and the fast resonance sweep (§5.3) into the
//! [`Campaign`] state machine of `emvolt-engine`: every batch of
//! measurements is proposed by a pure `next_batch`, absorbed on the
//! single-threaded coordinator (where all spans, histograms and the
//! campaign clock are charged, exactly as the legacy serial sections
//! did), and the whole in-flight state — GA population, engine RNG
//! mid-stream, dominant-frequency memo, campaign clock — snapshots to a
//! checkpoint and restores bit-identically.
//!
//! [`generate_em_virus_on`] / [`fast_resonance_sweep_on`] are thin
//! drivers over these campaigns with no checkpointing configured.
//!
//! [`generate_em_virus_on`]: crate::generate_em_virus_on
//! [`fast_resonance_sweep_on`]: crate::fast_resonance_sweep_on

use crate::fast_sweep::{FastSweepConfig, FastSweepResult, SweepPoint};
use crate::ga_virus::{
    ga_config_error, kernel_identity, resolve_lanes, resolve_threads, GenerationProgress,
    GenerationRecord, Virus, VirusGenConfig,
};
use emvolt_backend::{
    run_config_fingerprint, BackendError, BandSpec, CachingBackend, EmObservation,
    MeasurementBackend,
};
use emvolt_engine::{
    drive, Campaign, DriveOptions, DriveOutcome, Fingerprint, StepBatch, StepLoad, StepOutcome,
    StepRequest,
};
use emvolt_ga::{derive_eval_seed, GaState, GenerationStats, KernelRepresentation};
use emvolt_isa::kernels::sweep_kernel;
use emvolt_isa::{InstructionPool, Kernel, KernelSpec};
use emvolt_obs::{snap, CounterId, HistId, Layer, Telemetry};
use emvolt_platform::{
    DomainError, EmReading, SimClock, INDIVIDUAL_MEASUREMENT_SECONDS, INDIVIDUAL_OVERHEAD_SECONDS,
};
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::{HashMap, HashSet};

/// Serializes a kernel through its stable interchange form.
fn kernel_value(kernel: &Kernel) -> Value {
    KernelSpec::from_kernel(kernel).to_value()
}

/// Restores a kernel written by [`kernel_value`].
fn kernel_from_value(v: &Value) -> Result<Kernel, DeError> {
    let spec = KernelSpec::from_value(v)?;
    spec.to_kernel().map_err(|e| DeError::new(e.to_string()))
}

/// Serializes an observation (all floats bit-exact).
fn obs_value(o: &EmObservation) -> Value {
    snap::obj(vec![
        ("metric_dbm", snap::hex(o.reading.metric_dbm)),
        ("dominant_hz", snap::hex(o.reading.dominant_hz)),
        ("loop_hz", snap::hex(o.loop_frequency_hz)),
        ("ipc", snap::hex(o.ipc)),
        ("droop_v", snap::hex(o.max_droop_v)),
        ("p2p_v", snap::hex(o.peak_to_peak_v)),
        ("band_lo", snap::hex(o.band.0)),
        ("band_hi", snap::hex(o.band.1)),
        ("cached", Value::Bool(o.cached)),
    ])
}

/// Restores an observation written by [`obs_value`].
fn obs_from_value(v: &Value) -> Result<EmObservation, DeError> {
    let f = |key| snap::unhex(snap::field(v, key)?);
    Ok(EmObservation {
        reading: EmReading {
            metric_dbm: f("metric_dbm")?,
            dominant_hz: f("dominant_hz")?,
        },
        loop_frequency_hz: f("loop_hz")?,
        ipc: f("ipc")?,
        max_droop_v: f("droop_v")?,
        peak_to_peak_v: f("p2p_v")?,
        band: (f("band_lo")?, f("band_hi")?),
        cached: bool::from_value(snap::field(v, "cached")?)?,
    })
}

/// The first outcome of a single-request batch, or the failure it carried.
fn sole_observation(outcomes: &[StepOutcome]) -> Result<EmObservation, DomainError> {
    match outcomes.first() {
        Some(StepOutcome::Observation(obs)) => Ok(*obs),
        Some(StepOutcome::CachedFailure(msg)) | Some(StepOutcome::Failed(msg)) => {
            Err(DomainError::Backend(msg.clone()))
        }
        None => Err(DomainError::Backend(
            "measurement batch returned no outcome".to_string(),
        )),
    }
}

/// One worker-side fitness evaluation, logged for deterministic span
/// emission at the generation barrier.
struct EvalRecord {
    index: usize,
    score: f64,
    cached: bool,
}

/// The GA virus search as a resumable step campaign.
///
/// Phases are *derived* from the state rather than stored: while the GA
/// has generations left, each batch is one generation's population
/// (lane-dispatched, seeds derived from `(seed, generation, index)`);
/// then the not-yet-memoized generation champions are re-measured for
/// their dominant frequency (one serial batch, 5 samples, one request
/// per kernel identity, absorbed one at a time into the memo); then the
/// overall best is re-measured once at full sample count; then the
/// campaign is complete.
struct VirusCampaign<F: FnMut(&GenerationProgress)> {
    name: String,
    domain_name: String,
    config: VirusGenConfig,
    repr: KernelRepresentation,
    lanes: usize,
    tel: Telemetry,
    state: GaState<Kernel>,
    clock: SimClock,
    per_individual_s: f64,
    /// `(generation_best index, dominant Hz)` in measurement order — the
    /// serializable form of `memo` (identities are re-derived on restore
    /// rather than trusting hasher stability across binaries).
    dominant: Vec<(usize, f64)>,
    memo: HashMap<u64, f64>,
    final_obs: Option<EmObservation>,
    fingerprint: u64,
    on_generation: F,
}

impl<F: FnMut(&GenerationProgress)> VirusCampaign<F> {
    /// Builds a fresh campaign over `isa` kernels.
    ///
    /// `lanes` must be the resolved lane width the driver will dispatch
    /// with — the lane-bookkeeping counters are a function of it.
    ///
    /// # Errors
    ///
    /// [`DomainError::InvalidConfig`] for a degenerate GA configuration.
    fn new(
        name: &str,
        domain_name: &str,
        isa: emvolt_isa::Isa,
        config: &VirusGenConfig,
        lanes: usize,
        on_generation: F,
    ) -> Result<Self, DomainError> {
        let pool = InstructionPool::default_for(isa);
        let repr = KernelRepresentation::new(pool, config.kernel_len);
        let state = GaState::new(&repr, &config.ga).map_err(ga_config_error)?;
        // 0.6 s per spectrum sample plus orchestration overhead (the
        // paper's 30-sample measurement costs ~18 s).
        let per_individual_s =
            config.samples_per_individual as f64 * INDIVIDUAL_MEASUREMENT_SECONDS / 30.0
                + INDIVIDUAL_OVERHEAD_SECONDS;
        let fingerprint = Fingerprint::new()
            .str("virus")
            .str(name)
            .str(domain_name)
            .u64(run_config_fingerprint(&config.run))
            .u64(config.ga.population as u64)
            .u64(config.ga.generations as u64)
            .u64(config.ga.tournament_k as u64)
            .f64(config.ga.mutation_rate)
            .u64(config.ga.elitism as u64)
            .u64(config.ga.seed)
            .u64(config.kernel_len as u64)
            .u64(config.loaded_cores as u64)
            .u64(config.samples_per_individual as u64)
            .f64(config.band.0)
            .f64(config.band.1)
            .u64(u64::from(config.cache_fitness))
            .finish();
        Ok(VirusCampaign {
            name: name.to_owned(),
            domain_name: domain_name.to_owned(),
            tel: config.telemetry.clone(),
            config: config.clone(),
            repr,
            lanes: lanes.max(1),
            state,
            clock: SimClock::new(),
            per_individual_s,
            dominant: Vec::new(),
            memo: HashMap::new(),
            final_obs: None,
            fingerprint,
            on_generation,
        })
    }

    /// The serial rig re-measurement request (stateful analyzer RNG).
    fn rig_request(&self, kernel: &Kernel, samples: usize) -> StepRequest {
        StepRequest {
            domain: self.domain_name.clone(),
            load: StepLoad::Kernel {
                kernel: kernel.clone(),
                loaded_cores: self.config.loaded_cores,
            },
            freq_hz: None,
            band: BandSpec::Explicit {
                lo_hz: self.config.band.0,
                hi_hz: self.config.band.1,
            },
            samples,
            seed: None,
        }
    }

    /// The first generation champion whose dominant frequency is not yet
    /// memoized (the same champion often survives many generations).
    fn next_dominant(&self) -> Option<(usize, &Kernel)> {
        self.state
            .generation_best
            .iter()
            .enumerate()
            .find(|(_, k)| !self.memo.contains_key(&kernel_identity(k)))
    }

    /// Scores one generation's outcomes and runs the generation barrier:
    /// clock advance, lane bookkeeping, eval/generation spans, fitness
    /// histograms and the progress observer — all on the coordinator, in
    /// exactly the order the legacy barrier closure used.
    fn absorb_generation(&mut self, outcomes: &[StepOutcome]) -> Result<(), DomainError> {
        let mut measured = 0usize;
        let mut hits = 0usize;
        let mut records: Vec<EvalRecord> = Vec::new();
        let log_enabled = self.tel.sink_enabled();
        let log_eval = |records: &mut Vec<EvalRecord>, index: usize, score: f64, cached| {
            if log_enabled {
                records.push(EvalRecord {
                    index,
                    score,
                    cached,
                });
            }
        };
        let scores: Vec<f64> = outcomes
            .iter()
            .enumerate()
            .map(|(index, outcome)| match outcome {
                StepOutcome::Observation(obs) if obs.cached => {
                    hits += 1;
                    log_eval(&mut records, index, obs.reading.metric_dbm, true);
                    obs.reading.metric_dbm
                }
                StepOutcome::Observation(obs) => {
                    measured += 1;
                    log_eval(&mut records, index, obs.reading.metric_dbm, false);
                    obs.reading.metric_dbm
                }
                // A kernel that failed once keeps its noise-floor score
                // without re-simulation, like the old cached -200.0.
                StepOutcome::CachedFailure(_) => {
                    hits += 1;
                    log_eval(&mut records, index, -200.0, true);
                    -200.0
                }
                StepOutcome::Failed(_) => {
                    measured += 1;
                    log_eval(&mut records, index, -200.0, false);
                    -200.0
                }
            })
            .collect();

        let VirusCampaign {
            state,
            repr,
            config,
            tel,
            clock,
            lanes,
            per_individual_s,
            on_generation,
            ..
        } = self;
        state.absorb_scores(repr, &config.ga, tel, &scores, |stats: &GenerationStats| {
            clock.advance(measured as f64 * *per_individual_s);
            tel.set_sim_time(clock.seconds());

            // Lane bookkeeping is charged here on the single-threaded
            // barrier, so the totals are a pure function of the lane
            // configuration — never of the worker-thread schedule.
            tel.count(
                CounterId::BatchLanes,
                config.ga.population.div_ceil(*lanes) as u64,
            );
            tel.count(CounterId::BatchLaneOccupancy, (measured + hits) as u64);

            // Emit eval spans in population order — independent of how
            // threads interleaved during evaluation.
            let mut records = std::mem::take(&mut records);
            records.sort_by_key(|r| r.index);
            let mut worst = f64::INFINITY;
            for r in &records {
                worst = worst.min(r.score);
                tel.record_value(
                    HistId::EvalSeconds,
                    if r.cached { 0.0 } else { *per_individual_s },
                );
                tel.span(
                    "eval",
                    Layer::Core,
                    &[
                        ("generation", stats.index as f64),
                        ("individual", r.index as f64),
                        ("fitness_dbm", r.score),
                        ("cached", if r.cached { 1.0 } else { 0.0 }),
                    ],
                );
            }
            if !records.is_empty() {
                tel.record_value(HistId::FitnessBest, stats.best_fitness);
                tel.record_value(HistId::FitnessMean, stats.mean_fitness);
                tel.record_value(HistId::FitnessWorst, worst);
            }
            let worst_dbm = if worst.is_finite() {
                worst
            } else {
                stats.best_fitness
            };
            tel.span(
                "generation",
                Layer::Ga,
                &[
                    ("index", stats.index as f64),
                    ("best_dbm", stats.best_fitness),
                    ("mean_dbm", stats.mean_fitness),
                    ("worst_dbm", worst_dbm),
                    ("evaluated", (measured + hits) as f64),
                    ("cache_hits", hits as f64),
                ],
            );
            on_generation(&GenerationProgress {
                index: stats.index,
                best_dbm: stats.best_fitness,
                mean_dbm: stats.mean_fitness,
                worst_dbm,
                evaluated: measured + hits,
                cache_hits: hits,
                sim_seconds: clock.seconds(),
            });
        });
        Ok(())
    }

    /// Finishes a complete campaign: emits the campaign span and the
    /// telemetry summaries, closes the backend, and builds the virus —
    /// byte-identical to the legacy post-campaign section.
    ///
    /// # Errors
    ///
    /// [`DomainError::Backend`] if the backend fails to finish.
    ///
    /// # Panics
    ///
    /// Panics if the campaign has not run to completion.
    fn into_virus<B: MeasurementBackend + ?Sized>(
        self,
        backend: &mut B,
    ) -> Result<Virus, DomainError> {
        let VirusCampaign {
            name,
            state,
            clock,
            memo,
            final_obs,
            tel,
            ..
        } = self;
        let final_obs = final_obs.expect("campaign ran to completion");
        let result = state.into_result();
        let history = result
            .history
            .iter()
            .zip(&result.generation_best)
            .map(|(s, k)| GenerationRecord {
                index: s.index,
                best_fitness: s.best_fitness,
                mean_fitness: s.mean_fitness,
                dominant_hz: *memo
                    .get(&kernel_identity(k))
                    .expect("dominant memo covers every generation best"),
                droop_v: None,
            })
            .collect();

        tel.span(
            "campaign",
            Layer::Core,
            &[
                ("generations", result.history.len() as f64),
                ("best_dbm", result.best_fitness),
                ("dominant_mhz", final_obs.reading.dominant_hz / 1e6),
                ("sim_seconds", clock.seconds()),
            ],
        );
        tel.emit_counters();
        tel.emit_histograms();
        tel.flush();
        backend.finish().map_err(BackendError::into_domain_error)?;

        Ok(Virus {
            name,
            kernel: result.best,
            fitness: result.best_fitness,
            dominant_hz: final_obs.reading.dominant_hz,
            history,
            generation_best: result.generation_best,
            campaign: clock,
        })
    }
}

/// Builds the virus campaign's snapshot tree. Free-standing so
/// [`Campaign::snapshot_deferred`] can run it on the checkpoint writer
/// thread over cheaply-cloned typed state.
fn render_virus_snapshot(
    state: &GaState<Kernel>,
    clock_s: f64,
    dominant: &[(usize, f64)],
    final_obs: Option<&EmObservation>,
) -> Value {
    let kernels = |ks: &[Kernel]| Value::Arr(ks.iter().map(kernel_value).collect());
    let stats = |s: &GenerationStats| {
        snap::obj(vec![
            ("index", Value::Num(s.index as f64)),
            ("best", snap::hex(s.best_fitness)),
            ("mean", snap::hex(s.mean_fitness)),
            ("best_so_far", snap::hex(s.best_so_far)),
        ])
    };
    snap::obj(vec![
        ("rng", snap::hex_words(state.rng.state())),
        ("generation", Value::Num(state.generation as f64)),
        ("population", kernels(&state.population)),
        (
            "best",
            match &state.best {
                Some((k, fit)) => snap::obj(vec![
                    ("kernel", kernel_value(k)),
                    ("fitness", snap::hex(*fit)),
                ]),
                None => Value::Null,
            },
        ),
        (
            "history",
            Value::Arr(state.history.iter().map(stats).collect()),
        ),
        ("generation_best", kernels(&state.generation_best)),
        ("clock_s", snap::hex(clock_s)),
        (
            "dominant",
            Value::Arr(
                dominant
                    .iter()
                    .map(|&(index, hz)| Value::Arr(vec![Value::Num(index as f64), snap::hex(hz)]))
                    .collect(),
            ),
        ),
        (
            "final",
            match final_obs {
                Some(obs) => obs_value(obs),
                None => Value::Null,
            },
        ),
    ])
}

impl<F: FnMut(&GenerationProgress)> Campaign for VirusCampaign<F> {
    fn kind(&self) -> &'static str {
        "virus"
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn telemetry(&self) -> Telemetry {
        self.tel.clone()
    }

    fn next_batch(&mut self) -> Option<StepBatch> {
        if !self.state.is_done(&self.config.ga) {
            // Cache mode derives the measurement seed from the genome so
            // a duplicated individual reads identically whether or not
            // its twin was measured first — and so its request key (which
            // the caching wrapper memoizes on) collapses too.
            let generation = self.state.generation;
            let requests = self
                .state
                .population
                .iter()
                .enumerate()
                .map(|(index, kernel)| {
                    let seed = if self.config.cache_fitness {
                        derive_eval_seed(self.config.ga.seed ^ kernel_identity(kernel), 0, 0)
                    } else {
                        derive_eval_seed(self.config.ga.seed, generation, index)
                    };
                    StepRequest {
                        seed: Some(seed),
                        samples: self.config.samples_per_individual,
                        ..self.rig_request(kernel, self.config.samples_per_individual)
                    }
                })
                .collect();
            return Some(StepBatch::lanes(requests));
        }
        // Every champion not yet memoized, once per kernel identity: a
        // repeated champion is measured once, since one extra rig draw
        // would shift every later reading.
        let mut seen = HashSet::new();
        let requests: Vec<StepRequest> = self
            .state
            .generation_best
            .iter()
            .filter(|k| {
                let key = kernel_identity(k);
                !self.memo.contains_key(&key) && seen.insert(key)
            })
            .map(|k| self.rig_request(k, 5))
            .collect();
        if !requests.is_empty() {
            return Some(StepBatch::serial(requests));
        }
        if self.final_obs.is_none() {
            let best = &self
                .state
                .best
                .as_ref()
                .expect("at least one generation ran")
                .0;
            let req = self.rig_request(best, self.config.samples_per_individual);
            return Some(StepBatch::serial(vec![req]));
        }
        None
    }

    fn absorb(&mut self, outcomes: &[StepOutcome]) -> Result<(), DomainError> {
        if !self.state.is_done(&self.config.ga) {
            return self.absorb_generation(outcomes);
        }
        if let Some((index, kernel)) = self.next_dominant() {
            let key = kernel_identity(kernel);
            let obs = sole_observation(outcomes)?;
            self.memo.insert(key, obs.reading.dominant_hz);
            self.dominant.push((index, obs.reading.dominant_hz));
            return Ok(());
        }
        self.final_obs = Some(sole_observation(outcomes)?);
        Ok(())
    }

    fn snapshot(&self) -> Value {
        render_virus_snapshot(
            &self.state,
            self.clock.seconds(),
            &self.dominant,
            self.final_obs.as_ref(),
        )
    }

    fn snapshot_deferred(&self) -> Box<dyn FnOnce() -> Value + Send> {
        // A kernel clones as an `Arc` bump plus a flat instruction
        // memcpy, so capturing the typed state costs microseconds; the
        // allocation-heavy tree build is deferred to the rare debounced
        // checkpoint write. This is what keeps per-batch checkpointing
        // inside the bench-gated 3% overhead budget.
        let state = self.state.clone();
        let clock_s = self.clock.seconds();
        let dominant = self.dominant.clone();
        let final_obs = self.final_obs;
        Box::new(move || render_virus_snapshot(&state, clock_s, &dominant, final_obs.as_ref()))
    }

    fn restore(&mut self, state: &Value) -> Result<(), DeError> {
        let kernels = |v: &Value| -> Result<Vec<Kernel>, DeError> {
            snap::arr(v)?.iter().map(kernel_from_value).collect()
        };
        self.state.rng =
            rand::rngs::StdRng::from_state(snap::unhex_words(snap::field(state, "rng")?)?);
        self.state.generation = snap::usize_field(state, "generation")?;
        self.state.population = kernels(snap::field(state, "population")?)?;
        self.state.best = match snap::field(state, "best")? {
            Value::Null => None,
            v => Some((
                kernel_from_value(snap::field(v, "kernel")?)?,
                snap::unhex(snap::field(v, "fitness")?)?,
            )),
        };
        self.state.history = snap::arr(snap::field(state, "history")?)?
            .iter()
            .map(|v| {
                Ok(GenerationStats {
                    index: snap::usize_field(v, "index")?,
                    best_fitness: snap::unhex(snap::field(v, "best")?)?,
                    mean_fitness: snap::unhex(snap::field(v, "mean")?)?,
                    best_so_far: snap::unhex(snap::field(v, "best_so_far")?)?,
                })
            })
            .collect::<Result<_, DeError>>()?;
        self.state.generation_best = kernels(snap::field(state, "generation_best")?)?;

        // Cross-field sanity: a corrupt-but-parseable snapshot must fail
        // here with a typed error, not panic later in the drive.
        if self.state.generation_best.len() != self.state.history.len() {
            return Err(DeError::new(format!(
                "snapshot records {} generation champions but {} history entries",
                self.state.generation_best.len(),
                self.state.history.len()
            )));
        }
        if !self.state.is_done(&self.config.ga)
            && self.state.population.len() != self.config.ga.population
        {
            return Err(DeError::new(format!(
                "snapshot population holds {} individuals, config expects {}",
                self.state.population.len(),
                self.config.ga.population
            )));
        }
        if self.state.is_done(&self.config.ga) && self.state.best.is_none() {
            return Err(DeError::new(
                "completed GA state is missing its best individual",
            ));
        }

        self.clock = SimClock::new();
        self.clock
            .advance(snap::unhex(snap::field(state, "clock_s")?)?);

        // Rebuild the memo by re-deriving each champion's identity: the
        // snapshot never trusts hash values across binaries.
        self.dominant.clear();
        self.memo.clear();
        for pair in snap::arr(snap::field(state, "dominant")?)? {
            let [index_v, hz_v] = snap::tuple(pair)?;
            let index = f64::from_value(index_v)? as usize;
            let kernel = self
                .state
                .generation_best
                .get(index)
                .ok_or_else(|| DeError::new(format!("dominant index {index} out of range")))?;
            let hz = snap::unhex(hz_v)?;
            self.memo.insert(kernel_identity(kernel), hz);
            self.dominant.push((index, hz));
        }
        self.final_obs = match snap::field(state, "final")? {
            Value::Null => None,
            v => Some(obs_from_value(v)?),
        };
        Ok(())
    }

    fn on_fresh_start(&mut self) {
        // Summary-only (host-dependent, never emitted into traces). A
        // resumed run restores this from its checkpoint instead.
        self.tel.count(
            CounterId::SimdDispatchLevel,
            emvolt_simd::level().code() as u64,
        );
    }
}

/// [`generate_em_virus_on`](crate::generate_em_virus_on) with
/// checkpoint/resume/interrupt wiring: drives the GA step campaign under
/// `opts`. Returns `None` when the batch limit interrupted the campaign
/// (its state is in the checkpoint file, ready to resume).
///
/// `opts.threads == 0` / `opts.lanes == 0` fall back to
/// [`VirusGenConfig::threads`] / [`VirusGenConfig::lanes`], resolved as
/// [`generate_em_virus_on`](crate::generate_em_virus_on) resolves them.
///
/// # Errors
///
/// As for [`generate_em_virus_on`](crate::generate_em_virus_on), plus
/// [`DomainError::Checkpoint`] from resume verification or a failed
/// checkpoint write.
pub fn generate_em_virus_resumable<B: MeasurementBackend + ?Sized>(
    name: &str,
    backend: &mut B,
    domain_name: &str,
    config: &VirusGenConfig,
    opts: &DriveOptions,
    on_generation: impl FnMut(&GenerationProgress),
) -> Result<Option<Virus>, DomainError> {
    backend
        .configure_run(&config.run)
        .map_err(BackendError::into_domain_error)?;
    let mut opts = opts.clone();
    if opts.threads == 0 {
        opts.threads = resolve_threads(config.threads);
    }
    if opts.lanes == 0 {
        opts.lanes = resolve_lanes(config.lanes);
    }
    if config.cache_fitness {
        let mut caching = CachingBackend::new(&mut *backend);
        run_virus_engine(
            name,
            &mut caching,
            domain_name,
            config,
            &opts,
            on_generation,
        )
    } else {
        run_virus_engine(name, backend, domain_name, config, &opts, on_generation)
    }
}

/// The campaign proper, generic over the (possibly cache-wrapped)
/// backend.
fn run_virus_engine<B: MeasurementBackend + ?Sized>(
    name: &str,
    backend: &mut B,
    domain_name: &str,
    config: &VirusGenConfig,
    opts: &DriveOptions,
    on_generation: impl FnMut(&GenerationProgress),
) -> Result<Option<Virus>, DomainError> {
    let info = backend
        .domain_info(domain_name)
        .ok_or_else(|| DomainError::Backend(format!("unknown domain `{domain_name}`")))?;
    let mut campaign = VirusCampaign::new(
        name,
        domain_name,
        info.isa,
        config,
        opts.lanes,
        on_generation,
    )?;
    match drive(backend, &mut campaign, opts)? {
        DriveOutcome::Complete => campaign.into_virus(backend).map(Some),
        DriveOutcome::Interrupted => Ok(None),
    }
}

/// The fast resonance sweep as a resumable step campaign: one serial
/// rig measurement per DVFS point, in visit order. The remaining points
/// form one serial batch, so the driver hands them to the backend a lane
/// width at a time and absorbs each point as its reading arrives.
struct SweepCampaign {
    domain_name: String,
    config: FastSweepConfig,
    kernel: Kernel,
    max_frequency_hz: f64,
    tel: Telemetry,
    next_point: usize,
    points: Vec<SweepPoint>,
    clock: SimClock,
    fingerprint: u64,
}

impl SweepCampaign {
    /// Builds a fresh sweep over the configured DVFS points.
    fn new(
        domain_name: &str,
        isa: emvolt_isa::Isa,
        max_frequency_hz: f64,
        config: &FastSweepConfig,
    ) -> Self {
        let mut fp = Fingerprint::new()
            .str("sweep")
            .str(domain_name)
            .u64(run_config_fingerprint(&config.run))
            .u64(config.loaded_cores as u64)
            .u64(config.samples_per_point as u64)
            .f64(config.marker_halfwidth_hz)
            .u64(config.cpu_freqs_hz.len() as u64);
        for &f in &config.cpu_freqs_hz {
            fp = fp.f64(f);
        }
        SweepCampaign {
            domain_name: domain_name.to_owned(),
            kernel: sweep_kernel(isa),
            max_frequency_hz,
            tel: config.telemetry.clone(),
            config: config.clone(),
            next_point: 0,
            points: Vec::new(),
            clock: SimClock::new(),
            fingerprint: fp.finish(),
        }
    }

    /// Finishes a complete sweep: picks the resonance, emits the
    /// telemetry summaries, closes the backend and builds the result.
    ///
    /// # Errors
    ///
    /// [`DomainError::Backend`] if the backend fails to finish.
    fn into_result<B: MeasurementBackend + ?Sized>(
        self,
        backend: &mut B,
    ) -> Result<FastSweepResult, DomainError> {
        let resonance_hz = self
            .points
            .iter()
            .max_by(|a, b| a.amplitude_dbm.total_cmp(&b.amplitude_dbm))
            .map(|p| p.loop_freq_hz)
            .unwrap_or(0.0);
        self.tel.emit_counters();
        self.tel.emit_histograms();
        self.tel.flush();
        backend.finish().map_err(BackendError::into_domain_error)?;
        Ok(FastSweepResult {
            points: self.points,
            resonance_hz,
            campaign: self.clock,
        })
    }
}

impl Campaign for SweepCampaign {
    fn kind(&self) -> &'static str {
        "sweep"
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn telemetry(&self) -> Telemetry {
        self.tel.clone()
    }

    /// Every point not yet measured, as one serial batch: the driver
    /// absorbs them one at a time, in visit order.
    fn next_batch(&mut self) -> Option<StepBatch> {
        let remaining = self
            .config
            .cpu_freqs_hz
            .get(self.next_point..)
            .filter(|rest| !rest.is_empty())?;
        let requests = remaining
            .iter()
            .map(|&f_cpu| StepRequest {
                domain: self.domain_name.clone(),
                load: StepLoad::Kernel {
                    kernel: self.kernel.clone(),
                    loaded_cores: self.config.loaded_cores,
                },
                freq_hz: Some(f_cpu.min(self.max_frequency_hz)),
                band: BandSpec::AroundLoop {
                    halfwidth_hz: self.config.marker_halfwidth_hz,
                },
                samples: self.config.samples_per_point,
                seed: None,
            })
            .collect();
        Some(StepBatch::serial(requests))
    }

    fn absorb(&mut self, outcomes: &[StepOutcome]) -> Result<(), DomainError> {
        let f_cpu = self.config.cpu_freqs_hz[self.next_point];
        let obs = sole_observation(outcomes)?;
        self.clock
            .advance(self.config.samples_per_point as f64 * 0.6 + 2.0);
        self.tel.set_sim_time(self.clock.seconds());
        self.tel.span(
            "sweep",
            Layer::Core,
            &[
                ("cpu_mhz", f_cpu / 1e6),
                ("loop_mhz", obs.loop_frequency_hz / 1e6),
                ("amplitude_dbm", obs.reading.metric_dbm),
            ],
        );
        self.points.push(SweepPoint {
            cpu_freq_hz: f_cpu,
            loop_freq_hz: obs.loop_frequency_hz,
            amplitude_dbm: obs.reading.metric_dbm,
        });
        self.next_point += 1;
        Ok(())
    }

    fn snapshot(&self) -> Value {
        snap::obj(vec![
            ("next_point", Value::Num(self.next_point as f64)),
            (
                "points",
                Value::Arr(
                    self.points
                        .iter()
                        .map(|p| {
                            Value::Arr(vec![
                                snap::hex(p.cpu_freq_hz),
                                snap::hex(p.loop_freq_hz),
                                snap::hex(p.amplitude_dbm),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("clock_s", snap::hex(self.clock.seconds())),
        ])
    }

    fn restore(&mut self, state: &Value) -> Result<(), DeError> {
        self.next_point = snap::usize_field(state, "next_point")?;
        self.points = snap::arr(snap::field(state, "points")?)?
            .iter()
            .map(|p| {
                let [cpu, lp, amp] = snap::tuple(p)?;
                Ok(SweepPoint {
                    cpu_freq_hz: snap::unhex(cpu)?,
                    loop_freq_hz: snap::unhex(lp)?,
                    amplitude_dbm: snap::unhex(amp)?,
                })
            })
            .collect::<Result<_, DeError>>()?;
        if self.next_point != self.points.len() {
            return Err(DeError::new(format!(
                "sweep cursor {} disagrees with {} recorded points",
                self.next_point,
                self.points.len()
            )));
        }
        self.clock = SimClock::new();
        self.clock
            .advance(snap::unhex(snap::field(state, "clock_s")?)?);
        Ok(())
    }
}

/// [`fast_resonance_sweep_on`](crate::fast_resonance_sweep_on) with
/// checkpoint/resume/interrupt wiring. Returns `None` when the batch
/// limit interrupted the sweep.
///
/// `opts.lanes` is how many DVFS points go to the backend per call
/// (`0` = the detected SIMD level's preferred width, as for the virus
/// search). Output is bit-identical at any width, and every point
/// counts as one step toward `max_batches` and the checkpoint cadence.
///
/// # Errors
///
/// As for [`fast_resonance_sweep_on`](crate::fast_resonance_sweep_on),
/// plus [`DomainError::Checkpoint`] from resume verification or a failed
/// checkpoint write.
pub fn fast_resonance_sweep_resumable<B: MeasurementBackend + ?Sized>(
    backend: &mut B,
    domain_name: &str,
    config: &FastSweepConfig,
    opts: &DriveOptions,
) -> Result<Option<FastSweepResult>, DomainError> {
    backend
        .configure_run(&config.run)
        .map_err(BackendError::into_domain_error)?;
    let info = backend
        .domain_info(domain_name)
        .ok_or_else(|| DomainError::Backend(format!("unknown domain `{domain_name}`")))?;
    let mut campaign = SweepCampaign::new(domain_name, info.isa, info.max_frequency_hz, config);
    let opts = DriveOptions {
        lanes: resolve_lanes(opts.lanes),
        ..opts.clone()
    };
    match drive(backend, &mut campaign, &opts)? {
        DriveOutcome::Complete => campaign.into_result(backend).map(Some),
        DriveOutcome::Interrupted => Ok(None),
    }
}
