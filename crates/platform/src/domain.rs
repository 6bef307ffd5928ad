//! A voltage domain: CPU cores sharing one PDN and one supply rail.

use crate::measure::{EmReading, MeasureScratch, SharedEmBench, SpectralChoice};
use emvolt_circuit::{
    BatchTransientScratch, KernelChoice, Stimulus, Trace, TransientConfig, TransientPlan,
    TransientScratch,
};
use emvolt_cpu::{CoreModel, Cpu, SimConfig, SimError};
use emvolt_isa::Kernel;
use emvolt_pdn::{Pdn, PdnParams};
use std::fmt;
use std::sync::Arc;

/// Error running a workload on a domain.
#[derive(Debug)]
pub enum DomainError {
    /// The CPU timing simulation failed.
    Sim(SimError),
    /// The PDN circuit analysis failed.
    Circuit(emvolt_circuit::CircuitError),
    /// More cores requested than are powered.
    TooManyLoadedCores {
        /// Requested loaded cores.
        requested: usize,
        /// Currently powered cores.
        active: usize,
    },
    /// DVFS request outside the domain's `(0, max]` frequency range.
    InvalidFrequency {
        /// Requested frequency, Hz.
        requested_hz: f64,
        /// Domain maximum, Hz.
        max_hz: f64,
    },
    /// Non-positive supply-voltage request.
    InvalidVoltage {
        /// Requested supply, volts.
        requested_v: f64,
    },
    /// Power-gating request outside `1..=core_count`.
    InvalidCoreCount {
        /// Requested active cores.
        requested: usize,
        /// Cores in the cluster.
        total: usize,
    },
    /// `run_sequence` called with no phases.
    EmptyPhaseList,
    /// A measurement backend failed outside the simulation itself (e.g.
    /// a missing recording during replay, or a trace-store I/O error).
    Backend(String),
    /// A campaign checkpoint could not be written, read, or applied
    /// (I/O failure, malformed snapshot, or a run-config fingerprint
    /// mismatch when resuming against a different chip/config).
    Checkpoint(String),
    /// A campaign configuration was rejected before anything ran (e.g. a
    /// degenerate GA population, or an option the campaign does not
    /// support).
    InvalidConfig(String),
}

impl fmt::Display for DomainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DomainError::Sim(e) => write!(f, "cpu simulation failed: {e}"),
            DomainError::Circuit(e) => write!(f, "pdn analysis failed: {e}"),
            DomainError::TooManyLoadedCores { requested, active } => {
                write!(f, "cannot load {requested} cores with {active} powered")
            }
            DomainError::InvalidFrequency {
                requested_hz,
                max_hz,
            } => {
                write!(f, "frequency {requested_hz} outside (0, {max_hz}]")
            }
            DomainError::InvalidVoltage { requested_v } => {
                write!(f, "voltage {requested_v} must be positive")
            }
            DomainError::InvalidCoreCount { requested, total } => {
                write!(f, "active cores {requested} outside 1..={total}")
            }
            DomainError::EmptyPhaseList => write!(f, "run_sequence needs at least one phase"),
            DomainError::Backend(msg) => write!(f, "measurement backend error: {msg}"),
            DomainError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            DomainError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for DomainError {}

impl From<SimError> for DomainError {
    fn from(e: SimError) -> Self {
        DomainError::Sim(e)
    }
}

impl From<emvolt_circuit::CircuitError> for DomainError {
    fn from(e: emvolt_circuit::CircuitError) -> Self {
        DomainError::Circuit(e)
    }
}

/// Controls the physics fidelity of a domain run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// CPU timing-simulation settings.
    pub sim: SimConfig,
    /// PDN integration step in seconds.
    pub pdn_dt: f64,
    /// Recorded PDN window in seconds (after warm-up).
    pub pdn_window: f64,
    /// PDN warm-up discarded before recording, in seconds.
    pub pdn_warmup: f64,
    /// Transient solver-kernel selection (LU back-substitution vs the
    /// precomputed state-space form). `Auto` picks the state-space kernel
    /// for small systems like the paper's PDNs.
    pub kernel: KernelChoice,
    /// How in-band measurements compute the received spectrum (full FFT
    /// vs band-limited Goertzel). Consumed by the backend/CLI layers when
    /// they build the measurement rig.
    pub spectral: SpectralChoice,
    /// Name of the runtime-dispatched SIMD level the hot kernels run on
    /// (`emvolt_simd::level().as_str()` at construction). Descriptive
    /// metadata only: results are bit-identical at every level, so this
    /// field is exempt from the record/replay fingerprint — replays
    /// recorded on a different host stay valid.
    pub simd: &'static str,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            sim: SimConfig {
                interference_interval_s: 250e-9,
                ..SimConfig::default()
            },
            pdn_dt: 0.25e-9,
            pdn_window: 4e-6,
            pdn_warmup: 2e-6,
            kernel: KernelChoice::default(),
            spectral: SpectralChoice::default(),
            simd: emvolt_simd::level().as_str(),
        }
    }
}

impl RunConfig {
    /// A faster, lower-resolution configuration for GA inner loops.
    pub fn fast() -> Self {
        RunConfig {
            sim: SimConfig {
                warmup_iterations: 5,
                min_duration: 2e-6,
                interference_interval_s: 250e-9,
                ..SimConfig::default()
            },
            pdn_dt: 0.5e-9,
            pdn_window: 2e-6,
            pdn_warmup: 1e-6,
            kernel: KernelChoice::default(),
            spectral: SpectralChoice::default(),
            simd: emvolt_simd::level().as_str(),
        }
    }
}

/// Result of running a workload on a domain.
#[derive(Debug, Clone)]
pub struct DomainRun {
    /// Die-voltage waveform.
    pub v_die: Trace,
    /// Die-current waveform (through the package inductance).
    pub i_die: Trace,
    /// Per-core IPC of the workload.
    pub ipc: f64,
    /// Cycles per loop iteration.
    pub cycles_per_iteration: f64,
    /// Loop frequency in Hz.
    pub loop_frequency: f64,
    /// Nominal supply during the run.
    pub supply_v: f64,
}

impl DomainRun {
    /// A placeholder run for [`DomainRunner::run_into`] to fill; reusing
    /// one across evaluations keeps the trace buffers' capacity.
    pub fn empty() -> Self {
        DomainRun {
            v_die: Trace::from_samples(1.0, Vec::new()),
            i_die: Trace::from_samples(1.0, Vec::new()),
            ipc: 0.0,
            cycles_per_iteration: 0.0,
            loop_frequency: 0.0,
            supply_v: 0.0,
        }
    }

    /// Maximum droop below the supply, in volts.
    pub fn max_droop(&self) -> f64 {
        self.v_die.max_droop_below(self.supply_v)
    }

    /// Peak-to-peak voltage noise, in volts.
    pub fn peak_to_peak(&self) -> f64 {
        self.v_die.peak_to_peak()
    }
}

/// One voltage domain: `core_count` identical cores on a shared PDN,
/// with DVFS, undervolting and per-core power gating — the control
/// surface the paper drives through the Juno SCP / AMD Overdrive.
#[derive(Debug, Clone)]
pub struct VoltageDomain {
    name: String,
    core_model: CoreModel,
    pdn_params: PdnParams,
    freq_hz: f64,
    max_freq_hz: f64,
    supply_v: f64,
    active_cores: usize,
}

impl VoltageDomain {
    /// Creates a domain with every core powered, at maximum frequency and
    /// nominal voltage.
    ///
    /// # Panics
    ///
    /// Panics if `max_freq_hz` is not positive.
    pub fn new(
        name: impl Into<String>,
        core_model: CoreModel,
        pdn_params: PdnParams,
        max_freq_hz: f64,
    ) -> Self {
        assert!(max_freq_hz > 0.0, "frequency must be positive");
        let supply_v = pdn_params.v_nominal;
        let active_cores = pdn_params.die_capacitance.core_count;
        VoltageDomain {
            name: name.into(),
            core_model,
            pdn_params,
            freq_hz: max_freq_hz,
            max_freq_hz,
            supply_v,
            active_cores,
        }
    }

    /// Domain name (e.g. `"A72"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The core microarchitecture.
    pub fn core_model(&self) -> &CoreModel {
        &self.core_model
    }

    /// The PDN parameter set.
    pub fn pdn_params(&self) -> &PdnParams {
        &self.pdn_params
    }

    /// Current clock frequency in Hz.
    pub fn frequency(&self) -> f64 {
        self.freq_hz
    }

    /// Maximum clock frequency in Hz.
    pub fn max_frequency(&self) -> f64 {
        self.max_freq_hz
    }

    /// Sets the clock (DVFS), rejecting requests outside `(0, max]`.
    ///
    /// # Errors
    ///
    /// Returns [`DomainError::InvalidFrequency`] for out-of-range `hz`.
    pub fn try_set_frequency(&mut self, hz: f64) -> Result<(), DomainError> {
        if !(hz > 0.0 && hz <= self.max_freq_hz) {
            return Err(DomainError::InvalidFrequency {
                requested_hz: hz,
                max_hz: self.max_freq_hz,
            });
        }
        self.freq_hz = hz;
        Ok(())
    }

    /// Supply voltage in volts.
    pub fn voltage(&self) -> f64 {
        self.supply_v
    }

    /// Sets the supply voltage (undervolting for V_MIN tests), rejecting
    /// non-positive and NaN supplies.
    ///
    /// # Errors
    ///
    /// Returns [`DomainError::InvalidVoltage`] for non-positive `volts`.
    pub fn try_set_voltage(&mut self, volts: f64) -> Result<(), DomainError> {
        // `<=` alone would accept NaN; an explicit NaN check keeps the
        // guard total.
        if volts.is_nan() || volts <= 0.0 {
            return Err(DomainError::InvalidVoltage { requested_v: volts });
        }
        self.supply_v = volts;
        Ok(())
    }

    /// Number of powered cores.
    pub fn active_cores(&self) -> usize {
        self.active_cores
    }

    /// Total cores in the cluster.
    pub fn core_count(&self) -> usize {
        self.pdn_params.die_capacitance.core_count
    }

    /// Power-gates the cluster down to `active` cores (affects die
    /// capacitance and therefore the first-order resonance, §6),
    /// rejecting counts outside `1..=core_count`.
    ///
    /// # Errors
    ///
    /// Returns [`DomainError::InvalidCoreCount`] for out-of-range
    /// `active`.
    pub fn try_power_gate(&mut self, active: usize) -> Result<(), DomainError> {
        if !(1..=self.core_count()).contains(&active) {
            return Err(DomainError::InvalidCoreCount {
                requested: active,
                total: self.core_count(),
            });
        }
        self.active_cores = active;
        Ok(())
    }

    /// Analytic first-order resonance at the current gating state.
    pub fn expected_resonance_hz(&self) -> f64 {
        self.pdn_params.first_order_resonance_hz(self.active_cores)
    }

    /// Builds the PDN for the current gating/voltage state.
    pub fn build_pdn(&self) -> Pdn {
        let mut params = self.pdn_params.clone();
        params.v_nominal = self.supply_v;
        Pdn::new(params, self.active_cores)
    }

    /// Runs `kernel` simultaneously on `loaded_cores` cores (the paper
    /// runs one instance per core); the remaining powered cores idle.
    ///
    /// # Errors
    ///
    /// Returns [`DomainError`] for invalid core counts or failed
    /// simulations.
    pub fn run(
        &self,
        kernel: &Kernel,
        loaded_cores: usize,
        config: &RunConfig,
    ) -> Result<DomainRun, DomainError> {
        DomainRunner::new(self, config.clone())?.run(kernel, loaded_cores)
    }

    /// Runs the domain with all powered cores idle.
    ///
    /// # Errors
    ///
    /// Propagates PDN analysis failures.
    pub fn run_idle(&self, config: &RunConfig) -> Result<DomainRun, DomainError> {
        DomainRunner::new(self, config.clone())?.run_idle()
    }

    /// Runs a sequence of phases — e.g. a workload alternating between a
    /// compute-bound and a memory-bound kernel — and returns one
    /// concatenated run. Each phase contributes `config.pdn_window`
    /// seconds of trace; phase boundaries are where time-resolved views
    /// (spectrograms, emergency rates) show the noise signature change.
    ///
    /// # Errors
    ///
    /// Propagates per-phase failures; fails on an empty phase list.
    pub fn run_sequence(
        &self,
        phases: &[(&Kernel, usize)],
        config: &RunConfig,
    ) -> Result<DomainRun, DomainError> {
        if phases.is_empty() {
            return Err(DomainError::EmptyPhaseList);
        }
        let mut v_all: Vec<f64> = Vec::new();
        let mut i_all: Vec<f64> = Vec::new();
        let mut ipc_acc = 0.0;
        let mut last = None;
        for &(kernel, loaded) in phases {
            let run = self.run(kernel, loaded, config)?;
            v_all.extend_from_slice(run.v_die.samples());
            i_all.extend_from_slice(run.i_die.samples());
            ipc_acc += run.ipc;
            last = Some(run);
        }
        let last = last.expect("non-empty phases");
        Ok(DomainRun {
            v_die: Trace::from_samples(config.pdn_dt, v_all),
            i_die: Trace::from_samples(config.pdn_dt, i_all),
            ipc: ipc_acc / phases.len() as f64,
            cycles_per_iteration: last.cycles_per_iteration,
            loop_frequency: last.loop_frequency,
            supply_v: self.supply_v,
        })
    }

    /// Drives the PDN with an arbitrary load waveform (used by the SCL
    /// block and by tests).
    ///
    /// # Errors
    ///
    /// Propagates PDN analysis failures.
    pub fn run_pdn_with_load(
        &self,
        load: Stimulus,
        config: &RunConfig,
    ) -> Result<(Trace, Trace), DomainError> {
        DomainRunner::new(self, config.clone())?.run_pdn_with_load(load)
    }
}

/// Reusable execution context for repeated runs of one [`VoltageDomain`]
/// under one [`RunConfig`] — the hot path of a GA campaign, where the same
/// domain is evaluated thousands of times with different kernels.
///
/// [`VoltageDomain::run`] pays per call for a fresh [`Cpu`], a rebuilt PDN
/// netlist and an LU refactorization of the MNA system matrix. A runner
/// does that setup once at construction and reuses it, producing
/// bit-identical results (the cached plan holds the same factorization a
/// fresh run would compute).
///
/// The runner snapshots the domain's control state (frequency, voltage,
/// gating) at construction; build a new runner after changing any of
/// them. Each runner is independently usable from its own thread.
#[derive(Debug, Clone)]
pub struct DomainRunner {
    domain: VoltageDomain,
    config: RunConfig,
    cpu: Cpu,
    pdn: Pdn,
    plan: TransientPlan,
    transient_cfg: TransientConfig,
    scratch: TransientScratch,
    telemetry: emvolt_obs::Telemetry,
    /// Per-cycle issue-slot occupancy from the last traced core sim;
    /// only filled while the telemetry handle has a live wave sink.
    occupancy: Vec<u32>,
}

impl DomainRunner {
    /// Builds the runner: constructs the PDN once, LU-factors its MNA
    /// matrix once and instantiates the CPU timing model once.
    ///
    /// # Errors
    ///
    /// Propagates PDN analysis failures (e.g. an invalid `pdn_dt`).
    pub fn new(domain: &VoltageDomain, config: RunConfig) -> Result<Self, DomainError> {
        DomainRunner::new_with(domain, config, emvolt_obs::Telemetry::noop())
    }

    /// Like [`DomainRunner::new`], charging setup and every subsequent
    /// run through this runner to `telemetry` (LU factorizations at
    /// construction, solver counters and spans per transient).
    ///
    /// # Errors
    ///
    /// Propagates PDN analysis failures (e.g. an invalid `pdn_dt`).
    pub fn new_with(
        domain: &VoltageDomain,
        config: RunConfig,
        telemetry: emvolt_obs::Telemetry,
    ) -> Result<Self, DomainError> {
        let pdn = domain.build_pdn();
        let plan = pdn.plan_transient_kernel_with(config.pdn_dt, config.kernel, &telemetry)?;
        let transient_cfg =
            TransientConfig::new(config.pdn_dt, config.pdn_warmup + config.pdn_window)
                .with_warmup(config.pdn_warmup);
        let cpu = Cpu::new(domain.core_model.clone(), domain.freq_hz);
        let mut scratch = TransientScratch::new();
        scratch.set_telemetry(telemetry.clone());
        Ok(DomainRunner {
            domain: domain.clone(),
            config,
            cpu,
            pdn,
            plan,
            transient_cfg,
            scratch,
            telemetry,
            occupancy: Vec::new(),
        })
    }

    /// Swaps the telemetry handle charged by subsequent runs.
    pub fn set_telemetry(&mut self, telemetry: emvolt_obs::Telemetry) {
        self.scratch.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// The domain state this runner was built from.
    pub fn domain(&self) -> &VoltageDomain {
        &self.domain
    }

    /// The run configuration this runner was built for.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// Whether this runner's cached plan can serve the batched lane-major
    /// paths ([`DomainRunner::run_batch_into`] and
    /// [`DomainRunner::run_measure_batch_into`]): true when the plan
    /// embeds the state-space kernel (`RunConfig::kernel` of
    /// `StateSpace`, or `Auto` on a small enough MNA system).
    pub fn supports_batch(&self) -> bool {
        self.plan.uses_state_kernel()
    }

    /// Retunes the runner's clock (DVFS) without rebuilding the PDN or
    /// refactoring its matrices — frequency only enters through the CPU
    /// timing model, so results stay bit-identical to a runner freshly
    /// built at the new frequency.
    ///
    /// # Errors
    ///
    /// Returns [`DomainError::InvalidFrequency`] for out-of-range `hz`;
    /// on error the runner is left unchanged.
    pub fn try_set_frequency(&mut self, hz: f64) -> Result<(), DomainError> {
        self.domain.try_set_frequency(hz)?;
        self.cpu = Cpu::new(self.domain.core_model.clone(), hz);
        Ok(())
    }

    /// Runs `kernel` on `loaded_cores` cores; see [`VoltageDomain::run`].
    ///
    /// # Errors
    ///
    /// Returns [`DomainError`] for invalid core counts or failed
    /// simulations.
    pub fn run(&mut self, kernel: &Kernel, loaded_cores: usize) -> Result<DomainRun, DomainError> {
        let mut out = DomainRun::empty();
        self.run_into(kernel, loaded_cores, &mut out)?;
        Ok(out)
    }

    /// Runs `kernel` into an existing [`DomainRun`], reusing its trace
    /// buffers and the runner's transient scratch — the allocation-lean
    /// GA hot path. Bit-identical to [`DomainRunner::run`].
    ///
    /// # Errors
    ///
    /// Returns [`DomainError`] for invalid core counts or failed
    /// simulations; on error `out` is left unchanged.
    pub fn run_into(
        &mut self,
        kernel: &Kernel,
        loaded_cores: usize,
        out: &mut DomainRun,
    ) -> Result<(), DomainError> {
        let (sim, load) = self.simulate_load(kernel, loaded_cores)?;
        if self.telemetry.wave_enabled() {
            // One epoch per run keeps the digital (per-cycle) and analog
            // (per-pdn_dt) signals on a shared, monotonically advancing
            // time axis; the transient below emits the pdn.* waves under
            // the same epoch.
            self.telemetry.wave_epoch();
            self.emit_cpu_waves(&sim);
        }
        self.pdn.set_load(load);
        let die = self
            .pdn
            .transient_scoped(&self.plan, &self.transient_cfg, &mut self.scratch)?;
        out.v_die.refill(die.dt(), die.start_time(), die.v_die());
        out.i_die.refill(die.dt(), die.start_time(), die.i_die());
        fill_sim_fields(out, &sim, self.domain.supply_v);
        Ok(())
    }

    /// Runs several `(kernel, loaded_cores)` candidates through one
    /// lock-step batched transient, filling one [`DomainRun`] per entry.
    /// Requires a state-space plan (`RunConfig::kernel` of `Auto` or
    /// `StateSpace`); each output is bit-identical to the corresponding
    /// [`DomainRunner::run_into`] call.
    ///
    /// # Errors
    ///
    /// Returns [`DomainError`] for invalid core counts, failed
    /// simulations, an LU-only plan, an empty batch, or when `outs` is
    /// shorter than `entries`.
    pub fn run_batch_into(
        &mut self,
        entries: &[(&Kernel, usize)],
        outs: &mut [DomainRun],
        batch: &mut BatchTransientScratch,
    ) -> Result<(), DomainError> {
        if outs.len() < entries.len() {
            return Err(DomainError::Backend(format!(
                "run_batch_into: {} outputs for {} entries",
                outs.len(),
                entries.len()
            )));
        }
        let mut sims: Vec<emvolt_cpu::SimOutput> = Vec::with_capacity(entries.len());
        let mut loads = Vec::with_capacity(entries.len());
        for (i, &(kernel, loaded_cores)) in entries.iter().enumerate() {
            // Identical-kernel dedupe: the cycle-level core sim depends
            // only on the kernel, and GA populations repeat genomes
            // (elites, clones that mutation left untouched) — reuse the
            // first matching lane's output instead of re-simulating.
            // Bit-identical: `Cpu::simulate` is a pure function of the
            // kernel.
            let dup = entries[..i]
                .iter()
                .position(|&(k, _)| std::ptr::eq(k, kernel) || k == kernel);
            let (sim, load) = match dup {
                Some(j) => {
                    let sim = sims[j].clone();
                    let load = self.cluster_load(&sim, loaded_cores)?;
                    (sim, load)
                }
                None => self.simulate_load(kernel, loaded_cores)?,
            };
            sims.push(sim);
            loads.push(load);
        }
        self.pdn
            .transient_batch(&self.plan, &self.transient_cfg, &loads, batch)?;
        for (i, (out, sim)) in outs.iter_mut().zip(&sims).enumerate() {
            let die = self.pdn.die_lane(batch, i);
            out.v_die.refill(die.dt(), die.start_time(), die.v_die());
            out.i_die.refill(die.dt(), die.start_time(), die.i_die());
            fill_sim_fields(out, sim, self.domain.supply_v);
        }
        Ok(())
    }

    /// Runs several candidates through one batched transient and measures
    /// every lane in one batched in-band pass: the full lane-major
    /// evaluation chain (kernel -> current -> PDN -> radiation ->
    /// analyzer) behind a single call. Lane `l` draws its measurement
    /// noise from `seeds[l]`, so reading `l` is bit-identical to a serial
    /// [`DomainRunner::run_into`] followed by
    /// [`SharedEmBench::measure_in_band_seeded_with`] with that seed.
    ///
    /// # Errors
    ///
    /// Returns [`DomainError`] for the same conditions as
    /// [`DomainRunner::run_batch_into`], plus a seed slice shorter than
    /// `entries`.
    #[allow(clippy::too_many_arguments)]
    pub fn run_measure_batch_into(
        &mut self,
        entries: &[(&Kernel, usize)],
        lo: f64,
        hi: f64,
        sweeps: usize,
        seeds: &[u64],
        shared: &SharedEmBench,
        outs: &mut [DomainRun],
        batch: &mut BatchTransientScratch,
        measure: &mut MeasureScratch,
    ) -> Result<Vec<EmReading>, DomainError> {
        if seeds.len() < entries.len() {
            return Err(DomainError::Backend(format!(
                "run_measure_batch_into: {} seeds for {} entries",
                seeds.len(),
                entries.len()
            )));
        }
        self.run_batch_into(entries, outs, batch)?;
        let refs: Vec<&DomainRun> = outs[..entries.len()].iter().collect();
        Ok(shared.measure_in_band_batch_seeded_with(&refs, lo, hi, sweeps, seeds, measure))
    }

    /// Simulates `kernel` on `loaded_cores` cores and builds the total
    /// cluster load waveform (loaded cores plus idle remainder) — the
    /// shared front half of [`DomainRunner::run_into`] and
    /// [`DomainRunner::run_batch_into`].
    fn simulate_load(
        &mut self,
        kernel: &Kernel,
        loaded_cores: usize,
    ) -> Result<(emvolt_cpu::SimOutput, Stimulus), DomainError> {
        let active = self.domain.active_cores;
        if loaded_cores > active {
            return Err(DomainError::TooManyLoadedCores {
                requested: loaded_cores,
                active,
            });
        }
        let sim = if self.telemetry.wave_enabled() {
            self.cpu
                .simulate_traced(kernel, &self.config.sim, &mut self.occupancy)?
        } else {
            self.cpu.simulate(kernel, &self.config.sim)?
        };
        let load = self.cluster_load(&sim, loaded_cores)?;
        Ok((sim, load))
    }

    /// Emits the digital-side waveforms of the last traced core sim —
    /// per-cycle core current and issue-slot occupancy — decimated by the
    /// sink's stride. Only called when the wave sink is live.
    fn emit_cpu_waves(&self, sim: &emvolt_cpu::SimOutput) {
        let tel = &self.telemetry;
        let stride = tel.wave_stride();
        let i_id = tel.wave_register("cpu.i_core", emvolt_obs::WaveKind::Real);
        for (t, v) in sim.current.decimated(stride).iter() {
            tel.wave_real(i_id, t, v);
        }
        let s_id = tel.wave_register("cpu.issue_slots", emvolt_obs::WaveKind::Int);
        let dt = sim.current.dt();
        let t0 = sim.current.start_time();
        for (k, &slots) in self.occupancy.iter().step_by(stride).enumerate() {
            tel.wave_int(s_id, t0 + (k * stride) as f64 * dt, u64::from(slots));
        }
    }

    /// Scales one core's simulated draw to the whole cluster: loaded
    /// cores plus the idle remainder — the load-construction back half of
    /// [`DomainRunner::simulate_load`], reused when a batch lane shares
    /// another lane's core sim.
    fn cluster_load(
        &self,
        sim: &emvolt_cpu::SimOutput,
        loaded_cores: usize,
    ) -> Result<Stimulus, DomainError> {
        let active = self.domain.active_cores;
        if loaded_cores > active {
            return Err(DomainError::TooManyLoadedCores {
                requested: loaded_cores,
                active,
            });
        }
        let idle_extra = (active - loaded_cores) as f64 * self.domain.core_model.idle_current;
        let total: Vec<f64> = sim
            .current
            .samples()
            .iter()
            .map(|&i| i * loaded_cores as f64 + idle_extra)
            .collect();
        Ok(Stimulus::Samples {
            dt: sim.current.dt(),
            values: Arc::from(total),
            repeat: true,
        })
    }

    /// Runs with all powered cores idle; see [`VoltageDomain::run_idle`].
    ///
    /// # Errors
    ///
    /// Propagates PDN analysis failures.
    pub fn run_idle(&mut self) -> Result<DomainRun, DomainError> {
        let idle = self.domain.active_cores as f64 * self.domain.core_model.idle_current;
        let (v_die, i_die) = self.run_pdn_with_load(Stimulus::Dc(idle))?;
        Ok(DomainRun {
            v_die,
            i_die,
            ipc: 0.0,
            cycles_per_iteration: f64::INFINITY,
            loop_frequency: 0.0,
            supply_v: self.domain.supply_v,
        })
    }

    /// Drives the cached PDN with an arbitrary load waveform, reusing the
    /// prebuilt transient plan and scratch.
    ///
    /// # Errors
    ///
    /// Propagates PDN analysis failures.
    pub fn run_pdn_with_load(&mut self, load: Stimulus) -> Result<(Trace, Trace), DomainError> {
        self.pdn.set_load(load);
        let die = self
            .pdn
            .transient_scoped(&self.plan, &self.transient_cfg, &mut self.scratch)?;
        Ok((
            Trace::with_start(die.dt(), die.start_time(), die.v_die().to_vec()),
            Trace::with_start(die.dt(), die.start_time(), die.i_die().to_vec()),
        ))
    }
}

/// Copies the CPU-simulation half of a [`DomainRun`] from a finished
/// timing simulation.
fn fill_sim_fields(out: &mut DomainRun, sim: &emvolt_cpu::SimOutput, supply_v: f64) {
    out.ipc = sim.ipc;
    out.cycles_per_iteration = sim.cycles_per_iteration;
    out.loop_frequency = sim.loop_frequency();
    out.supply_v = supply_v;
}

#[cfg(test)]
mod tests {
    use super::*;
    use emvolt_isa::{kernels::sweep_kernel, Isa};
    use emvolt_pdn::PdnParams;

    fn domain() -> VoltageDomain {
        VoltageDomain::new(
            "test",
            CoreModel::cortex_a72(),
            PdnParams::generic_mobile(),
            1.2e9,
        )
    }

    #[test]
    fn run_produces_voltage_noise() {
        let d = domain();
        let run = d
            .run(&sweep_kernel(Isa::ArmV8), 2, &RunConfig::fast())
            .unwrap();
        assert!(run.max_droop() > 0.0, "droop {}", run.max_droop());
        assert!(run.peak_to_peak() > 1e-4);
        assert!(run.ipc > 0.0);
    }

    #[test]
    fn traced_runner_emits_cpu_and_pdn_waves_without_perturbing_results() {
        use emvolt_obs::{validate_vcd_text, NoopRecorder, Telemetry, WaveDb};
        use std::sync::Arc;

        let d = domain();
        let k = sweep_kernel(Isa::ArmV8);
        let baseline = d.run(&k, 2, &RunConfig::fast()).unwrap();

        let db = Arc::new(WaveDb::new());
        let tel = Telemetry::with_waves(Arc::new(NoopRecorder), db.clone());
        let mut runner = DomainRunner::new_with(&d, RunConfig::fast(), tel).unwrap();
        let traced = runner.run(&k, 2).unwrap();

        // Tracing must not change the physics.
        for (a, b) in baseline.v_die.samples().iter().zip(traced.v_die.samples()) {
            assert_eq!(a.to_bits(), b.to_bits(), "tracing perturbed v_die");
        }
        assert_eq!(baseline.ipc, traced.ipc);

        let vcd = db.to_vcd_string();
        for signal in [
            " i_core $end",
            " issue_slots $end",
            " v_die $end",
            " i_pkg $end",
        ] {
            assert!(vcd.contains(signal), "missing {signal:?} in:\n{vcd}");
        }
        validate_vcd_text(&vcd).expect("runner VCD must validate");

        // A second run extends the same database monotonically.
        let before = db.samples_written();
        runner.run(&k, 1).unwrap();
        assert!(db.samples_written() > before);
        validate_vcd_text(&db.to_vcd_string()).expect("two-run VCD must validate");
    }

    #[test]
    fn more_loaded_cores_more_noise() {
        let d = domain();
        let k = sweep_kernel(Isa::ArmV8);
        let one = d.run(&k, 1, &RunConfig::fast()).unwrap();
        let two = d.run(&k, 2, &RunConfig::fast()).unwrap();
        assert!(
            two.peak_to_peak() > one.peak_to_peak(),
            "2-core p2p {} vs 1-core {}",
            two.peak_to_peak(),
            one.peak_to_peak()
        );
    }

    #[test]
    fn idle_is_quiet() {
        let d = domain();
        let idle = d.run_idle(&RunConfig::fast()).unwrap();
        let busy = d
            .run(&sweep_kernel(Isa::ArmV8), 2, &RunConfig::fast())
            .unwrap();
        assert!(idle.peak_to_peak() < busy.peak_to_peak() / 5.0);
    }

    #[test]
    fn power_gating_raises_expected_resonance() {
        let mut d = domain();
        let f2 = d.expected_resonance_hz();
        d.try_power_gate(1).unwrap();
        let f1 = d.expected_resonance_hz();
        assert!(f1 > f2);
    }

    #[test]
    fn loading_more_than_active_fails() {
        let mut d = domain();
        d.try_power_gate(1).unwrap();
        let err = d.run(&sweep_kernel(Isa::ArmV8), 2, &RunConfig::fast());
        assert!(matches!(err, Err(DomainError::TooManyLoadedCores { .. })));
    }

    #[test]
    fn undervolting_shifts_dc_level() {
        let mut d = domain();
        d.try_set_voltage(0.9).unwrap();
        let run = d
            .run(&sweep_kernel(Isa::ArmV8), 1, &RunConfig::fast())
            .unwrap();
        assert!((run.v_die.mean() - 0.9).abs() < 0.02);
        assert_eq!(run.supply_v, 0.9);
    }

    #[test]
    fn fallible_control_setters_reject_bad_requests() {
        let mut d = domain();
        assert!(matches!(
            d.try_set_frequency(2.0e9),
            Err(DomainError::InvalidFrequency { .. })
        ));
        assert!(matches!(
            d.try_set_voltage(-0.1),
            Err(DomainError::InvalidVoltage { .. })
        ));
        assert!(matches!(
            d.try_power_gate(0),
            Err(DomainError::InvalidCoreCount { .. })
        ));
        assert!(matches!(
            d.try_power_gate(99),
            Err(DomainError::InvalidCoreCount { .. })
        ));
        // State is untouched by rejected requests and updated by valid
        // ones.
        assert_eq!(d.frequency(), 1.2e9);
        d.try_set_frequency(0.6e9).unwrap();
        d.try_set_voltage(0.9).unwrap();
        d.try_power_gate(1).unwrap();
        assert_eq!(d.frequency(), 0.6e9);
        assert_eq!(d.voltage(), 0.9);
        assert_eq!(d.active_cores(), 1);
    }

    #[test]
    fn runner_try_set_frequency_leaves_state_on_error() {
        let d = domain();
        let mut runner = DomainRunner::new(&d, RunConfig::fast()).unwrap();
        assert!(runner.try_set_frequency(9.9e9).is_err());
        assert_eq!(runner.domain().frequency(), 1.2e9);
        runner.try_set_frequency(0.8e9).unwrap();
        assert_eq!(runner.domain().frequency(), 0.8e9);
    }

    /// A reused runner must reproduce per-call `VoltageDomain::run`
    /// bit-for-bit across different kernels — this equality is what lets
    /// the GA batch path share one runner per thread.
    #[test]
    fn runner_reuse_is_bit_identical_to_fresh_runs() {
        use emvolt_isa::kernels::resonant_stress_kernel;
        let d = domain();
        let cfg = RunConfig::fast();
        let mut runner = DomainRunner::new(&d, cfg.clone()).unwrap();
        let kernels = [
            sweep_kernel(Isa::ArmV8),
            resonant_stress_kernel(Isa::ArmV8, 12, 17),
            sweep_kernel(Isa::ArmV8),
        ];
        for k in &kernels {
            let fresh = d.run(k, 2, &cfg).unwrap();
            let reused = runner.run(k, 2).unwrap();
            assert_eq!(fresh.v_die.samples(), reused.v_die.samples());
            assert_eq!(fresh.i_die.samples(), reused.i_die.samples());
            assert_eq!(fresh.ipc, reused.ipc);
        }
        let fresh_idle = d.run_idle(&cfg).unwrap();
        let reused_idle = runner.run_idle().unwrap();
        assert_eq!(fresh_idle.v_die.samples(), reused_idle.v_die.samples());
    }

    /// The batched path must agree bit-for-bit with serial `run_into` —
    /// the equality that lets GA evaluation step several candidates per
    /// lock-step transient without changing fitness values.
    #[test]
    fn batched_runs_match_serial_runs_bit_for_bit() {
        use emvolt_isa::kernels::{padded_sweep_kernel, resonant_stress_kernel};
        let d = domain();
        let cfg = RunConfig::fast();
        let mut runner = DomainRunner::new(&d, cfg).unwrap();
        let kernels = [
            sweep_kernel(Isa::ArmV8),
            resonant_stress_kernel(Isa::ArmV8, 12, 17),
            padded_sweep_kernel(Isa::ArmV8, 9),
        ];
        let entries: Vec<(&emvolt_isa::Kernel, usize)> =
            kernels.iter().zip([2usize, 1, 2]).collect();

        let mut batch = BatchTransientScratch::new();
        let mut outs = vec![DomainRun::empty(); entries.len()];
        runner
            .run_batch_into(&entries, &mut outs, &mut batch)
            .unwrap();

        for (&(k, loaded), batched) in entries.iter().zip(&outs) {
            let serial = runner.run(k, loaded).unwrap();
            assert_eq!(serial.v_die.samples(), batched.v_die.samples());
            assert_eq!(serial.i_die.samples(), batched.i_die.samples());
            assert_eq!(serial.ipc, batched.ipc);
            assert_eq!(serial.loop_frequency, batched.loop_frequency);
        }
    }

    #[test]
    fn batched_runs_validate_inputs() {
        let d = domain();
        let mut runner = DomainRunner::new(&d, RunConfig::fast()).unwrap();
        let k = sweep_kernel(Isa::ArmV8);
        let mut batch = BatchTransientScratch::new();
        let mut outs = vec![DomainRun::empty()];
        // More entries than outputs.
        assert!(matches!(
            runner.run_batch_into(&[(&k, 1), (&k, 2)], &mut outs, &mut batch),
            Err(DomainError::Backend(_))
        ));
        // An LU-only plan cannot batch.
        let mut lu_cfg = RunConfig::fast();
        lu_cfg.kernel = KernelChoice::Lu;
        let mut lu_runner = DomainRunner::new(&d, lu_cfg).unwrap();
        assert!(lu_runner
            .run_batch_into(&[(&k, 1)], &mut outs, &mut batch)
            .is_err());
    }

    #[test]
    fn runner_snapshots_domain_control_state() {
        let mut d = domain();
        let runner = DomainRunner::new(&d, RunConfig::fast()).unwrap();
        d.try_set_voltage(0.9).unwrap();
        // The runner keeps the state it was built from.
        assert_eq!(runner.domain().voltage(), 1.0);
        assert_eq!(d.voltage(), 0.9);
    }
}

#[cfg(test)]
mod sequence_tests {
    use super::*;
    use emvolt_cpu::CoreModel;
    use emvolt_isa::kernels::{resonant_stress_kernel, sweep_kernel};
    use emvolt_isa::Isa;

    fn domain() -> VoltageDomain {
        VoltageDomain::new(
            "A72",
            CoreModel::cortex_a72(),
            crate::boards::a72_pdn(),
            1.2e9,
        )
    }

    #[test]
    fn sequence_concatenates_phases() {
        let d = domain();
        let cfg = RunConfig::fast();
        let quiet = sweep_kernel(Isa::ArmV8);
        let loud = resonant_stress_kernel(Isa::ArmV8, 12, 17);
        let run = d.run_sequence(&[(&quiet, 1), (&loud, 2)], &cfg).unwrap();
        let single = d.run(&quiet, 1, &cfg).unwrap();
        assert_eq!(run.v_die.len(), 2 * single.v_die.len());
        // The loud phase dominates the worst droop of the combined run.
        let loud_only = d.run(&loud, 2, &cfg).unwrap();
        assert!((run.max_droop() - loud_only.max_droop()).abs() < 5e-3);
    }

    #[test]
    fn phase_change_is_visible_in_the_spectrogram() {
        use emvolt_dsp::{Spectrogram, Window};
        let d = domain();
        let cfg = RunConfig::fast();
        let quiet = sweep_kernel(Isa::ArmV8);
        let loud = resonant_stress_kernel(Isa::ArmV8, 12, 17);
        let run = d.run_sequence(&[(&quiet, 1), (&loud, 2)], &cfg).unwrap();
        let n = run.i_die.len();
        let sg = Spectrogram::of_samples(
            run.i_die.samples(),
            run.i_die.sample_rate(),
            n / 8,
            n / 8,
            Window::Hann,
        );
        let f_res = d.expected_resonance_hz();
        let track = sg.track(f_res);
        let early: f64 = track[..track.len() / 2].iter().sum();
        let late: f64 = track[track.len() / 2..].iter().sum();
        assert!(
            late > 3.0 * early,
            "resonant phase must light up the track: early {early}, late {late}"
        );
    }

    #[test]
    fn empty_sequence_is_rejected() {
        let d = domain();
        assert!(matches!(
            d.run_sequence(&[], &RunConfig::fast()),
            Err(DomainError::EmptyPhaseList)
        ));
    }
}
