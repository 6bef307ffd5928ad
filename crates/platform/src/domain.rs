//! A voltage domain: CPU cores sharing one PDN and one supply rail.

use emvolt_circuit::{
    BatchTransientScratch, KernelChoice, Stimulus, Trace, TransientConfig, TransientPlan,
};
use emvolt_cpu::{CoreModel, Cpu, SimConfig, SimError};
use emvolt_isa::Kernel;
use emvolt_pdn::{Pdn, PdnParams};
use std::fmt;
use std::sync::Arc;

/// Error running a workload on a domain.
#[derive(Debug, Clone)]
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
        self.check_frequency(hz)?;
        self.freq_hz = hz;
        Ok(())
    }

    /// Rejects clocks outside `(0, max]`.
    fn check_frequency(&self, hz: f64) -> Result<(), DomainError> {
        if !(hz > 0.0 && hz <= self.max_freq_hz) {
            return Err(DomainError::InvalidFrequency {
                requested_hz: hz,
                max_hz: self.max_freq_hz,
            });
        }
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

/// What executes on a domain while it runs.
#[derive(Debug, Clone, Copy)]
pub enum Load<'a> {
    /// A kernel replicated across `loaded_cores` cores (the remaining
    /// cores idle).
    Kernel {
        /// The instruction sequence to loop.
        kernel: &'a Kernel,
        /// How many cores execute it.
        loaded_cores: usize,
    },
    /// All cores idle — the baseline the paper subtracts to isolate
    /// code-dependent emissions.
    Idle,
}

impl<'a> Load<'a> {
    /// The kernel, if this load runs one.
    pub fn kernel(&self) -> Option<&'a Kernel> {
        match self {
            Load::Kernel { kernel, .. } => Some(kernel),
            Load::Idle => None,
        }
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
/// Every run is a lane group: [`DomainRunner::run_lanes`] runs its
/// physics and reports nothing, and [`DomainRunner::report_lane`]
/// reports each lane as the one-entry run it stands for — a single run
/// is a group of one. Each lane names its own clock: the clock only enters
/// through the core timing model, so lanes at different DVFS points
/// share the PDN plan.
///
/// The runner snapshots the domain's voltage and gating at construction;
/// build a new runner after changing either. The domain's clock is only
/// the default for [`DomainRunner::run`], [`DomainRunner::run_into`] and
/// [`DomainRunner::run_idle`]. Each runner is independently usable from
/// its own thread.
#[derive(Debug, Clone)]
pub struct DomainRunner {
    domain: VoltageDomain,
    config: RunConfig,
    /// The core at the clock of the most recent simulated lane; a lane at
    /// another clock rebuilds it (a [`Cpu`] is only a model and a clock).
    cpu: Cpu,
    pdn: Pdn,
    plan: TransientPlan,
    transient_cfg: TransientConfig,
    batch: BatchTransientScratch,
    telemetry: emvolt_obs::Telemetry,
    /// Per-lane issue-slot occupancy from the last traced core sims; only
    /// filled while the telemetry handle has a live wave sink.
    occupancy: Vec<Vec<u32>>,
    /// What each lane of the most recent group left for its report: its
    /// core sim's figures, or the error the lane would get run alone.
    lanes: Vec<Result<LaneCore, DomainError>>,
}

/// What one lane's core sim leaves for its run record.
#[derive(Debug, Clone)]
struct LaneCore {
    ipc: f64,
    cycles_per_iteration: f64,
    loop_frequency: f64,
    /// The lane's index in the group's transient, which leaves failed
    /// lanes out.
    die: usize,
    /// The sim itself, kept only while a later lane of the group reuses
    /// it, or, for a traced group, until [`DomainRunner::report_lane`]
    /// emits its core-side waveforms.
    sim: Option<emvolt_cpu::SimOutput>,
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
        Ok(DomainRunner {
            domain: domain.clone(),
            config,
            cpu,
            pdn,
            plan,
            transient_cfg,
            batch: BatchTransientScratch::new(),
            telemetry,
            occupancy: Vec::new(),
            lanes: Vec::new(),
        })
    }

    /// Swaps the telemetry handle charged by subsequent runs.
    pub fn set_telemetry(&mut self, telemetry: emvolt_obs::Telemetry) {
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

    /// Sets the default clock (DVFS) of runs that name none, without
    /// rebuilding the PDN or refactoring its matrices — results stay
    /// bit-identical to a runner freshly built at the new frequency.
    ///
    /// # Errors
    ///
    /// Returns [`DomainError::InvalidFrequency`] for out-of-range `hz`;
    /// on error the runner is left unchanged.
    pub fn try_set_frequency(&mut self, hz: f64) -> Result<(), DomainError> {
        self.domain.try_set_frequency(hz)
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

    /// Runs `kernel` at the domain's clock into an existing
    /// [`DomainRun`], reusing its trace buffers — a one-entry
    /// [`DomainRunner::run_batch_into`].
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
        let load = Load::Kernel {
            kernel,
            loaded_cores,
        };
        let clock = self.domain.freq_hz;
        self.run_batch_into(&[load], &[clock], std::slice::from_mut(out))
    }

    /// Runs every load of `loads` as one lane group, lane `i` with its
    /// core clocked at `clocks[i]` (idle lanes ignore their clock), then
    /// reports the lanes in order ([`DomainRunner::report_lane`]), filling
    /// one [`DomainRun`] per entry. Entry `i` and what it emits are
    /// bit-identical to a one-entry run of it, whatever else is in the
    /// group.
    ///
    /// # Errors
    ///
    /// Returns the first failing lane's [`DomainError`] (a clock outside
    /// the domain's range, an invalid core count, a failed simulation or
    /// transient), or [`DomainError::Backend`] for an empty group or when
    /// `outs` or `clocks` is shorter than `loads`; on error nothing is
    /// reported and `outs` is left unchanged.
    pub fn run_batch_into(
        &mut self,
        loads: &[Load<'_>],
        clocks: &[f64],
        outs: &mut [DomainRun],
    ) -> Result<(), DomainError> {
        if outs.len() < loads.len() {
            return Err(DomainError::Backend(format!(
                "run_batch_into: {} outputs for {} entries",
                outs.len(),
                loads.len()
            )));
        }
        self.run_lanes(loads, clocks)?;
        if let Some(e) = self.lanes.iter().find_map(|lane| lane.as_ref().err()) {
            return Err(e.clone());
        }
        for (i, out) in outs[..loads.len()].iter_mut().enumerate() {
            self.report_lane(i, out)?;
        }
        Ok(())
    }

    /// Runs the physics of a lane group and reports nothing: every lane's
    /// core sim, lane `i` at `clocks[i]`, then one batched transient over
    /// the lanes whose core sim ran. A lane that fails its clock check,
    /// core-count check or core sim keeps the error it would get run alone
    /// and is left out of the transient; a transient error fails every
    /// lane that reached it.
    ///
    /// [`DomainRunner::report_lane`] then reports each lane and hands back
    /// its outcome, so a caller can interleave each lane's report with its
    /// own per-lane work (the rig draws analyzer noise between points) and
    /// one run buffer serves the whole group.
    ///
    /// # Errors
    ///
    /// [`DomainError::Backend`] for an empty group or when `clocks` is
    /// shorter than `loads`.
    pub fn run_lanes(&mut self, loads: &[Load<'_>], clocks: &[f64]) -> Result<(), DomainError> {
        if loads.is_empty() || clocks.len() < loads.len() {
            return Err(DomainError::Backend(format!(
                "run_lanes: {} clocks for {} entries",
                clocks.len(),
                loads.len()
            )));
        }
        let traced = self.telemetry.wave_enabled();
        if traced && self.occupancy.len() < loads.len() {
            self.occupancy.resize_with(loads.len(), Vec::new);
        }
        self.lanes.clear();
        let mut stimuli = Vec::with_capacity(loads.len());
        for i in 0..loads.len() {
            let lane = self.lane(loads, clocks, i).map(|(core, stimulus)| {
                stimuli.push(stimulus);
                LaneCore {
                    die: stimuli.len() - 1,
                    ..core
                }
            });
            self.lanes.push(lane);
        }
        if !stimuli.is_empty() {
            let solved = self.pdn.transient_batch(
                &self.plan,
                &self.transient_cfg,
                &stimuli,
                &mut self.batch,
            );
            if let Err(e) = solved {
                let e = DomainError::from(e);
                for lane in self.lanes.iter_mut().filter(|lane| lane.is_ok()) {
                    *lane = Err(e.clone());
                }
            }
        }
        if !traced {
            for core in self.lanes.iter_mut().flatten() {
                core.sim = None;
            }
        }
        Ok(())
    }

    /// Reports lane `i` of the most recent group as the one-entry run it
    /// stands for and hands back its outcome. A lane that ran emits what
    /// a one-entry run of it would — the wave epoch and core-side
    /// waveforms of a traced kernel lane, then the lane's transient
    /// counters, `transient_solve` span and probe waveforms — and fills
    /// `out`. A failed lane emits nothing and leaves `out` unchanged.
    ///
    /// # Errors
    ///
    /// The error lane `i` would get run alone (see
    /// [`DomainRunner::run_lanes`]).
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the most recent group.
    pub fn report_lane(&self, i: usize, out: &mut DomainRun) -> Result<(), DomainError> {
        let core = self.lanes[i].as_ref().map_err(DomainError::clone)?;
        if let Some(sim) = &core.sim {
            // One epoch per run keeps the digital (per-cycle) and analog
            // (per-pdn_dt) signals on a shared, monotonically advancing
            // time axis; the pdn.* waves below go under the same epoch.
            self.telemetry.wave_epoch();
            self.emit_cpu_waves(sim, &self.occupancy[i]);
        }
        self.pdn
            .report_die_lane(&self.plan, &self.batch, core.die, &self.telemetry);
        let die = self.pdn.die_lane(&self.batch, core.die);
        out.v_die.refill(die.dt(), die.start_time(), die.v_die());
        out.i_die.refill(die.dt(), die.start_time(), die.i_die());
        out.ipc = core.ipc;
        out.cycles_per_iteration = core.cycles_per_iteration;
        out.loop_frequency = core.loop_frequency;
        out.supply_v = self.domain.supply_v;
        Ok(())
    }

    /// Frees the transient's per-lane buffers, recorded waveforms
    /// included; the most recent group can no longer be reported. For a
    /// caller that reports each group before running the next (the rig),
    /// so the next group's core sims do not stack on the last group's
    /// lanes.
    pub fn release_lanes(&mut self) {
        self.batch.release_lanes();
        self.lanes.clear();
    }

    /// Lane `i`'s core figures and cluster load stimulus, or the error
    /// the lane would get run alone.
    fn lane(
        &mut self,
        loads: &[Load<'_>],
        clocks: &[f64],
        i: usize,
    ) -> Result<(LaneCore, Stimulus), DomainError> {
        let Load::Kernel {
            kernel,
            loaded_cores,
        } = loads[i]
        else {
            let idle = self.domain.active_cores as f64 * self.domain.core_model.idle_current;
            let core = LaneCore {
                ipc: 0.0,
                cycles_per_iteration: f64::INFINITY,
                loop_frequency: 0.0,
                die: 0,
                sim: None,
            };
            return Ok((core, Stimulus::Dc(idle)));
        };
        let clock = clocks[i];
        self.domain.check_frequency(clock)?;
        let active = self.domain.active_cores;
        if loaded_cores > active {
            return Err(DomainError::TooManyLoadedCores {
                requested: loaded_cores,
                active,
            });
        }
        // Identical-kernel dedupe: the cycle-level core sim depends only
        // on the kernel and the clock, and GA populations repeat genomes
        // (elites, clones that mutation left untouched) — a lane reuses
        // the sim of an earlier lane with the same kernel at the same
        // clock instead of re-simulating. Bit-identical: `Cpu::simulate`
        // is a pure function of the kernel and the clock.
        let same_core = |j: usize| {
            clocks[j].to_bits() == clock.to_bits()
                && loads[j]
                    .kernel()
                    .is_some_and(|k| std::ptr::eq(k, kernel) || k == kernel)
        };
        let reused = (0..i)
            .filter(|&j| same_core(j))
            .find_map(|j| Some((j, self.lanes[j].as_ref().ok()?.sim.clone()?)));
        let sim = match reused {
            Some((j, sim)) => {
                if self.telemetry.wave_enabled() {
                    let (head, tail) = self.occupancy.split_at_mut(i);
                    tail[0].clone_from(&head[j]);
                }
                sim
            }
            None => self.simulate(kernel, clock, i)?,
        };
        let stimulus = self.cluster_load(&sim, loaded_cores);
        let keep = self.telemetry.wave_enabled() || (i + 1..loads.len()).any(same_core);
        let core = LaneCore {
            ipc: sim.ipc,
            cycles_per_iteration: sim.cycles_per_iteration,
            loop_frequency: sim.loop_frequency(),
            die: 0,
            sim: keep.then_some(sim),
        };
        Ok((core, stimulus))
    }

    /// Simulates `kernel` on one core clocked at `clock`; traced runs
    /// also record lane `lane`'s issue-slot occupancy.
    fn simulate(
        &mut self,
        kernel: &Kernel,
        clock: f64,
        lane: usize,
    ) -> Result<emvolt_cpu::SimOutput, DomainError> {
        if self.cpu.frequency().to_bits() != clock.to_bits() {
            self.cpu = Cpu::new(self.domain.core_model.clone(), clock);
        }
        Ok(if self.telemetry.wave_enabled() {
            self.cpu
                .simulate_traced(kernel, &self.config.sim, &mut self.occupancy[lane])?
        } else {
            self.cpu.simulate(kernel, &self.config.sim)?
        })
    }

    /// Emits the digital-side waveforms of a traced core sim — per-cycle
    /// core current and issue-slot occupancy — decimated by the sink's
    /// stride. Only called when the wave sink is live.
    fn emit_cpu_waves(&self, sim: &emvolt_cpu::SimOutput, occupancy: &[u32]) {
        let tel = &self.telemetry;
        let stride = tel.wave_stride();
        let i_id = tel.wave_register("cpu.i_core", emvolt_obs::WaveKind::Real);
        for (t, v) in sim.current.decimated(stride).iter() {
            tel.wave_real(i_id, t, v);
        }
        let s_id = tel.wave_register("cpu.issue_slots", emvolt_obs::WaveKind::Int);
        let dt = sim.current.dt();
        let t0 = sim.current.start_time();
        for (k, &slots) in occupancy.iter().step_by(stride).enumerate() {
            tel.wave_int(s_id, t0 + (k * stride) as f64 * dt, u64::from(slots));
        }
    }

    /// Scales one core's simulated draw to the whole cluster: loaded
    /// cores (at most the powered ones) plus the idle remainder.
    fn cluster_load(&self, sim: &emvolt_cpu::SimOutput, loaded_cores: usize) -> Stimulus {
        let idle_extra =
            (self.domain.active_cores - loaded_cores) as f64 * self.domain.core_model.idle_current;
        let total: Arc<[f64]> = sim
            .current
            .samples()
            .iter()
            .map(|&i| i * loaded_cores as f64 + idle_extra)
            .collect();
        Stimulus::Samples {
            dt: sim.current.dt(),
            values: total,
            repeat: true,
        }
    }

    /// Runs with all powered cores idle; see [`VoltageDomain::run_idle`].
    ///
    /// # Errors
    ///
    /// Propagates PDN analysis failures.
    pub fn run_idle(&mut self) -> Result<DomainRun, DomainError> {
        let mut out = DomainRun::empty();
        let clock = self.domain.freq_hz;
        self.run_batch_into(&[Load::Idle], &[clock], std::slice::from_mut(&mut out))?;
        Ok(out)
    }

    /// Drives the cached PDN with an arbitrary load waveform, reusing the
    /// prebuilt transient plan and scratch.
    ///
    /// # Errors
    ///
    /// Propagates PDN analysis failures.
    pub fn run_pdn_with_load(&mut self, load: Stimulus) -> Result<(Trace, Trace), DomainError> {
        self.lanes.clear();
        self.pdn
            .transient_batch(&self.plan, &self.transient_cfg, &[load], &mut self.batch)?;
        self.pdn
            .report_die_lane(&self.plan, &self.batch, 0, &self.telemetry);
        let die = self.pdn.die_lane(&self.batch, 0);
        Ok((
            Trace::with_start(die.dt(), die.start_time(), die.v_die().to_vec()),
            Trace::with_start(die.dt(), die.start_time(), die.i_die().to_vec()),
        ))
    }
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
        let mut loads: Vec<Load<'_>> = kernels
            .iter()
            .zip([2usize, 1, 2])
            .map(|(kernel, loaded_cores)| Load::Kernel {
                kernel,
                loaded_cores,
            })
            .collect();
        loads.insert(1, Load::Idle);

        let mut outs = vec![DomainRun::empty(); loads.len()];
        let clocks = vec![d.frequency(); loads.len()];
        runner.run_batch_into(&loads, &clocks, &mut outs).unwrap();

        for (load, batched) in loads.iter().zip(&outs) {
            let serial = match *load {
                Load::Kernel {
                    kernel,
                    loaded_cores,
                } => runner.run(kernel, loaded_cores).unwrap(),
                Load::Idle => runner.run_idle().unwrap(),
            };
            assert_eq!(serial.v_die.samples(), batched.v_die.samples());
            assert_eq!(serial.i_die.samples(), batched.i_die.samples());
            assert_eq!(serial.ipc, batched.ipc);
            assert_eq!(serial.cycles_per_iteration, batched.cycles_per_iteration);
            assert_eq!(serial.loop_frequency, batched.loop_frequency);
        }
    }

    /// A lane group whose lanes run at different DVFS clocks is
    /// bit-identical, lane by lane, to one-lane runs at those clocks —
    /// and one kernel at two clocks is two core sims, not one.
    #[test]
    fn mixed_clock_lanes_match_one_lane_runs_at_their_clocks() {
        let d = domain();
        let k = sweep_kernel(Isa::ArmV8);
        let other = emvolt_isa::kernels::padded_sweep_kernel(Isa::ArmV8, 9);
        let loads = [
            Load::Kernel {
                kernel: &k,
                loaded_cores: 1,
            },
            Load::Kernel {
                kernel: &k,
                loaded_cores: 1,
            },
            Load::Idle,
            Load::Kernel {
                kernel: &other,
                loaded_cores: 2,
            },
            Load::Kernel {
                kernel: &k,
                loaded_cores: 1,
            },
        ];
        let clocks = [1.2e9, 0.6e9, 0.9e9, 0.75e9, 1.2e9];
        let mut runner = DomainRunner::new(&d, RunConfig::fast()).unwrap();
        let mut outs = vec![DomainRun::empty(); loads.len()];
        runner.run_batch_into(&loads, &clocks, &mut outs).unwrap();

        for ((load, &clock), batched) in loads.iter().zip(&clocks).zip(&outs) {
            let mut at = d.clone();
            at.try_set_frequency(clock).unwrap();
            let alone = match *load {
                Load::Kernel {
                    kernel,
                    loaded_cores,
                } => at.run(kernel, loaded_cores, &RunConfig::fast()).unwrap(),
                Load::Idle => at.run_idle(&RunConfig::fast()).unwrap(),
            };
            let bits = |t: &Trace| t.samples().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&alone.v_die), bits(&batched.v_die), "v_die at {clock}");
            assert_eq!(bits(&alone.i_die), bits(&batched.i_die), "i_die at {clock}");
            assert_eq!(alone.ipc.to_bits(), batched.ipc.to_bits());
            assert_eq!(
                alone.loop_frequency.to_bits(),
                batched.loop_frequency.to_bits()
            );
        }
        // The same kernel at half the clock loops at half the frequency:
        // the (kernel, clock) dedupe key kept the two sims apart.
        let ratio = outs[0].loop_frequency / outs[1].loop_frequency;
        assert!((ratio - 2.0).abs() < 0.1, "ratio {ratio}");
        assert_eq!(
            outs[0].loop_frequency.to_bits(),
            outs[4].loop_frequency.to_bits()
        );
    }

    /// A telemetry handle that emits JSONL events and waveforms, with the
    /// JSONL bytes readable.
    fn traced() -> (
        emvolt_obs::Telemetry,
        Arc<std::sync::Mutex<Vec<u8>>>,
        Arc<emvolt_obs::WaveDb>,
    ) {
        use emvolt_obs::{JsonlRecorder, Telemetry, WaveDb};
        struct Buf(Arc<std::sync::Mutex<Vec<u8>>>);
        impl std::io::Write for Buf {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Arc::default();
        let db = Arc::new(WaveDb::new());
        let rec = Arc::new(JsonlRecorder::new(Buf(Arc::clone(&buf))));
        (Telemetry::with_waves(rec, db.clone()), buf, db)
    }

    /// What one-lane calls through a traced runner left: each call's
    /// outcome, the JSONL bytes, the VCD and the transient counters.
    struct OneLane {
        runs: Vec<Result<DomainRun, String>>,
        jsonl: Vec<u8>,
        vcd: String,
        counters: [u64; 2],
    }

    /// Runs `loads` as one-lane calls in order through a traced runner,
    /// lane `i` at simulated time `t(i)`.
    fn one_lane_calls(loads: &[Load<'_>], clocks: &[f64], t: impl Fn(usize) -> f64) -> OneLane {
        use emvolt_obs::CounterId;
        let (tel, buf, db) = traced();
        let mut one = DomainRunner::new_with(&domain(), RunConfig::fast(), tel.clone()).unwrap();
        let mut runs = Vec::new();
        for (i, (load, clock)) in loads.iter().zip(clocks).enumerate() {
            tel.set_sim_time(t(i));
            let mut out = DomainRun::empty();
            let run = one.run_batch_into(&[*load], &[*clock], std::slice::from_mut(&mut out));
            runs.push(run.map(|()| out).map_err(|e| e.to_string()));
        }
        let jsonl = buf.lock().unwrap().clone();
        OneLane {
            runs,
            jsonl,
            vcd: db.to_vcd_string(),
            counters: [CounterId::TransientRuns, CounterId::SolverSteps].map(|id| tel.counter(id)),
        }
    }

    fn same_run(a: &DomainRun, b: &DomainRun, what: &str) {
        let bits = |t: &Trace| t.samples().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.v_die), bits(&b.v_die), "{what}: v_die");
        assert_eq!(bits(&a.i_die), bits(&b.i_die), "{what}: i_die");
        assert_eq!(a.ipc.to_bits(), b.ipc.to_bits(), "{what}: ipc");
        assert_eq!(
            a.loop_frequency.to_bits(),
            b.loop_frequency.to_bits(),
            "{what}: loop frequency"
        );
    }

    /// A lane group of 1, 3 or 8 lanes (kernels, idle, mixed clocks, a
    /// repeated kernel) charges, emits and fills exactly what the same
    /// loads do as one-lane calls in order — the same JSONL events,
    /// waveform database, counters and run bits — whether it runs whole
    /// through `run_batch_into` or through `run_lanes` and a report per
    /// lane at that lane's own simulated time.
    #[test]
    fn lane_groups_report_like_one_lane_runs() {
        use emvolt_obs::CounterId;
        let k = sweep_kernel(Isa::ArmV8);
        let other = emvolt_isa::kernels::padded_sweep_kernel(Isa::ArmV8, 9);
        let on = |kernel, loaded_cores| Load::Kernel {
            kernel,
            loaded_cores,
        };
        let loads = [
            on(&k, 1),
            Load::Idle,
            on(&k, 2),
            on(&other, 2),
            on(&k, 1),
            Load::Idle,
            on(&other, 1),
            on(&k, 1),
        ];
        let clocks = [1.2e9, 1.2e9, 0.6e9, 0.75e9, 1.2e9, 0.9e9, 1.0e9, 0.6e9];
        for n in [1, 3, 8] {
            let (loads, clocks) = (&loads[..n], &clocks[..n]);
            let OneLane {
                runs: alone,
                jsonl,
                vcd,
                counters,
            } = one_lane_calls(loads, clocks, |_| 0.0);
            let (tel, buf, db) = traced();
            let mut group =
                DomainRunner::new_with(&domain(), RunConfig::fast(), tel.clone()).unwrap();
            let mut outs = vec![DomainRun::empty(); n];
            group.run_batch_into(loads, clocks, &mut outs).unwrap();
            for (i, (a, b)) in alone.iter().zip(&outs).enumerate() {
                same_run(a.as_ref().unwrap(), b, &format!("{n} lanes, lane {i}"));
            }
            assert_eq!(jsonl, *buf.lock().unwrap(), "{n} lanes: JSONL");
            assert_eq!(vcd, db.to_vcd_string(), "{n} lanes: VCD");
            let got = [CounterId::TransientRuns, CounterId::SolverSteps].map(|id| tel.counter(id));
            assert_eq!(counters, got, "{n} lanes: counters");

            let t = |i: usize| i as f64 * 3.0;
            let OneLane {
                runs: alone,
                jsonl,
                vcd,
                ..
            } = one_lane_calls(loads, clocks, t);
            let (tel, buf, db) = traced();
            let mut group =
                DomainRunner::new_with(&domain(), RunConfig::fast(), tel.clone()).unwrap();
            group.run_lanes(loads, clocks).unwrap();
            assert!(buf.lock().unwrap().is_empty(), "the physics emits nothing");
            let mut reported = DomainRun::empty();
            for (i, a) in alone.iter().enumerate() {
                tel.set_sim_time(t(i));
                group.report_lane(i, &mut reported).unwrap();
                same_run(
                    a.as_ref().unwrap(),
                    &reported,
                    &format!("reported lane {i}"),
                );
            }
            assert_eq!(jsonl, *buf.lock().unwrap(), "{n} reported lanes: JSONL");
            assert_eq!(vcd, db.to_vcd_string(), "{n} reported lanes: VCD");
        }
    }

    /// A group whose middle lane loads more cores than are powered, or
    /// runs above the maximum clock: `run_batch_into` fails with that
    /// lane's one-lane error and fills nothing, and reported lane by lane
    /// the failing lane gets its one-lane error while the other lanes get
    /// their one-lane bits and emissions.
    #[test]
    fn a_failing_lane_fails_alone() {
        let k = sweep_kernel(Isa::ArmV8);
        let on = |loaded_cores| Load::Kernel {
            kernel: &k,
            loaded_cores,
        };
        for (bad, bad_clock) in [(on(3), 1.2e9), (on(1), 1.3e9)] {
            let loads = [on(1), Load::Idle, bad, on(2), on(1)];
            let clocks = [1.2e9, 1.2e9, bad_clock, 0.6e9, 1.2e9];
            let t = |i: usize| i as f64;
            let OneLane {
                runs: alone,
                jsonl,
                vcd,
                ..
            } = one_lane_calls(&loads, &clocks, t);
            let want = alone[2].as_ref().unwrap_err();

            let (tel, buf, db) = traced();
            let mut group =
                DomainRunner::new_with(&domain(), RunConfig::fast(), tel.clone()).unwrap();
            let mut outs = vec![DomainRun::empty(); loads.len()];
            let err = group
                .run_batch_into(&loads, &clocks, &mut outs)
                .unwrap_err();
            assert_eq!(*want, err.to_string());
            assert!(outs.iter().all(|out| out.v_die.samples().is_empty()));
            assert!(
                buf.lock().unwrap().is_empty(),
                "a failed group reports nothing"
            );

            group.run_lanes(&loads, &clocks).unwrap();
            let mut reported = DomainRun::empty();
            for (i, a) in alone.iter().enumerate() {
                tel.set_sim_time(t(i));
                match (a, group.report_lane(i, &mut reported)) {
                    (Ok(a), Ok(())) => same_run(a, &reported, &format!("lane {i}")),
                    (Err(a), Err(b)) => assert_eq!(*a, b.to_string(), "lane {i}"),
                    (a, b) => panic!("lane {i}: one-lane {a:?} vs reported {b:?}"),
                }
            }
            assert_eq!(jsonl, *buf.lock().unwrap(), "JSONL");
            assert_eq!(vcd, db.to_vcd_string(), "VCD");
        }
    }

    #[test]
    fn batched_runs_validate_inputs() {
        let d = domain();
        let mut runner = DomainRunner::new(&d, RunConfig::fast()).unwrap();
        let k = sweep_kernel(Isa::ArmV8);
        let mut outs = vec![DomainRun::empty()];
        let load = |loaded_cores| Load::Kernel {
            kernel: &k,
            loaded_cores,
        };
        let clocks = [1.2e9; 2];
        // More entries than outputs, or than clocks.
        assert!(matches!(
            runner.run_batch_into(&[load(1), load(2)], &clocks, &mut outs),
            Err(DomainError::Backend(_))
        ));
        let mut outs = vec![DomainRun::empty(); 2];
        assert!(matches!(
            runner.run_batch_into(&[load(1), load(2)], &clocks[..1], &mut outs),
            Err(DomainError::Backend(_))
        ));
        // An empty batch has no lanes to step.
        assert!(runner.run_batch_into(&[], &clocks, &mut outs).is_err());
        // One lane loading more cores than are powered fails the batch.
        assert!(matches!(
            runner.run_batch_into(&[load(1), load(3)], &clocks, &mut outs),
            Err(DomainError::TooManyLoadedCores { .. })
        ));
        // So does one lane clocked above the domain's maximum.
        assert!(matches!(
            runner.run_batch_into(&[load(1), load(2)], &[1.2e9, 1.3e9], &mut outs),
            Err(DomainError::InvalidFrequency { .. })
        ));
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
