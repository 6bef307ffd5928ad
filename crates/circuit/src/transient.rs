//! Fixed-step trapezoidal transient analysis.
//!
//! The trapezoidal rule is A-stable and preserves the energy of LC tanks —
//! essential here, because the whole point of the simulation is resonant
//! ringing of the power-delivery network; a dissipative integrator (e.g.
//! backward Euler) would artificially damp the very oscillations the paper
//! measures. The system matrix is constant for a fixed step, so it is
//! LU-factored once and only the right-hand side is rebuilt each step.

use crate::dc::{stamp_branch, stamp_conductance, DcPlan};
use crate::error::{CircuitError, Result};
use crate::kernel::{KernelChoice, StateKernel};
use crate::linalg::{LuFactors, Matrix};
use crate::netlist::{Circuit, ISourceId, InductorId, NodeId};
use crate::stimulus::{held_sample, sample_index, Stimulus};
use crate::trace::Trace;
use emvolt_obs::{CounterId, Layer, Telemetry, WaveKind};
use emvolt_simd::{StepOperands, StepRows};

/// Configuration for a transient run.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientConfig {
    /// Integration step in seconds.
    pub dt: f64,
    /// Total simulated duration in seconds.
    pub duration: f64,
    /// Time before which samples are discarded (settling/warm-up). The
    /// returned traces start at this time.
    pub record_from: f64,
}

impl TransientConfig {
    /// Creates a configuration recording the entire run.
    pub fn new(dt: f64, duration: f64) -> Self {
        TransientConfig {
            dt,
            duration,
            record_from: 0.0,
        }
    }

    /// Discards the first `warmup` seconds from the recorded traces.
    #[must_use]
    pub fn with_warmup(mut self, warmup: f64) -> Self {
        self.record_from = warmup;
        self
    }

    fn validate(&self) -> Result<()> {
        if self.dt.is_nan() || self.dt <= 0.0 || !self.dt.is_finite() {
            return Err(CircuitError::InvalidAnalysis {
                reason: format!("non-positive time step {}", self.dt),
            });
        }
        if !self.duration.is_finite() {
            return Err(CircuitError::InvalidAnalysis {
                reason: format!("non-finite duration {}", self.duration),
            });
        }
        if self.duration <= 0.0 || self.duration < self.dt {
            return Err(CircuitError::InvalidAnalysis {
                reason: format!("duration {} shorter than one step", self.duration),
            });
        }
        // `!(a <= b)` also rejects a NaN `record_from`, which every plain
        // comparison would let through as "record from t = 0".
        if !(0.0 <= self.record_from && self.record_from < self.duration) {
            return Err(CircuitError::InvalidAnalysis {
                reason: format!("record_from {} outside [0, duration)", self.record_from),
            });
        }
        // The run records up to `n_steps + 1` samples per probe, so the
        // step count must leave that sample buffer representable.
        let n_steps = (self.duration / self.dt).round();
        if n_steps > Self::MAX_STEPS as f64 {
            return Err(CircuitError::InvalidAnalysis {
                reason: format!(
                    "duration {} / dt {} is {n_steps:e} steps, more than the {} a sample \
                     buffer can hold",
                    self.duration,
                    self.dt,
                    Self::MAX_STEPS
                ),
            });
        }
        Ok(())
    }

    /// Largest step count a run accepts: `n_steps + 1` recorded `f64`
    /// samples must fit one `Vec`, whose size in bytes is capped at
    /// `isize::MAX`.
    const MAX_STEPS: usize = isize::MAX as usize / std::mem::size_of::<f64>() - 1;
}

/// Result of a transient analysis: one recorded waveform per probed node
/// voltage and inductor current (all of them by default).
///
/// A scoped run records into the [`TransientResult`] inside its
/// [`TransientScratch`] and lends it out by reference.
#[derive(Debug, Clone, Default)]
pub struct TransientResult {
    dt: f64,
    t0: f64,
    len: usize,
    node_slots: Vec<usize>,
    ind_slots: Vec<usize>,
    node_bufs: Vec<Vec<f64>>,
    ind_bufs: Vec<Vec<f64>>,
}

impl TransientResult {
    /// Integration step of the recorded samples.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Time of the first recorded sample.
    pub fn start_time(&self) -> f64 {
        self.t0
    }

    /// Voltage waveform at `node` (copies the samples out).
    ///
    /// # Panics
    ///
    /// Panics if the node was not probed by this run.
    pub fn voltage(&self, node: NodeId) -> Trace {
        Trace::with_start(self.dt, self.t0, self.voltage_samples(node).to_vec())
    }

    /// Borrowed voltage samples at `node` — no copy, unlike
    /// [`TransientResult::voltage`].
    ///
    /// # Panics
    ///
    /// Panics if the node was not probed by this run.
    pub fn voltage_samples(&self, node: NodeId) -> &[f64] {
        let slot = self
            .node_slots
            .iter()
            .position(|&i| i == node.index())
            .expect("node was not probed by this transient run");
        &self.node_bufs[slot]
    }

    /// Current waveform through inductor `id` (positive `a -> b`; copies
    /// the samples out).
    ///
    /// # Panics
    ///
    /// Panics if the inductor was not probed by this run.
    pub fn inductor_current(&self, id: InductorId) -> Trace {
        Trace::with_start(self.dt, self.t0, self.inductor_current_samples(id).to_vec())
    }

    /// Borrowed current samples through inductor `id` — no copy, unlike
    /// [`TransientResult::inductor_current`].
    ///
    /// # Panics
    ///
    /// Panics if the inductor was not probed by this run.
    pub fn inductor_current_samples(&self, id: InductorId) -> &[f64] {
        let slot = self
            .ind_slots
            .iter()
            .position(|&i| i == id.index())
            .expect("inductor was not probed by this transient run");
        &self.ind_bufs[slot]
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one step's probed node voltages and inductor currents,
    /// read from lane `lane` of rows holding `stride` lanes each.
    fn record(&mut self, state: &[f64], ind_i: &[f64], stride: usize, lane: usize) {
        for (buf, &idx) in self.node_bufs.iter_mut().zip(&self.node_slots) {
            buf.push(state[idx * stride + lane]);
        }
        for (buf, &idx) in self.ind_bufs.iter_mut().zip(&self.ind_slots) {
            buf.push(ind_i[idx * stride + lane]);
        }
        self.len += 1;
    }

    /// Appends `n_steps` steps of probe rows, `[n_steps x n_probes x
    /// stride]` with the node probes first (the state kernel's probe
    /// block), read at lane `lane`.
    fn record_rows(&mut self, rows: &[f64], n_steps: usize, stride: usize, lane: usize) {
        let step_len = (self.node_bufs.len() + self.ind_bufs.len()) * stride;
        let bufs = self.node_bufs.iter_mut().chain(self.ind_bufs.iter_mut());
        for (p, buf) in bufs.enumerate() {
            buf.extend((0..n_steps).map(|s| rows[s * step_len + p * stride + lane]));
        }
        self.len += n_steps;
    }
}

/// Selects which waveforms a transient run records.
///
/// The default ([`TransientProbes::all`]) records every node voltage —
/// including ground — and every inductor current, matching the historic
/// behaviour of [`Circuit::transient_with_plan`]. A scoped selection
/// records only the requested waveforms, skipping the per-step stores
/// for everything the caller never reads; adding the first explicit
/// probe switches the corresponding category from "everything" to "only
/// the listed ones".
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TransientProbes {
    nodes: Option<Vec<NodeId>>,
    inductors: Option<Vec<InductorId>>,
    /// Waveform-trace signal names per probed node / inductor index.
    /// Unlabeled probes fall back to generic `circuit.*` names when a
    /// wave-enabled telemetry handle is attached to the run's scratch.
    node_labels: Vec<(usize, String)>,
    ind_labels: Vec<(usize, String)>,
}

impl TransientProbes {
    /// Records everything: all node voltages (including ground) and all
    /// inductor currents.
    pub fn all() -> Self {
        TransientProbes::default()
    }

    /// Records nothing until probes are added with
    /// [`TransientProbes::with_node`] / [`TransientProbes::with_inductor`].
    pub fn none() -> Self {
        TransientProbes {
            nodes: Some(Vec::new()),
            inductors: Some(Vec::new()),
            node_labels: Vec::new(),
            ind_labels: Vec::new(),
        }
    }

    /// Adds a node-voltage probe (restricting the node selection to the
    /// explicitly listed nodes).
    #[must_use]
    pub fn with_node(mut self, node: NodeId) -> Self {
        self.nodes.get_or_insert_with(Vec::new).push(node);
        self
    }

    /// Adds an inductor-current probe (restricting the inductor selection
    /// to the explicitly listed inductors).
    #[must_use]
    pub fn with_inductor(mut self, id: InductorId) -> Self {
        self.inductors.get_or_insert_with(Vec::new).push(id);
        self
    }

    /// Like [`TransientProbes::with_node`], additionally naming the
    /// probe's waveform-trace signal (e.g. `pdn.v_die`) instead of the
    /// generic `circuit.n<i>.v` fallback.
    #[must_use]
    pub fn with_node_labeled(mut self, node: NodeId, label: impl Into<String>) -> Self {
        self.node_labels.push((node.index(), label.into()));
        self.with_node(node)
    }

    /// Like [`TransientProbes::with_inductor`], additionally naming the
    /// probe's waveform-trace signal (e.g. `pdn.i_pkg`) instead of the
    /// generic `circuit.l<i>.i` fallback.
    #[must_use]
    pub fn with_inductor_labeled(mut self, id: InductorId, label: impl Into<String>) -> Self {
        self.ind_labels.push((id.index(), label.into()));
        self.with_inductor(id)
    }

    fn node_label(&self, node_index: usize) -> Option<&str> {
        self.node_labels
            .iter()
            .find(|(i, _)| *i == node_index)
            .map(|(_, l)| l.as_str())
    }

    fn ind_label(&self, ind_index: usize) -> Option<&str> {
        self.ind_labels
            .iter()
            .find(|(i, _)| *i == ind_index)
            .map(|(_, l)| l.as_str())
    }
}

/// Reusable working memory for transient runs: solver vectors, element
/// state and recorded-output buffers.
///
/// A scratch checked out across repeated [`Circuit::transient_scoped`]
/// calls makes the steady-state evaluation path allocation-free — every
/// buffer is cleared and refilled in place, keeping its capacity. A run
/// lends its recorded samples out as a `&TransientResult`; the next run
/// overwrites them.
///
/// Buffer contents never leak between runs: everything the engine reads
/// is re-derived from the circuit, plan and stimulus before the step
/// loop starts.
#[derive(Debug, Clone, Default)]
pub struct TransientScratch {
    b: Vec<f64>,
    x: Vec<f64>,
    dc_b: Vec<f64>,
    dc_x: Vec<f64>,
    /// The lane's solver state: a run steps in place in these 1-lane
    /// rows.
    rows: LaneRows,
    out: TransientResult,
    telemetry: Telemetry,
}

impl TransientScratch {
    /// Creates an empty scratch; buffers are sized on first use and
    /// reused afterwards.
    pub fn new() -> Self {
        TransientScratch::default()
    }

    /// Attaches a telemetry handle; every run through this scratch then
    /// charges solver counters and (for emitting handles) a
    /// `transient_solve` span. The default handle is inert.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }
}

/// Clears and re-zeroes a buffer in place, keeping its capacity.
fn resize_zeroed(buf: &mut Vec<f64>, n: usize) {
    buf.clear();
    buf.resize(n, 0.0);
}

/// Precomputed constant part of a fixed-step transient analysis: the
/// LU-factored MNA system matrix and the trapezoidal companion
/// conductances for a given step size.
///
/// The system matrix depends only on the netlist topology, element values
/// and the step `dt` — not on stimulus waveforms, which enter through the
/// right-hand side. A plan can therefore be built once and reused across
/// many [`Circuit::transient_with_plan`] calls whose stimuli differ (the
/// hot path of repeated PDN evaluations), skipping the rebuild and
/// refactorization that [`Circuit::transient`] pays on every call.
///
/// A plan is only meaningful for the circuit it was built from; element
/// counts are checked on use so a topology change is caught, but swapping
/// element *values* silently yields results for the old values.
#[derive(Debug, Clone)]
pub struct TransientPlan {
    dt: f64,
    n_nodes: usize,
    n_vs: usize,
    lu: LuFactors<f64>,
    /// Pre-factored DC system for the operating-point solve that seeds
    /// every run. The DC matrix is stimulus-independent (only its
    /// right-hand side changes), so it is factored once with the
    /// transient matrix instead of from scratch on every run.
    dc: DcPlan,
    cap_g: Vec<f64>,
    ind_g: Vec<f64>,
    n_resistors: usize,
    /// Precomputed state-update kernel, present when the
    /// [`KernelChoice`] the plan was built with resolves to the
    /// state-space path for this system size.
    state: Option<StateKernel>,
}

impl TransientPlan {
    /// The step size this plan was factored for.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// `true` when runs through this plan use the precomputed
    /// state-space kernel instead of per-step LU substitution.
    pub fn uses_state_kernel(&self) -> bool {
        self.state.is_some()
    }

    fn check_compatible(&self, circuit: &Circuit, config: &TransientConfig) -> Result<()> {
        if config.dt != self.dt {
            return Err(CircuitError::InvalidAnalysis {
                reason: format!(
                    "transient plan was built for dt {} but config uses dt {}",
                    self.dt, config.dt
                ),
            });
        }
        let same_shape = self.n_nodes == circuit.node_count() - 1
            && self.n_vs == circuit.vsources.len()
            && self.cap_g.len() == circuit.capacitors.len()
            && self.ind_g.len() == circuit.inductors.len()
            && self.n_resistors == circuit.resistors.len();
        if !same_shape {
            return Err(CircuitError::InvalidAnalysis {
                reason: "transient plan does not match circuit topology".to_string(),
            });
        }
        Ok(())
    }
}

impl Circuit {
    /// Builds the reusable constant part of a transient analysis for step
    /// `dt`: stamps the MNA system matrix and LU-factors it once, with
    /// the default kernel selection ([`KernelChoice::Auto`]).
    ///
    /// # Errors
    ///
    /// Returns an error for a non-positive step or an ill-posed netlist
    /// (singular MNA matrix).
    pub fn plan_transient(&self, dt: f64) -> Result<TransientPlan> {
        self.plan_transient_kernel(dt, KernelChoice::default())
    }

    /// Like [`Circuit::plan_transient`], with an explicit per-step
    /// [`KernelChoice`]. [`KernelChoice::Lu`] reproduces the historic
    /// forward/backward-substitution path bit-for-bit;
    /// [`KernelChoice::Auto`] embeds the precomputed state-update kernel
    /// for small systems (same math, different summation order — see
    /// DESIGN.md §9).
    ///
    /// # Errors
    ///
    /// Returns an error for a non-positive step or an ill-posed netlist
    /// (singular MNA matrix).
    pub fn plan_transient_kernel(&self, dt: f64, kernel: KernelChoice) -> Result<TransientPlan> {
        if dt.is_nan() || dt <= 0.0 || !dt.is_finite() {
            return Err(CircuitError::InvalidAnalysis {
                reason: format!("non-positive time step {dt}"),
            });
        }
        let n_nodes = self.node_count() - 1;
        let n_vs = self.vsources.len();
        let dim = n_nodes + n_vs;
        let row = |node: usize| -> Option<usize> { node.checked_sub(1) };

        let mut g = Matrix::<f64>::zeros(dim);
        for r in &self.resistors {
            stamp_conductance(&mut g, row(r.a), row(r.b), 1.0 / r.ohms);
        }
        // Trapezoidal companion conductances.
        let cap_g: Vec<f64> = self
            .capacitors
            .iter()
            .map(|c| 2.0 * c.farads / dt)
            .collect();
        for (c, &gc) in self.capacitors.iter().zip(cap_g.iter()) {
            stamp_conductance(&mut g, row(c.a), row(c.b), gc);
        }
        let ind_g: Vec<f64> = self
            .inductors
            .iter()
            .map(|l| dt / (2.0 * l.henries))
            .collect();
        for (l, &gl) in self.inductors.iter().zip(ind_g.iter()) {
            stamp_conductance(&mut g, row(l.a), row(l.b), gl);
        }
        for (k, vs) in self.vsources.iter().enumerate() {
            stamp_branch(&mut g, row(vs.pos), row(vs.neg), n_nodes + k);
        }
        let lu = g.lu()?;
        let dc = self.plan_dc()?;
        let state = kernel
            .picks_state_space(dim)
            .then(|| StateKernel::build(self, &lu, n_nodes));

        Ok(TransientPlan {
            dt,
            n_nodes,
            n_vs,
            lu,
            dc,
            cap_g,
            ind_g,
            n_resistors: self.resistors.len(),
            state,
        })
    }

    /// Like [`Circuit::plan_transient_kernel`], additionally charging the
    /// two LU factorizations it performs (transient system matrix + DC
    /// operating point) to `telemetry`.
    ///
    /// # Errors
    ///
    /// Returns an error for a non-positive step or an ill-posed netlist
    /// (singular MNA matrix).
    pub fn plan_transient_kernel_with(
        &self,
        dt: f64,
        kernel: KernelChoice,
        telemetry: &Telemetry,
    ) -> Result<TransientPlan> {
        let plan = self.plan_transient_kernel(dt, kernel)?;
        telemetry.count(CounterId::LuFactorizations, 2);
        Ok(plan)
    }

    /// Runs a trapezoidal transient analysis starting from the DC operating
    /// point.
    ///
    /// Builds a throwaway [`TransientPlan`] internally; callers running the
    /// same circuit repeatedly should build one with
    /// [`Circuit::plan_transient`] and use
    /// [`Circuit::transient_with_plan`].
    ///
    /// # Errors
    ///
    /// Returns an error for invalid configurations or an ill-posed netlist
    /// (singular MNA matrix).
    pub fn transient(&self, config: &TransientConfig) -> Result<TransientResult> {
        config.validate()?;
        let plan = self.plan_transient(config.dt)?;
        self.transient_with_plan(&plan, config)
    }

    /// Runs a trapezoidal transient analysis reusing a prebuilt
    /// [`TransientPlan`] (no matrix stamping or LU refactorization),
    /// recording every node voltage and inductor current.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid configurations or a plan built for a
    /// different step size or topology.
    pub fn transient_with_plan(
        &self,
        plan: &TransientPlan,
        config: &TransientConfig,
    ) -> Result<TransientResult> {
        let mut scratch = TransientScratch::new();
        self.transient_scoped(plan, config, &TransientProbes::all(), &mut scratch)?;
        Ok(scratch.out)
    }

    /// Runs a trapezoidal transient analysis reusing a prebuilt
    /// [`TransientPlan`] and a caller-owned [`TransientScratch`],
    /// recording only the waveforms selected by `probes`.
    ///
    /// This is the allocation-free hot path: at steady state (scratch
    /// reused across runs of the same circuit shape) no heap allocation
    /// happens anywhere in the run, and the step loop performs none by
    /// construction. Results are bit-identical to
    /// [`Circuit::transient_with_plan`] for the probed waveforms.
    ///
    /// A single run is a lane group of one: it runs through the same
    /// driver as [`Circuit::transient_batch_scoped`], stepping in place
    /// in `scratch`. The returned samples live in `scratch`; copy out
    /// anything that must outlive the next run reusing it.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid configurations, a plan built for a
    /// different step size or topology, or probes that do not belong to
    /// this circuit.
    pub fn transient_scoped<'s>(
        &self,
        plan: &TransientPlan,
        config: &TransientConfig,
        probes: &TransientProbes,
        scratch: &'s mut TransientScratch,
    ) -> Result<&'s TransientResult> {
        let sched = self.run_lanes(
            plan,
            config,
            probes,
            None,
            std::slice::from_mut(scratch),
            &mut LaneRows::default(),
        )?;
        report_run(&scratch.telemetry, plan, &sched, &scratch.out, probes);
        Ok(&scratch.out)
    }

    /// Steps a population of independent load stimuli through the plan
    /// together, one scratch lane per stimulus.
    ///
    /// Every lane simulates this circuit with current source `source`
    /// driven by the corresponding entry of `loads` (the netlist itself is
    /// not mutated). Lane `i` is bit-identical to setting `loads[i]` on
    /// `source` and running [`Circuit::transient_scoped`] with the same
    /// plan, whatever the batch size: a state-space plan steps lanes in
    /// groups of up to eight, and an LU-only plan steps each lane through
    /// the exact LU reference.
    ///
    /// The batch charges and emits nothing: each lane is reported as the
    /// single run it stands for by [`BatchTransientScratch::report_lane`].
    ///
    /// # Errors
    ///
    /// Returns an error for invalid configurations, a plan built for a
    /// different step size or topology, probes that do not belong to this
    /// circuit, an empty `loads`, or a `source` outside the circuit.
    pub fn transient_batch_scoped(
        &self,
        plan: &TransientPlan,
        config: &TransientConfig,
        probes: &TransientProbes,
        source: ISourceId,
        loads: &[Stimulus],
        batch: &mut BatchTransientScratch,
    ) -> Result<()> {
        if source.index() >= self.isources.len() {
            return Err(CircuitError::InvalidAnalysis {
                reason: format!("batched source {} outside circuit", source.index()),
            });
        }
        if loads.is_empty() {
            return Err(CircuitError::InvalidAnalysis {
                reason: "batched transient needs at least one load stimulus".to_string(),
            });
        }
        batch.lanes.resize_with(loads.len(), TransientScratch::new);
        let sched = self.run_lanes(
            plan,
            config,
            probes,
            Some((source.index(), loads)),
            &mut batch.lanes,
            &mut batch.soa,
        )?;
        batch.sched = sched;
        Ok(())
    }

    /// The transient driver behind every public entry point: seeds each
    /// lane from the DC operating point, then steps them all. With
    /// `swept = Some((source, loads))`, lane `l` drives current source
    /// `source` with `loads[l]` instead of the netlist's own stimulus.
    ///
    /// A state-space plan steps the lanes in groups of at most
    /// [`MAX_GROUP_LANES`]; an LU-only plan steps each lane through
    /// [`Circuit::lu_steps`].
    fn run_lanes(
        &self,
        plan: &TransientPlan,
        config: &TransientConfig,
        probes: &TransientProbes,
        swept: Option<(usize, &[Stimulus])>,
        lanes: &mut [TransientScratch],
        soa: &mut LaneRows,
    ) -> Result<StepSchedule> {
        let lane_load = |l: usize| swept.map(|(source, loads)| (source, &loads[l]));
        let mut sched = StepSchedule {
            n_steps: 0,
            record_start_idx: 0,
        };
        for (l, lane) in lanes.iter_mut().enumerate() {
            sched = self.transient_setup(plan, config, probes, lane, lane_load(l))?;
        }
        match &plan.state {
            Some(kernel) => {
                for (g, group) in lanes.chunks_mut(MAX_GROUP_LANES).enumerate() {
                    let first = g * MAX_GROUP_LANES;
                    let group_swept =
                        swept.map(|(source, loads)| (source, &loads[first..first + group.len()]));
                    self.group_steps(plan, kernel, &sched, group_swept, group, soa);
                }
            }
            None => {
                for (l, lane) in lanes.iter_mut().enumerate() {
                    self.lu_steps(plan, &sched, lane_load(l), lane);
                }
            }
        }
        Ok(sched)
    }

    /// Everything that happens before the step loop: validation, probe
    /// resolution, the DC operating-point seed (optionally with one
    /// current source's stimulus overridden for a batch lane), element
    /// state initialization and output-buffer recycling, for one lane.
    fn transient_setup(
        &self,
        plan: &TransientPlan,
        config: &TransientConfig,
        probes: &TransientProbes,
        scratch: &mut TransientScratch,
        load_override: Option<(usize, &Stimulus)>,
    ) -> Result<StepSchedule> {
        config.validate()?;
        plan.check_compatible(self, config)?;
        let h = config.dt;
        let n_nodes = plan.n_nodes;
        let n_vs = plan.n_vs;
        let dim = n_nodes + n_vs;

        // Resolve probe selections to raw storage indices.
        scratch.out.node_slots.clear();
        match &probes.nodes {
            None => scratch.out.node_slots.extend(0..self.node_count()),
            Some(list) => {
                for n in list {
                    if n.index() >= self.node_count() {
                        return Err(CircuitError::InvalidAnalysis {
                            reason: format!("probed node {} outside circuit", n.index()),
                        });
                    }
                    scratch.out.node_slots.push(n.index());
                }
            }
        }
        scratch.out.ind_slots.clear();
        match &probes.inductors {
            None => scratch.out.ind_slots.extend(0..self.inductors.len()),
            Some(list) => {
                for id in list {
                    if id.index() >= self.inductors.len() {
                        return Err(CircuitError::InvalidAnalysis {
                            reason: format!("probed inductor {} outside circuit", id.index()),
                        });
                    }
                    scratch.out.ind_slots.push(id.index());
                }
            }
        }

        // --- Initial conditions via the plan's cached DC factorization ---
        // Same matrix, same LU, same solve arithmetic as a fresh
        // `dc_operating_point`, so the seeded state is bit-identical.
        let dc_dim = plan.dc.dim();
        resize_zeroed(&mut scratch.dc_b, dc_dim);
        self.dc_rhs_into_with(&mut scratch.dc_b, load_override);
        resize_zeroed(&mut scratch.dc_x, dc_dim);
        plan.dc.lu.solve_into(&scratch.dc_b, &mut scratch.dc_x);

        let TransientScratch {
            b,
            x,
            dc_x,
            rows,
            out,
            ..
        } = scratch;
        let LaneRows {
            hist,
            state: v,
            cap_v,
            cap_i,
            ind_v,
            ind_i,
            cap_rows,
            ind_rows,
            probe_nodes,
            probe_inds,
            ..
        } = rows;
        resize_zeroed(v, self.node_count());
        v[1..=n_nodes].copy_from_slice(&dc_x[..n_nodes]);
        ind_i.clear();
        ind_i.extend_from_slice(&dc_x[n_nodes + n_vs..]);

        // Node-row and probe-row tables for the state-space step kernel
        // (node counts fit `u32` by construction).
        cap_rows.clear();
        cap_rows.extend(self.capacitors.iter().map(|c| [c.a as u32, c.b as u32]));
        ind_rows.clear();
        ind_rows.extend(self.inductors.iter().map(|l| [l.a as u32, l.b as u32]));
        probe_nodes.clear();
        probe_nodes.extend(out.node_slots.iter().map(|&n| n as u32));
        probe_inds.clear();
        probe_inds.extend(out.ind_slots.iter().map(|&l| l as u32));

        // Capacitor state: (voltage across, current through).
        cap_v.clear();
        cap_v.extend(self.capacitors.iter().map(|c| v[c.a] - v[c.b]));
        resize_zeroed(cap_i, self.capacitors.len());
        resize_zeroed(ind_v, self.inductors.len());
        resize_zeroed(b, dim);
        resize_zeroed(x, dim);
        resize_zeroed(hist, self.capacitors.len() + self.inductors.len());

        let n_steps = (config.duration / h).round() as usize;
        let record_start_idx = (config.record_from / h).ceil() as usize;
        let capacity = n_steps.saturating_sub(record_start_idx) + 1;

        // Recycle output buffers: the outer list is resized to the probe
        // count; inner sample buffers keep their capacity across runs.
        out.node_bufs.resize_with(out.node_slots.len(), Vec::new);
        out.ind_bufs.resize_with(out.ind_slots.len(), Vec::new);
        for buf in out.node_bufs.iter_mut().chain(out.ind_bufs.iter_mut()) {
            buf.clear();
            buf.reserve(capacity);
        }
        out.dt = h;
        out.t0 = record_start_idx as f64 * h;
        out.len = 0;
        if record_start_idx == 0 {
            out.record(v, ind_i, 1, 0);
        }

        Ok(StepSchedule {
            n_steps,
            record_start_idx,
        })
    }

    /// The historic per-step body: rebuild the sparse right-hand side and
    /// forward/backward-substitute through the plan's LU factors. Kept
    /// verbatim as the exact reference kernel — scoped runs through it
    /// remain bit-identical to every release since the plan API landed.
    /// It is also the path for systems too large for the state-space
    /// kernel, one lane at a time; `load_override` swaps one current
    /// source's stimulus exactly as in the setup.
    fn lu_steps(
        &self,
        plan: &TransientPlan,
        sched: &StepSchedule,
        load_override: Option<(usize, &Stimulus)>,
        scratch: &mut TransientScratch,
    ) {
        let h = plan.dt;
        let n_nodes = plan.n_nodes;
        let row = |node: usize| -> Option<usize> { node.checked_sub(1) };
        let lu = &plan.lu;
        let cap_g = &plan.cap_g;
        let ind_g = &plan.ind_g;
        let TransientScratch {
            b, x, rows, out, ..
        } = scratch;
        let LaneRows {
            state: v,
            cap_v,
            cap_i,
            ind_v,
            ind_i,
            ..
        } = rows;

        // The step loop: no heap allocation from here to the end of the
        // run — `b`/`x` are reused, and the output buffers were reserved
        // to their final length in the setup.
        for step in 1..=sched.n_steps {
            let t_next = step as f64 * h;
            b.iter_mut().for_each(|e| *e = 0.0);

            // Capacitor history sources: i_{n+1} = g*v_{n+1} - (g*v_n + i_n).
            for ((c, &gc), (&vc, &ic)) in self
                .capacitors
                .iter()
                .zip(cap_g)
                .zip(cap_v.iter().zip(cap_i.iter()))
            {
                let hist = gc * vc + ic;
                if let Some(a) = row(c.a) {
                    b[a] += hist;
                }
                if let Some(bb) = row(c.b) {
                    b[bb] -= hist;
                }
            }
            // Inductor history sources: i_{n+1} = g*v_{n+1} + (i_n + g*v_n).
            for ((l, &gl), (&vl, &il)) in self
                .inductors
                .iter()
                .zip(ind_g)
                .zip(ind_v.iter().zip(ind_i.iter()))
            {
                let hist = il + gl * vl;
                if let Some(a) = row(l.a) {
                    b[a] -= hist;
                }
                if let Some(bb) = row(l.b) {
                    b[bb] += hist;
                }
            }
            // Independent sources evaluated at the new time point.
            for (si, is) in self.isources.iter().enumerate() {
                let stim = match load_override {
                    Some((idx, s)) if idx == si => s,
                    _ => &is.stimulus,
                };
                let i = stim.value_at(t_next);
                if let Some(rf) = row(is.from) {
                    b[rf] -= i;
                }
                if let Some(rt) = row(is.to) {
                    b[rt] += i;
                }
            }
            for (k, vs) in self.vsources.iter().enumerate() {
                b[n_nodes + k] = vs.stimulus.value_at(t_next);
            }

            lu.solve_into(b, x);
            v[1..=n_nodes].copy_from_slice(&x[..n_nodes]);

            // Update element states.
            for (k, (c, &gc)) in self.capacitors.iter().zip(cap_g).enumerate() {
                let vc_new = v[c.a] - v[c.b];
                let hist = gc * cap_v[k] + cap_i[k];
                cap_i[k] = gc * vc_new - hist;
                cap_v[k] = vc_new;
            }
            for (k, (l, &gl)) in self.inductors.iter().zip(ind_g).enumerate() {
                let vl_new = v[l.a] - v[l.b];
                let hist = ind_i[k] + gl * ind_v[k];
                ind_i[k] = gl * vl_new + hist;
                ind_v[k] = vl_new;
            }

            if step >= sched.record_start_idx {
                out.record(v, ind_i, 1, 0);
            }
        }
    }

    /// Steps one lane group through the state-space kernel. The
    /// vectorisation axis follows the group width:
    ///
    /// * **One lane** steps on its own [`TransientScratch`] rows, swapped
    ///   into `soa` for the run and back after: its `v`, element-state and
    ///   history vectors already are the 1-lane SoA rows, so there is no
    ///   packing and no padding, and the kernel folds node-vectorised.
    /// * **Two or more lanes** are packed into the lane-contiguous rows of
    ///   `soa`, padded to a whole number of vectors, and the kernel folds
    ///   lane-vectorised. Each padding lane replays lane 0 — its state and
    ///   its load — and is never unpacked or recorded; lanes are
    ///   independent, so padding cannot change a real lane's bits.
    ///
    /// Per lane both folds compute the same operation sequence, so a
    /// lane's bits do not depend on the width of the group it ran in. The
    /// SIMD level is read once per group, so the padded stride and the
    /// dispatch agree even if another thread switches the level mid-run.
    ///
    /// The steps run in blocks of [`STEP_BLOCK`]. For each block every
    /// source is sampled at each step's time `step * dt` into the staged
    /// `[steps x sources x stride]` rows (the kernel's inputs are the
    /// capacitor and inductor histories, then current sources, then
    /// voltage sources), one [`emvolt_simd::SimdLevel::state_steps`] call
    /// advances the group, and each lane records the probe rows of the
    /// block's steps inside the recording window. With `swept`, each lane
    /// drives the swept current source with its own load; every other
    /// source is lane-invariant, sampled once per step and broadcast.
    fn group_steps(
        &self,
        plan: &TransientPlan,
        kernel: &StateKernel,
        sched: &StepSchedule,
        swept: Option<(usize, &[Stimulus])>,
        lanes: &mut [TransientScratch],
        soa: &mut LaneRows,
    ) {
        let lv = emvolt_simd::level();
        let width = lanes.len();
        debug_assert!(width <= MAX_GROUP_LANES);
        let stride = match width {
            1 => {
                std::mem::swap(&mut lanes[0].rows, soa);
                1
            }
            _ => {
                let stride = width.next_multiple_of(lv.vector_f64s());
                soa.pack(lanes, stride);
                stride
            }
        };
        let mut swept = swept.map(|(source, loads)| SweptLoads::new(source, loads));
        let LaneRows {
            hist,
            state,
            cap_v,
            cap_i,
            ind_v,
            ind_i,
            cap_rows,
            ind_rows,
            probe_nodes,
            probe_inds,
            sources,
            probes,
        } = &mut *soa;
        let src_len = (self.isources.len() + self.vsources.len()) * stride;
        let probe_len = (probe_nodes.len() + probe_inds.len()) * stride;
        resize_zeroed(sources, STEP_BLOCK * src_len);
        resize_zeroed(probes, STEP_BLOCK * probe_len);
        let ops = StepOperands {
            cols: kernel.cols(),
            n_nodes: plan.n_nodes,
            cap_g: &plan.cap_g,
            ind_g: &plan.ind_g,
            cap_rows,
            ind_rows,
            probe_nodes,
            probe_inds,
        };
        let swept_source = swept.as_ref().map(|loads| loads.source);
        let mut done = 0;
        while done < sched.n_steps {
            let n = STEP_BLOCK.min(sched.n_steps - done);
            let block = &mut sources[..n * src_len];
            for s in 0..n {
                let t_next = (done + s + 1) as f64 * plan.dt;
                let step_src = &mut block[s * src_len..(s + 1) * src_len];
                let mut src_rows = step_src.chunks_exact_mut(stride);
                for (si, (is, out)) in self.isources.iter().zip(src_rows.by_ref()).enumerate() {
                    if swept_source != Some(si) {
                        out.fill(is.stimulus.value_at(t_next));
                    }
                }
                for (vs, out) in self.vsources.iter().zip(src_rows) {
                    out.fill(vs.stimulus.value_at(t_next));
                }
            }
            if let Some(loads) = swept.as_mut() {
                loads.stage(done + 1, n, plan.dt, stride, block);
            }
            let mut step_state = StepRows {
                stride,
                state,
                cap_v,
                cap_i,
                ind_v,
                ind_i,
                hist,
            };
            lv.state_steps(
                &ops,
                &mut step_state,
                n,
                block,
                &mut probes[..n * probe_len],
            );
            // Steps `done + 1 ..= done + n` ran; those from
            // `record_start_idx` on are recorded.
            let first = sched.record_start_idx.saturating_sub(done + 1).min(n);
            let recorded = &probes[first * probe_len..n * probe_len];
            for (l, lane) in lanes.iter_mut().enumerate() {
                lane.out.record_rows(recorded, n - first, stride, l);
            }
            done += n;
        }
        match width {
            1 => std::mem::swap(&mut lanes[0].rows, soa),
            _ => soa.unpack(lanes, stride),
        }
    }
}

/// Steps per dispatched state-kernel call: the sources of this many
/// steps are staged, and their probe rows returned, in one block.
const STEP_BLOCK: usize = 64;

/// Widest lane group the state-space driver steps together: two 4-wide
/// vectors per SoA row, the same budget as `emvolt_simd::preferred_lanes`
/// on AVX2.
const MAX_GROUP_LANES: usize = 8;

/// One lane's swept load, sampled a block of steps at a time.
#[derive(Clone, Copy)]
enum LaneLoad<'a> {
    /// A [`Stimulus::Samples`] trace read through a cursor. The
    /// zero-order-hold index `floor(t / dt)` never decreases as the steps
    /// advance, so a repeating trace carries its wrapped index from step
    /// to step and divides by the trace length only when it wraps. Each
    /// step reads exactly the value [`Stimulus::value_at`] would.
    Held {
        dt: f64,
        values: &'a [f64],
        repeat: bool,
        /// The last step's hold index and its wrap `idx % values.len()`.
        idx: usize,
        wrapped: usize,
    },
    /// Any other stimulus, evaluated at every step.
    Other(&'a Stimulus),
}

impl<'a> LaneLoad<'a> {
    fn new(load: &'a Stimulus) -> Self {
        match load {
            Stimulus::Samples { dt, values, repeat } => LaneLoad::Held {
                dt: *dt,
                values,
                repeat: *repeat,
                idx: 0,
                wrapped: 0,
            },
            other => LaneLoad::Other(other),
        }
    }

    /// The trace's sample spacing, for a held load.
    fn held_dt(&self) -> Option<f64> {
        match self {
            LaneLoad::Held { dt, .. } => Some(*dt),
            LaneLoad::Other(_) => None,
        }
    }

    /// Writes the load at steps `first .. first + n` (time `step * h`) to
    /// `out[s * step_len]`, `s` counting from 0. `shared_idx`, when
    /// given, holds each step's hold index `floor(t / dt)` for this held
    /// load's `dt`, computed once for a group whose lanes all share it.
    fn sample(
        &mut self,
        first: usize,
        n: usize,
        h: f64,
        shared_idx: Option<&[usize]>,
        out: &mut [f64],
        step_len: usize,
    ) {
        for (s, o) in out.iter_mut().step_by(step_len).take(n).enumerate() {
            let t = (first + s) as f64 * h;
            *o = match self {
                LaneLoad::Other(load) => load.value_at(t),
                LaneLoad::Held {
                    dt,
                    values,
                    repeat,
                    idx,
                    wrapped,
                } => {
                    let next = shared_idx.map_or_else(|| sample_index(*dt, t), |ix| ix[s]);
                    let len = values.len();
                    if *repeat && len > 0 {
                        *wrapped = match next.checked_sub(*idx) {
                            Some(d) if d < len - *wrapped => *wrapped + d,
                            _ => next % len,
                        };
                        *idx = next;
                        values[*wrapped]
                    } else {
                        held_sample(values, *repeat, next)
                    }
                }
            };
        }
    }
}

/// A lane group's swept loads, staged a block of steps at a time.
struct SweptLoads<'a> {
    /// Index of the current source (in `Circuit::isources`) the loads
    /// drive.
    source: usize,
    /// One cursor per real lane, the first `width` entries.
    lanes: [LaneLoad<'a>; MAX_GROUP_LANES],
    width: usize,
    /// The `dt` every lane's held trace has, when they all have one `dt`
    /// (by bits): each step's hold index is then computed once for the
    /// group.
    shared_dt: Option<f64>,
}

impl<'a> SweptLoads<'a> {
    fn new(source: usize, loads: &'a [Stimulus]) -> Self {
        let mut lanes = [LaneLoad::Other(&Stimulus::Dc(0.0)); MAX_GROUP_LANES];
        for (lane, load) in lanes.iter_mut().zip(loads) {
            *lane = LaneLoad::new(load);
        }
        let width = loads.len();
        let shared_dt = lanes[0].held_dt().filter(|dt| {
            lanes[..width]
                .iter()
                .all(|l| l.held_dt().map(f64::to_bits) == Some(dt.to_bits()))
        });
        SweptLoads {
            source,
            lanes,
            width,
            shared_dt,
        }
    }

    /// Writes every lane's load at steps `first .. first + n` (time
    /// `step * h`) into the swept source's row of each step of `block`,
    /// the staged `[n x sources x stride]` rows; padding lanes replay
    /// lane 0.
    fn stage(&mut self, first: usize, n: usize, h: f64, stride: usize, block: &mut [f64]) {
        let step_len = block.len() / n;
        let mut idx = [0usize; STEP_BLOCK];
        let shared = self.shared_dt.map(|dt| {
            for (s, ix) in idx[..n].iter_mut().enumerate() {
                *ix = sample_index(dt, (first + s) as f64 * h);
            }
            &idx[..n]
        });
        let col = self.source * stride;
        for (l, lane) in self.lanes[..self.width].iter_mut().enumerate() {
            lane.sample(first, n, h, shared, &mut block[col + l..], step_len);
        }
        for row in block.chunks_exact_mut(step_len) {
            let out = &mut row[col..col + stride];
            let lane0 = out[0];
            out[self.width..].fill(lane0);
        }
    }
}

/// How many steps a run takes and from which step recording starts —
/// computed once in the setup and shared by every step path.
#[derive(Debug, Clone, Copy, Default)]
struct StepSchedule {
    n_steps: usize,
    record_start_idx: usize,
}

/// The rows a lane group's step loop reads and writes, `stride` lanes per
/// row: element `k` of lane `l` sits at `[k * stride + l]`, and `state` is
/// the node-major `[node_count x stride]` solution with row 0 the ground
/// row. A lane's own [`TransientScratch`] holds 1-lane rows; a
/// [`BatchTransientScratch`] holds the padded rows of its multi-lane
/// groups, packed from the lanes before a group steps and unpacked after,
/// so each lane's scratch ends exactly as a 1-lane run leaves it.
#[derive(Debug, Clone, Default)]
struct LaneRows {
    /// Working rows for the gathered companion histories.
    hist: Vec<f64>,
    state: Vec<f64>,
    cap_v: Vec<f64>,
    cap_i: Vec<f64>,
    ind_v: Vec<f64>,
    ind_i: Vec<f64>,
    /// `[node_a, node_b]` row pairs per capacitor / inductor, the tables
    /// the step kernel's companion updates index node state with.
    cap_rows: Vec<[u32; 2]>,
    ind_rows: Vec<[u32; 2]>,
    /// The node-state and inductor rows each step records.
    probe_nodes: Vec<u32>,
    probe_inds: Vec<u32>,
    /// One block of staged source rows, `[STEP_BLOCK x sources x stride]`.
    sources: Vec<f64>,
    /// One block of recorded probe rows, `[STEP_BLOCK x probes x stride]`.
    probes: Vec<f64>,
}

impl LaneRows {
    /// The per-lane state rows, in a fixed order.
    fn state_rows(&mut self) -> [&mut Vec<f64>; 5] {
        [
            &mut self.state,
            &mut self.cap_v,
            &mut self.cap_i,
            &mut self.ind_v,
            &mut self.ind_i,
        ]
    }

    /// Sizes every row for `stride` lanes and packs `lanes` into them;
    /// lanes past `lanes.len()` replay lane 0.
    fn pack(&mut self, lanes: &[TransientScratch], stride: usize) {
        let lane0 = &lanes[0].rows;
        resize_zeroed(&mut self.hist, lane0.hist.len() * stride);
        self.cap_rows.clone_from(&lane0.cap_rows);
        self.ind_rows.clone_from(&lane0.ind_rows);
        self.probe_nodes.clone_from(&lane0.probe_nodes);
        self.probe_inds.clone_from(&lane0.probe_inds);
        let lane0_rows = [
            &lane0.state,
            &lane0.cap_v,
            &lane0.cap_i,
            &lane0.ind_v,
            &lane0.ind_i,
        ];
        for (row, len) in self.state_rows().into_iter().zip(lane0_rows.map(Vec::len)) {
            resize_zeroed(row, len * stride);
        }
        for l in 0..stride {
            let lane = &lanes.get(l).unwrap_or(&lanes[0]).rows;
            let lane_rows = [
                &lane.state,
                &lane.cap_v,
                &lane.cap_i,
                &lane.ind_v,
                &lane.ind_i,
            ];
            for (row, lane_row) in self.state_rows().into_iter().zip(lane_rows) {
                for (k, &x) in lane_row.iter().enumerate() {
                    row[k * stride + l] = x;
                }
            }
        }
    }

    /// Copies each real lane's final state back into its scratch.
    fn unpack(&mut self, lanes: &mut [TransientScratch], stride: usize) {
        for (l, lane) in lanes.iter_mut().enumerate() {
            for (row, lane_row) in self.state_rows().into_iter().zip(lane.rows.state_rows()) {
                for (k, x) in lane_row.iter_mut().enumerate() {
                    *x = row[k * stride + l];
                }
            }
        }
    }
}

/// Per-lane working memory for [`Circuit::transient_batch_scoped`]: one
/// [`TransientScratch`] per population member, recycled across batches
/// exactly like a single scratch is recycled across runs.
///
/// After a batch run, [`BatchTransientScratch::lane`] exposes each lane's
/// recorded waveforms as a `&TransientResult`; the next batch through the
/// same scratch overwrites them.
#[derive(Debug, Clone, Default)]
pub struct BatchTransientScratch {
    lanes: Vec<TransientScratch>,
    soa: LaneRows,
    /// The most recent batch's schedule, kept for [`BatchTransientScratch::report_lane`].
    sched: StepSchedule,
}

/// Charges a finished run's solver counters to `telemetry` and, for an
/// emitting handle, reports it: a `transient_solve` span and its probe
/// waveforms.
fn report_run(
    telemetry: &Telemetry,
    plan: &TransientPlan,
    sched: &StepSchedule,
    out: &TransientResult,
    probes: &TransientProbes,
) {
    telemetry.count(CounterId::TransientRuns, 1);
    telemetry.count(CounterId::SolverSteps, sched.n_steps as u64);
    telemetry.span(
        "transient_solve",
        Layer::Circuit,
        &[
            ("steps", sched.n_steps as f64),
            ("dim", (plan.n_nodes + plan.n_vs) as f64),
            ("recorded", out.len as f64),
        ],
    );
    emit_probe_waves(telemetry, out, probes);
}

/// Emits the probed waveforms a finished run recorded in `out` through
/// `telemetry`'s wave sink. Runs entirely *after* the step loop, from the
/// already-recorded buffers, so solver arithmetic (and its SIMD dispatch)
/// stays byte-identical whether or not tracing is on; with tracing off
/// this is one branch.
fn emit_probe_waves(telemetry: &Telemetry, out: &TransientResult, probes: &TransientProbes) {
    if !telemetry.wave_enabled() || out.len == 0 {
        return;
    }
    let stride = telemetry.wave_stride();
    let emit = |name: &str, samples: &[f64]| {
        let id = telemetry.wave_register(name, WaveKind::Real);
        for (k, &v) in samples.iter().step_by(stride).enumerate() {
            let t = out.t0 + (k * stride) as f64 * out.dt;
            telemetry.wave_real(id, t, v);
        }
    };
    for (slot, &node) in out.node_slots.iter().enumerate() {
        match probes.node_label(node) {
            Some(label) => emit(label, &out.node_bufs[slot]),
            None => emit(&format!("circuit.n{node}.v"), &out.node_bufs[slot]),
        }
    }
    for (slot, &ind) in out.ind_slots.iter().enumerate() {
        match probes.ind_label(ind) {
            Some(label) => emit(label, &out.ind_bufs[slot]),
            None => emit(&format!("circuit.l{ind}.i"), &out.ind_bufs[slot]),
        }
    }
}

impl BatchTransientScratch {
    /// Creates an empty batch scratch; lanes are created on first use and
    /// reused afterwards.
    pub fn new() -> Self {
        BatchTransientScratch::default()
    }

    /// Frees every lane's buffers (recorded waveforms included); the next
    /// batch allocates them afresh. For callers whose work between
    /// batches is memory-heavy, so the two peaks do not stack.
    pub fn release_lanes(&mut self) {
        self.lanes.clear();
    }

    /// Number of lanes recorded by the most recent batch run.
    pub fn n_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Borrowing view over lane `i`'s recorded waveforms.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the most recent batch.
    pub fn lane(&self, i: usize) -> &TransientResult {
        &self.lanes[i].out
    }

    /// Charges and emits to `telemetry` what lane `i` of the most recent
    /// batch would have charged and emitted run alone: its solver
    /// counters, a `transient_solve` span and its probe waveforms. A batch
    /// reports nothing itself, so this is how a lane group reads as the
    /// sequence of single runs it replaces. `plan` and `probes` must be
    /// the ones the batch ran with.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the most recent batch.
    pub fn report_lane(
        &self,
        plan: &TransientPlan,
        probes: &TransientProbes,
        i: usize,
        telemetry: &Telemetry,
    ) {
        report_run(telemetry, plan, &self.sched, &self.lanes[i].out, probes);
    }
}

/// Convenience re-exports for transient consumers.
pub use crate::trace::Trace as TransientTrace;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stimulus::Stimulus;

    /// RC charge curve: v(t) = V*(1 - exp(-t/RC)).
    #[test]
    fn rc_step_response_matches_analytic() {
        let r = 1_000.0;
        let cap = 1e-9;
        let tau = r * cap;
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let out = c.node("out");
        c.voltage_source(
            vin,
            NodeId::GROUND,
            Stimulus::Step {
                t0: 0.0,
                before: 0.0,
                after: 1.0,
            },
        )
        .unwrap();
        c.resistor(vin, out, r).unwrap();
        c.capacitor(out, NodeId::GROUND, cap).unwrap();

        let cfg = TransientConfig::new(tau / 200.0, 5.0 * tau);
        let res = c.transient(&cfg).unwrap();
        let trace = res.voltage(out);
        for (t, v) in trace.iter().skip(1) {
            let expected = 1.0 - (-t / tau).exp();
            assert!(
                (v - expected).abs() < 5e-3,
                "t={t:.3e}: got {v}, expected {expected}"
            );
        }
    }

    /// Undamped LC tank rings at f = 1/(2*pi*sqrt(LC)).
    #[test]
    fn lc_tank_rings_at_resonance() {
        let l: f64 = 50e-12; // 50 pH
        let cap = 100e-9; // 100 nF  => f ~ 71.2 MHz
        let f_expected = 1.0 / (2.0 * std::f64::consts::PI * (l * cap).sqrt());

        let mut c = Circuit::new();
        let n = c.node("tank");
        c.inductor(n, NodeId::GROUND, l).unwrap();
        c.capacitor(n, NodeId::GROUND, cap).unwrap();
        // Small damping resistor so the DC operating point is well-posed.
        c.resistor(n, NodeId::GROUND, 1e6).unwrap();
        // Kick the tank with a current step.
        c.current_source(
            NodeId::GROUND,
            n,
            Stimulus::Step {
                t0: 0.0,
                before: 0.0,
                after: 0.1,
            },
        )
        .unwrap();

        let period = 1.0 / f_expected;
        let cfg = TransientConfig::new(period / 256.0, 20.0 * period);
        let res = c.transient(&cfg).unwrap();
        let trace = res.voltage(n);

        // Count zero crossings of (v - mean) to estimate the frequency.
        let mean = trace.mean();
        let samples = trace.samples();
        let mut crossings = 0usize;
        for w in samples.windows(2) {
            if (w[0] - mean) * (w[1] - mean) < 0.0 {
                crossings += 1;
            }
        }
        let measured_f = crossings as f64 / 2.0 / trace.duration();
        assert!(
            (measured_f - f_expected).abs() / f_expected < 0.02,
            "measured {measured_f:.3e}, expected {f_expected:.3e}"
        );
    }

    /// Trapezoidal integration must not pump energy into a passive network.
    #[test]
    fn damped_rlc_decays() {
        let mut c = Circuit::new();
        let n = c.node("tank");
        let mid = c.node("mid");
        c.inductor(n, mid, 50e-12).unwrap();
        c.resistor(mid, NodeId::GROUND, 0.05).unwrap();
        c.capacitor(n, NodeId::GROUND, 100e-9).unwrap();
        c.resistor(n, NodeId::GROUND, 1e6).unwrap();
        c.current_source(
            NodeId::GROUND,
            n,
            Stimulus::Step {
                t0: 0.0,
                before: 0.0,
                after: 1.0,
            },
        )
        .unwrap();
        let cfg = TransientConfig::new(0.2e-9, 3e-6);
        let res = c.transient(&cfg).unwrap();
        let trace = res.voltage(n);
        let first_half = trace.window(0.0, 1.5e-6);
        let second_half = trace.window(1.5e-6, 3e-6);
        assert!(second_half.peak_to_peak() < first_half.peak_to_peak());
        assert!(trace.max().abs() < 10.0, "unbounded growth detected");
    }

    #[test]
    fn warmup_discards_early_samples() {
        let mut c = Circuit::new();
        let n = c.node("n");
        c.resistor(n, NodeId::GROUND, 1.0).unwrap();
        c.current_source(NodeId::GROUND, n, Stimulus::Dc(1.0))
            .unwrap();
        let cfg = TransientConfig::new(1e-9, 100e-9).with_warmup(50e-9);
        let res = c.transient(&cfg).unwrap();
        let trace = res.voltage(n);
        assert!(trace.start_time() >= 50e-9);
        assert!(trace.len() <= 52);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = Circuit::new();
        let n = c.node("n");
        c.resistor(n, NodeId::GROUND, 1.0).unwrap();
        assert!(c.transient(&TransientConfig::new(0.0, 1.0)).is_err());
        assert!(c.transient(&TransientConfig::new(1.0, 0.5)).is_err());
        let bad = TransientConfig::new(1e-9, 1e-6).with_warmup(2e-6);
        assert!(c.transient(&bad).is_err());
    }

    /// Hostile configurations fail fast with `InvalidAnalysis` instead of
    /// running forever, recording from a silently substituted time, or
    /// overflowing the sample-buffer size math.
    #[test]
    fn hostile_configs_are_rejected_with_invalid_analysis() {
        let mut c = Circuit::new();
        let n = c.node("n");
        c.resistor(n, NodeId::GROUND, 1.0).unwrap();
        let plan = c.plan_transient(1e-9).unwrap();
        let cases = [
            (
                "infinite duration",
                TransientConfig::new(1e-9, f64::INFINITY),
            ),
            ("NaN duration", TransientConfig::new(1e-9, f64::NAN)),
            (
                "NaN record_from",
                TransientConfig::new(1e-9, 1e-6).with_warmup(f64::NAN),
            ),
            (
                "infinite record_from",
                TransientConfig::new(1e-9, 1e-6).with_warmup(f64::INFINITY),
            ),
            (
                "negative infinite record_from",
                TransientConfig::new(1e-9, 1e-6).with_warmup(f64::NEG_INFINITY),
            ),
            ("step count past usize", TransientConfig::new(1e-9, 1e12)),
            (
                "step count past the sample buffer",
                TransientConfig::new(1.0, (TransientConfig::MAX_STEPS as f64) * 2.0),
            ),
            (
                "subnormal step",
                TransientConfig::new(f64::MIN_POSITIVE, 1.0),
            ),
        ];
        for (what, cfg) in cases {
            for result in [
                c.transient(&cfg).map(|_| ()),
                c.transient_with_plan(&plan, &cfg).map(|_| ()),
            ] {
                assert!(
                    matches!(result, Err(CircuitError::InvalidAnalysis { .. })),
                    "{what}: {result:?}"
                );
            }
        }
        // The largest accepted step count still validates.
        let edge = TransientConfig::new(1.0, TransientConfig::MAX_STEPS as f64);
        assert!(edge.validate().is_ok());
    }

    /// A reused plan must reproduce `transient` exactly, including across
    /// stimulus swaps (the repeated-evaluation hot path).
    #[test]
    fn plan_reuse_is_bit_identical_across_stimulus_changes() {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let out = c.node("out");
        c.voltage_source(vin, NodeId::GROUND, Stimulus::Dc(1.0))
            .unwrap();
        c.resistor(vin, out, 1_000.0).unwrap();
        c.capacitor(out, NodeId::GROUND, 1e-9).unwrap();
        let load = c
            .current_source(NodeId::GROUND, out, Stimulus::Dc(0.0))
            .unwrap();

        let cfg = TransientConfig::new(1e-9, 2e-6).with_warmup(0.5e-6);
        let plan = c.plan_transient(cfg.dt).unwrap();
        for amps in [0.0, 0.3, 1.2] {
            c.set_current_stimulus(load, Stimulus::Dc(amps));
            let fresh = c.transient(&cfg).unwrap();
            let planned = c.transient_with_plan(&plan, &cfg).unwrap();
            assert_eq!(
                fresh.voltage(out).samples(),
                planned.voltage(out).samples(),
                "plan diverged at load {amps}"
            );
        }
    }

    #[test]
    fn plan_rejects_mismatched_dt_and_topology() {
        let mut c = Circuit::new();
        let n = c.node("n");
        c.resistor(n, NodeId::GROUND, 1.0).unwrap();
        c.current_source(NodeId::GROUND, n, Stimulus::Dc(1.0))
            .unwrap();
        let plan = c.plan_transient(1e-9).unwrap();
        assert!(c
            .transient_with_plan(&plan, &TransientConfig::new(2e-9, 1e-6))
            .is_err());
        c.capacitor(n, NodeId::GROUND, 1e-9).unwrap();
        assert!(c
            .transient_with_plan(&plan, &TransientConfig::new(1e-9, 1e-6))
            .is_err());
        assert!(c.plan_transient(0.0).is_err());
    }

    #[test]
    fn inductor_current_is_recorded() {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let out = c.node("out");
        c.voltage_source(vin, NodeId::GROUND, Stimulus::Dc(1.0))
            .unwrap();
        let l = c.inductor(vin, out, 1e-9).unwrap();
        c.resistor(out, NodeId::GROUND, 1.0).unwrap();
        let cfg = TransientConfig::new(0.05e-9, 50e-9);
        let res = c.transient(&cfg).unwrap();
        let i = res.inductor_current(l);
        // Settles to 1 A through the 1 ohm resistor.
        let tail = i.window(40e-9, 50e-9);
        assert!((tail.mean() - 1.0).abs() < 1e-3);
    }

    /// An RLC circuit with every element type, used by the probe/scratch
    /// bit-identity tests below.
    fn probe_test_circuit() -> (
        Circuit,
        NodeId,
        NodeId,
        InductorId,
        crate::netlist::ISourceId,
    ) {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let out = c.node("out");
        c.voltage_source(vin, NodeId::GROUND, Stimulus::Dc(1.0))
            .unwrap();
        let l = c.inductor(vin, out, 2e-9).unwrap();
        c.resistor(out, NodeId::GROUND, 0.5).unwrap();
        c.capacitor(out, NodeId::GROUND, 5e-9).unwrap();
        let load = c
            .current_source(
                NodeId::GROUND,
                out,
                Stimulus::Sine {
                    offset: 0.1,
                    amplitude: 0.2,
                    freq: 80e6,
                    phase: 0.0,
                },
            )
            .unwrap();
        (c, vin, out, l, load)
    }

    /// Probe-scoped runs must reproduce full-record runs bit-for-bit on
    /// the probed waveforms, even while the scratch is reused.
    #[test]
    fn probe_scoped_matches_full_record_bit_for_bit() {
        let (c, _vin, out, l, _load) = probe_test_circuit();
        let cfg = TransientConfig::new(0.1e-9, 1e-6).with_warmup(0.2e-6);
        let plan = c.plan_transient(cfg.dt).unwrap();
        let full = c.transient_with_plan(&plan, &cfg).unwrap();

        let probes = TransientProbes::none().with_node(out).with_inductor(l);
        let mut scratch = TransientScratch::new();
        for _ in 0..3 {
            let view = c
                .transient_scoped(&plan, &cfg, &probes, &mut scratch)
                .unwrap();
            assert_eq!(view.len(), full.len());
            assert_eq!(view.dt(), full.voltage(out).dt());
            let fv = full.voltage_samples(out);
            let sv = view.voltage_samples(out);
            for (a, b) in fv.iter().zip(sv.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            let fi = full.inductor_current_samples(l);
            let si = view.inductor_current_samples(l);
            for (a, b) in fi.iter().zip(si.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// A wave-enabled telemetry handle on the scratch captures the probed
    /// waveforms (decimated by the sink's stride) without perturbing the
    /// solve, using probe labels where given and generic names elsewhere.
    #[test]
    fn scoped_run_emits_probed_waveforms_to_wave_sink() {
        use emvolt_obs::{validate_vcd_text, NoopRecorder, WaveDb};
        use std::sync::Arc;

        let (c, _vin, out, l, _load) = probe_test_circuit();
        let cfg = TransientConfig::new(0.1e-9, 0.1e-6);
        let plan = c.plan_transient(cfg.dt).unwrap();
        let probes = TransientProbes::none()
            .with_node_labeled(out, "pdn.v_die")
            .with_inductor(l);

        // Baseline without tracing.
        let mut plain = TransientScratch::new();
        let baseline = c
            .transient_scoped(&plan, &cfg, &probes, &mut plain)
            .unwrap()
            .voltage_samples(out)
            .to_vec();

        let stride = 4;
        let db = Arc::new(WaveDb::with_config(stride, Vec::new()));
        let tel = Telemetry::with_waves(Arc::new(NoopRecorder), db.clone());
        let mut scratch = TransientScratch::new();
        scratch.set_telemetry(tel);
        let view = c
            .transient_scoped(&plan, &cfg, &probes, &mut scratch)
            .unwrap();
        for (a, b) in baseline.iter().zip(view.voltage_samples(out)) {
            assert_eq!(a.to_bits(), b.to_bits(), "tracing perturbed the solve");
        }

        assert_eq!(db.signal_count(), 2);
        let vcd = db.to_vcd_string();
        assert!(vcd.contains("$scope module pdn $end"), "{vcd}");
        assert!(vcd.contains(" v_die $end"), "{vcd}");
        // Unlabeled inductor probe falls back to the generic name.
        assert!(
            vcd.contains(&format!("$scope module l{} $end", l.index())),
            "{vcd}"
        );
        let check = validate_vcd_text(&vcd).unwrap();
        assert!(check.changes > 0);
        // Change compression can only drop samples, never add: per signal
        // at most ceil(len / stride) survive.
        let cap = 2 * view.len().div_ceil(stride) as u64;
        assert!(
            check.changes <= cap,
            "{} changes > cap {cap}",
            check.changes
        );
    }

    /// A batch reports nothing itself; `report_lane` reports lane `i` as
    /// the single run of that stimulus: the same counters, span and
    /// unsuffixed probe waveforms.
    #[test]
    fn batch_lanes_report_as_single_runs() {
        use emvolt_obs::{NoopRecorder, WaveDb};
        use std::sync::Arc;

        let (mut c, _vin, out, l, load) = probe_test_circuit();
        let cfg = TransientConfig::new(0.1e-9, 0.05e-6);
        let plan = c.plan_transient(cfg.dt).unwrap();
        let probes = TransientProbes::none()
            .with_node_labeled(out, "pdn.v_die")
            .with_inductor(l);
        let traced = || {
            let db = Arc::new(WaveDb::new());
            (
                Telemetry::with_waves(Arc::new(NoopRecorder), db.clone()),
                db,
            )
        };
        let loads = [Stimulus::Dc(0.1), Stimulus::Dc(0.4), Stimulus::Dc(0.9)];
        let mut batch = BatchTransientScratch::new();
        c.transient_batch_scoped(&plan, &cfg, &probes, load, &loads, &mut batch)
            .unwrap();
        let mut single = TransientScratch::new();
        for (i, stim) in loads.iter().enumerate() {
            let (lane_tel, lane_db) = traced();
            batch.report_lane(&plan, &probes, i, &lane_tel);
            let (one_tel, one_db) = traced();
            c.set_current_stimulus(load, stim.clone());
            single.set_telemetry(one_tel.clone());
            c.transient_scoped(&plan, &cfg, &probes, &mut single)
                .unwrap();
            assert_eq!(lane_db.signal_count(), 2);
            assert_eq!(lane_db.to_vcd_string(), one_db.to_vcd_string(), "lane {i}");
            for id in [CounterId::TransientRuns, CounterId::SolverSteps] {
                assert_eq!(lane_tel.counter(id), one_tel.counter(id), "lane {i}");
            }
        }
    }

    /// A scratch carried across runs with differing stimuli must never
    /// leak state: each reused run matches a fresh-scratch run exactly.
    #[test]
    fn scratch_reuse_across_stimulus_swaps_is_bit_identical() {
        let (mut c, _vin, out, l, load) = probe_test_circuit();
        let cfg = TransientConfig::new(0.1e-9, 0.5e-6);
        let plan = c.plan_transient(cfg.dt).unwrap();
        let probes = TransientProbes::none().with_node(out).with_inductor(l);
        let mut reused = TransientScratch::new();
        for amps in [0.0, 0.45, -0.2, 1.3] {
            c.set_current_stimulus(load, Stimulus::Dc(amps));
            let mut fresh = TransientScratch::new();
            let a = c
                .transient_scoped(&plan, &cfg, &probes, &mut fresh)
                .unwrap();
            let (av, ai): (Vec<f64>, Vec<f64>) = (
                a.voltage_samples(out).to_vec(),
                a.inductor_current_samples(l).to_vec(),
            );
            let b = c
                .transient_scoped(&plan, &cfg, &probes, &mut reused)
                .unwrap();
            assert_eq!(av, b.voltage_samples(out), "leak at load {amps}");
            assert_eq!(ai, b.inductor_current_samples(l), "leak at load {amps}");
        }
    }

    #[test]
    fn out_of_range_probes_are_rejected() {
        let (c, _vin, out, _l, _load) = probe_test_circuit();
        let cfg = TransientConfig::new(0.1e-9, 0.1e-6);
        let plan = c.plan_transient(cfg.dt).unwrap();
        let mut other = Circuit::new();
        let far = (0..9).map(|i| other.node(format!("n{i}"))).last().unwrap();
        let mut scratch = TransientScratch::new();
        let probes = TransientProbes::none().with_node(far);
        assert!(c
            .transient_scoped(&plan, &cfg, &probes, &mut scratch)
            .is_err());
        // A valid probe still works afterwards.
        let probes = TransientProbes::none().with_node(out);
        assert!(c
            .transient_scoped(&plan, &cfg, &probes, &mut scratch)
            .is_ok());
    }

    #[test]
    #[should_panic(expected = "not probed")]
    fn view_panics_on_unprobed_node() {
        let (c, vin, out, _l, _load) = probe_test_circuit();
        let cfg = TransientConfig::new(0.1e-9, 0.1e-6);
        let plan = c.plan_transient(cfg.dt).unwrap();
        let mut scratch = TransientScratch::new();
        let probes = TransientProbes::none().with_node(out);
        let view = c
            .transient_scoped(&plan, &cfg, &probes, &mut scratch)
            .unwrap();
        let _ = view.voltage_samples(vin);
    }

    #[test]
    fn auto_default_embeds_state_kernel_for_small_systems() {
        let (c, ..) = probe_test_circuit();
        assert!(c.plan_transient(1e-9).unwrap().uses_state_kernel());
        assert!(!c
            .plan_transient_kernel(1e-9, KernelChoice::Lu)
            .unwrap()
            .uses_state_kernel());
    }

    /// The state-space kernel sums the same solution in a different
    /// order, so it must agree with the LU reference to rounding — the
    /// documented tolerance contract of DESIGN.md §9.
    #[test]
    fn state_space_matches_lu_within_tolerance() {
        let (c, _vin, out, l, _load) = probe_test_circuit();
        let cfg = TransientConfig::new(0.1e-9, 1e-6).with_warmup(0.2e-6);
        let lu_plan = c.plan_transient_kernel(cfg.dt, KernelChoice::Lu).unwrap();
        let ss_plan = c.plan_transient_kernel(cfg.dt, KernelChoice::Auto).unwrap();
        assert!(ss_plan.uses_state_kernel());
        let probes = TransientProbes::none().with_node(out).with_inductor(l);
        let mut s_lu = TransientScratch::new();
        let mut s_ss = TransientScratch::new();
        c.transient_scoped(&lu_plan, &cfg, &probes, &mut s_lu)
            .unwrap();
        let reference: Vec<f64> = {
            let view: &TransientResult = &s_lu.out;
            view.voltage_samples(out).to_vec()
        };
        let view = c
            .transient_scoped(&ss_plan, &cfg, &probes, &mut s_ss)
            .unwrap();
        let scale = reference.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for (step, (a, b)) in reference.iter().zip(view.voltage_samples(out)).enumerate() {
            assert!(
                (a - b).abs() <= 1e-9 * scale,
                "kernels diverged at sample {step}: lu={a}, statespace={b}"
            );
        }
    }

    /// A batch lane must reproduce a single run bit-for-bit, under the
    /// state-space kernel (same per-lane arithmetic sequence) and under
    /// an LU-only plan (every lane runs the LU reference).
    #[test]
    fn batch_lanes_match_single_runs_bit_for_bit() {
        let (mut c, _vin, out, l, load) = probe_test_circuit();
        let cfg = TransientConfig::new(0.1e-9, 0.5e-6).with_warmup(0.1e-6);
        let probes = TransientProbes::none().with_node(out).with_inductor(l);
        let loads = [
            Stimulus::Dc(0.25),
            Stimulus::Sine {
                offset: 0.1,
                amplitude: 0.3,
                freq: 120e6,
                phase: 0.5,
            },
            Stimulus::Step {
                t0: 0.2e-6,
                before: 0.0,
                after: 0.8,
            },
        ];
        for kernel in [KernelChoice::Auto, KernelChoice::Lu] {
            let plan = c.plan_transient_kernel(cfg.dt, kernel).unwrap();
            assert_eq!(plan.uses_state_kernel(), kernel == KernelChoice::Auto);
            let mut batch = BatchTransientScratch::new();
            c.transient_batch_scoped(&plan, &cfg, &probes, load, &loads, &mut batch)
                .unwrap();
            assert_eq!(batch.n_lanes(), loads.len());

            let mut single = TransientScratch::new();
            for (i, stim) in loads.iter().enumerate() {
                c.set_current_stimulus(load, stim.clone());
                let view = c
                    .transient_scoped(&plan, &cfg, &probes, &mut single)
                    .unwrap();
                let lane = batch.lane(i);
                assert_eq!(lane.len(), view.len());
                for (a, b) in view
                    .voltage_samples(out)
                    .iter()
                    .zip(lane.voltage_samples(out))
                {
                    assert_eq!(a.to_bits(), b.to_bits(), "{kernel:?} lane {i} voltage");
                }
                for (a, b) in view
                    .inductor_current_samples(l)
                    .iter()
                    .zip(lane.inductor_current_samples(l))
                {
                    assert_eq!(a.to_bits(), b.to_bits(), "{kernel:?} lane {i} current");
                }
            }
        }
    }

    /// The state-space sequence of one lane written out literally with
    /// `mul_add`, from the lane's seeded scratch: each step gathers the
    /// histories, evaluates every source at `step * dt` (the swept one
    /// from `load`), folds in input order, updates the companions and,
    /// inside the recording window, appends the probed rows.
    fn literal_steps(
        c: &Circuit,
        plan: &TransientPlan,
        sched: &StepSchedule,
        (source, load): (usize, &Stimulus),
        lane: &mut TransientScratch,
    ) -> Vec<Vec<f64>> {
        let cols = plan.state.as_ref().expect("state-space plan").cols();
        let n = plan.n_nodes;
        let LaneRows {
            state,
            cap_v,
            cap_i,
            ind_v,
            ind_i,
            ..
        } = &mut lane.rows;
        let out = &lane.out;
        let mut rec: Vec<Vec<f64>> = out.node_bufs.iter().chain(&out.ind_bufs).cloned().collect();
        for step in 1..=sched.n_steps {
            let t = step as f64 * plan.dt;
            let mut w: Vec<f64> = Vec::new();
            for (k, &g) in plan.cap_g.iter().enumerate() {
                w.push(g.mul_add(cap_v[k], cap_i[k]));
            }
            for (k, &g) in plan.ind_g.iter().enumerate() {
                w.push(g.mul_add(ind_v[k], ind_i[k]));
            }
            for (si, is) in c.isources.iter().enumerate() {
                let stim = if si == source { load } else { &is.stimulus };
                w.push(stim.value_at(t));
            }
            w.extend(c.vsources.iter().map(|vs| vs.stimulus.value_at(t)));
            for i in 0..n {
                let mut x = 0.0;
                for (j, &wj) in w.iter().enumerate() {
                    x = wj.mul_add(cols[j * n + i], x);
                }
                state[i + 1] = x;
            }
            for (k, (e, &g)) in c.capacitors.iter().zip(&plan.cap_g).enumerate() {
                let vn = state[e.a] - state[e.b];
                let hist = g.mul_add(cap_v[k], cap_i[k]);
                cap_i[k] = g.mul_add(vn, -hist);
                cap_v[k] = vn;
            }
            for (k, (e, &g)) in c.inductors.iter().zip(&plan.ind_g).enumerate() {
                let vn = state[e.a] - state[e.b];
                let hist = g.mul_add(ind_v[k], ind_i[k]);
                ind_i[k] = g.mul_add(vn, hist);
                ind_v[k] = vn;
            }
            if step >= sched.record_start_idx {
                let rows = out.node_slots.iter().map(|&r| state[r]);
                let rows = rows.chain(out.ind_slots.iter().map(|&r| ind_i[r]));
                for (buf, x) in rec.iter_mut().zip(rows) {
                    buf.push(x);
                }
            }
        }
        rec
    }

    /// Every lane of the block driver matches the literal step loop bit
    /// for bit: runs ending on both sides of each block boundary, the
    /// recording window opening at step 0, mid-block and on the last
    /// step, and groups of 1, 3, 8 and 9 lanes mixing held traces of one
    /// `dt`, of several `dt`s, clamped and repeating, and a sinusoid.
    #[test]
    fn block_driver_matches_literal_step_loop() {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let n1 = c.node("n1");
        let n2 = c.node("n2");
        c.voltage_source(vin, NodeId::GROUND, Stimulus::Dc(1.0))
            .unwrap();
        let l1 = c.inductor(vin, n1, 2e-9).unwrap();
        let l2 = c.inductor(n1, n2, 1e-9).unwrap();
        c.capacitor(n1, NodeId::GROUND, 3e-9).unwrap();
        c.capacitor(n2, NodeId::GROUND, 5e-9).unwrap();
        c.resistor(n2, NodeId::GROUND, 0.5).unwrap();
        c.current_source(NodeId::GROUND, n1, Stimulus::square(0.0, 0.05, 90e6))
            .unwrap();
        let load = c
            .current_source(NodeId::GROUND, n2, Stimulus::Dc(0.1))
            .unwrap();
        let probes = TransientProbes::none()
            .with_node(n2)
            .with_node(NodeId::GROUND)
            .with_inductor(l2)
            .with_inductor(l1);
        let dt = 0.1e-9;
        let plan = c.plan_transient(dt).unwrap();
        let trace = |seed: u64, len: usize| -> std::sync::Arc<[f64]> {
            (0..len)
                .map(|i| 0.1 + 0.05 * (((i as u64 * 7 + seed) % 13) as f64))
                .collect()
        };
        // Short traces wrap many times within a run; a `dt` below the
        // step's advances several samples a step, some past a wrap.
        let held = |cpu_dt: f64, seed: u64, repeat: bool| Stimulus::Samples {
            dt: cpu_dt,
            values: trace(seed, 3 + seed as usize % 5),
            repeat,
        };
        let sine = Stimulus::Sine {
            offset: 0.1,
            amplitude: 0.3,
            freq: 120e6,
            phase: 0.5,
        };
        let shared: Vec<Stimulus> = (0..9).map(|s| held(0.23e-9, s, true)).collect();
        let mixed: Vec<Stimulus> = (0..9)
            .map(|s| match s % 5 {
                0 => held(0.23e-9 + s as f64 * 0.01e-9, s, true),
                1 => held(0.07e-9, s, false),
                2 => sine.clone(),
                3 => held(0.05e-9, s, true),
                _ => held(1.9e-9, s, true),
            })
            .collect();
        for n_steps in [1usize, 63, 64, 65, 129, 193] {
            let duration = n_steps as f64 * dt;
            let mid = (n_steps / 2).max(1);
            for (from, want_start) in [
                (0.0, 0),
                ((mid as f64 - 0.5) * dt, mid),
                ((n_steps as f64 - 0.5) * dt, n_steps),
            ] {
                let cfg = TransientConfig::new(dt, duration).with_warmup(from);
                for loads in [&shared, &mixed] {
                    for width in [1usize, 3, 8, 9] {
                        let loads = &loads[..width];
                        let mut batch = BatchTransientScratch::new();
                        c.transient_batch_scoped(&plan, &cfg, &probes, load, loads, &mut batch)
                            .unwrap();
                        assert_eq!(batch.sched.n_steps, n_steps);
                        assert_eq!(batch.sched.record_start_idx, want_start);
                        for (l, stim) in loads.iter().enumerate() {
                            let mut lane = TransientScratch::new();
                            let sched = c
                                .transient_setup(
                                    &plan,
                                    &cfg,
                                    &probes,
                                    &mut lane,
                                    Some((load.index(), stim)),
                                )
                                .unwrap();
                            let want =
                                literal_steps(&c, &plan, &sched, (load.index(), stim), &mut lane);
                            let got = batch.lane(l);
                            let got: Vec<&Vec<f64>> =
                                got.node_bufs.iter().chain(&got.ind_bufs).collect();
                            assert_eq!(got.len(), want.len());
                            for (p, (g, w)) in got.iter().zip(&want).enumerate() {
                                let bits =
                                    |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                                assert_eq!(
                                    bits(g),
                                    bits(w),
                                    "{n_steps} steps from {want_start}, {width} lanes, lane {l}, probe {p}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn batch_rejects_bad_inputs() {
        let (c, _vin, out, _l, load) = probe_test_circuit();
        let cfg = TransientConfig::new(0.1e-9, 0.1e-6);
        let probes = TransientProbes::none().with_node(out);
        let mut batch = BatchTransientScratch::new();
        let plan = c.plan_transient(cfg.dt).unwrap();
        assert!(c
            .transient_batch_scoped(&plan, &cfg, &probes, load, &[], &mut batch)
            .is_err());
        let foreign = {
            let mut other = Circuit::new();
            let n = other.node("n");
            other
                .current_source(NodeId::GROUND, n, Stimulus::Dc(0.0))
                .unwrap();
            other
                .current_source(NodeId::GROUND, n, Stimulus::Dc(0.0))
                .unwrap()
        };
        assert!(c
            .transient_batch_scoped(
                &plan,
                &cfg,
                &probes,
                foreign,
                &[Stimulus::Dc(0.1)],
                &mut batch
            )
            .is_err());
    }
}
