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
#[derive(Debug, Clone)]
pub struct TransientResult {
    dt: f64,
    t0: f64,
    len: usize,
    node_slots: Vec<usize>,
    ind_slots: Vec<usize>,
    node_voltages: Vec<Vec<f64>>,
    inductor_currents: Vec<Vec<f64>>,
}

impl TransientResult {
    /// Voltage waveform at `node`.
    ///
    /// # Panics
    ///
    /// Panics if the node was not recorded by this analysis.
    pub fn voltage(&self, node: NodeId) -> Trace {
        Trace::with_start(self.dt, self.t0, self.voltage_samples(node).to_vec())
    }

    /// Borrowed voltage samples at `node` — no copy, unlike
    /// [`TransientResult::voltage`].
    ///
    /// # Panics
    ///
    /// Panics if the node was not recorded by this analysis.
    pub fn voltage_samples(&self, node: NodeId) -> &[f64] {
        let slot = self
            .node_slots
            .iter()
            .position(|&i| i == node.index())
            .expect("node was not recorded by this transient analysis");
        &self.node_voltages[slot]
    }

    /// Current waveform through inductor `id` (positive `a -> b`).
    ///
    /// # Panics
    ///
    /// Panics if the inductor was not recorded by this analysis.
    pub fn inductor_current(&self, id: InductorId) -> Trace {
        Trace::with_start(self.dt, self.t0, self.inductor_current_samples(id).to_vec())
    }

    /// Borrowed current samples through inductor `id` — no copy, unlike
    /// [`TransientResult::inductor_current`].
    ///
    /// # Panics
    ///
    /// Panics if the inductor was not recorded by this analysis.
    pub fn inductor_current_samples(&self, id: InductorId) -> &[f64] {
        let slot = self
            .ind_slots
            .iter()
            .position(|&i| i == id.index())
            .expect("inductor was not recorded by this transient analysis");
        &self.inductor_currents[slot]
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
/// buffer is cleared and refilled in place, keeping its capacity. The
/// scratch carries no results of its own; a [`TransientView`] borrows it
/// to expose the recorded samples, which the next run overwrites.
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
    v: Vec<f64>,
    cap_v: Vec<f64>,
    cap_i: Vec<f64>,
    ind_i: Vec<f64>,
    ind_v: Vec<f64>,
    inputs: Vec<f64>,
    /// `[node_a, node_b]` row pairs per capacitor / inductor, the gather
    /// tables the dispatched companion-update kernels index node state
    /// with. Rebuilt each run in the setup (node counts fit `u32` by
    /// construction).
    cap_rows: Vec<[u32; 2]>,
    ind_rows: Vec<[u32; 2]>,
    node_slots: Vec<usize>,
    ind_slots: Vec<usize>,
    node_bufs: Vec<Vec<f64>>,
    ind_bufs: Vec<Vec<f64>>,
    dt: f64,
    t0: f64,
    len: usize,
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

    /// The attached telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }
}

/// Borrowing view over the waveforms recorded by
/// [`Circuit::transient_scoped`].
///
/// The samples live inside the [`TransientScratch`] the run was given;
/// copy out (e.g. via [`TransientView::voltage`]) anything that must
/// outlive the next run reusing that scratch.
#[derive(Debug)]
pub struct TransientView<'a> {
    scratch: &'a TransientScratch,
}

impl TransientView<'_> {
    /// Integration step of the recorded samples.
    pub fn dt(&self) -> f64 {
        self.scratch.dt
    }

    /// Time of the first recorded sample.
    pub fn start_time(&self) -> f64 {
        self.scratch.t0
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.scratch.len
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.scratch.len == 0
    }

    /// Borrowed voltage samples at `node`.
    ///
    /// # Panics
    ///
    /// Panics if the node was not probed by this run.
    pub fn voltage_samples(&self, node: NodeId) -> &[f64] {
        let slot = self
            .scratch
            .node_slots
            .iter()
            .position(|&i| i == node.index())
            .expect("node was not probed by this transient run");
        &self.scratch.node_bufs[slot]
    }

    /// Borrowed current samples through inductor `id` (positive `a -> b`).
    ///
    /// # Panics
    ///
    /// Panics if the inductor was not probed by this run.
    pub fn inductor_current_samples(&self, id: InductorId) -> &[f64] {
        let slot = self
            .scratch
            .ind_slots
            .iter()
            .position(|&i| i == id.index())
            .expect("inductor was not probed by this transient run");
        &self.scratch.ind_bufs[slot]
    }

    /// Owned voltage trace at `node` (copies the samples out of the
    /// scratch).
    ///
    /// # Panics
    ///
    /// Panics if the node was not probed by this run.
    pub fn voltage(&self, node: NodeId) -> Trace {
        Trace::with_start(
            self.scratch.dt,
            self.scratch.t0,
            self.voltage_samples(node).to_vec(),
        )
    }

    /// Owned current trace through inductor `id` (copies the samples out
    /// of the scratch).
    ///
    /// # Panics
    ///
    /// Panics if the inductor was not probed by this run.
    pub fn inductor_current(&self, id: InductorId) -> Trace {
        Trace::with_start(
            self.scratch.dt,
            self.scratch.t0,
            self.inductor_current_samples(id).to_vec(),
        )
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
    /// [`KernelChoice::StateSpace`] embeds the precomputed state-update
    /// kernel (same math, different summation order — see DESIGN.md §9).
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

    /// Like [`Circuit::plan_transient`], additionally charging the two LU
    /// factorizations it performs (transient system matrix + DC operating
    /// point) to `telemetry`.
    ///
    /// # Errors
    ///
    /// Returns an error for a non-positive step or an ill-posed netlist
    /// (singular MNA matrix).
    pub fn plan_transient_with(&self, dt: f64, telemetry: &Telemetry) -> Result<TransientPlan> {
        self.plan_transient_kernel_with(dt, KernelChoice::default(), telemetry)
    }

    /// Like [`Circuit::plan_transient_kernel`], additionally charging the
    /// two LU factorizations it performs to `telemetry`.
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
        self.transient_into(plan, config, &TransientProbes::all(), &mut scratch)?;
        Ok(TransientResult {
            dt: scratch.dt,
            t0: scratch.t0,
            len: scratch.len,
            node_slots: scratch.node_slots,
            ind_slots: scratch.ind_slots,
            node_voltages: scratch.node_bufs,
            inductor_currents: scratch.ind_bufs,
        })
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
    ) -> Result<TransientView<'s>> {
        self.transient_into(plan, config, probes, scratch)?;
        Ok(TransientView { scratch })
    }

    /// The transient engine: integrates into `scratch`, reusing every
    /// buffer it holds. All public single-stimulus transient entry points
    /// funnel here; the batched path shares the same setup and step
    /// bodies via [`Circuit::transient_setup`] and
    /// [`Circuit::state_space_step`].
    fn transient_into(
        &self,
        plan: &TransientPlan,
        config: &TransientConfig,
        probes: &TransientProbes,
        scratch: &mut TransientScratch,
    ) -> Result<()> {
        let sched = self.transient_setup(plan, config, probes, scratch, None)?;
        match &plan.state {
            Some(kernel) => {
                for step in 1..=sched.n_steps {
                    self.state_space_step(
                        plan,
                        kernel,
                        step,
                        sched.record_start_idx,
                        None,
                        scratch,
                    );
                }
            }
            None => self.lu_steps(plan, &sched, scratch),
        }
        let recorded = scratch.len;

        let tel = &scratch.telemetry;
        tel.count(CounterId::TransientRuns, 1);
        tel.count(CounterId::SolverSteps, sched.n_steps as u64);
        tel.span(
            "transient_solve",
            Layer::Circuit,
            &[
                ("steps", sched.n_steps as f64),
                ("dim", (plan.n_nodes + plan.n_vs) as f64),
                ("recorded", recorded as f64),
            ],
        );
        emit_probe_waves(scratch, probes, None);

        Ok(())
    }

    /// Steps a population of independent load stimuli through the plan's
    /// state-space kernel together, one scratch lane per stimulus.
    ///
    /// Every lane simulates this circuit with current source `source`
    /// driven by the corresponding entry of `loads` (the netlist itself is
    /// not mutated), advancing all lanes in lock-step so the kernel's
    /// response columns stay hot in cache across the whole batch. Each
    /// lane's arithmetic is exactly the single-run state-space sequence,
    /// so lane `i` is bit-identical to setting `loads[i]` on `source` and
    /// running [`Circuit::transient_scoped`] with the same plan.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid configurations, a plan built for a
    /// different step size or topology, probes that do not belong to this
    /// circuit, an empty `loads`, a `source` outside the circuit, or a
    /// plan without the state-space kernel (built with
    /// [`KernelChoice::Lu`], or [`KernelChoice::Auto`] on a system too
    /// large for it).
    pub fn transient_batch_scoped(
        &self,
        plan: &TransientPlan,
        config: &TransientConfig,
        probes: &TransientProbes,
        source: ISourceId,
        loads: &[Stimulus],
        batch: &mut BatchTransientScratch,
    ) -> Result<()> {
        let kernel = plan
            .state
            .as_ref()
            .ok_or_else(|| CircuitError::InvalidAnalysis {
                reason: format!(
                    "batched transient requires the state-space kernel, but this plan was \
                     built LU-only; rebuild it with KernelChoice::StateSpace (`--kernel \
                     statespace` on the CLI), or with KernelChoice::Auto (`--kernel auto`), \
                     which embeds the state-space kernel only for MNA dimensions <= {}",
                    KernelChoice::AUTO_DIM_LIMIT
                ),
            })?;
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
        let mut sched = StepSchedule {
            n_steps: 0,
            record_start_idx: 0,
        };
        for (lane, load) in batch.lanes.iter_mut().zip(loads) {
            sched =
                self.transient_setup(plan, config, probes, lane, Some((source.index(), load)))?;
        }

        // Lane-major SoA step loop, run in groups of at most eight lanes.
        // Within a group every per-step stage — the input gather
        // (capacitor/inductor histories), the response-column fold, and
        // the element-state update — operates on lane-contiguous rows,
        // so the stages the serial path can only execute as scalar
        // gathers (element node indices are arbitrary) become vector code
        // across lanes. Each group's rows are padded to a whole number of
        // vectors, so a ragged group costs no more than a full one.
        // Lane-invariant stimuli (every source except the swept load) are
        // sampled once per step and broadcast. Per lane the
        // arithmetic sequence is exactly the single-run state-space
        // sequence, so every lane stays bit-identical to
        // `transient_scoped` with that load.
        let BatchTransientScratch {
            lanes,
            lane_inputs,
            lane_state,
            cap_v,
            cap_i,
            ind_v,
            ind_i,
            cap_rows,
            ind_rows,
            ..
        } = batch;
        let mut soa = BatchSoa {
            inputs: lane_inputs,
            state: lane_state,
            cap_v,
            cap_i,
            ind_v,
            ind_i,
            cap_rows,
            ind_rows,
        };
        for (group_loads, group_lanes) in loads
            .chunks(MAX_GROUP_LANES)
            .zip(lanes.chunks_mut(MAX_GROUP_LANES))
        {
            self.batch_group_steps(
                plan,
                kernel,
                &sched,
                source.index(),
                group_loads,
                group_lanes,
                &mut soa,
            );
        }

        let tel = &batch.telemetry;
        tel.count(CounterId::TransientRuns, loads.len() as u64);
        tel.count(CounterId::SolverSteps, (sched.n_steps * loads.len()) as u64);
        tel.span(
            "transient_batch",
            Layer::Circuit,
            &[
                ("steps", sched.n_steps as f64),
                ("lanes", loads.len() as f64),
                ("dim", (plan.n_nodes + plan.n_vs) as f64),
            ],
        );
        if tel.wave_enabled() {
            for (i, lane) in batch.lanes.iter().enumerate() {
                // Lane scratches carry quiet handles; route emission
                // through the batch's own (coordinator) handle.
                emit_probe_waves_with(tel, lane, probes, Some(i));
            }
        }

        Ok(())
    }

    /// Everything that happens before the step loop: validation, probe
    /// resolution, the DC operating-point seed (optionally with one
    /// current source's stimulus overridden for a batch lane), element
    /// state initialization and output-buffer recycling. Shared by the
    /// single and batched paths so their setup arithmetic is identical.
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
        scratch.node_slots.clear();
        match &probes.nodes {
            None => scratch.node_slots.extend(0..self.node_count()),
            Some(list) => {
                for n in list {
                    if n.index() >= self.node_count() {
                        return Err(CircuitError::InvalidAnalysis {
                            reason: format!("probed node {} outside circuit", n.index()),
                        });
                    }
                    scratch.node_slots.push(n.index());
                }
            }
        }
        scratch.ind_slots.clear();
        match &probes.inductors {
            None => scratch.ind_slots.extend(0..self.inductors.len()),
            Some(list) => {
                for id in list {
                    if id.index() >= self.inductors.len() {
                        return Err(CircuitError::InvalidAnalysis {
                            reason: format!("probed inductor {} outside circuit", id.index()),
                        });
                    }
                    scratch.ind_slots.push(id.index());
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

        resize_zeroed(&mut scratch.v, self.node_count());
        scratch.v[1..=n_nodes].copy_from_slice(&scratch.dc_x[..n_nodes]);
        scratch.ind_i.clear();
        scratch
            .ind_i
            .extend_from_slice(&scratch.dc_x[n_nodes + n_vs..]);

        // Node-row tables for the dispatched companion-update kernels.
        scratch.cap_rows.clear();
        scratch
            .cap_rows
            .extend(self.capacitors.iter().map(|c| [c.a as u32, c.b as u32]));
        scratch.ind_rows.clear();
        scratch
            .ind_rows
            .extend(self.inductors.iter().map(|l| [l.a as u32, l.b as u32]));

        let TransientScratch {
            b,
            x,
            v,
            cap_v,
            cap_i,
            ind_i,
            ind_v,
            inputs,
            node_slots,
            ind_slots,
            node_bufs,
            ind_bufs,
            dt,
            t0,
            len,
            ..
        } = scratch;

        // Capacitor state: (voltage across, current through).
        cap_v.clear();
        cap_v.extend(self.capacitors.iter().map(|c| v[c.a] - v[c.b]));
        resize_zeroed(cap_i, self.capacitors.len());
        resize_zeroed(ind_v, self.inductors.len());
        resize_zeroed(b, dim);
        resize_zeroed(x, dim);
        resize_zeroed(inputs, plan.state.as_ref().map_or(0, |k| k.n_inputs()));

        let n_steps = (config.duration / h).round() as usize;
        let record_start_idx = (config.record_from / h).ceil() as usize;
        let capacity = n_steps.saturating_sub(record_start_idx) + 1;

        // Recycle output buffers: the outer list is resized to the probe
        // count; inner sample buffers keep their capacity across runs.
        node_bufs.resize_with(node_slots.len(), Vec::new);
        for buf in node_bufs.iter_mut() {
            buf.clear();
            buf.reserve(capacity);
        }
        ind_bufs.resize_with(ind_slots.len(), Vec::new);
        for buf in ind_bufs.iter_mut() {
            buf.clear();
            buf.reserve(capacity);
        }

        *dt = h;
        *t0 = record_start_idx as f64 * h;
        *len = 0;

        if record_start_idx == 0 {
            record_into(v, ind_i, node_slots, ind_slots, node_bufs, ind_bufs);
            *len += 1;
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
    fn lu_steps(&self, plan: &TransientPlan, sched: &StepSchedule, scratch: &mut TransientScratch) {
        let h = plan.dt;
        let n_nodes = plan.n_nodes;
        let row = |node: usize| -> Option<usize> { node.checked_sub(1) };
        let lu = &plan.lu;
        let cap_g = &plan.cap_g;
        let ind_g = &plan.ind_g;
        let TransientScratch {
            b,
            x,
            v,
            cap_v,
            cap_i,
            ind_i,
            ind_v,
            node_slots,
            ind_slots,
            node_bufs,
            ind_bufs,
            len,
            ..
        } = scratch;

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
            for is in &self.isources {
                let i = is.stimulus.value_at(t_next);
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
                record_into(v, ind_i, node_slots, ind_slots, node_bufs, ind_bufs);
                *len += 1;
            }
        }
    }

    /// One state-space step for one lane: gather the input scalars in the
    /// kernel's fixed order (capacitor histories, inductor histories,
    /// current sources, voltage sources), fold them through the
    /// precomputed response columns, then run the same element-state
    /// update and recording as the LU path. Used by both the single-run
    /// and batched paths, so a batch lane and a single run execute the
    /// identical arithmetic sequence.
    fn state_space_step(
        &self,
        plan: &TransientPlan,
        kernel: &StateKernel,
        step: usize,
        record_start_idx: usize,
        load_override: Option<(usize, &Stimulus)>,
        scratch: &mut TransientScratch,
    ) {
        let h = plan.dt;
        let t_next = step as f64 * h;
        let n_nodes = plan.n_nodes;
        let cap_g = &plan.cap_g;
        let ind_g = &plan.ind_g;
        let TransientScratch {
            x,
            v,
            cap_v,
            cap_i,
            ind_i,
            ind_v,
            inputs,
            cap_rows,
            ind_rows,
            node_slots,
            ind_slots,
            node_bufs,
            ind_bufs,
            len,
            ..
        } = scratch;

        // History gathers on the dispatched SIMD level (`lanes == 1`
        // vectorizes across the element dimension); fused `mul_add`
        // arithmetic at every level, bit-identical across levels.
        let lv = emvolt_simd::level();
        let nc = cap_g.len();
        let nl = ind_g.len();
        lv.gather_hist(cap_g, cap_v, cap_i, 1, &mut inputs[..nc]);
        lv.gather_hist(ind_g, ind_v, ind_i, 1, &mut inputs[nc..nc + nl]);
        let mut j = nc + nl;
        for (si, is) in self.isources.iter().enumerate() {
            let stim = match load_override {
                Some((idx, s)) if idx == si => s,
                _ => &is.stimulus,
            };
            inputs[j] = stim.value_at(t_next);
            j += 1;
        }
        for vs in &self.vsources {
            inputs[j] = vs.stimulus.value_at(t_next);
            j += 1;
        }
        debug_assert_eq!(j, inputs.len());

        kernel.fold(inputs, &mut x[..n_nodes]);
        v[1..=n_nodes].copy_from_slice(&x[..n_nodes]);

        // Companion updates on the dispatched level — the fused form of
        // the LU path's trapezoidal update (`v` row 0 is ground, zero).
        lv.cap_updates(cap_g, cap_rows, v, 1, cap_v, cap_i);
        lv.ind_updates(ind_g, ind_rows, v, 1, ind_v, ind_i);

        if step >= record_start_idx {
            record_into(v, ind_i, node_slots, ind_slots, node_bufs, ind_bufs);
            *len += 1;
        }
    }

    /// The batched step loop for one lane group. Element state lives in
    /// lane-contiguous SoA rows of `padded` lanes (`buf[k*padded + l]`
    /// is lane `l`'s value for element `k`), so the history gather and
    /// the post-fold element update become vector
    /// loops over the lane dimension — the serial path can only do them
    /// as scalar chains, because element node indices are arbitrary
    /// gathers there. Node voltages live in the node-major
    /// `[node_count x padded]` state (row 0 = ground, always zero) that
    /// [`StateKernel::fold_lanes`] writes, and recording reads the lane
    /// columns straight out of those rows in [`record_into`]'s order.
    /// Lane state is packed from / unpacked to each lane's
    /// [`TransientScratch`] around the loop, so a finished lane's
    /// scratch is indistinguishable from a serial run's.
    ///
    /// `padded` is the group's lane count rounded up to the dispatched
    /// vector width, so every kernel call runs whole vectors and no
    /// scalar tail. Each padding lane replays lane 0 — its state and its
    /// load — and is never unpacked or recorded; lanes are independent,
    /// so the padding cannot change a real lane's bits.
    #[allow(clippy::too_many_arguments)]
    fn batch_group_steps(
        &self,
        plan: &TransientPlan,
        kernel: &StateKernel,
        sched: &StepSchedule,
        source_idx: usize,
        loads: &[Stimulus],
        lanes: &mut [TransientScratch],
        soa: &mut BatchSoa<'_>,
    ) {
        let width = loads.len();
        debug_assert!(width <= MAX_GROUP_LANES);
        debug_assert_eq!(lanes.len(), width);
        let lv = emvolt_simd::level();
        let padded = width.next_multiple_of(lv.vector_f64s());
        let h = plan.dt;
        let n_rows = self.node_count();
        debug_assert_eq!(n_rows, plan.n_nodes + 1);
        let cap_g = &plan.cap_g;
        let ind_g = &plan.ind_g;
        let n_inputs = kernel.n_inputs();
        let group_loads = GroupLoads::new(loads);

        resize_zeroed(soa.inputs, n_inputs * padded);
        resize_zeroed(soa.state, n_rows * padded);
        resize_zeroed(soa.cap_v, self.capacitors.len() * padded);
        resize_zeroed(soa.cap_i, self.capacitors.len() * padded);
        resize_zeroed(soa.ind_v, self.inductors.len() * padded);
        resize_zeroed(soa.ind_i, self.inductors.len() * padded);
        soa.cap_rows.clear();
        soa.cap_rows
            .extend(self.capacitors.iter().map(|c| [c.a as u32, c.b as u32]));
        soa.ind_rows.clear();
        soa.ind_rows
            .extend(self.inductors.iter().map(|l| [l.a as u32, l.b as u32]));

        // Pack the setup-seeded lane state into the SoA rows, padding
        // lanes from lane 0. The ground row comes from `v[0]`, which is
        // zero by construction.
        for l in 0..padded {
            let lane = &lanes[if l < width { l } else { 0 }];
            for (i, &vi) in lane.v.iter().enumerate() {
                soa.state[i * padded + l] = vi;
            }
            for (k, &x) in lane.cap_v.iter().enumerate() {
                soa.cap_v[k * padded + l] = x;
            }
            for (k, &x) in lane.cap_i.iter().enumerate() {
                soa.cap_i[k * padded + l] = x;
            }
            for (k, &x) in lane.ind_v.iter().enumerate() {
                soa.ind_v[k * padded + l] = x;
            }
            for (k, &x) in lane.ind_i.iter().enumerate() {
                soa.ind_i[k * padded + l] = x;
            }
        }

        for step in 1..=sched.n_steps {
            let t_next = step as f64 * h;

            // Input gather: one lane row per kernel input, in the
            // kernel's fixed order (same as `state_space_step`), on the
            // dispatched SIMD level vectorized across the lane rows.
            let nc = cap_g.len();
            let nl = ind_g.len();
            lv.gather_hist(
                cap_g,
                soa.cap_v,
                soa.cap_i,
                padded,
                &mut soa.inputs[..nc * padded],
            );
            lv.gather_hist(
                ind_g,
                soa.ind_v,
                soa.ind_i,
                padded,
                &mut soa.inputs[nc * padded..(nc + nl) * padded],
            );
            let mut j = nc + nl;
            for (si, is) in self.isources.iter().enumerate() {
                let out = &mut soa.inputs[j * padded..(j + 1) * padded];
                if si == source_idx {
                    group_loads.sample(t_next, &mut out[..width]);
                    let lane0 = out[0];
                    out[width..].fill(lane0);
                } else {
                    // Lane-invariant source: sample once, broadcast.
                    out.fill(is.stimulus.value_at(t_next));
                }
                j += 1;
            }
            for vs in &self.vsources {
                soa.inputs[j * padded..(j + 1) * padded].fill(vs.stimulus.value_at(t_next));
                j += 1;
            }
            debug_assert_eq!(j, n_inputs);

            kernel.fold_lanes(soa.inputs, padded, &mut soa.state[padded..]);

            // Element-state update: per lane the same arithmetic as the
            // serial kernel path, vectorized across the lane rows.
            lv.cap_updates(cap_g, soa.cap_rows, soa.state, padded, soa.cap_v, soa.cap_i);
            lv.ind_updates(ind_g, soa.ind_rows, soa.state, padded, soa.ind_v, soa.ind_i);

            if step >= sched.record_start_idx {
                // Same per-lane push order as `record_into`, reading the
                // lane columns of the SoA state.
                for (l, lane) in lanes.iter_mut().enumerate() {
                    for (buf, &idx) in lane.node_bufs.iter_mut().zip(&lane.node_slots) {
                        buf.push(soa.state[idx * padded + l]);
                    }
                    for (buf, &idx) in lane.ind_bufs.iter_mut().zip(&lane.ind_slots) {
                        buf.push(soa.ind_i[idx * padded + l]);
                    }
                    lane.len += 1;
                }
            }
        }

        // Unpack so each lane's scratch ends exactly as a serial run's.
        for (l, lane) in lanes.iter_mut().enumerate() {
            for (i, vi) in lane.v.iter_mut().enumerate() {
                *vi = soa.state[i * padded + l];
            }
            for (k, x) in lane.cap_v.iter_mut().enumerate() {
                *x = soa.cap_v[k * padded + l];
            }
            for (k, x) in lane.cap_i.iter_mut().enumerate() {
                *x = soa.cap_i[k * padded + l];
            }
            for (k, x) in lane.ind_v.iter_mut().enumerate() {
                *x = soa.ind_v[k * padded + l];
            }
            for (k, x) in lane.ind_i.iter_mut().enumerate() {
                *x = soa.ind_i[k * padded + l];
            }
        }
    }
}

/// Widest lane group [`Circuit::transient_batch_scoped`] steps together:
/// two 4-wide vectors per SoA row, the same budget as
/// `emvolt_simd::preferred_lanes` on AVX2.
const MAX_GROUP_LANES: usize = 8;

/// How one lane group samples its swept loads each step.
enum GroupLoads<'a> {
    /// Every load is a [`Stimulus::Samples`] trace with the same `dt`
    /// bits, so one `floor(t / dt)` per step indexes every lane's trace.
    /// Each lane reads exactly the value [`Stimulus::value_at`] would.
    Shared {
        dt: f64,
        traces: [(&'a [f64], bool); MAX_GROUP_LANES],
    },
    /// Any other mix: every lane evaluates its own stimulus.
    Each(&'a [Stimulus]),
}

impl<'a> GroupLoads<'a> {
    fn new(loads: &'a [Stimulus]) -> Self {
        let Some(Stimulus::Samples { dt, .. }) = loads.first() else {
            return GroupLoads::Each(loads);
        };
        let mut traces: [(&[f64], bool); MAX_GROUP_LANES] = [(&[], false); MAX_GROUP_LANES];
        for (slot, load) in traces.iter_mut().zip(loads) {
            match load {
                Stimulus::Samples {
                    dt: d,
                    values,
                    repeat,
                } if d.to_bits() == dt.to_bits() => *slot = (values, *repeat),
                _ => return GroupLoads::Each(loads),
            }
        }
        GroupLoads::Shared { dt: *dt, traces }
    }

    /// Writes every lane's load value at time `t` into `out`.
    #[inline]
    fn sample(&self, t: f64, out: &mut [f64]) {
        match self {
            GroupLoads::Shared { dt, traces } => {
                let idx = sample_index(*dt, t);
                for (o, &(values, repeat)) in out.iter_mut().zip(traces) {
                    *o = held_sample(values, repeat, idx);
                }
            }
            GroupLoads::Each(loads) => {
                for (o, load) in out.iter_mut().zip(*loads) {
                    *o = load.value_at(t);
                }
            }
        }
    }
}

/// How many steps a run takes and from which step recording starts —
/// computed once in the setup and shared by every step path.
#[derive(Debug, Clone, Copy)]
struct StepSchedule {
    n_steps: usize,
    record_start_idx: usize,
}

/// Pushes the probed node voltages and inductor currents for one step.
fn record_into(
    v: &[f64],
    ind_i: &[f64],
    node_slots: &[usize],
    ind_slots: &[usize],
    node_bufs: &mut [Vec<f64>],
    ind_bufs: &mut [Vec<f64>],
) {
    for (buf, &idx) in node_bufs.iter_mut().zip(node_slots) {
        buf.push(v[idx]);
    }
    for (buf, &idx) in ind_bufs.iter_mut().zip(ind_slots) {
        buf.push(ind_i[idx]);
    }
}

/// Per-lane working memory for [`Circuit::transient_batch_scoped`]: one
/// [`TransientScratch`] per population member, recycled across batches
/// exactly like a single scratch is recycled across runs.
///
/// After a batch run, [`BatchTransientScratch::lane`] exposes each lane's
/// recorded waveforms as a [`TransientView`]; the next batch through the
/// same scratch overwrites them.
#[derive(Debug, Clone, Default)]
pub struct BatchTransientScratch {
    lanes: Vec<TransientScratch>,
    /// Input-major `[n_inputs x L]` gather buffer for the SoA step loop:
    /// `lane_inputs[j*L + l]` is lane `l`'s weight for response column
    /// `j`. Recycled across batches like every other scratch buffer.
    lane_inputs: Vec<f64>,
    /// Node-major `[node_count x L]` solved state: `lane_state[i*L + l]`
    /// is lane `l`'s voltage at node `i`, with row 0 the ground row
    /// (always zero) so probe slots index it exactly like a serial
    /// scratch's `v`.
    lane_state: Vec<f64>,
    /// SoA element state for the group step loop, `[n_elems x L]` each:
    /// `cap_v[k*L + l]` is lane `l`'s voltage across capacitor `k`, and
    /// likewise for the capacitor currents and inductor state. Packed
    /// from / unpacked to the per-lane scratches around the step loop.
    cap_v: Vec<f64>,
    cap_i: Vec<f64>,
    ind_v: Vec<f64>,
    ind_i: Vec<f64>,
    /// `[node_a, node_b]` row pairs per element for the dispatched
    /// companion-update kernels; rebuilt per batch group.
    cap_rows: Vec<[u32; 2]>,
    ind_rows: Vec<[u32; 2]>,
    telemetry: Telemetry,
}

/// Emits the probed waveforms a finished run left in `scratch` through
/// its attached telemetry handle's wave sink — the `transient_scoped` /
/// state-kernel emission site. Runs entirely *after* the step loop, from
/// the already-recorded buffers, so solver arithmetic (and its SIMD
/// dispatch) stays byte-identical whether or not tracing is on; with
/// tracing off this is one branch.
fn emit_probe_waves(scratch: &TransientScratch, probes: &TransientProbes, lane: Option<usize>) {
    emit_probe_waves_with(&scratch.telemetry, scratch, probes, lane);
}

/// [`emit_probe_waves`] routed through an explicit handle: the lane-major
/// batch path reports every lane through the batch scratch's coordinator
/// handle (lane scratches hold quiet clones). `lane` suffixes signal
/// names (`pdn.v_die.lane3`) so lanes stay distinct.
fn emit_probe_waves_with(
    telemetry: &Telemetry,
    scratch: &TransientScratch,
    probes: &TransientProbes,
    lane: Option<usize>,
) {
    if !telemetry.wave_enabled() || scratch.len == 0 {
        return;
    }
    let stride = telemetry.wave_stride();
    let suffixed = |base: &str| match lane {
        Some(i) => format!("{base}.lane{i}"),
        None => base.to_string(),
    };
    let emit = |name: String, samples: &[f64]| {
        let id = telemetry.wave_register(&name, WaveKind::Real);
        for (k, &v) in samples.iter().step_by(stride).enumerate() {
            let t = scratch.t0 + (k * stride) as f64 * scratch.dt;
            telemetry.wave_real(id, t, v);
        }
    };
    for (slot, &node) in scratch.node_slots.iter().enumerate() {
        let base = match probes.node_label(node) {
            Some(label) => label.to_string(),
            None => format!("circuit.n{node}.v"),
        };
        emit(suffixed(&base), &scratch.node_bufs[slot]);
    }
    for (slot, &ind) in scratch.ind_slots.iter().enumerate() {
        let base = match probes.ind_label(ind) {
            Some(label) => label.to_string(),
            None => format!("circuit.l{ind}.i"),
        };
        emit(suffixed(&base), &scratch.ind_bufs[slot]);
    }
}

/// Borrow-split view over the SoA buffers of a
/// [`BatchTransientScratch`], so the group driver can hand them to the
/// monomorphized step body while the per-lane scratches stay
/// independently borrowed.
struct BatchSoa<'a> {
    inputs: &'a mut Vec<f64>,
    state: &'a mut Vec<f64>,
    cap_v: &'a mut Vec<f64>,
    cap_i: &'a mut Vec<f64>,
    ind_v: &'a mut Vec<f64>,
    ind_i: &'a mut Vec<f64>,
    cap_rows: &'a mut Vec<[u32; 2]>,
    ind_rows: &'a mut Vec<[u32; 2]>,
}

impl BatchTransientScratch {
    /// Creates an empty batch scratch; lanes are created on first use and
    /// reused afterwards.
    pub fn new() -> Self {
        BatchTransientScratch::default()
    }

    /// Attaches a telemetry handle; every batch through this scratch then
    /// charges solver counters and (for emitting handles) a
    /// `transient_batch` span. The default handle is inert.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
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
    pub fn lane(&self, i: usize) -> TransientView<'_> {
        TransientView {
            scratch: &self.lanes[i],
        }
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

    /// The lane-major batched path reports every lane's probed waveforms
    /// through the batch handle, suffixed per lane.
    #[test]
    fn batched_run_emits_lane_suffixed_waveforms() {
        use emvolt_obs::{NoopRecorder, WaveDb};
        use std::sync::Arc;

        let (c, _vin, out, l, load) = probe_test_circuit();
        let cfg = TransientConfig::new(0.1e-9, 0.05e-6);
        let plan = c.plan_transient(cfg.dt).unwrap();
        let probes = TransientProbes::none()
            .with_node_labeled(out, "pdn.v_die")
            .with_inductor_labeled(l, "pdn.i_pkg");
        let db = Arc::new(WaveDb::new());
        let tel = Telemetry::with_waves(Arc::new(NoopRecorder), db.clone());
        let mut batch = BatchTransientScratch::new();
        batch.set_telemetry(tel);
        let loads = [Stimulus::Dc(0.1), Stimulus::Dc(0.4), Stimulus::Dc(0.9)];
        c.transient_batch_scoped(&plan, &cfg, &probes, load, &loads, &mut batch)
            .unwrap();
        assert_eq!(db.signal_count(), 6);
        let vcd = db.to_vcd_string();
        for lane in 0..3 {
            assert!(vcd.contains(&format!("lane{lane}")), "{vcd}");
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
        assert!(c
            .plan_transient_kernel(1e-9, KernelChoice::StateSpace)
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
        let ss_plan = c
            .plan_transient_kernel(cfg.dt, KernelChoice::StateSpace)
            .unwrap();
        let probes = TransientProbes::none().with_node(out).with_inductor(l);
        let mut s_lu = TransientScratch::new();
        let mut s_ss = TransientScratch::new();
        c.transient_scoped(&lu_plan, &cfg, &probes, &mut s_lu)
            .unwrap();
        let reference: Vec<f64> = {
            let view = TransientView { scratch: &s_lu };
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

    /// A batch lane must reproduce the single-run state-space path
    /// bit-for-bit: same kernel, same per-lane arithmetic sequence.
    #[test]
    fn batch_lanes_match_single_runs_bit_for_bit() {
        let (mut c, _vin, out, l, load) = probe_test_circuit();
        let cfg = TransientConfig::new(0.1e-9, 0.5e-6).with_warmup(0.1e-6);
        let plan = c
            .plan_transient_kernel(cfg.dt, KernelChoice::StateSpace)
            .unwrap();
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
                assert_eq!(a.to_bits(), b.to_bits(), "lane {i} voltage diverged");
            }
            for (a, b) in view
                .inductor_current_samples(l)
                .iter()
                .zip(lane.inductor_current_samples(l))
            {
                assert_eq!(a.to_bits(), b.to_bits(), "lane {i} current diverged");
            }
        }
    }

    #[test]
    fn batch_rejects_lu_plans_and_bad_inputs() {
        let (c, _vin, out, _l, load) = probe_test_circuit();
        let cfg = TransientConfig::new(0.1e-9, 0.1e-6);
        let probes = TransientProbes::none().with_node(out);
        let mut batch = BatchTransientScratch::new();
        let lu_plan = c.plan_transient_kernel(cfg.dt, KernelChoice::Lu).unwrap();
        assert!(c
            .transient_batch_scoped(
                &lu_plan,
                &cfg,
                &probes,
                load,
                &[Stimulus::Dc(0.1)],
                &mut batch
            )
            .is_err());
        let plan = c.plan_transient(cfg.dt).unwrap();
        assert!(c
            .transient_batch_scoped(&plan, &cfg, &probes, load, &[], &mut batch)
            .is_err());
    }

    /// The LU-only batch error must tell the user how to fix it: the
    /// `--kernel` CLI flag and the Auto dimension threshold.
    #[test]
    fn lu_only_batch_error_names_the_kernel_flag_and_auto_limit() {
        let (c, _vin, out, _l, load) = probe_test_circuit();
        let cfg = TransientConfig::new(0.1e-9, 0.1e-6);
        let probes = TransientProbes::none().with_node(out);
        let mut batch = BatchTransientScratch::new();
        let lu_plan = c.plan_transient_kernel(cfg.dt, KernelChoice::Lu).unwrap();
        let err = c
            .transient_batch_scoped(
                &lu_plan,
                &cfg,
                &probes,
                load,
                &[Stimulus::Dc(0.1)],
                &mut batch,
            )
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("--kernel"), "missing CLI flag hint: {msg}");
        assert!(msg.contains("statespace"), "missing kernel name: {msg}");
        assert!(
            msg.contains(&KernelChoice::AUTO_DIM_LIMIT.to_string()),
            "missing Auto dimension threshold: {msg}"
        );
    }
}
