//! Builds the Fig. 1(a) netlist and runs its analyses.

use crate::params::PdnParams;
use emvolt_circuit::{
    BatchTransientScratch, Circuit, Complex, ISourceId, InductorId, KernelChoice, NodeId, Result,
    Stimulus, Trace, TransientConfig, TransientPlan, TransientProbes, TransientResult,
    TransientScratch,
};

/// Borrowed view of one probe-scoped PDN transient: the die-node voltage
/// and package-inductor current samples, alive until the owning
/// [`TransientScratch`] is reused.
#[derive(Debug)]
pub struct DieTransient<'a> {
    view: &'a TransientResult,
    die_node: NodeId,
    l_pkg_id: InductorId,
}

impl DieTransient<'_> {
    /// Sample spacing in seconds.
    pub fn dt(&self) -> f64 {
        self.view.dt()
    }

    /// Time of the first recorded sample.
    pub fn start_time(&self) -> f64 {
        self.view.start_time()
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.view.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.view.is_empty()
    }

    /// Die-node voltage samples (V_DIE).
    pub fn v_die(&self) -> &[f64] {
        self.view.voltage_samples(self.die_node)
    }

    /// Package-inductor current samples (I_DIE, Fig. 2).
    pub fn i_die(&self) -> &[f64] {
        self.view.inductor_current_samples(self.l_pkg_id)
    }
}

/// A concrete power-delivery network instance: the Fig. 1(a) netlist plus
/// handles to the die node, the load source and the package inductor
/// (whose current is the paper's I_DIE).
#[derive(Debug, Clone)]
pub struct Pdn {
    params: PdnParams,
    active_cores: usize,
    circuit: Circuit,
    die_node: NodeId,
    load: ISourceId,
    /// Optional second current source for external stimuli (the SCL block
    /// injects here so workload and SCL excitations can coexist).
    aux: ISourceId,
    l_pkg_id: InductorId,
    /// Cached die-scoped probe selection so the hot path never rebuilds it.
    die_probes: TransientProbes,
}

impl Pdn {
    /// Builds the network with `active_cores` powered up.
    ///
    /// # Panics
    ///
    /// Panics if `active_cores` is outside the die model's range (the
    /// netlist construction itself cannot fail for valid parameters).
    pub fn new(params: PdnParams, active_cores: usize) -> Self {
        let c_die = params.die_capacitance.effective(active_cores);
        let mut c = Circuit::new();
        let n_pcb = c.node("pcb");
        let n_pkg = c.node("pkg");
        let n_die = c.node("die");
        let n_vrm = c.node("vrm");

        // Regulator: ideal source behind its output impedance.
        c.voltage_source(n_vrm, NodeId::GROUND, Stimulus::Dc(params.v_nominal))
            .expect("valid nodes");
        let vrm_mid = c.node("vrm_mid");
        c.resistor(n_vrm, vrm_mid, params.r_vrm)
            .expect("valid r_vrm");
        c.inductor(vrm_mid, n_pcb, params.l_vrm)
            .expect("valid l_vrm");

        // Bulk PCB decap with parasitics.
        let pcb_c1 = c.node("pcb_c1");
        let pcb_c2 = c.node("pcb_c2");
        c.capacitor(n_pcb, pcb_c1, params.c_pcb)
            .expect("valid c_pcb");
        c.resistor(pcb_c1, pcb_c2, params.esr_pcb)
            .expect("valid esr_pcb");
        c.inductor(pcb_c2, NodeId::GROUND, params.esl_pcb)
            .expect("valid esl_pcb");

        // PCB plane to package.
        let pcb_mid = c.node("pcb_mid");
        c.resistor(n_pcb, pcb_mid, params.r_pcb)
            .expect("valid r_pcb");
        c.inductor(pcb_mid, n_pkg, params.l_pcb)
            .expect("valid l_pcb");

        // Package decap with parasitics.
        let pkg_c1 = c.node("pkg_c1");
        let pkg_c2 = c.node("pkg_c2");
        c.capacitor(n_pkg, pkg_c1, params.c_pkg)
            .expect("valid c_pkg");
        c.resistor(pkg_c1, pkg_c2, params.esr_pkg)
            .expect("valid esr_pkg");
        c.inductor(pkg_c2, NodeId::GROUND, params.esl_pkg)
            .expect("valid esl_pkg");

        // Package to die: the first-order tank inductance.
        let pkg_mid = c.node("pkg_mid");
        c.resistor(n_pkg, pkg_mid, params.r_pkg)
            .expect("valid r_pkg");
        let l_pkg_id = c
            .inductor(pkg_mid, n_die, params.l_pkg)
            .expect("valid l_pkg");

        // Die capacitance with grid resistance.
        let die_c = c.node("die_c");
        c.resistor(n_die, die_c, params.r_die).expect("valid r_die");
        c.capacitor(die_c, NodeId::GROUND, c_die)
            .expect("valid c_die");

        // Load and auxiliary stimulus ports.
        let load = c
            .current_source(n_die, NodeId::GROUND, Stimulus::Dc(0.0))
            .expect("valid load port");
        let aux = c
            .current_source(n_die, NodeId::GROUND, Stimulus::Dc(0.0))
            .expect("valid aux port");

        Pdn {
            params,
            active_cores,
            circuit: c,
            die_node: n_die,
            load,
            aux,
            l_pkg_id,
            die_probes: TransientProbes::none()
                .with_node_labeled(n_die, "pdn.v_die")
                .with_inductor_labeled(l_pkg_id, "pdn.i_pkg"),
        }
    }

    /// The parameter set this network was built from.
    pub fn params(&self) -> &PdnParams {
        &self.params
    }

    /// Number of powered cores the die capacitance reflects.
    pub fn active_cores(&self) -> usize {
        self.active_cores
    }

    /// Nominal supply voltage.
    pub fn v_nominal(&self) -> f64 {
        self.params.v_nominal
    }

    /// Sets the CPU load-current waveform (I_LOAD in the paper).
    pub fn set_load(&mut self, stimulus: Stimulus) {
        self.circuit.set_current_stimulus(self.load, stimulus);
    }

    /// Sets the auxiliary stimulus waveform (used by the SCL block).
    pub fn set_aux(&mut self, stimulus: Stimulus) {
        self.circuit.set_current_stimulus(self.aux, stimulus);
    }

    /// Impedance seen by the die across `freqs` (Fig. 1(b)).
    ///
    /// # Errors
    ///
    /// Propagates circuit-analysis errors.
    pub fn impedance_sweep(&self, freqs: &[f64]) -> Result<Vec<(f64, Complex)>> {
        self.circuit.driving_point_impedance(self.load, freqs)
    }

    /// Transient response; returns `(v_die, i_die)` traces, where I_DIE is
    /// the current through the package inductance as in Fig. 2.
    ///
    /// # Errors
    ///
    /// Propagates circuit-analysis errors.
    pub fn transient(&self, config: &TransientConfig) -> Result<(Trace, Trace)> {
        let res = self.circuit.transient(config)?;
        Ok((
            res.voltage(self.die_node),
            res.inductor_current(self.l_pkg_id),
        ))
    }

    /// Builds a reusable [`TransientPlan`] for this network at step `dt`.
    ///
    /// The plan stays valid across [`Pdn::set_load`] and [`Pdn::set_aux`]
    /// — those only change stimulus waveforms, which enter through the
    /// right-hand side, not the system matrix.
    ///
    /// # Errors
    ///
    /// Propagates circuit-analysis errors.
    pub fn plan_transient(&self, dt: f64) -> Result<TransientPlan> {
        self.circuit.plan_transient(dt)
    }

    /// Like [`Pdn::plan_transient`] with an explicit solver-kernel
    /// selection (LU back-substitution vs the precomputed state-space
    /// form).
    ///
    /// # Errors
    ///
    /// Propagates circuit-analysis errors.
    pub fn plan_transient_kernel(&self, dt: f64, kernel: KernelChoice) -> Result<TransientPlan> {
        self.circuit.plan_transient_kernel(dt, kernel)
    }

    /// Like [`Pdn::plan_transient_kernel`], additionally charging the LU
    /// factorizations to `telemetry`.
    ///
    /// # Errors
    ///
    /// Propagates circuit-analysis errors.
    pub fn plan_transient_kernel_with(
        &self,
        dt: f64,
        kernel: KernelChoice,
        telemetry: &emvolt_obs::Telemetry,
    ) -> Result<TransientPlan> {
        self.circuit
            .plan_transient_kernel_with(dt, kernel, telemetry)
    }

    /// Transient response reusing a prebuilt plan (skips netlist stamping
    /// and LU refactorization); returns `(v_die, i_die)` like
    /// [`Pdn::transient`].
    ///
    /// # Errors
    ///
    /// Propagates circuit-analysis errors.
    pub fn transient_with_plan(
        &self,
        plan: &TransientPlan,
        config: &TransientConfig,
    ) -> Result<(Trace, Trace)> {
        let res = self.circuit.transient_with_plan(plan, config)?;
        Ok((
            res.voltage(self.die_node),
            res.inductor_current(self.l_pkg_id),
        ))
    }

    /// Allocation-free transient: reuses a prebuilt plan and a
    /// caller-owned scratch, recording only V_DIE and I_DIE. Samples are
    /// bit-identical to [`Pdn::transient_with_plan`].
    ///
    /// # Errors
    ///
    /// Propagates circuit-analysis errors.
    pub fn transient_scoped<'s>(
        &self,
        plan: &TransientPlan,
        config: &TransientConfig,
        scratch: &'s mut TransientScratch,
    ) -> Result<DieTransient<'s>> {
        let view = self
            .circuit
            .transient_scoped(plan, config, &self.die_probes, scratch)?;
        Ok(DieTransient {
            view,
            die_node: self.die_node,
            l_pkg_id: self.l_pkg_id,
        })
    }

    /// Steps several independent load waveforms through the PDN in one
    /// lock-step batch, overriding the load port per lane. Each lane is
    /// bit-identical to a single [`Pdn::transient_scoped`] run under
    /// [`Pdn::set_load`] of the same stimulus, with either kernel. Read
    /// lanes back with [`Pdn::die_lane`]. The batch charges and emits
    /// nothing; [`Pdn::report_die_lane`] reports a lane.
    ///
    /// # Errors
    ///
    /// Propagates circuit-analysis errors (e.g. an empty batch).
    pub fn transient_batch(
        &self,
        plan: &TransientPlan,
        config: &TransientConfig,
        loads: &[Stimulus],
        batch: &mut BatchTransientScratch,
    ) -> Result<()> {
        self.circuit
            .transient_batch_scoped(plan, config, &self.die_probes, self.load, loads, batch)
    }

    /// Die-scoped view of lane `i` of the most recent
    /// [`Pdn::transient_batch`] through `batch`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the most recent batch.
    pub fn die_lane<'s>(&self, batch: &'s BatchTransientScratch, i: usize) -> DieTransient<'s> {
        DieTransient {
            view: batch.lane(i),
            die_node: self.die_node,
            l_pkg_id: self.l_pkg_id,
        }
    }

    /// Reports lane `i` of the most recent [`Pdn::transient_batch`]
    /// through `batch` to `telemetry` as the single run it stands for:
    /// its solver counters, a `transient_solve` span and its die probe
    /// waveforms (see [`BatchTransientScratch::report_lane`]).
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the most recent batch.
    pub fn report_die_lane(
        &self,
        plan: &TransientPlan,
        batch: &BatchTransientScratch,
        i: usize,
        telemetry: &emvolt_obs::Telemetry,
    ) {
        batch.report_lane(plan, &self.die_probes, i, telemetry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::PdnParams;

    #[test]
    fn dc_level_is_near_nominal() {
        let pdn = Pdn::new(PdnParams::generic_mobile(), 2);
        let cfg = TransientConfig::new(1e-9, 200e-9);
        let (v, _) = pdn.transient(&cfg).unwrap();
        assert!((v.mean() - 1.0).abs() < 1e-3, "mean {}", v.mean());
    }

    #[test]
    fn impedance_peaks_near_analytic_resonance() {
        let params = PdnParams::generic_mobile();
        let f_expected = params.first_order_resonance_hz(2);
        let pdn = Pdn::new(params, 2);
        let freqs: Vec<f64> = (10..300).map(|i| i as f64 * 1e6).collect();
        let z = pdn.impedance_sweep(&freqs).unwrap();
        let (f_peak, _) = z
            .iter()
            .max_by(|a, b| a.1.norm().total_cmp(&b.1.norm()))
            .copied()
            .unwrap();
        assert!(
            (f_peak - f_expected).abs() / f_expected < 0.10,
            "peak {f_peak:.3e} vs analytic {f_expected:.3e}"
        );
    }

    #[test]
    fn resonant_square_wave_droops_more_than_off_resonance() {
        let params = PdnParams::generic_mobile();
        let f_res = params.first_order_resonance_hz(2);
        let mut pdn = Pdn::new(params, 2);
        let cfg = TransientConfig::new(0.2e-9, 4e-6).with_warmup(2e-6);

        pdn.set_load(Stimulus::square(0.0, 1.0, f_res));
        let (v_res, _) = pdn.transient(&cfg).unwrap();

        pdn.set_load(Stimulus::square(0.0, 1.0, f_res / 3.5));
        let (v_off, _) = pdn.transient(&cfg).unwrap();

        assert!(
            v_res.peak_to_peak() > 1.5 * v_off.peak_to_peak(),
            "resonant p2p {} vs off-resonance {}",
            v_res.peak_to_peak(),
            v_off.peak_to_peak()
        );
    }

    #[test]
    fn planned_transient_matches_fresh_transient() {
        let params = PdnParams::generic_mobile();
        let f_res = params.first_order_resonance_hz(2);
        let mut pdn = Pdn::new(params, 2);
        let cfg = TransientConfig::new(0.5e-9, 2e-6).with_warmup(1e-6);
        let plan = pdn.plan_transient(cfg.dt).unwrap();
        for scale in [0.25, 1.0] {
            pdn.set_load(Stimulus::square(0.0, scale, f_res));
            let (v_fresh, i_fresh) = pdn.transient(&cfg).unwrap();
            let (v_plan, i_plan) = pdn.transient_with_plan(&plan, &cfg).unwrap();
            assert_eq!(v_fresh.samples(), v_plan.samples());
            assert_eq!(i_fresh.samples(), i_plan.samples());
        }
    }

    #[test]
    fn scoped_transient_matches_planned_bit_for_bit() {
        let params = PdnParams::generic_mobile();
        let f_res = params.first_order_resonance_hz(2);
        let mut pdn = Pdn::new(params, 2);
        let cfg = TransientConfig::new(0.5e-9, 2e-6).with_warmup(1e-6);
        let plan = pdn.plan_transient(cfg.dt).unwrap();
        let mut scratch = TransientScratch::new();
        for scale in [0.25, 1.0] {
            pdn.set_load(Stimulus::square(0.0, scale, f_res));
            let (v_full, i_full) = pdn.transient_with_plan(&plan, &cfg).unwrap();
            let die = pdn.transient_scoped(&plan, &cfg, &mut scratch).unwrap();
            assert_eq!(v_full.samples(), die.v_die());
            assert_eq!(i_full.samples(), die.i_die());
            assert_eq!(v_full.dt(), die.dt());
            assert_eq!(v_full.start_time(), die.start_time());
        }
    }

    /// Batched lanes through the PDN wrapper must reproduce serial
    /// `set_load` + `transient_scoped` runs bit-for-bit — what lets the
    /// platform layer batch GA candidates without changing results.
    #[test]
    fn batched_lanes_match_serial_scoped_runs() {
        let params = PdnParams::generic_mobile();
        let f_res = params.first_order_resonance_hz(2);
        let mut pdn = Pdn::new(params, 2);
        let cfg = TransientConfig::new(0.5e-9, 2e-6).with_warmup(1e-6);
        let plan = pdn.plan_transient(cfg.dt).unwrap();
        assert!(plan.uses_state_kernel(), "PDN is small: Auto picks it");

        let loads = [
            Stimulus::square(0.0, 0.5, f_res),
            Stimulus::Dc(0.2),
            Stimulus::square(0.1, 0.9, f_res / 2.0),
        ];
        let mut batch = emvolt_circuit::BatchTransientScratch::new();
        pdn.transient_batch(&plan, &cfg, &loads, &mut batch)
            .unwrap();

        let mut scratch = TransientScratch::new();
        for (i, load) in loads.iter().enumerate() {
            pdn.set_load(load.clone());
            let single = pdn.transient_scoped(&plan, &cfg, &mut scratch).unwrap();
            let lane = pdn.die_lane(&batch, i);
            assert_eq!(single.v_die(), lane.v_die(), "lane {i} voltage");
            assert_eq!(single.i_die(), lane.i_die(), "lane {i} current");
            assert_eq!(single.dt(), lane.dt());
            assert_eq!(single.start_time(), lane.start_time());
        }
    }

    #[test]
    fn i_die_oscillates_under_resonant_load() {
        let params = PdnParams::generic_mobile();
        let f_res = params.first_order_resonance_hz(2);
        let mut pdn = Pdn::new(params, 2);
        pdn.set_load(Stimulus::square(0.0, 0.5, f_res));
        let cfg = TransientConfig::new(0.2e-9, 3e-6).with_warmup(1.5e-6);
        let (_, i) = pdn.transient(&cfg).unwrap();
        // Resonant amplification: the inductor current swing exceeds the
        // 0.5 A load swing.
        assert!(i.peak_to_peak() > 0.5, "i_die p2p {}", i.peak_to_peak());
    }
}
