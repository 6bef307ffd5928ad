//! Cycle-level timing simulation producing per-cycle current traces.
//!
//! The model is deliberately at the abstraction level the paper's physics
//! needs: what shapes voltage noise is the *cycle-by-cycle current
//! waveform* of the loop — which instructions issue together, where the
//! pipeline stalls on long-latency or unpipelined operations, and how much
//! switching activity each instruction contributes. Caches are always warm
//! (the paper deliberately avoids misses for determinism, §3.3).
//!
//! Simplifications relative to real pipelines, none of which affect the
//! current waveform's spectral content at the fidelity this work needs:
//! only true (RAW) register dependences stall issue (no WAW/WAR
//! interlocks — most cores of this era rename or forward around them),
//! and scratch-memory accesses are treated as independent (distinct
//! 8-byte slots, no store-to-load aliasing stalls).

use crate::model::CoreModel;
use emvolt_circuit::Trace;
use emvolt_isa::{FuKind, Kernel, Reg, RegClass};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::fmt;

/// Configuration of one timing-simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Loop iterations executed before recording starts (pipeline and
    /// current-history settling).
    pub warmup_iterations: usize,
    /// Minimum recorded duration in seconds (determines spectral
    /// resolution downstream).
    pub min_duration: f64,
    /// Hard cap on simulated cycles to guard against pathological
    /// configurations.
    pub max_cycles: u64,
    /// Mean wall-clock interval between front-end interference stalls
    /// (uncore arbitration, DRAM refresh, snoops); `0.0` disables them.
    /// Real loops are never perfectly periodic: these events limit the
    /// coherence time of loop-harmonic spectral lines exactly as on
    /// hardware, so narrowband spikes cannot sit arbitrarily far from the
    /// PDN resonance without losing coherent amplitude.
    pub interference_interval_s: f64,
    /// Stall duration range in cycles when interference strikes.
    pub interference_stall: (u32, u32),
    /// Seed for the (deterministic) interference sequence.
    pub jitter_seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            warmup_iterations: 10,
            min_duration: 4e-6,
            max_cycles: 50_000_000,
            interference_interval_s: 0.0,
            interference_stall: (2, 10),
            jitter_seed: 0x1177,
        }
    }
}

/// Errors from the timing simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The kernel has no instructions.
    EmptyKernel,
    /// An instruction requires a functional unit the core does not have.
    MissingFunctionalUnit {
        /// The mnemonic of the offending instruction.
        op: &'static str,
        /// The unit kind it needs.
        fu: FuKind,
    },
    /// The cycle cap was reached before the requested duration completed.
    CycleLimitExceeded {
        /// The configured cap.
        limit: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::EmptyKernel => write!(f, "kernel has no instructions"),
            SimError::MissingFunctionalUnit { op, fu } => {
                write!(f, "no {fu:?} unit available for `{op}`")
            }
            SimError::CycleLimitExceeded { limit } => {
                write!(f, "cycle limit {limit} exceeded")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Result of a timing simulation.
#[derive(Debug, Clone)]
pub struct SimOutput {
    /// Per-cycle core current in amps; `dt = 1 / f_clk`.
    pub current: Trace,
    /// Average instructions per cycle over the recorded window.
    pub ipc: f64,
    /// Average cycles per loop iteration in steady state.
    pub cycles_per_iteration: f64,
    /// Clock frequency the run used, in Hz.
    pub clock_hz: f64,
    /// Issue counts per functional-unit kind over the recorded window —
    /// where the pipeline's activity (and current) comes from.
    pub fu_issues: std::collections::BTreeMap<FuKind, u64>,
}

impl SimOutput {
    /// Loop period in seconds (`cycles_per_iteration / f_clk`).
    pub fn loop_period(&self) -> f64 {
        self.cycles_per_iteration / self.clock_hz
    }

    /// Fraction of recorded issues that went to `kind`.
    pub fn fu_share(&self, kind: FuKind) -> f64 {
        let total: u64 = self.fu_issues.values().sum();
        if total == 0 {
            return 0.0;
        }
        self.fu_issues.get(&kind).copied().unwrap_or(0) as f64 / total as f64
    }

    /// Loop frequency in Hz (`1 / loop_period`), the quantity swept in
    /// §5.3 of the paper.
    pub fn loop_frequency(&self) -> f64 {
        1.0 / self.loop_period()
    }
}

/// A CPU core clocked at a specific frequency, ready to simulate kernels.
#[derive(Debug, Clone)]
pub struct Cpu {
    model: CoreModel,
    freq_hz: f64,
}

/// Flat register id: GPRs then FPRs.
fn reg_id(r: Reg) -> usize {
    match r.class {
        RegClass::Gpr => r.index as usize,
        RegClass::Fpr => 64 + r.index as usize,
    }
}

const REG_SPACE: usize = 128;
const NO_PRODUCER: u64 = u64::MAX;

#[derive(Debug, Clone)]
struct DynOp {
    /// Index into the kernel body, or `usize::MAX` for the implicit
    /// back-branch.
    deps: [u64; 2],
    dep_count: u8,
    fu: FuKind,
    latency: u32,
    unpipelined: bool,
    issue_current: f64,
    active_current: f64,
    ends_iteration: bool,
}

impl Cpu {
    /// Creates a core at `freq_hz`.
    ///
    /// # Panics
    ///
    /// Panics if `freq_hz` is not strictly positive.
    pub fn new(model: CoreModel, freq_hz: f64) -> Self {
        assert!(freq_hz > 0.0, "clock frequency must be positive");
        Cpu { model, freq_hz }
    }

    /// The microarchitecture model.
    pub fn model(&self) -> &CoreModel {
        &self.model
    }

    /// Current clock frequency in Hz.
    pub fn frequency(&self) -> f64 {
        self.freq_hz
    }

    /// Runs the timing simulation of `kernel` looping continuously.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for empty kernels, missing functional units or
    /// cycle-limit exhaustion.
    pub fn simulate(&self, kernel: &Kernel, config: &SimConfig) -> Result<SimOutput, SimError> {
        self.simulate_inner(kernel, config, None)
    }

    /// Like [`Cpu::simulate`], additionally filling `occupancy` with the
    /// number of slots issued on each recorded cycle — index `k` pairs
    /// with sample `k` of the returned current trace. The simulation
    /// itself is bit-identical to [`Cpu::simulate`]; the capture only
    /// stores counts the issue loop already computes (this is the
    /// `cpu.issue_slots` waveform-trace source).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for the same conditions as [`Cpu::simulate`];
    /// on error `occupancy` contents are unspecified.
    pub fn simulate_traced(
        &self,
        kernel: &Kernel,
        config: &SimConfig,
        occupancy: &mut Vec<u32>,
    ) -> Result<SimOutput, SimError> {
        self.simulate_inner(kernel, config, Some(occupancy))
    }

    fn simulate_inner(
        &self,
        kernel: &Kernel,
        config: &SimConfig,
        mut occupancy: Option<&mut Vec<u32>>,
    ) -> Result<SimOutput, SimError> {
        if let Some(occ) = occupancy.as_deref_mut() {
            occ.clear();
        }
        if kernel.is_empty() {
            return Err(SimError::EmptyKernel);
        }
        // Pre-flight: every op must have a unit.
        for i in kernel.body() {
            let op = kernel.arch().op(i.op);
            if self.model.fu_count(op.fu) == 0 {
                return Err(SimError::MissingFunctionalUnit {
                    op: op.name,
                    fu: op.fu,
                });
            }
        }
        let branch_op = kernel
            .arch()
            .ops()
            .iter()
            .position(|o| o.class == emvolt_isa::OpClass::Branch);

        // --- Static decode: per-body-slot metadata -----------------------
        struct StaticOp {
            srcs: [usize; 2],
            src_count: u8,
            dst: Option<usize>,
            fu: FuKind,
            latency: u32,
            unpipelined: bool,
            issue_current: f64,
            active_current: f64,
        }
        let scale = self.model.current_scale;
        let mut statics: Vec<StaticOp> = kernel
            .body()
            .iter()
            .map(|i| {
                let op = kernel.arch().op(i.op);
                StaticOp {
                    srcs: [reg_id(i.srcs[0]), reg_id(i.srcs[1])],
                    src_count: op.src_count,
                    dst: op.has_dst.then(|| reg_id(i.dst)),
                    fu: op.fu,
                    latency: op.latency.max(1),
                    unpipelined: op.unpipelined,
                    issue_current: op.issue_current * scale,
                    active_current: op.active_current * scale,
                }
            })
            .collect();
        // Implicit back-branch closing the loop.
        if let Some(bi) = branch_op {
            let op = &kernel.arch().ops()[bi];
            if self.model.fu_count(op.fu) > 0 {
                statics.push(StaticOp {
                    srcs: [0, 0],
                    src_count: 0,
                    dst: None,
                    fu: op.fu,
                    latency: 1,
                    unpipelined: false,
                    issue_current: op.issue_current * scale,
                    active_current: 0.0,
                });
            }
        }
        let slots = statics.len();

        // --- Engine state -------------------------------------------------
        let mut fu_free: std::collections::BTreeMap<FuKind, Vec<u64>> = self
            .model
            .fu_counts
            .iter()
            .map(|(&k, &n)| (k, vec![0u64; n as usize]))
            .collect();
        let mut last_writer = [NO_PRODUCER; REG_SPACE];
        let mut completion: Vec<u64> = Vec::new(); // dyn id -> completion cycle
        let mut dyn_current: Vec<f64> = Vec::new();
        let mut cycle: u64 = 0;
        let mut fetched: u64 = 0;
        let mut iterations_done: usize = 0;
        let mut record_start: Option<u64> = None;
        let mut issued_since_start: u64 = 0;
        let mut fu_issues: std::collections::BTreeMap<FuKind, u64> =
            std::collections::BTreeMap::new();
        let mut iter_start_cycle: Option<u64> = None;
        let mut iters_in_window: usize = 0;

        let duration_cycles = (config.min_duration * self.freq_hz).ceil() as u64;
        let duration_cycles = duration_cycles.max(slots as u64 * 4).max(64);

        // On-die charge delivery spreads each event's current draw over a
        // few cycles (pipeline capacitance and grid RC); a short triangular
        // kernel keeps tens-of-MHz content while taming cycle-to-cycle
        // chatter.
        const SPREAD: [f64; 3] = [0.5, 0.3, 0.2];
        let add_current = |dyn_current: &mut Vec<f64>, at: u64, amps: f64| {
            let idx = at as usize;
            if dyn_current.len() <= idx + SPREAD.len() {
                dyn_current.resize(idx + SPREAD.len() + 1, 0.0);
            }
            for (k, w) in SPREAD.iter().enumerate() {
                dyn_current[idx + k] += amps * w;
            }
        };

        // Window of in-flight dynamic ops (size 1-slot lookahead for the
        // in-order engine).
        let window_cap = if self.model.out_of_order {
            self.model.window.max(self.model.issue_width as usize)
        } else {
            self.model.issue_width as usize
        };
        let mut window: VecDeque<(u64, DynOp, bool)> = VecDeque::new(); // (id, op, issued)
        let mut jitter_rng = StdRng::seed_from_u64(config.jitter_seed);
        let mut fetch_stall: u32 = 0;
        // Per-cycle probability of an interference event.
        let interference_p = if config.interference_interval_s > 0.0 {
            ((1.0 / self.freq_hz) / config.interference_interval_s).clamp(0.0, 1.0)
        } else {
            0.0
        };

        let fetch = |window: &mut VecDeque<(u64, DynOp, bool)>,
                     fetched: &mut u64,
                     last_writer: &mut [u64; REG_SPACE],
                     completion: &mut Vec<u64>| {
            let slot = (*fetched % slots as u64) as usize;
            let s = &statics[slot];
            let mut deps = [NO_PRODUCER; 2];
            let mut dep_count = 0u8;
            for k in 0..s.src_count as usize {
                let p = last_writer[s.srcs[k]];
                if p != NO_PRODUCER {
                    deps[dep_count as usize] = p;
                    dep_count += 1;
                }
            }
            // In-order scoreboard also interlocks on WAW through
            // last_writer tracking at issue; OoO renames (no WAW dep).
            let d = DynOp {
                deps,
                dep_count,
                fu: s.fu,
                latency: s.latency,
                unpipelined: s.unpipelined,
                issue_current: s.issue_current,
                active_current: s.active_current,
                ends_iteration: slot == slots - 1,
            };
            let id = *fetched;
            if let Some(dst) = s.dst {
                last_writer[dst] = id;
            }
            completion.push(u64::MAX);
            window.push_back((id, d, false));
            *fetched += 1;
        };

        loop {
            if cycle >= config.max_cycles {
                return Err(SimError::CycleLimitExceeded {
                    limit: config.max_cycles,
                });
            }
            // Keep the window full (unless an interference stall holds
            // the front end).
            if fetch_stall > 0 {
                fetch_stall -= 1;
            } else {
                if interference_p > 0.0 && jitter_rng.gen_bool(interference_p) {
                    let (lo, hi) = config.interference_stall;
                    fetch_stall = jitter_rng.gen_range(lo.max(1)..=hi.max(lo.max(1)));
                } else {
                    while window.len() < window_cap {
                        fetch(&mut window, &mut fetched, &mut last_writer, &mut completion);
                    }
                }
            }

            // Issue.
            let mut issued = 0u32;
            let in_order = !self.model.out_of_order;
            for slot_ref in window.iter_mut() {
                if issued >= self.model.issue_width {
                    break;
                }
                let (id, d, done) = (&slot_ref.0, &slot_ref.1, &mut slot_ref.2);
                if *done {
                    continue;
                }
                // Dependency check: all producers completed by now.
                let mut ready = true;
                for k in 0..d.dep_count as usize {
                    let c = completion[d.deps[k] as usize];
                    if c == u64::MAX || c > cycle {
                        ready = false;
                        break;
                    }
                }
                // FU availability.
                let mut fu_slot: Option<usize> = None;
                if ready {
                    if let Some(units) = fu_free.get(&d.fu) {
                        fu_slot = units.iter().position(|&free| free <= cycle);
                    }
                    if fu_slot.is_none() {
                        ready = false;
                    }
                }
                if ready {
                    let unit = fu_slot.expect("checked above");
                    let busy_until = if d.unpipelined {
                        cycle + d.latency as u64
                    } else {
                        cycle + 1
                    };
                    fu_free.get_mut(&d.fu).expect("fu exists")[unit] = busy_until;
                    completion[*id as usize] = cycle + d.latency as u64;
                    add_current(&mut dyn_current, cycle, d.issue_current);
                    for t in 1..d.latency as u64 {
                        add_current(&mut dyn_current, cycle + t, d.active_current);
                    }
                    *done = true;
                    issued += 1;
                    if record_start.is_some() {
                        issued_since_start += 1;
                        *fu_issues.entry(d.fu).or_insert(0) += 1;
                    }
                    if d.ends_iteration {
                        iterations_done += 1;
                        if iterations_done == config.warmup_iterations {
                            record_start = Some(cycle + 1);
                            iter_start_cycle = Some(cycle + 1);
                        } else if record_start.is_some() {
                            iters_in_window += 1;
                        }
                    }
                } else if in_order {
                    // Stall-on-first-hazard.
                    break;
                }
            }

            // Retire front entries so the window admits new work. The
            // in-order engine uses the window purely as an issue buffer
            // (completion is tracked in the scoreboard), while the
            // out-of-order engine retires in order on completion, like a
            // reorder buffer.
            if in_order {
                while window.front().map(|(_, _, done)| *done).unwrap_or(false) {
                    window.pop_front();
                }
            } else {
                while window
                    .front()
                    .map(|(id, _, done)| *done && completion[*id as usize] <= cycle + 1)
                    .unwrap_or(false)
                {
                    window.pop_front();
                }
            }

            // Absolute-cycle occupancy log; sliced to the recorded window
            // at assembly so entry `k` pairs with current sample `k`.
            if let Some(occ) = occupancy.as_deref_mut() {
                occ.push(issued);
            }

            cycle += 1;

            if let Some(start) = record_start {
                if cycle >= start + duration_cycles && iters_in_window >= 2 {
                    // --- Assemble outputs ---------------------------------
                    let end = start + duration_cycles;
                    let mut samples = Vec::with_capacity(duration_cycles as usize);
                    for c in start..end {
                        let dynamic = dyn_current.get(c as usize).copied().unwrap_or(0.0);
                        samples.push(self.model.idle_current + dynamic);
                    }
                    if let Some(occ) = occupancy.as_deref_mut() {
                        occ.drain(..start as usize);
                        occ.truncate(duration_cycles as usize);
                    }
                    let dt = 1.0 / self.freq_hz;
                    let window_cycles = (cycle - start) as f64;
                    let ipc = issued_since_start as f64 / window_cycles;
                    let cycles_per_iteration = if iters_in_window > 0 {
                        (cycle - iter_start_cycle.unwrap_or(start)) as f64 / iters_in_window as f64
                    } else {
                        window_cycles
                    };
                    return Ok(SimOutput {
                        current: Trace::from_samples(dt, samples),
                        ipc,
                        cycles_per_iteration,
                        clock_hz: self.freq_hz,
                        fu_issues,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CoreModel;
    use emvolt_isa::{kernels::sweep_kernel, InstructionPool, Isa};
    use rand::{rngs::StdRng, SeedableRng};

    fn a53() -> Cpu {
        Cpu::new(CoreModel::cortex_a53(), 950e6)
    }

    fn a72() -> Cpu {
        Cpu::new(CoreModel::cortex_a72(), 1.2e9)
    }

    #[test]
    fn traced_simulation_is_bit_identical_and_aligned() {
        let cpu = a53();
        let k = sweep_kernel(Isa::ArmV8);
        let cfg = SimConfig::default();
        let plain = cpu.simulate(&k, &cfg).unwrap();
        let mut occupancy = vec![99u32; 3]; // stale contents must be cleared
        let traced = cpu.simulate_traced(&k, &cfg, &mut occupancy).unwrap();
        assert_eq!(plain.current.samples(), traced.current.samples());
        assert_eq!(plain.ipc, traced.ipc);
        assert_eq!(occupancy.len(), traced.current.len());
        let width = cpu.model().issue_width;
        assert!(occupancy.iter().all(|&n| n <= width));
        // The kernel issues work, so some recorded cycle must be busy.
        assert!(occupancy.iter().any(|&n| n > 0));
        // Occupancy integrates to the issue count implied by the IPC over
        // the same window.
        // (up to issue_width boundary issues land on the cycle before the
        // recorded window opens).
        let total: u64 = occupancy.iter().map(|&n| n as u64).sum();
        let expected = traced.ipc * occupancy.len() as f64;
        assert!(
            (total as f64 - expected).abs() <= width as f64 + 1e-9,
            "sum {total} vs ipc-implied {expected}"
        );
    }

    #[test]
    fn sweep_kernel_takes_about_eight_cycles_on_dual_issue() {
        // 8 independent ADDs dual-issue in 4 cycles; the unpipelined DIV
        // blocks for ~its latency; total near 4 + DIV latency.
        let cpu = a53();
        let k = sweep_kernel(Isa::ArmV8);
        let out = cpu.simulate(&k, &SimConfig::default()).unwrap();
        assert!(
            out.cycles_per_iteration >= 8.0 && out.cycles_per_iteration <= 20.0,
            "cycles/iter {}",
            out.cycles_per_iteration
        );
    }

    #[test]
    fn current_trace_alternates_high_low() {
        let cpu = a53();
        let k = sweep_kernel(Isa::ArmV8);
        let out = cpu.simulate(&k, &SimConfig::default()).unwrap();
        let p2p = out.current.peak_to_peak();
        // With the calibrated per-op currents the high (dual-issue ADD)
        // and low (DIV stall) phases differ by tens of milliamps.
        assert!(p2p > 0.05, "current swing too small: {p2p}");
        assert!(out.current.min() >= cpu.model().idle_current - 1e-12);
    }

    #[test]
    fn ooo_beats_in_order_on_random_code() {
        let pool = InstructionPool::default_for(Isa::ArmV8);
        let mut rng = StdRng::seed_from_u64(5);
        let k = pool.random_kernel(50, &mut rng);
        let out_io = a53().simulate(&k, &SimConfig::default()).unwrap();
        let out_ooo = a72().simulate(&k, &SimConfig::default()).unwrap();
        assert!(
            out_ooo.ipc >= out_io.ipc * 0.95,
            "OoO IPC {} should be at least in-order IPC {}",
            out_ooo.ipc,
            out_io.ipc
        );
    }

    #[test]
    fn ipc_is_bounded_by_width() {
        let pool = InstructionPool::default_for(Isa::ArmV8);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..5 {
            let k = pool.random_kernel(50, &mut rng);
            let out = a72().simulate(&k, &SimConfig::default()).unwrap();
            assert!(out.ipc > 0.0 && out.ipc <= 3.0 + 1e-9, "ipc {}", out.ipc);
        }
    }

    #[test]
    fn loop_frequency_scales_with_clock() {
        let k = sweep_kernel(Isa::ArmV8);
        let cfg = SimConfig::default();
        let f1 = a53().simulate(&k, &cfg).unwrap().loop_frequency();
        let half = Cpu::new(CoreModel::cortex_a53(), 475e6);
        let f2 = half.simulate(&k, &cfg).unwrap().loop_frequency();
        assert!(
            (f1 / f2 - 2.0).abs() < 0.05,
            "halving the clock must halve loop frequency: {f1} vs {f2}"
        );
    }

    #[test]
    fn empty_kernel_is_rejected() {
        let arch = std::sync::Arc::new(emvolt_isa::Architecture::armv8());
        let k = emvolt_isa::Kernel::new(arch, vec![]);
        assert!(matches!(
            a53().simulate(&k, &SimConfig::default()),
            Err(SimError::EmptyKernel)
        ));
    }

    #[test]
    fn deterministic_output() {
        let pool = InstructionPool::default_for(Isa::X86_64);
        let mut rng = StdRng::seed_from_u64(1);
        let k = pool.random_kernel(50, &mut rng);
        let cpu = Cpu::new(CoreModel::athlon_ii(), 3.1e9);
        let a = cpu.simulate(&k, &SimConfig::default()).unwrap();
        let b = cpu.simulate(&k, &SimConfig::default()).unwrap();
        assert_eq!(a.current.samples(), b.current.samples());
        assert_eq!(a.ipc, b.ipc);
    }

    #[test]
    fn missing_fu_is_reported() {
        let mut model = CoreModel::cortex_a53();
        model.fu_counts.remove(&FuKind::Div);
        let cpu = Cpu::new(model, 1e9);
        let k = sweep_kernel(Isa::ArmV8);
        assert!(matches!(
            cpu.simulate(&k, &SimConfig::default()),
            Err(SimError::MissingFunctionalUnit { .. })
        ));
    }
}

#[cfg(test)]
mod hazard_tests {
    use super::*;
    use crate::model::CoreModel;
    use emvolt_isa::{Architecture, Instr, Kernel, Reg};
    use std::sync::Arc;

    fn kernel(instrs: Vec<Instr>) -> Kernel {
        Kernel::new(Arc::new(Architecture::armv8()), instrs)
    }

    fn add(arch: &Architecture, dst: u8, a: u8, b: u8) -> Instr {
        Instr {
            op: arch.op_by_name("add").unwrap(),
            dst: Reg::gpr(dst),
            srcs: [Reg::gpr(a), Reg::gpr(b)],
            mem_slot: 0,
        }
    }

    /// A fully serial RAW chain issues one instruction per cycle even on
    /// a wide out-of-order core.
    #[test]
    fn raw_chain_serializes() {
        let arch = Architecture::armv8();
        let body: Vec<Instr> = (0..8).map(|_| add(&arch, 1, 1, 2)).collect();
        let cpu = Cpu::new(CoreModel::cortex_a72(), 1.2e9);
        let out = cpu.simulate(&kernel(body), &SimConfig::default()).unwrap();
        assert!(
            out.ipc < 1.15,
            "dependent chain should bound IPC near 1, got {}",
            out.ipc
        );
    }

    /// Independent adds dual-issue on the in-order A53 (2 ALUs).
    #[test]
    fn independent_adds_dual_issue_in_order() {
        let arch = Architecture::armv8();
        let body: Vec<Instr> = (0..8u8).map(|k| add(&arch, 1 + (k % 6), 8, 9)).collect();
        let cpu = Cpu::new(CoreModel::cortex_a53(), 950e6);
        let out = cpu.simulate(&kernel(body), &SimConfig::default()).unwrap();
        assert!(out.ipc > 1.5, "expected dual issue, got IPC {}", out.ipc);
    }

    /// Back-to-back divides serialize on the single unpipelined divider.
    #[test]
    fn unpipelined_divider_is_a_structural_hazard() {
        let arch = Architecture::armv8();
        let sdiv = arch.op_by_name("sdiv").unwrap();
        let lat = arch.op(sdiv).latency as f64;
        let body: Vec<Instr> = (0..4u8)
            .map(|k| Instr {
                op: sdiv,
                dst: Reg::gpr(1 + k),
                srcs: [Reg::gpr(8), Reg::gpr(9)],
                mem_slot: 0,
            })
            .collect();
        let cpu = Cpu::new(CoreModel::cortex_a72(), 1.2e9);
        let out = cpu.simulate(&kernel(body), &SimConfig::default()).unwrap();
        // Four divides of `lat` cycles each on one busy-until-done unit.
        assert!(
            out.cycles_per_iteration >= 4.0 * lat - 1.0,
            "cycles/iter {} for 4 divides of {lat} cycles",
            out.cycles_per_iteration
        );
    }

    /// The out-of-order core hides a long-latency op behind independent
    /// work; the in-order core cannot when a dependent op follows it.
    #[test]
    fn ooo_hides_latency_behind_independent_work() {
        let arch = Architecture::armv8();
        let fdiv = arch.op_by_name("fdiv").unwrap();
        let mut body = vec![Instr {
            op: fdiv,
            dst: Reg::fpr(1),
            srcs: [Reg::fpr(2), Reg::fpr(3)],
            mem_slot: 0,
        }];
        // Dependent consumer right behind the divide...
        body.push(Instr {
            op: arch.op_by_name("fadd").unwrap(),
            dst: Reg::fpr(4),
            srcs: [Reg::fpr(1), Reg::fpr(5)],
            mem_slot: 0,
        });
        // ...and plenty of independent integer work.
        for k in 0..12u8 {
            body.push(add(&arch, 1 + (k % 6), 8, 9));
        }
        let k = kernel(body);
        let ooo = Cpu::new(CoreModel::cortex_a72(), 1.2e9)
            .simulate(&k, &SimConfig::default())
            .unwrap();
        let io = Cpu::new(CoreModel::cortex_a53(), 1.2e9)
            .simulate(&k, &SimConfig::default())
            .unwrap();
        assert!(
            ooo.cycles_per_iteration < io.cycles_per_iteration,
            "OoO {} cycles vs in-order {}",
            ooo.cycles_per_iteration,
            io.cycles_per_iteration
        );
    }

    /// FU issue accounting matches the kernel's composition.
    #[test]
    fn fu_issue_shares_reflect_the_kernel() {
        let arch = Architecture::armv8();
        let mut body: Vec<Instr> = (0..6u8).map(|k| add(&arch, 1 + (k % 6), 8, 9)).collect();
        let vmul = arch.op_by_name("fmul.4s").unwrap();
        for k in 0..2u8 {
            body.push(Instr {
                op: vmul,
                dst: Reg::fpr(k),
                srcs: [Reg::fpr(8), Reg::fpr(9)],
                mem_slot: 0,
            });
        }
        let cpu = Cpu::new(CoreModel::cortex_a72(), 1.2e9);
        let out = cpu.simulate(&kernel(body), &SimConfig::default()).unwrap();
        let alu = out.fu_share(FuKind::Alu);
        let simd = out.fu_share(FuKind::SimdUnit);
        // 6 adds : 2 SIMD : 1 branch per iteration.
        assert!((alu - 6.0 / 9.0).abs() < 0.05, "alu share {alu}");
        assert!((simd - 2.0 / 9.0).abs() < 0.05, "simd share {simd}");
        assert!(out.fu_share(FuKind::Div) < 1e-9);
    }
}
