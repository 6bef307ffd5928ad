//! Functional (architectural) execution of kernels.
//!
//! Timing and function are split: the timing engine shapes the current
//! waveform, while this executor computes the architectural results the
//! V_MIN harness compares against a golden reference to detect silent data
//! corruption (the paper checks workload output against a reference
//! obtained at nominal voltage, §5.2).
//!
//! A kernel is decoded once into a [`Program`]: flat ops over one file of
//! 64-bit words (64 GPRs, then 64 FPRs held as their bits, then the
//! scratch memory slots). Fault draws never read machine state, so
//! [`Program::draw_faults`] takes a whole run's draws up front, and
//! [`Program::run`] then executes any number of runs in lockstep lanes,
//! matching on each op once for the whole group.

use emvolt_isa::{Kernel, Reg, RegClass, Semantics};
use rand::Rng;
use std::array::from_fn;

#[cfg(test)]
mod reference;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// Words before the scratch memory: 64 GPRs, then 64 FPRs.
const REG_WORDS: usize = 128;

/// Widest lane group run in one pass; larger groups run in chunks.
const MAX_LANES: usize = 8;

/// Bit-flip fault injection model: each executed instruction's result is
/// corrupted with probability `per_instr_probability`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultModel {
    /// Probability that any single executed instruction's destination is
    /// corrupted by a single-bit flip.
    pub per_instr_probability: f64,
}

/// Outcome of a functional run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuncOutput {
    /// Digest of the final architectural state.
    pub digest: u64,
    /// Number of instructions whose results were corrupted.
    pub faults_injected: u64,
}

/// One run's faults, drawn ahead of execution by
/// [`Program::draw_faults`]. The default plan injects nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

/// A bit flip on the result of the `at`-th result-producing instruction
/// of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fault {
    at: u64,
    bit: u8,
}

/// Architectural behaviour of a decoded op, with the register classes of
/// the original instruction folded in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sem {
    /// Copies the bits of word `a`: a register move, or a load when `a`
    /// is a memory word.
    Copy,
    /// Converts the integer in `a` to a float (a GPR moved into an FPR).
    ToFloat,
    Add,
    Sub,
    Xor,
    Mul,
    Div,
    FAdd,
    FMul,
    FDiv,
    FSqrt,
    /// Writes `a` to memory word `dst`; produces no result.
    Store,
    Nop,
}

/// One predecoded instruction. `dst`, `a` and `b` index the word file.
#[derive(Debug, Clone, Copy)]
struct FlatOp {
    sem: Sem,
    dst: u16,
    a: u16,
    b: u16,
    /// Float ops read a GPR source as the number it holds, not its bits.
    a_int: bool,
    b_int: bool,
    /// The op writes its result to `dst` (some produce a result, and so
    /// take a fault draw, without writing it).
    write: bool,
}

/// A kernel decoded once for the functional executor.
#[derive(Debug, Clone)]
pub struct Program {
    ops: Vec<FlatOp>,
    /// Initial word file: the paper's pre-initialised register template
    /// (§3.3) and scratch memory.
    template: Vec<u64>,
    /// Result-producing ops per iteration, each one fault draw.
    produced: u64,
}

impl Program {
    /// Decodes `kernel`.
    ///
    /// # Panics
    ///
    /// If a register index is 64 or more.
    pub fn new(kernel: &Kernel) -> Self {
        let arch = kernel.arch();
        let mem_slots = arch.mem_slots() as usize;
        let template = template(mem_slots);
        let flat = |r: Reg| {
            assert!(r.index < 64, "register index {} outside 0..64", r.index);
            match r.class {
                RegClass::Gpr => r.index as u16,
                RegClass::Fpr => 64 + r.index as u16,
            }
        };
        let ops: Vec<FlatOp> = kernel
            .body()
            .iter()
            .map(|i| {
                let op = arch.op(i.op);
                let [a, b] = i.srcs;
                let dst_fpr = i.dst.class == RegClass::Fpr;
                let mem = (REG_WORDS + i.mem_slot as usize % mem_slots.max(1)) as u16;
                let sem = match op.semantics {
                    Semantics::Move if dst_fpr && a.class == RegClass::Gpr => Sem::ToFloat,
                    Semantics::Move => Sem::Copy,
                    // SIMD integer add modelled on the FP file.
                    Semantics::IntAdd if dst_fpr => Sem::FAdd,
                    Semantics::IntAdd => Sem::Add,
                    Semantics::IntSub => Sem::Sub,
                    Semantics::IntXor => Sem::Xor,
                    Semantics::IntMul => Sem::Mul,
                    Semantics::IntDiv => Sem::Div,
                    Semantics::FloatAdd => Sem::FAdd,
                    Semantics::FloatMul => Sem::FMul,
                    Semantics::FloatDiv => Sem::FDiv,
                    Semantics::FloatSqrt => Sem::FSqrt,
                    Semantics::LoadMem => Sem::Copy,
                    Semantics::StoreMem => Sem::Store,
                    Semantics::Nop => Sem::Nop,
                };
                FlatOp {
                    sem,
                    dst: if sem == Sem::Store { mem } else { flat(i.dst) },
                    a: if op.semantics == Semantics::LoadMem {
                        mem
                    } else {
                        flat(a)
                    },
                    b: flat(b),
                    a_int: a.class == RegClass::Gpr,
                    b_int: b.class == RegClass::Gpr,
                    write: op.has_dst,
                }
            })
            .collect();

        let produced = ops
            .iter()
            .filter(|op| !matches!(op.sem, Sem::Store | Sem::Nop))
            .count() as u64;
        Program {
            ops,
            template,
            produced,
        }
    }

    /// Draws the faults of one `iterations`-long run from `rng`, leaving
    /// it exactly where executing the run one instruction at a time would:
    /// one `gen_bool` per result-producing instruction, plus one
    /// `gen_range(0..52)` for the flipped bit of each fault (bits 52 and
    /// up would hit a float's exponent).
    ///
    /// # Panics
    ///
    /// If `faults.per_instr_probability` is NaN and the run draws at all.
    pub fn draw_faults<R: Rng + ?Sized>(
        &self,
        iterations: usize,
        faults: FaultModel,
        rng: &mut R,
    ) -> FaultPlan {
        let draws = iterations as u64 * self.produced;
        let mut plan = FaultPlan::default();
        if draws == 0 {
            return plan;
        }
        let threshold = bool_threshold(faults.per_instr_probability.clamp(0.0, 1.0));
        for at in 0..draws {
            if rng.next_u64() >> 11 < threshold {
                let bit = (rng.next_u64() % 52) as u8;
                plan.faults.push(Fault { at, bit });
            }
        }
        plan
    }

    /// Executes one `iterations`-long run per plan, in lockstep lanes,
    /// and returns their outputs in plan order.
    ///
    /// The digest folds the architectural state after *every* iteration,
    /// so corruption anywhere in the run is visible in the output even
    /// when the register file later converges back to a fixed point (real
    /// output checking observes the whole output stream, not just the
    /// final state).
    pub fn run(&self, iterations: usize, plans: &[FaultPlan]) -> Vec<FuncOutput> {
        let mut out = Vec::with_capacity(plans.len());
        for group in plans.chunks(MAX_LANES) {
            match group.len() {
                1 => self.run_lanes::<1>(iterations, group, &mut out),
                2 => self.run_lanes::<2>(iterations, group, &mut out),
                3 => self.run_lanes::<3>(iterations, group, &mut out),
                4 => self.run_lanes::<4>(iterations, group, &mut out),
                5 => self.run_lanes::<5>(iterations, group, &mut out),
                6 => self.run_lanes::<6>(iterations, group, &mut out),
                7 => self.run_lanes::<7>(iterations, group, &mut out),
                _ => self.run_lanes::<MAX_LANES>(iterations, group, &mut out),
            }
        }
        out
    }

    /// The executor body: `N` runs in lockstep, one lane each. A group of
    /// one is the plain scalar interpreter.
    fn run_lanes<const N: usize>(
        &self,
        iterations: usize,
        plans: &[FaultPlan],
        out: &mut Vec<FuncOutput>,
    ) {
        let mut words: Vec<[u64; N]> = self.template.iter().map(|&w| [w; N]).collect();
        let mut pending: [&[Fault]; N] = from_fn(|l| plans[l].faults.as_slice());
        let next_fault = |pending: &[&[Fault]; N]| {
            pending
                .iter()
                .filter_map(|f| f.first())
                .map(|f| f.at)
                .min()
                .unwrap_or(u64::MAX)
        };
        let mut next = next_fault(&pending);
        let mut produced = 0u64;
        let mut stream = [FNV_OFFSET; N];
        for _ in 0..iterations {
            for op in &self.ops {
                let a = words[op.a as usize];
                let b = words[op.b as usize];
                let float = |x: [u64; N], int: bool| -> [f64; N] {
                    if int {
                        from_fn(|l| x[l] as f64)
                    } else {
                        x.map(f64::from_bits)
                    }
                };
                let mut r: [u64; N] = match op.sem {
                    Sem::Copy => a,
                    Sem::ToFloat => from_fn(|l| (a[l] as f64).to_bits()),
                    Sem::Add => from_fn(|l| a[l].wrapping_add(b[l])),
                    Sem::Sub => from_fn(|l| a[l].wrapping_sub(b[l])),
                    Sem::Xor => from_fn(|l| a[l] ^ b[l]),
                    Sem::Mul => from_fn(|l| a[l].wrapping_mul(b[l])),
                    // The divisor is forced odd, so never zero.
                    Sem::Div => from_fn(|l| a[l] / (b[l] | 1)),
                    Sem::FAdd => {
                        let (x, y) = (float(a, op.a_int), float(b, op.b_int));
                        from_fn(|l| (x[l] + y[l]).to_bits())
                    }
                    Sem::FMul => {
                        let (x, y) = (float(a, op.a_int), float(b, op.b_int));
                        from_fn(|l| norm(x[l] * y[l]).to_bits())
                    }
                    Sem::FDiv => {
                        let (x, y) = (float(a, op.a_int), float(b, op.b_int));
                        from_fn(|l| {
                            let d = if y[l].abs() < 1e-300 { 1.0 } else { y[l] };
                            norm(x[l] / d).to_bits()
                        })
                    }
                    Sem::FSqrt => {
                        let x = float(a, op.a_int);
                        from_fn(|l| x[l].abs().sqrt().to_bits())
                    }
                    Sem::Store => {
                        words[op.dst as usize] = a;
                        continue;
                    }
                    Sem::Nop => continue,
                };
                if produced == next {
                    for (v, faults) in r.iter_mut().zip(&mut pending) {
                        if let Some((f, rest)) = faults.split_first() {
                            if f.at == produced {
                                *v ^= 1 << f.bit;
                                *faults = rest;
                            }
                        }
                    }
                    next = next_fault(&pending);
                }
                produced += 1;
                if op.write {
                    words[op.dst as usize] = r;
                }
            }
            // Each lane's state digest, the lanes' FNV chains interleaved.
            let mut h = [FNV_OFFSET; N];
            for w in &words {
                for shift in (0..64).step_by(8) {
                    for (h, w) in h.iter_mut().zip(w) {
                        *h = (*h ^ ((w >> shift) & 0xff)).wrapping_mul(FNV_PRIME);
                    }
                }
            }
            for (s, h) in stream.iter_mut().zip(h) {
                *s = fold_word(*s, h);
            }
        }
        out.extend(stream.iter().zip(plans).map(|(&digest, plan)| FuncOutput {
            digest,
            faults_injected: plan.faults.len() as u64,
        }));
    }
}

/// The initial word file: odd GPRs so divides are well-behaved, FPRs in
/// (1, 2) so repeated mul/div/sqrt stay stable, then scratch memory.
fn template(mem_slots: usize) -> Vec<u64> {
    let gprs = (0..64u64).map(|i| 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i + 1).wrapping_add(1) | 1);
    let fprs = (0..64).map(|i| (1.0 + (i as f64 + 1.0) / 80.0).to_bits());
    let mem = (0..mem_slots as u64).map(|i| i.wrapping_mul(0xD1B5_4A32_D192_ED03) | 1);
    gprs.chain(fprs).chain(mem).collect()
}

/// FNV-1a over the little-endian bytes of `w`.
fn fold_word(mut h: u64, w: u64) -> u64 {
    for b in w.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// `rng.gen_bool(p)` for `p` in `[0, 1]` is `k * 2^-53 < p` for the
/// integer `k = next_u64() >> 11`. Scaling both sides by `2^53` is exact,
/// and for an integer `k`, `k < x` holds exactly when `k < ceil(x)`.
///
/// # Panics
///
/// If `p` is outside `[0, 1]` or NaN, as `gen_bool` does.
fn bool_threshold(p: f64) -> u64 {
    assert!((0.0..=1.0).contains(&p), "p={p} outside [0, 1]");
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// Executes `kernel` for `iterations` loop iterations without faults and
/// returns the golden digest (see [`Program::run`]).
pub fn execute(kernel: &Kernel, iterations: usize) -> u64 {
    Program::new(kernel).run(iterations, &[FaultPlan::default()])[0].digest
}

/// Executes with bit-flip fault injection; returns the digest and the
/// number of injected faults. Consumes `rng` as [`Program::draw_faults`]
/// describes.
///
/// # Panics
///
/// If `faults.per_instr_probability` is NaN and the run executes any
/// result-producing instruction, or if a register index is 64 or more.
pub fn execute_with_faults<R: Rng>(
    kernel: &Kernel,
    iterations: usize,
    faults: FaultModel,
    rng: &mut R,
) -> FuncOutput {
    let program = Program::new(kernel);
    let plan = program.draw_faults(iterations, faults, rng);
    program.run(iterations, &[plan])[0]
}

/// Keeps float magnitudes in a sane range so long runs neither overflow
/// nor denormalise (the real templates re-seed registers similarly).
/// Written without short-circuits so lanes select rather than branch:
/// `a <= 1e30` is false for NaN and the infinities.
#[inline(always)]
fn norm(x: f64) -> f64 {
    let a = x.abs();
    if (a <= 1e30) & ((a >= 1e-30) | (a == 0.0)) {
        x
    } else {
        1.5
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{self, ArchState};
    use super::*;
    use emvolt_isa::{kernels::sweep_kernel, InstructionPool, Isa};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, RngCore, SeedableRng};

    #[test]
    fn execution_is_deterministic() {
        let k = sweep_kernel(Isa::ArmV8);
        assert_eq!(execute(&k, 100), execute(&k, 100));
    }

    #[test]
    fn different_iteration_counts_change_digest() {
        // An accumulating kernel (x1 += x2) changes state every iteration;
        // the plain sweep kernel reaches a register fixed point instead.
        let arch = std::sync::Arc::new(emvolt_isa::Architecture::armv8());
        let add = arch.op_by_name("add").unwrap();
        let body = vec![emvolt_isa::Instr {
            op: add,
            dst: emvolt_isa::Reg::gpr(1),
            srcs: [emvolt_isa::Reg::gpr(1), emvolt_isa::Reg::gpr(2)],
            mem_slot: 0,
        }];
        let k = emvolt_isa::Kernel::new(arch, body);
        assert_ne!(execute(&k, 10), execute(&k, 11));
    }

    #[test]
    fn random_kernels_execute_without_panicking() {
        for isa in [Isa::ArmV8, Isa::X86_64] {
            let pool = InstructionPool::default_for(isa);
            let mut rng = StdRng::seed_from_u64(17);
            for _ in 0..20 {
                let k = pool.random_kernel(50, &mut rng);
                let _ = execute(&k, 50);
            }
        }
    }

    #[test]
    fn zero_fault_probability_matches_golden() {
        let k = sweep_kernel(Isa::X86_64);
        let golden = execute(&k, 200);
        let mut rng = StdRng::seed_from_u64(3);
        let out = execute_with_faults(
            &k,
            200,
            FaultModel {
                per_instr_probability: 0.0,
            },
            &mut rng,
        );
        assert_eq!(out.digest, golden);
        assert_eq!(out.faults_injected, 0);
    }

    #[test]
    fn faults_corrupt_the_digest() {
        let pool = InstructionPool::default_for(Isa::ArmV8);
        let mut rng = StdRng::seed_from_u64(5);
        let k = pool.random_kernel(50, &mut rng);
        let golden = execute(&k, 100);
        let out = execute_with_faults(
            &k,
            100,
            FaultModel {
                per_instr_probability: 0.01,
            },
            &mut rng,
        );
        assert!(out.faults_injected > 0);
        assert_ne!(out.digest, golden, "bit flips must be visible in output");
    }

    #[test]
    fn template_matches_the_reference_state() {
        let s = ArchState::template(64);
        assert!(s.gprs.iter().all(|&g| g != 0));
        assert!(s.gprs[0] != s.gprs[1]);
        assert!(s.fprs.iter().all(|&f| f > 1.0 && f < 2.0));
        let words: Vec<u64> = s
            .gprs
            .iter()
            .copied()
            .chain(s.fprs.iter().map(|f| f.to_bits()))
            .chain(s.mem.iter().copied())
            .collect();
        assert_eq!(template(64), words);
    }

    #[test]
    fn float_values_stay_finite_over_long_runs() {
        let pool = InstructionPool::default_for(Isa::ArmV8);
        let mut rng = StdRng::seed_from_u64(23);
        let k = pool.random_kernel(50, &mut rng);
        let mut state = ArchState::template(64);
        let _ = reference::run(&k, 5000, &mut state, None, &mut rng);
        for &f in &state.fprs {
            assert!(f.is_finite(), "non-finite register after long run");
        }
    }

    #[test]
    fn bool_threshold_is_gen_bool() {
        use rand::rngs::mock::StepRng;
        let mut rng = StdRng::seed_from_u64(7);
        let scale = (1u64 << 53) as f64;
        let mut ps = vec![
            0.0,
            f64::MIN_POSITIVE,
            5e-324,
            1e-4,
            0.05,
            0.5,
            1.0,
            1.0 / scale,
            3.0 / scale,
            1.0 - 1.0 / scale,
        ];
        ps.extend((0..200).map(|_| rng.gen_range(0.0..1.0)));
        ps.extend((0..200).map(|_| (rng.next_u64() >> 11) as f64 / scale));
        for p in ps {
            let t = bool_threshold(p);
            let near = [t.saturating_sub(1), t, t + 1].map(|k| k.min((1 << 53) - 1));
            let mut draws: Vec<u64> = near
                .iter()
                .map(|&k| (k << 11) | (rng.next_u64() & 0x7ff))
                .collect();
            draws.extend((0..32).map(|_| rng.next_u64()));
            for x in draws {
                let want = StepRng::new(x, 0).gen_bool(p);
                assert_eq!(x >> 11 < t, want, "p={p:e} x={x:#x}");
            }
        }
    }

    #[test]
    fn nan_probability_panics_only_when_a_draw_happens() {
        let k = sweep_kernel(Isa::ArmV8);
        let nan = FaultModel {
            per_instr_probability: f64::NAN,
        };
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(execute_with_faults(&k, 0, nan, &mut rng).faults_injected, 0);
        let drew = std::panic::catch_unwind(move || execute_with_faults(&k, 1, nan, &mut rng));
        assert!(drew.is_err());
    }

    fn arb_isa() -> impl Strategy<Value = Isa> {
        prop_oneof![Just(Isa::ArmV8), Just(Isa::X86_64)]
    }

    const PROBABILITIES: [f64; 4] = [0.0, 1e-4, 0.05, 1.0];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every lane of a group — up to nine, so one chunk boundary is
        /// crossed — matches the reference interpreter run alone with the
        /// same RNG: digest, fault count and the RNG left behind.
        #[test]
        fn lane_groups_match_the_reference(
            isa in arb_isa(),
            seed in any::<u64>(),
            len in 1usize..48,
            iterations in 0usize..=64,
            ps in prop::collection::vec(0usize..4, 1..10),
        ) {
            let kernel = InstructionPool::default_for(isa)
                .random_kernel(len, &mut StdRng::seed_from_u64(seed));
            let program = Program::new(&kernel);
            let models: Vec<FaultModel> = ps
                .iter()
                .map(|&i| FaultModel { per_instr_probability: PROBABILITIES[i] })
                .collect();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xF417);
            let mut reference_rng = rng.clone();
            let plans: Vec<FaultPlan> = models
                .iter()
                .map(|&m| program.draw_faults(iterations, m, &mut rng))
                .collect();
            let outputs = program.run(iterations, &plans);
            prop_assert_eq!(outputs.len(), models.len());
            for (lane, (out, &m)) in outputs.iter().zip(&models).enumerate() {
                let want =
                    reference::execute_with_faults(&kernel, iterations, m, &mut reference_rng);
                prop_assert_eq!(*out, want, "lane {} of {}", lane, models.len());
            }
            prop_assert_eq!(rng.state(), reference_rng.state());

            let mut state = ArchState::template(kernel.arch().mem_slots());
            let (golden, _) = reference::run(
                &kernel,
                iterations,
                &mut state,
                None,
                &mut rand::rngs::mock::StepRng::new(0, 1),
            );
            prop_assert_eq!(execute(&kernel, iterations), golden);
        }
    }
}
