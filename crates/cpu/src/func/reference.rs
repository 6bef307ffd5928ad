//! The one-instruction-at-a-time interpreter the predecoded executor
//! replaced, kept as the exactness oracle for its tests.
//!
//! It walks the kernel's [`Instr`](emvolt_isa::Instr)s directly, holds
//! the FPRs as `f64`, draws each fault from the RNG when the faulted
//! instruction executes, and digests the whole state byte by byte after
//! every iteration.

use super::{norm, FaultModel, FuncOutput};
use emvolt_isa::{Kernel, RegClass, Semantics};
use rand::Rng;

/// Architectural state: both register files plus scratch memory.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct ArchState {
    pub(super) gprs: [u64; 64],
    pub(super) fprs: [f64; 64],
    pub(super) mem: Vec<u64>,
}

impl ArchState {
    /// The canonical pre-initialised template.
    pub(super) fn template(mem_slots: u16) -> Self {
        let mut gprs = [0u64; 64];
        let mut fprs = [0f64; 64];
        for (i, g) in gprs.iter_mut().enumerate() {
            // Odd values so divides are well-behaved.
            *g = (0x9E37_79B9_7F4A_7C15u64)
                .wrapping_mul(i as u64 + 1)
                .wrapping_add(1)
                | 1;
        }
        for (i, f) in fprs.iter_mut().enumerate() {
            // Values in (1, 2): stable under repeated mul/div/sqrt.
            *f = 1.0 + (i as f64 + 1.0) / 80.0;
        }
        let mem = (0..mem_slots as u64)
            .map(|i| i.wrapping_mul(0xD1B5_4A32_D192_ED03) | 1)
            .collect();
        ArchState { gprs, fprs, mem }
    }

    /// Order-sensitive digest of the full architectural state (FNV-1a).
    pub(super) fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        for &g in &self.gprs {
            eat(g);
        }
        for &f in &self.fprs {
            eat(f.to_bits());
        }
        for &m in &self.mem {
            eat(m);
        }
        h
    }
}

/// The reference counterpart of [`execute_with_faults`](super::execute_with_faults).
pub(super) fn execute_with_faults<R: Rng>(
    kernel: &Kernel,
    iterations: usize,
    faults: FaultModel,
    rng: &mut R,
) -> FuncOutput {
    let mut state = ArchState::template(kernel.arch().mem_slots());
    let (digest, faults_injected) = run(kernel, iterations, &mut state, Some(faults), rng);
    FuncOutput {
        digest,
        faults_injected,
    }
}

pub(super) fn run<R: Rng>(
    kernel: &Kernel,
    iterations: usize,
    state: &mut ArchState,
    faults: Option<FaultModel>,
    rng: &mut R,
) -> (u64, u64) {
    let arch = kernel.arch();
    let mut injected = 0u64;
    let mut stream_digest: u64 = 0xcbf29ce484222325;
    for _ in 0..iterations {
        for i in kernel.body() {
            let op = arch.op(i.op);
            let slot = (i.mem_slot as usize) % state.mem.len().max(1);
            let g = |r: emvolt_isa::Reg, st: &ArchState| match r.class {
                RegClass::Gpr => st.gprs[r.index as usize],
                RegClass::Fpr => st.fprs[r.index as usize].to_bits(),
            };
            let gf = |r: emvolt_isa::Reg, st: &ArchState| match r.class {
                RegClass::Gpr => st.gprs[r.index as usize] as f64,
                RegClass::Fpr => st.fprs[r.index as usize],
            };
            let a = i.srcs[0];
            let b = i.srcs[1];
            enum Res {
                Int(u64),
                Float(f64),
                None,
            }
            let mut res = match op.semantics {
                Semantics::Move => {
                    if i.dst.class == RegClass::Fpr {
                        Res::Float(gf(a, state))
                    } else {
                        Res::Int(g(a, state))
                    }
                }
                Semantics::IntAdd => {
                    if i.dst.class == RegClass::Fpr {
                        // SIMD integer add modelled on the FP file.
                        Res::Float(gf(a, state) + gf(b, state))
                    } else {
                        Res::Int(g(a, state).wrapping_add(g(b, state)))
                    }
                }
                Semantics::IntSub => Res::Int(g(a, state).wrapping_sub(g(b, state))),
                Semantics::IntXor => Res::Int(g(a, state) ^ g(b, state)),
                Semantics::IntMul => Res::Int(g(a, state).wrapping_mul(g(b, state))),
                Semantics::IntDiv => {
                    let divisor = g(b, state) | 1; // never zero
                    Res::Int(g(a, state) / divisor)
                }
                Semantics::FloatAdd => Res::Float(gf(a, state) + gf(b, state)),
                Semantics::FloatMul => Res::Float(norm(gf(a, state) * gf(b, state))),
                Semantics::FloatDiv => {
                    let d = gf(b, state);
                    let d = if d.abs() < 1e-300 { 1.0 } else { d };
                    Res::Float(norm(gf(a, state) / d))
                }
                Semantics::FloatSqrt => Res::Float(gf(a, state).abs().sqrt()),
                Semantics::LoadMem => {
                    let v = state.mem[slot];
                    if i.dst.class == RegClass::Fpr {
                        Res::Float(f64::from_bits(v))
                    } else {
                        Res::Int(v)
                    }
                }
                Semantics::StoreMem => {
                    state.mem[slot] = g(a, state);
                    Res::None
                }
                Semantics::Nop => Res::None,
            };
            // Fault injection on the produced value.
            if let Some(fm) = faults {
                if !matches!(res, Res::None)
                    && rng.gen_bool(fm.per_instr_probability.clamp(0.0, 1.0))
                {
                    injected += 1;
                    let bit = rng.gen_range(0..52u32); // avoid exponent bits for floats
                    res = match res {
                        Res::Int(v) => Res::Int(v ^ (1u64 << bit)),
                        Res::Float(f) => Res::Float(f64::from_bits(f.to_bits() ^ (1u64 << bit))),
                        Res::None => Res::None,
                    };
                }
            }
            if op.has_dst {
                match (res, i.dst.class) {
                    (Res::Int(v), RegClass::Gpr) => state.gprs[i.dst.index as usize] = v,
                    (Res::Int(v), RegClass::Fpr) => {
                        state.fprs[i.dst.index as usize] = f64::from_bits(v)
                    }
                    (Res::Float(f), RegClass::Fpr) => state.fprs[i.dst.index as usize] = f,
                    (Res::Float(f), RegClass::Gpr) => {
                        state.gprs[i.dst.index as usize] = f.to_bits()
                    }
                    (Res::None, _) => {}
                }
            }
        }
        // Fold this iteration's state into the output-stream digest.
        for b in state.digest().to_le_bytes() {
            stream_digest ^= b as u64;
            stream_digest = stream_digest.wrapping_mul(0x100000001b3);
        }
    }
    (stream_digest, injected)
}
