//! Synthetic workload library.
//!
//! The paper baselines its viruses against SPEC CPU2006 (on the ARM
//! platforms) and common desktop workloads plus stability tests (on the
//! AMD platform). Those binaries are not redistributable, so each one is
//! modelled as a deterministic instruction-mix kernel whose class
//! weights follow the workload's published character (integer-heavy,
//! memory-streaming, SIMD-FFT, ...). What matters for the reproduction is
//! that they are realistic *non-resonant* mixes: long loop bodies with
//! near-uniform current, producing far less periodic dI/dt excitation
//! than the GA-evolved viruses.

use emvolt_isa::{InstructionPool, Isa, Kernel, OpClass};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which suite a workload belongs to (drives figure grouping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Suite {
    /// The idle pseudo-workload.
    Idle,
    /// SPEC CPU2006-like kernels.
    Spec2006,
    /// Desktop/Windows workloads (Blender, Cinebench, ...).
    Desktop,
    /// Stability tests (Prime95, AMD system stability test).
    Stability,
    /// GA-generated dI/dt viruses.
    Virus,
}

/// A named workload: a kernel plus metadata.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Display name (e.g. `"lbm"`).
    pub name: String,
    /// Suite grouping.
    pub suite: Suite,
    /// The loop kernel executed on each loaded core.
    pub kernel: Kernel,
}

impl Workload {
    /// Creates a workload.
    pub fn new(name: impl Into<String>, suite: Suite, kernel: Kernel) -> Self {
        Workload {
            name: name.into(),
            suite,
            kernel,
        }
    }
}

/// Builds a kernel of `len` instructions sampling classes by `weights`,
/// deterministically from `seed`.
///
/// # Panics
///
/// Panics if every weighted class is missing from the pool.
pub fn mix_kernel(
    pool: &InstructionPool,
    len: usize,
    weights: &[(OpClass, f64)],
    seed: u64,
) -> Kernel {
    let mut rng = StdRng::seed_from_u64(seed);
    let total: f64 = weights.iter().map(|(_, w)| w).sum();
    let mut body = Vec::with_capacity(len);
    while body.len() < len {
        let mut pick = rng.gen_range(0.0..total);
        let mut chosen = weights[0].0;
        for &(class, w) in weights {
            if pick < w {
                chosen = class;
                break;
            }
            pick -= w;
        }
        if let Some(instr) = pool.random_instr_of_class(chosen, &mut rng) {
            body.push(instr);
        } else if let Some(any) = weights
            .iter()
            .find_map(|&(c, _)| pool.random_instr_of_class(c, &mut rng))
        {
            body.push(any);
        } else {
            panic!("no weighted class resolvable in pool");
        }
    }
    Kernel::new(std::sync::Arc::clone(pool.arch()), body)
}

/// Builds the `lbm`-like streaming kernel: structured phases of
/// load/float/store bursts separated by long-latency stalls, giving it
/// the strongest periodic current modulation among the SPEC-like
/// baselines (lbm shows the highest droop of the SPEC suite in Fig. 10).
pub fn lbm_kernel(pool: &InstructionPool, seed: u64) -> Kernel {
    use emvolt_isa::{Instr, Reg};
    let mut rng = StdRng::seed_from_u64(seed);
    let arch = pool.arch();
    // Scalar multiply, SIMD multiply and scalar divide in each ISA's
    // mnemonics, and the classes of its memory traffic: x86 has no
    // explicit loads or stores, only memory-operand instructions.
    let ((fmul, vmul, fdiv), (load, store)) = match arch.isa() {
        Isa::ArmV8 => (("fmul", "fmul.4s", "fdiv"), (OpClass::Load, OpClass::Store)),
        Isa::X86_64 => (
            ("mulsd", "mulpd", "divsd"),
            (OpClass::IntShortMem, OpClass::IntShortMem),
        ),
    };
    let op = |name: &str| {
        arch.op_by_name(name)
            .unwrap_or_else(|| panic!("{name} exists on {}", arch.isa()))
    };
    let (fmul, vmul, fdiv) = (op(fmul), op(vmul), op(fdiv));
    let mut body = Vec::new();
    // 40 stream phases: a dense, mutually independent burst of float and
    // SIMD multiplies bracketed by loads/stores, terminated by a divide
    // whose result the next phase consumes — the lattice-Boltzmann
    // collide/stream structure that makes lbm the most periodic (and
    // droop-heavy) member of the suite.
    let div_dst = Reg::fpr(11);
    for _ in 0..40 {
        for _ in 0..2 {
            body.push(pool.random_instr_of_class(load, &mut rng).expect("load"));
        }
        for k in 0..5u8 {
            // First multiply consumes the previous phase's divide result,
            // serialising the phases; the rest are independent.
            let s0 = if k == 0 {
                div_dst
            } else {
                Reg::fpr(6 + (k % 4))
            };
            body.push(Instr {
                op: fmul,
                dst: Reg::fpr(k % 5),
                srcs: [s0, Reg::fpr(7 + (k % 4))],
                mem_slot: 0,
            });
        }
        for k in 0..4u8 {
            body.push(Instr {
                op: vmul,
                dst: Reg::fpr(5 + (k % 4)),
                srcs: [Reg::fpr(8 + (k % 3)), Reg::fpr(9 + (k % 3))],
                mem_slot: 0,
            });
        }
        for _ in 0..2 {
            body.push(pool.random_instr_of_class(store, &mut rng).expect("store"));
        }
        body.push(Instr {
            op: fdiv,
            dst: div_dst,
            srcs: [Reg::fpr(10), Reg::fpr(9)],
            mem_slot: 0,
        });
    }
    Kernel::new(std::sync::Arc::clone(pool.arch()), body)
}

const BENCH_LEN: usize = 1024;

/// The SPEC CPU2006-like suite for ARM platforms (Figs. 4, 10, 14).
pub fn spec2006_suite(isa: Isa) -> Vec<Workload> {
    use OpClass::*;
    let pool = InstructionPool::default_for(isa);
    let mk = |name: &str, weights: &[(OpClass, f64)], seed: u64| {
        Workload::new(
            name,
            Suite::Spec2006,
            mix_kernel(&pool, BENCH_LEN, weights, seed),
        )
    };
    vec![
        mk(
            "perlbench",
            &[
                (IntShort, 0.45),
                (IntLong, 0.10),
                (Load, 0.20),
                (Store, 0.10),
                (Branch, 0.05),
                (FloatShort, 0.05),
                (Simd, 0.05),
            ],
            101,
        ),
        mk(
            "bzip2",
            &[
                (IntShort, 0.40),
                (Load, 0.25),
                (Store, 0.15),
                (IntLong, 0.10),
                (Branch, 0.10),
            ],
            102,
        ),
        mk(
            "gcc",
            &[
                (IntShort, 0.45),
                (Load, 0.20),
                (Store, 0.10),
                (IntLong, 0.10),
                (Branch, 0.15),
            ],
            103,
        ),
        mk(
            "mcf",
            &[
                (Load, 0.35),
                (IntShort, 0.35),
                (Store, 0.10),
                (IntLong, 0.05),
                (Branch, 0.15),
            ],
            104,
        ),
        mk(
            "milc",
            &[
                (FloatShort, 0.40),
                (Simd, 0.20),
                (Load, 0.20),
                (IntShort, 0.15),
                (Store, 0.05),
            ],
            105,
        ),
        mk(
            "namd",
            &[
                (FloatShort, 0.50),
                (Simd, 0.25),
                (IntShort, 0.15),
                (Load, 0.10),
            ],
            106,
        ),
        mk(
            "gobmk",
            &[
                (IntShort, 0.50),
                (Branch, 0.20),
                (Load, 0.20),
                (Store, 0.10),
            ],
            107,
        ),
        mk(
            "soplex",
            &[
                (FloatShort, 0.35),
                (Load, 0.25),
                (IntShort, 0.25),
                (IntLong, 0.05),
                (Store, 0.10),
            ],
            108,
        ),
        mk(
            "hmmer",
            &[
                (IntShort, 0.50),
                (Load, 0.25),
                (Simd, 0.10),
                (Store, 0.10),
                (IntLong, 0.05),
            ],
            109,
        ),
        mk(
            "sjeng",
            &[
                (IntShort, 0.45),
                (Branch, 0.25),
                (Load, 0.20),
                (Store, 0.10),
            ],
            110,
        ),
        mk(
            "libquantum",
            &[(IntShort, 0.30), (Simd, 0.30), (Load, 0.25), (Store, 0.15)],
            111,
        ),
        mk(
            "h264ref",
            &[(Simd, 0.35), (IntShort, 0.30), (Load, 0.25), (Store, 0.10)],
            112,
        ),
        mk(
            "astar",
            &[
                (Load, 0.30),
                (IntShort, 0.40),
                (Branch, 0.20),
                (Store, 0.10),
            ],
            113,
        ),
        Workload::new("lbm", Suite::Spec2006, lbm_kernel(&pool, 114)),
    ]
}

/// The desktop workload suite for the AMD platform (Fig. 18).
pub fn desktop_suite() -> Vec<Workload> {
    use OpClass::*;
    let pool = InstructionPool::default_for(Isa::X86_64);
    let mk = |name: &str, suite: Suite, weights: &[(OpClass, f64)], seed: u64| {
        Workload::new(name, suite, mix_kernel(&pool, BENCH_LEN, weights, seed))
    };
    vec![
        mk(
            "blender",
            Suite::Desktop,
            &[
                (Simd, 0.35),
                (FloatShort, 0.25),
                (IntShortMem, 0.20),
                (IntShort, 0.20),
            ],
            201,
        ),
        mk(
            "cinebench",
            Suite::Desktop,
            &[
                (Simd, 0.40),
                (FloatShort, 0.20),
                (IntShortMem, 0.20),
                (IntShort, 0.15),
                (IntLong, 0.05),
            ],
            202,
        ),
        mk(
            "euler3d",
            Suite::Desktop,
            &[
                (FloatShort, 0.45),
                (Simd, 0.20),
                (IntShortMem, 0.25),
                (IntShort, 0.10),
            ],
            203,
        ),
        mk(
            "webxprt",
            Suite::Desktop,
            &[
                (IntShort, 0.50),
                (IntShortMem, 0.30),
                (IntLong, 0.10),
                (Simd, 0.10),
            ],
            204,
        ),
        mk(
            "geekbench",
            Suite::Desktop,
            &[
                (IntShort, 0.30),
                (IntShortMem, 0.20),
                (FloatShort, 0.20),
                (Simd, 0.20),
                (IntLong, 0.10),
            ],
            205,
        ),
        mk(
            "prime95",
            Suite::Stability,
            &[
                (Simd, 0.55),
                (FloatShort, 0.20),
                (IntShortMem, 0.15),
                (IntShort, 0.10),
            ],
            206,
        ),
        mk(
            "amd_stability",
            Suite::Stability,
            &[
                (Simd, 0.40),
                (FloatShort, 0.30),
                (IntShort, 0.20),
                (IntShortMem, 0.10),
            ],
            207,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_suite_has_fourteen_named_workloads() {
        let suite = spec2006_suite(Isa::ArmV8);
        assert_eq!(suite.len(), 14);
        assert!(suite.iter().any(|w| w.name == "lbm"));
        let mut names: Vec<&str> = suite.iter().map(|w| w.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 14, "duplicate workload names");
    }

    /// The x86 suite builds too: its `lbm` picks the x86 multiply and
    /// divide mnemonics instead of looking up ARM ones.
    #[test]
    fn x86_spec_suite_builds_with_x86_lbm_ops() {
        let suite = spec2006_suite(Isa::X86_64);
        assert_eq!(suite.len(), 14);
        let lbm = &suite.iter().find(|w| w.name == "lbm").unwrap().kernel;
        let arch = lbm.arch();
        for name in ["mulsd", "mulpd", "divsd"] {
            let op = arch.op_by_name(name).unwrap();
            assert!(lbm.body().iter().any(|i| i.op == op), "lbm lacks {name}");
        }
    }

    #[test]
    fn mixes_are_deterministic() {
        let a = spec2006_suite(Isa::ArmV8);
        let b = spec2006_suite(Isa::ArmV8);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.kernel.body(), y.kernel.body(), "{}", x.name);
        }
    }

    #[test]
    fn mix_weights_are_respected_approximately() {
        let pool = InstructionPool::default_for(Isa::ArmV8);
        let k = mix_kernel(
            &pool,
            2000,
            &[(OpClass::IntShort, 0.7), (OpClass::FloatShort, 0.3)],
            42,
        );
        let int_frac = k.class_fraction(OpClass::IntShort);
        assert!((int_frac - 0.7).abs() < 0.05, "int fraction {int_frac}");
    }

    #[test]
    fn lbm_kernel_is_structured_and_long() {
        let pool = InstructionPool::default_for(Isa::ArmV8);
        let k = lbm_kernel(&pool, 1);
        assert_eq!(k.len(), 40 * 14);
        assert!(k.class_fraction(OpClass::FloatShort) > 0.25);
        assert!(k.class_fraction(OpClass::Load) > 0.1);
    }

    #[test]
    fn desktop_suite_uses_x86() {
        for w in desktop_suite() {
            assert_eq!(w.kernel.arch().isa(), Isa::X86_64);
            assert!(!w.kernel.is_empty());
        }
    }

    #[test]
    fn benchmarks_execute_on_their_cores() {
        use emvolt_cpu::{CoreModel, Cpu, SimConfig};
        let cfg = SimConfig {
            min_duration: 1e-6,
            ..SimConfig::default()
        };
        let cpu = Cpu::new(CoreModel::cortex_a53(), 950e6);
        for w in spec2006_suite(Isa::ArmV8) {
            let out = cpu.simulate(&w.kernel, &cfg).unwrap();
            assert!(out.ipc > 0.1, "{} ipc {}", w.name, out.ipc);
        }
        let amd = Cpu::new(CoreModel::athlon_ii(), 3.1e9);
        for w in desktop_suite() {
            let out = amd.simulate(&w.kernel, &cfg).unwrap();
            assert!(out.ipc > 0.1, "{} ipc {}", w.name, out.ipc);
        }
    }
}
