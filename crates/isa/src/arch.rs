//! Architecture descriptions: operation classes, functional units and the
//! per-operation timing/energy descriptors the CPU model consumes.

use crate::instr::{Reg, RegClass};
use serde::{Deserialize, Serialize};

/// Which instruction-set architecture a description models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Isa {
    /// ARMv8-A (AArch64), as on the Cortex-A72/A53 clusters.
    ArmV8,
    /// x86-64 with SSE2, as on the AMD Athlon II.
    X86_64,
}

impl std::fmt::Display for Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Isa::ArmV8 => write!(f, "ARMv8"),
            Isa::X86_64 => write!(f, "x86-64"),
        }
    }
}

/// Fine-grained operation class.
///
/// These are the instruction categories §3.3 of the paper feeds to the GA:
/// short/long-latency integer, floating-point, SIMD, memory and dummy
/// branches, plus the x86 memory-operand forms used in Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpClass {
    /// Unconditional branch to the next instruction (dummy branch).
    Branch,
    /// Single-cycle integer ALU op with register operands.
    IntShort,
    /// Multi-cycle integer op (MUL/DIV) with register operands.
    IntLong,
    /// x86 only: short-latency integer op with a memory operand.
    IntShortMem,
    /// x86 only: long-latency integer op with a memory operand.
    IntLongMem,
    /// Short-latency scalar floating-point op.
    FloatShort,
    /// Long-latency scalar floating-point op (divide, square root).
    FloatLong,
    /// SIMD op of moderate latency.
    Simd,
    /// Long-latency SIMD op (vector divide/square root).
    SimdLong,
    /// ARM load.
    Load,
    /// ARM store.
    Store,
}

/// The instruction-mix category used by Table 2 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MixCategory {
    /// Branches (ARM only in the paper's table).
    Branch,
    /// Short-latency integer, register operands.
    ShortIntReg,
    /// Long-latency integer, register operands.
    LongIntReg,
    /// Short-latency integer with memory operand (x86 only).
    ShortIntMem,
    /// Long-latency integer with memory operand (x86 only).
    LongIntMem,
    /// Scalar floating point.
    Float,
    /// SIMD.
    Simd,
    /// Explicit loads/stores (ARM only).
    Mem,
}

impl MixCategory {
    /// All categories in Table 2 column order.
    pub const ALL: [MixCategory; 8] = [
        MixCategory::Branch,
        MixCategory::ShortIntReg,
        MixCategory::LongIntReg,
        MixCategory::ShortIntMem,
        MixCategory::LongIntMem,
        MixCategory::Float,
        MixCategory::Simd,
        MixCategory::Mem,
    ];

    /// Table-2 column label.
    pub fn label(self) -> &'static str {
        match self {
            MixCategory::Branch => "Branch",
            MixCategory::ShortIntReg => "SL int Register",
            MixCategory::LongIntReg => "LL int Register",
            MixCategory::ShortIntMem => "SL int Mem",
            MixCategory::LongIntMem => "LL int Mem",
            MixCategory::Float => "Float",
            MixCategory::Simd => "SIMD",
            MixCategory::Mem => "MEM",
        }
    }
}

impl OpClass {
    /// Maps the fine-grained class onto the paper's Table-2 category.
    pub fn mix_category(self) -> MixCategory {
        match self {
            OpClass::Branch => MixCategory::Branch,
            OpClass::IntShort => MixCategory::ShortIntReg,
            OpClass::IntLong => MixCategory::LongIntReg,
            OpClass::IntShortMem => MixCategory::ShortIntMem,
            OpClass::IntLongMem => MixCategory::LongIntMem,
            OpClass::FloatShort | OpClass::FloatLong => MixCategory::Float,
            OpClass::Simd | OpClass::SimdLong => MixCategory::Simd,
            OpClass::Load | OpClass::Store => MixCategory::Mem,
        }
    }

    /// `true` for classes whose destination/operands live in the FP/SIMD
    /// register file.
    pub fn uses_fp_registers(self) -> bool {
        matches!(
            self,
            OpClass::FloatShort | OpClass::FloatLong | OpClass::Simd | OpClass::SimdLong
        )
    }
}

/// Functional-unit kind an operation executes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FuKind {
    /// Simple integer ALU.
    Alu,
    /// Integer multiplier.
    Mul,
    /// Integer divider (typically unpipelined).
    Div,
    /// Floating-point add/multiply pipe.
    Fpu,
    /// Floating-point divide/sqrt (unpipelined).
    FpDiv,
    /// SIMD pipe.
    SimdUnit,
    /// Load/store unit + L1 data cache.
    LoadStore,
    /// Branch unit.
    BranchUnit,
}

/// The arithmetic behaviour of an operation, used by the functional
/// executor to compute golden outputs for silent-data-corruption checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Semantics {
    /// Copies the first source.
    Move,
    /// Wrapping integer add.
    IntAdd,
    /// Wrapping integer subtract.
    IntSub,
    /// Bitwise exclusive or.
    IntXor,
    /// Wrapping integer multiply.
    IntMul,
    /// Integer divide (divisor forced odd/non-zero by the executor).
    IntDiv,
    /// Floating add.
    FloatAdd,
    /// Floating multiply.
    FloatMul,
    /// Floating divide.
    FloatDiv,
    /// Floating square root of the absolute value.
    FloatSqrt,
    /// Load from scratch memory.
    LoadMem,
    /// Store to scratch memory.
    StoreMem,
    /// No architectural effect (dummy branch).
    Nop,
}

/// A static operation descriptor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Op {
    /// Mnemonic, e.g. `"add"`, `"fsqrt"`, `"ldr"`.
    pub name: &'static str,
    /// Fine-grained class.
    pub class: OpClass,
    /// Execution unit.
    pub fu: FuKind,
    /// Result latency in cycles.
    pub latency: u32,
    /// `true` when the FU cannot accept a new op until this one retires
    /// (unpipelined dividers and sqrt units).
    pub unpipelined: bool,
    /// Current drawn in the issue cycle, in amps (per-platform scaling is
    /// applied by the CPU model).
    pub issue_current: f64,
    /// Current drawn in each subsequent execution cycle, in amps.
    pub active_current: f64,
    /// Number of register sources.
    pub src_count: u8,
    /// Whether the op writes a destination register.
    pub has_dst: bool,
    /// Architectural behaviour for the functional executor.
    pub semantics: Semantics,
}

/// Index of an [`Op`] within its [`Architecture`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct OpIndex(pub usize);

/// A complete architecture description: ISA plus its operation table and
/// register-file shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Architecture {
    isa: Isa,
    ops: Vec<Op>,
    /// Number of general-purpose registers usable by generated code.
    gpr_count: u8,
    /// Number of FP/SIMD registers usable by generated code.
    fpr_count: u8,
    /// Number of 8-byte scratch-memory slots (all L1-resident).
    mem_slots: u16,
}

impl Architecture {
    /// The ARMv8 description used for the Cortex-A72/A53 experiments.
    pub fn armv8() -> Self {
        use FuKind::*;
        use OpClass::*;
        use Semantics::*;
        let ops = vec![
            Op {
                name: "mov",
                class: IntShort,
                fu: Alu,
                latency: 1,
                unpipelined: false,
                issue_current: 0.30,
                active_current: 0.0,
                src_count: 1,
                has_dst: true,
                semantics: Move,
            },
            Op {
                name: "add",
                class: IntShort,
                fu: Alu,
                latency: 1,
                unpipelined: false,
                issue_current: 0.35,
                active_current: 0.0,
                src_count: 2,
                has_dst: true,
                semantics: IntAdd,
            },
            Op {
                name: "sub",
                class: IntShort,
                fu: Alu,
                latency: 1,
                unpipelined: false,
                issue_current: 0.35,
                active_current: 0.0,
                src_count: 2,
                has_dst: true,
                semantics: IntSub,
            },
            Op {
                name: "eor",
                class: IntShort,
                fu: Alu,
                latency: 1,
                unpipelined: false,
                issue_current: 0.33,
                active_current: 0.0,
                src_count: 2,
                has_dst: true,
                semantics: IntXor,
            },
            Op {
                name: "mul",
                class: IntLong,
                fu: Mul,
                latency: 3,
                unpipelined: false,
                issue_current: 0.45,
                active_current: 0.10,
                src_count: 2,
                has_dst: true,
                semantics: IntMul,
            },
            Op {
                name: "sdiv",
                class: IntLong,
                fu: Div,
                latency: 4,
                unpipelined: true,
                issue_current: 0.20,
                active_current: 0.04,
                src_count: 2,
                has_dst: true,
                semantics: IntDiv,
            },
            Op {
                name: "fadd",
                class: FloatShort,
                fu: Fpu,
                latency: 3,
                unpipelined: false,
                issue_current: 0.45,
                active_current: 0.08,
                src_count: 2,
                has_dst: true,
                semantics: FloatAdd,
            },
            Op {
                name: "fmul",
                class: FloatShort,
                fu: Fpu,
                latency: 4,
                unpipelined: false,
                issue_current: 0.50,
                active_current: 0.10,
                src_count: 2,
                has_dst: true,
                semantics: FloatMul,
            },
            Op {
                name: "fdiv",
                class: FloatLong,
                fu: FpDiv,
                latency: 18,
                unpipelined: true,
                issue_current: 0.22,
                active_current: 0.03,
                src_count: 2,
                has_dst: true,
                semantics: FloatDiv,
            },
            Op {
                name: "fsqrt",
                class: FloatLong,
                fu: FpDiv,
                latency: 22,
                unpipelined: true,
                issue_current: 0.20,
                active_current: 0.03,
                src_count: 1,
                has_dst: true,
                semantics: FloatSqrt,
            },
            Op {
                name: "add.4s",
                class: Simd,
                fu: SimdUnit,
                latency: 3,
                unpipelined: false,
                issue_current: 0.60,
                active_current: 0.12,
                src_count: 2,
                has_dst: true,
                semantics: IntAdd,
            },
            Op {
                name: "fmul.4s",
                class: Simd,
                fu: SimdUnit,
                latency: 4,
                unpipelined: false,
                issue_current: 0.70,
                active_current: 0.15,
                src_count: 2,
                has_dst: true,
                semantics: FloatMul,
            },
            Op {
                name: "fsqrt.4s",
                class: SimdLong,
                fu: SimdUnit,
                latency: 26,
                unpipelined: true,
                issue_current: 0.25,
                active_current: 0.04,
                src_count: 1,
                has_dst: true,
                semantics: FloatSqrt,
            },
            Op {
                name: "ldr",
                class: Load,
                fu: LoadStore,
                latency: 4,
                unpipelined: false,
                issue_current: 0.50,
                active_current: 0.06,
                src_count: 0,
                has_dst: true,
                semantics: LoadMem,
            },
            Op {
                name: "str",
                class: Store,
                fu: LoadStore,
                latency: 1,
                unpipelined: false,
                issue_current: 0.45,
                active_current: 0.0,
                src_count: 1,
                has_dst: false,
                semantics: StoreMem,
            },
            Op {
                name: "b",
                class: Branch,
                fu: BranchUnit,
                latency: 1,
                unpipelined: false,
                issue_current: 0.15,
                active_current: 0.0,
                src_count: 0,
                has_dst: false,
                semantics: Nop,
            },
        ];
        Architecture {
            isa: Isa::ArmV8,
            ops,
            gpr_count: 12,
            fpr_count: 12,
            mem_slots: 64,
        }
    }

    /// The x86-64/SSE2 description used for the AMD Athlon experiments.
    ///
    /// x86 has no explicit load/store in the paper's pool; memory traffic
    /// comes from integer ops with memory operands (§3.3).
    pub fn x86_64() -> Self {
        use FuKind::*;
        use OpClass::*;
        use Semantics::*;
        let ops = vec![
            Op {
                name: "mov",
                class: IntShort,
                fu: Alu,
                latency: 1,
                unpipelined: false,
                issue_current: 0.8,
                active_current: 0.0,
                src_count: 1,
                has_dst: true,
                semantics: Move,
            },
            Op {
                name: "add",
                class: IntShort,
                fu: Alu,
                latency: 1,
                unpipelined: false,
                issue_current: 1.0,
                active_current: 0.0,
                src_count: 2,
                has_dst: true,
                semantics: IntAdd,
            },
            Op {
                name: "sub",
                class: IntShort,
                fu: Alu,
                latency: 1,
                unpipelined: false,
                issue_current: 1.0,
                active_current: 0.0,
                src_count: 2,
                has_dst: true,
                semantics: IntSub,
            },
            Op {
                name: "xor",
                class: IntShort,
                fu: Alu,
                latency: 1,
                unpipelined: false,
                issue_current: 0.95,
                active_current: 0.0,
                src_count: 2,
                has_dst: true,
                semantics: IntXor,
            },
            Op {
                name: "addmem",
                class: IntShortMem,
                fu: LoadStore,
                latency: 5,
                unpipelined: false,
                issue_current: 1.5,
                active_current: 0.20,
                src_count: 1,
                has_dst: true,
                semantics: IntAdd,
            },
            Op {
                name: "movmem",
                class: IntShortMem,
                fu: LoadStore,
                latency: 4,
                unpipelined: false,
                issue_current: 1.3,
                active_current: 0.18,
                src_count: 0,
                has_dst: true,
                semantics: LoadMem,
            },
            Op {
                name: "imul",
                class: IntLong,
                fu: Mul,
                latency: 3,
                unpipelined: false,
                issue_current: 1.3,
                active_current: 0.30,
                src_count: 2,
                has_dst: true,
                semantics: IntMul,
            },
            Op {
                name: "idiv",
                class: IntLong,
                fu: Div,
                latency: 20,
                unpipelined: true,
                issue_current: 0.6,
                active_current: 0.10,
                src_count: 2,
                has_dst: true,
                semantics: IntDiv,
            },
            Op {
                name: "imulmem",
                class: IntLongMem,
                fu: Mul,
                latency: 8,
                unpipelined: false,
                issue_current: 1.5,
                active_current: 0.25,
                src_count: 1,
                has_dst: true,
                semantics: IntMul,
            },
            Op {
                name: "addsd",
                class: FloatShort,
                fu: Fpu,
                latency: 3,
                unpipelined: false,
                issue_current: 1.3,
                active_current: 0.25,
                src_count: 2,
                has_dst: true,
                semantics: FloatAdd,
            },
            Op {
                name: "mulsd",
                class: FloatShort,
                fu: Fpu,
                latency: 5,
                unpipelined: false,
                issue_current: 1.4,
                active_current: 0.28,
                src_count: 2,
                has_dst: true,
                semantics: FloatMul,
            },
            Op {
                name: "divsd",
                class: FloatLong,
                fu: FpDiv,
                latency: 14,
                unpipelined: true,
                issue_current: 0.6,
                active_current: 0.10,
                src_count: 2,
                has_dst: true,
                semantics: FloatDiv,
            },
            Op {
                name: "sqrtsd",
                class: FloatLong,
                fu: FpDiv,
                latency: 16,
                unpipelined: true,
                issue_current: 0.55,
                active_current: 0.09,
                src_count: 1,
                has_dst: true,
                semantics: FloatSqrt,
            },
            Op {
                name: "addpd",
                class: Simd,
                fu: SimdUnit,
                latency: 3,
                unpipelined: false,
                issue_current: 1.8,
                active_current: 0.35,
                src_count: 2,
                has_dst: true,
                semantics: FloatAdd,
            },
            Op {
                name: "mulpd",
                class: Simd,
                fu: SimdUnit,
                latency: 5,
                unpipelined: false,
                issue_current: 2.0,
                active_current: 0.40,
                src_count: 2,
                has_dst: true,
                semantics: FloatMul,
            },
            Op {
                name: "sqrtpd",
                class: SimdLong,
                fu: SimdUnit,
                latency: 20,
                unpipelined: true,
                issue_current: 0.7,
                active_current: 0.12,
                src_count: 1,
                has_dst: true,
                semantics: FloatSqrt,
            },
            Op {
                name: "jmp",
                class: Branch,
                fu: BranchUnit,
                latency: 1,
                unpipelined: false,
                issue_current: 0.4,
                active_current: 0.0,
                src_count: 0,
                has_dst: false,
                semantics: Nop,
            },
        ];
        Architecture {
            isa: Isa::X86_64,
            ops,
            gpr_count: 12,
            fpr_count: 12,
            mem_slots: 64,
        }
    }

    /// Builds the architecture for an [`Isa`].
    pub fn for_isa(isa: Isa) -> Self {
        match isa {
            Isa::ArmV8 => Architecture::armv8(),
            Isa::X86_64 => Architecture::x86_64(),
        }
    }

    /// Which ISA this describes.
    pub fn isa(&self) -> Isa {
        self.isa
    }

    /// All operation descriptors.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Descriptor for `idx`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn op(&self, idx: OpIndex) -> &Op {
        &self.ops[idx.0]
    }

    /// Looks up an operation by mnemonic.
    pub fn op_by_name(&self, name: &str) -> Option<OpIndex> {
        self.ops.iter().position(|o| o.name == name).map(OpIndex)
    }

    /// Number of usable general-purpose registers.
    pub fn gpr_count(&self) -> u8 {
        self.gpr_count
    }

    /// Number of usable FP/SIMD registers.
    pub fn fpr_count(&self) -> u8 {
        self.fpr_count
    }

    /// Checks that `reg` lies inside its register file on this
    /// architecture — the one bound check shared by the assembly parser
    /// and [`KernelSpec::to_kernel`](crate::KernelSpec::to_kernel).
    ///
    /// # Errors
    ///
    /// Names the file, the index and the file's size when the index is
    /// past the end.
    pub fn check_reg(&self, reg: Reg) -> Result<Reg, String> {
        let (file, count) = match reg.class {
            RegClass::Gpr => ("gpr", self.gpr_count),
            RegClass::Fpr => ("fpr", self.fpr_count),
        };
        if reg.index < count {
            Ok(reg)
        } else {
            Err(format!(
                "{file} register index {} outside the {count} registers of {}",
                reg.index, self.isa
            ))
        }
    }

    /// Number of 8-byte scratch-memory slots.
    pub fn mem_slots(&self) -> u16 {
        self.mem_slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_has_all_paper_classes() {
        let a = Architecture::armv8();
        for class in [
            OpClass::IntShort,
            OpClass::IntLong,
            OpClass::FloatShort,
            OpClass::FloatLong,
            OpClass::Simd,
            OpClass::Load,
            OpClass::Store,
            OpClass::Branch,
        ] {
            assert!(
                a.ops().iter().any(|o| o.class == class),
                "missing class {class:?}"
            );
        }
    }

    #[test]
    fn x86_uses_memory_operands_not_explicit_loads() {
        let a = Architecture::x86_64();
        assert!(a.ops().iter().all(|o| o.class != OpClass::Load));
        assert!(a.ops().iter().any(|o| o.class == OpClass::IntShortMem));
        assert!(a.ops().iter().any(|o| o.class == OpClass::IntLongMem));
    }

    #[test]
    fn op_lookup_by_name() {
        let a = Architecture::armv8();
        let idx = a.op_by_name("fsqrt").unwrap();
        assert_eq!(a.op(idx).name, "fsqrt");
        assert!(a.op_by_name("bogus").is_none());
    }

    #[test]
    fn long_latency_ops_are_slower_and_cooler() {
        // The paper's premise: long ops stall the pipe and draw less
        // current per cycle than a sustained stream of short ops.
        for arch in [Architecture::armv8(), Architecture::x86_64()] {
            let short_max = arch
                .ops()
                .iter()
                .filter(|o| o.class == OpClass::IntShort)
                .map(|o| o.issue_current)
                .fold(0.0, f64::max);
            for o in arch.ops().iter().filter(|o| o.unpipelined) {
                assert!(o.latency >= 4, "{} latency {}", o.name, o.latency);
                let avg = (o.issue_current + o.active_current * (o.latency - 1) as f64)
                    / o.latency as f64;
                assert!(
                    avg < short_max / 2.0,
                    "{} per-cycle current {avg} not low vs {short_max}",
                    o.name
                );
            }
        }
    }

    #[test]
    fn mix_categories_cover_all_classes() {
        for arch in [Architecture::armv8(), Architecture::x86_64()] {
            for o in arch.ops() {
                // Must not panic and must land in a Table-2 category.
                let cat = o.class.mix_category();
                assert!(MixCategory::ALL.contains(&cat));
            }
        }
    }

    #[test]
    fn semantics_and_register_files_are_consistent() {
        for arch in [Architecture::armv8(), Architecture::x86_64()] {
            for o in arch.ops() {
                if o.class.uses_fp_registers() {
                    assert!(
                        matches!(
                            o.semantics,
                            Semantics::FloatAdd
                                | Semantics::FloatMul
                                | Semantics::FloatDiv
                                | Semantics::FloatSqrt
                                | Semantics::IntAdd
                                | Semantics::Move
                        ),
                        "{} has odd semantics for FP class",
                        o.name
                    );
                }
            }
        }
    }
}
