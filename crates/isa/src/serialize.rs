//! Serde support for kernels.
//!
//! A [`Kernel`] holds an `Arc<Architecture>` and op indices, which do not
//! serialize meaningfully on their own; [`KernelSpec`] is the stable
//! interchange form (ISA tag + mnemonic-addressed instructions) used to
//! persist GA-generated viruses to disk.

use crate::arch::{Architecture, Isa};
use crate::instr::{Instr, Kernel, Reg, RegClass};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Serializable register.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegSpec {
    /// `"gpr"` or `"fpr"`.
    pub file: String,
    /// Register index.
    pub index: u8,
}

impl From<Reg> for RegSpec {
    fn from(r: Reg) -> Self {
        RegSpec {
            file: match r.class {
                RegClass::Gpr => "gpr".to_owned(),
                RegClass::Fpr => "fpr".to_owned(),
            },
            index: r.index,
        }
    }
}

/// Serializable instruction (mnemonic-addressed).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstrSpec {
    /// Operation mnemonic.
    pub op: String,
    /// Destination register.
    pub dst: RegSpec,
    /// Source registers.
    pub srcs: [RegSpec; 2],
    /// Scratch-memory slot.
    pub mem_slot: u16,
}

/// Serializable kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelSpec {
    /// Target ISA.
    pub isa: Isa,
    /// Loop body.
    pub body: Vec<InstrSpec>,
}

/// Error while resolving a [`KernelSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSpecError {
    reason: String,
}

impl fmt::Display for KernelSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid kernel spec: {}", self.reason)
    }
}

impl std::error::Error for KernelSpecError {}

/// Resolves a register against `arch`, rejecting indices past the end
/// of its register file.
fn reg_from_spec(arch: &Architecture, s: &RegSpec) -> Result<Reg, KernelSpecError> {
    let reg = match s.file.as_str() {
        "gpr" => Reg::gpr(s.index),
        "fpr" => Reg::fpr(s.index),
        other => {
            return Err(KernelSpecError {
                reason: format!("unknown register file `{other}`"),
            })
        }
    };
    arch.check_reg(reg)
        .map_err(|reason| KernelSpecError { reason })
}

impl KernelSpec {
    /// Captures a kernel into its interchange form.
    pub fn from_kernel(kernel: &Kernel) -> Self {
        let arch = kernel.arch();
        KernelSpec {
            isa: arch.isa(),
            body: kernel
                .body()
                .iter()
                .map(|i| InstrSpec {
                    op: arch.op(i.op).name.to_owned(),
                    dst: RegSpec::from(i.dst),
                    srcs: [RegSpec::from(i.srcs[0]), RegSpec::from(i.srcs[1])],
                    mem_slot: i.mem_slot,
                })
                .collect(),
        }
    }

    /// Resolves the spec back into a kernel.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown mnemonics, unknown register files, or
    /// register indices outside the architecture's register files.
    pub fn to_kernel(&self) -> Result<Kernel, KernelSpecError> {
        let arch = Arc::new(Architecture::for_isa(self.isa));
        let mut body = Vec::with_capacity(self.body.len());
        for i in &self.body {
            let op = arch.op_by_name(&i.op).ok_or_else(|| KernelSpecError {
                reason: format!("unknown op `{}` for {}", i.op, self.isa),
            })?;
            body.push(Instr {
                op,
                dst: reg_from_spec(&arch, &i.dst)?,
                srcs: [
                    reg_from_spec(&arch, &i.srcs[0])?,
                    reg_from_spec(&arch, &i.srcs[1])?,
                ],
                mem_slot: i.mem_slot,
            });
        }
        Ok(Kernel::new(arch, body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::InstructionPool;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn round_trip_preserves_kernel() {
        for isa in [Isa::ArmV8, Isa::X86_64] {
            let pool = InstructionPool::default_for(isa);
            let mut rng = StdRng::seed_from_u64(33);
            let k = pool.random_kernel(50, &mut rng);
            let spec = KernelSpec::from_kernel(&k);
            let back = spec.to_kernel().unwrap();
            assert_eq!(k.body(), back.body());
            assert_eq!(k.render(), back.render());
        }
    }

    #[test]
    fn json_round_trip() {
        let pool = InstructionPool::default_for(Isa::ArmV8);
        let mut rng = StdRng::seed_from_u64(7);
        let k = pool.random_kernel(10, &mut rng);
        let spec = KernelSpec::from_kernel(&k);
        let json = serde_json::to_string(&spec).unwrap();
        let back: KernelSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn unknown_op_is_rejected() {
        let spec = KernelSpec {
            isa: Isa::ArmV8,
            body: vec![InstrSpec {
                op: "bogus".into(),
                dst: RegSpec {
                    file: "gpr".into(),
                    index: 0,
                },
                srcs: [
                    RegSpec {
                        file: "gpr".into(),
                        index: 0,
                    },
                    RegSpec {
                        file: "gpr".into(),
                        index: 0,
                    },
                ],
                mem_slot: 0,
            }],
        };
        assert!(spec.to_kernel().is_err());
    }

    #[test]
    fn unknown_register_file_is_rejected() {
        let spec = KernelSpec {
            isa: Isa::ArmV8,
            body: vec![InstrSpec {
                op: "add".into(),
                dst: RegSpec {
                    file: "vector".into(),
                    index: 0,
                },
                srcs: [
                    RegSpec {
                        file: "gpr".into(),
                        index: 0,
                    },
                    RegSpec {
                        file: "gpr".into(),
                        index: 0,
                    },
                ],
                mem_slot: 0,
            }],
        };
        assert!(spec.to_kernel().is_err());
    }
}
