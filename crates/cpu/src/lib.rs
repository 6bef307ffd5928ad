//! # emvolt-cpu
//!
//! Cycle-level CPU core models that turn instruction kernels into
//! per-cycle current traces — the I_LOAD waveforms exciting the PDN — plus
//! a functional executor for golden-output/silent-data-corruption checks.
//!
//! Three core presets mirror the paper's platforms: an out-of-order big
//! core (Cortex-A72-like), an in-order little core (Cortex-A53-like) and
//! an out-of-order desktop core (AMD Athlon II-like).
//!
//! # Examples
//!
//! ```
//! use emvolt_cpu::{Cpu, CoreModel, SimConfig};
//! use emvolt_isa::{kernels::sweep_kernel, Isa};
//!
//! # fn main() -> Result<(), emvolt_cpu::SimError> {
//! let cpu = Cpu::new(CoreModel::cortex_a72(), 1.2e9);
//! let out = cpu.simulate(&sweep_kernel(Isa::ArmV8), &SimConfig::default())?;
//! assert!(out.ipc > 0.0);
//! assert!(out.loop_frequency() > 1e6);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod engine;
mod func;
mod model;

pub use engine::{Cpu, SimConfig, SimError, SimOutput};
pub use func::{execute, execute_with_faults, FaultModel, FaultPlan, FuncOutput, Program};
pub use model::CoreModel;
