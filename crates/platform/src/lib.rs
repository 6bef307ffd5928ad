//! # emvolt-platform
//!
//! Platform assemblies for the paper's three CPUs (Table 1):
//!
//! * [`VoltageDomain`] — cores + PDN + DVFS + power gating + undervolting.
//! * [`JunoBoard`] — Cortex-A72 and Cortex-A53 clusters with OC-DSO and
//!   SCL on the A72 domain; [`AmdDesktop`] — Athlon II with Kelvin-pad
//!   bench scope. PDNs are calibrated to the paper's measured resonances.
//! * [`EmBench`] — the antenna + spectrum-analyzer rig and the full
//!   measurement chain (kernel → current → PDN → radiation → analyzer).
//! * [`workloads`] — SPEC2006-like, desktop and stability-test kernels.
//! * [`SimClock`] — simulated campaign-time accounting. This clock
//!   models what the physical session *would* have cost; it never reads
//!   host time.
//!
//! # Examples
//!
//! ```
//! use emvolt_platform::{EmBench, JunoBoard, RunConfig};
//! use emvolt_isa::{kernels::sweep_kernel, Isa};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let board = JunoBoard::new();
//! let run = board.a72.run(&sweep_kernel(Isa::ArmV8), 2, &RunConfig::fast())?;
//! let mut bench = EmBench::new(42);
//! let reading = bench.measure(&run, 5);
//! assert!(reading.metric_dbm > -95.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod boards;
mod clock;
mod domain;
mod measure;
mod scl;
mod session;
pub mod workloads;

pub use boards::{a53_pdn, a72_pdn, amd_pdn, gpu_pdn, AmdDesktop, GpuCard, JunoBoard, JunoCluster};
pub use clock::{SimClock, INDIVIDUAL_MEASUREMENT_SECONDS, INDIVIDUAL_OVERHEAD_SECONDS};
pub use domain::{DomainError, DomainRun, DomainRunner, Load, RunConfig, VoltageDomain};
pub use emvolt_circuit::{BatchTransientScratch, KernelChoice};
pub use measure::{EmBench, EmReading, MeasureScratch, SharedEmBench, RESONANCE_BAND};
pub use scl::{Scl, SclPoint};
pub use session::SessionCosts;
pub use workloads::{desktop_suite, lbm_kernel, mix_kernel, spec2006_suite, Suite, Workload};
