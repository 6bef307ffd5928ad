//! # emvolt
//!
//! A complete reproduction of *"Leveraging CPU Electromagnetic Emanations
//! for Voltage Noise Characterization"* (Hadjilambrou, Das, Antoniades,
//! Sazeides — MICRO 2018) as a Rust workspace: the paper's EM-driven
//! dI/dt stress-test generation and PDN resonance detection, plus every
//! substrate it needs (circuit/PDN simulation, cycle-level CPU current
//! models, EM radiation physics, instrument models, a GA engine, platform
//! assemblies and a V_MIN harness).
//!
//! This crate is the facade: it re-exports each subsystem under a short
//! module name. Depend on the individual `emvolt-*` crates instead when
//! you only need one layer.
//!
//! # Quick start
//!
//! ```no_run
//! use emvolt::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A Cortex-A72-class voltage domain with the paper's calibrated PDN.
//! let domain = VoltageDomain::new("A72", CoreModel::cortex_a72(), a72_pdn(), 1.2e9);
//! let mut session = Characterization::new(domain, 42);
//!
//! // §5.3: find the first-order resonance in simulated minutes.
//! let sweep = session.find_resonance_fast()?;
//! println!("resonance ≈ {:.1} MHz", sweep.resonance_hz / 1e6);
//!
//! // §5.1: evolve a dI/dt virus guided only by EM amplitude.
//! let virus = session.generate_virus("a72em", &VirusGenConfig::default())?;
//! println!("virus radiates at {:.1} MHz", virus.dominant_hz / 1e6);
//! println!("{}", virus.kernel.render());
//! # Ok(())
//! # }
//! ```
//!
//! # Layout
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`obs`] | `emvolt-obs` | telemetry: spans, counters, JSONL traces |
//! | [`backend`] | `emvolt-backend` | measurement backends: live, record, replay, cache |
//! | [`circuit`] | `emvolt-circuit` | MNA netlists, AC + transient analysis |
//! | [`dsp`] | `emvolt-dsp` | FFT, windows, spectra |
//! | [`pdn`] | `emvolt-pdn` | die–package–PCB network, resonance math |
//! | [`isa`] | `emvolt-isa` | instruction descriptors, kernels, pools |
//! | [`cpu`] | `emvolt-cpu` | cycle-level current-trace models |
//! | [`em`] | `emvolt-em` | antenna + radiation channel |
//! | [`inst`] | `emvolt-inst` | spectrum analyzer, oscilloscope, VNA |
//! | [`ga`] | `emvolt-ga` | the genetic-algorithm engine |
//! | [`engine`] | `emvolt-engine` | resumable step-engine, checkpoint store |
//! | [`platform`] | `emvolt-platform` | Juno/AMD boards, workloads, EM rig |
//! | [`vmin`] | `emvolt-vmin` | V_MIN harness and failure model |
//! | [`core`] | `emvolt-core` | the paper's EM methodology itself |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use emvolt_backend as backend;
pub use emvolt_circuit as circuit;
pub use emvolt_core as core;
pub use emvolt_cpu as cpu;
pub use emvolt_dsp as dsp;
pub use emvolt_em as em;
pub use emvolt_engine as engine;
pub use emvolt_ga as ga;
pub use emvolt_inst as inst;
pub use emvolt_isa as isa;
pub use emvolt_obs as obs;
pub use emvolt_pdn as pdn;
pub use emvolt_platform as platform;
pub use emvolt_vmin as vmin;

/// The most common types in one import.
pub mod prelude {
    pub use emvolt_backend::{BackendSpec, LiveBackend, MeasurementBackend};
    pub use emvolt_core::{
        fast_resonance_sweep_on, generate_em_virus_on, generate_voltage_virus, Characterization,
        FastSweepConfig, VirusGenConfig,
    };
    pub use emvolt_cpu::{CoreModel, Cpu, SimConfig};
    pub use emvolt_ga::{GaConfig, GaState, KernelRepresentation};
    pub use emvolt_isa::{Architecture, InstructionPool, Isa, Kernel};
    pub use emvolt_pdn::{Pdn, PdnParams};
    pub use emvolt_platform::{
        a53_pdn, a72_pdn, amd_pdn, AmdDesktop, EmBench, JunoBoard, RunConfig, VoltageDomain,
    };
    pub use emvolt_vmin::{vmin_test, FailureModel, VminConfig};
}
