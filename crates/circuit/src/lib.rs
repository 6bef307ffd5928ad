//! # emvolt-circuit
//!
//! A compact linear-circuit simulation substrate: netlists of R/L/C
//! elements and independent sources, analysed with modified nodal analysis
//! (MNA).
//!
//! Three analyses are provided:
//!
//! * [`Circuit::dc_operating_point`] — steady-state solution (capacitors
//!   open, inductors short) used to initialise transients.
//! * [`Circuit::transient`] — fixed-step trapezoidal integration; A-stable
//!   and non-dissipative, so LC-tank resonances ring faithfully.
//! * [`Circuit::ac_solve`] / [`Circuit::ac_sweep`] /
//!   [`Circuit::driving_point_impedance`] — complex phasor analysis for
//!   impedance-versus-frequency plots.
//!
//! This crate is the stand-in for the physical power-delivery network and
//! the HSPICE simulations of the reproduced paper (Hadjilambrou et al.,
//! MICRO 2018); the `emvolt-pdn` crate builds the paper's die–package–PCB
//! model on top of it.
//!
//! # Examples
//!
//! Impedance of a parallel LC tank peaks at its resonance:
//!
//! ```
//! use emvolt_circuit::{Circuit, NodeId, Stimulus};
//!
//! # fn main() -> Result<(), emvolt_circuit::CircuitError> {
//! let mut c = Circuit::new();
//! let die = c.node("die");
//! let mid = c.node("mid");
//! let load = c.current_source(die, NodeId::GROUND, Stimulus::Dc(0.0))?;
//! c.capacitor(die, NodeId::GROUND, 100e-9)?;          // C_die
//! c.inductor(die, mid, 50e-12)?;                      // L_pkg
//! c.resistor(mid, NodeId::GROUND, 1e-3)?;             // R_pkg
//! let freqs = [50e6, 71.2e6, 100e6];
//! let z = c.driving_point_impedance(load, &freqs)?;
//! assert!(z[1].1.norm() > z[0].1.norm());
//! assert!(z[1].1.norm() > z[2].1.norm());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ac;
pub mod adaptive;
mod complex;
mod dc;
mod error;
pub mod kernel;
mod linalg;
mod netlist;
mod stimulus;
mod trace;
pub mod transient;

pub use ac::{AcExcitation, AcSolution};
pub use adaptive::{converge_transient, ConvergenceReport};
pub use complex::Complex;
pub use dc::{DcPlan, OperatingPoint};
pub use error::{CircuitError, Result};
pub use kernel::{KernelChoice, StateKernel};
pub use linalg::{LuFactors, Matrix, Scalar};
pub use netlist::{CapacitorId, Circuit, ISourceId, InductorId, NodeId, ResistorId, VSourceId};
pub use stimulus::Stimulus;
pub use trace::Trace;
pub use transient::{
    BatchTransientScratch, TransientConfig, TransientPlan, TransientProbes, TransientResult,
    TransientScratch,
};
