//! # emvolt-inst
//!
//! Measurement-instrument models:
//!
//! * [`SpectrumAnalyzer`] — swept analyzer with RBW filtering, a noise
//!   floor and per-point measurement noise; implements the paper's GA
//!   fitness metric (mean root square of 30 max-amplitude samples).
//! * [`Oscilloscope`] — sampling scope with quantization and clipping;
//!   configured as the Juno OC-DSO or a bench scope on Kelvin pads.
//! * [`Vna`] — one-port S11 measurement for the antenna (Fig. 6).
//!
//! # Examples
//!
//! ```
//! use emvolt_inst::{AnalyzerConfig, SpectrumAnalyzer};
//! use emvolt_dsp::Spectrum;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut sa = SpectrumAnalyzer::new(AnalyzerConfig::default());
//! let mut rng = StdRng::seed_from_u64(0);
//! let silence = Spectrum::from_bins(1e6, vec![0.0; 256]);
//! let reading = sa.sweep(&silence, &mut rng);
//! let (_, level) = reading.peak_in_band(50e6, 200e6).unwrap();
//! assert!(level < -80.0); // just the noise floor
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod analyzer;
mod scope;
mod vna;

pub use analyzer::{AnalyzerConfig, AnalyzerPlan, SpectrumAnalyzer, SweepReading};
pub use scope::{Oscilloscope, ScopeConfig};
pub use vna::Vna;
