//! # emvolt-core
//!
//! The paper's primary contribution (Hadjilambrou et al., MICRO 2018):
//! non-intrusive, zero-overhead PDN characterization from CPU
//! electromagnetic emanations.
//!
//! * [`generate_em_virus_on`] — GA-evolved dI/dt stress tests driven
//!   purely by spectrum-analyzer amplitude (§3, §5.1), plus the
//!   voltage-feedback validation variant [`generate_voltage_virus`].
//! * [`fast_resonance_sweep_on`] — the §5.3 loop-frequency sweep that
//!   finds the first-order PDN resonance in minutes.
//! * [`monitor`] — simultaneous multi-domain voltage-noise monitoring
//!   through a single antenna (§6.1).
//! * [`analyze_virus`] / [`format_table2`] — the Table-2 virus metrics.
//! * [`MarginPredictor`] — §10 future work (c): voltage-margin prediction
//!   from passive EM readings of conventional workloads.
//! * [`tamper`] — §10: PDN fingerprinting and tamper detection via
//!   resonance shifts.
//! * [`Characterization`] — a façade running the complete flow.
//!
//! The GA and the sweep take any [`emvolt_backend::MeasurementBackend`]
//! ([`generate_em_virus_on`], [`fast_resonance_sweep_on`],
//! [`tamper::fingerprint`]): the same flow runs against the live
//! simulation chain (`LiveBackend::single(domain, bench, run)`), a
//! recording wrapper persisting a JSONL trace, or a replayed trace that
//! never touches the circuit solver. Their `_resumable` forms
//! ([`generate_em_virus_resumable`], [`fast_resonance_sweep_resumable`])
//! add checkpoint, resume and interrupt wiring through
//! [`emvolt_engine::DriveOptions`].
//!
//! # Examples
//!
//! ```no_run
//! use emvolt_core::{Characterization, VirusGenConfig};
//! use emvolt_cpu::CoreModel;
//! use emvolt_platform::{a72_pdn, VoltageDomain};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let domain = VoltageDomain::new("A72", CoreModel::cortex_a72(), a72_pdn(), 1.2e9);
//! let mut session = Characterization::new(domain, 42);
//! let sweep = session.find_resonance_fast()?;
//! println!("resonance ~ {:.1} MHz", sweep.resonance_hz / 1e6);
//! let virus = session.generate_virus("a72em", &VirusGenConfig::default())?;
//! println!("virus dominant frequency {:.1} MHz", virus.dominant_hz / 1e6);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaigns;
mod characterization;
pub mod emergency;
mod fast_sweep;
mod ga_virus;
pub mod monitor;
mod predictor;
mod report;
pub mod tamper;

pub use campaigns::{
    fast_resonance_sweep_resumable, generate_em_virus_resumable, SweepCampaign, VirusCampaign,
};
pub use characterization::Characterization;
pub use fast_sweep::{fast_resonance_sweep_on, FastSweepConfig, FastSweepResult, SweepPoint};
pub use ga_virus::{
    annotate_droop, dominant_from_run, generate_em_virus_on, generate_voltage_virus,
    GenerationProgress, GenerationRecord, Virus, VirusGenConfig, VoltageMetric,
};
pub use predictor::MarginPredictor;
pub use report::{analyze_virus, format_table2, VirusReport};
