//! # emvolt-experiments
//!
//! One function per table and figure of the paper's evaluation, plus the
//! ablation studies and §10 extensions. Each experiment returns the
//! series/rows the paper reports and writes a CSV under `results/`.
//!
//! The `emvolt-experiments` binary runs them by name: `cargo run --release
//! -p emvolt-experiments -- all` regenerates everything, `-- fig07` a
//! single item and `-- ablations` the studies. Pass `--quick` (or set
//! `EMVOLT_QUICK=1`) for reduced-scale runs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod a53_figs;
mod ablations;
mod amd_figs;
mod juno_figs;
pub mod output;
mod pdn_figs;
mod table2_exp;
pub mod viruses;

pub use a53_figs::{fig12, fig13, fig14, fig15};
pub use ablations::{
    ablation_band, ablation_jitter, ablation_q, ablation_samples, ext_gpu, ext_margin_prediction,
    ext_tamper,
};
pub use amd_figs::{fig16, fig17, fig18};
pub use juno_figs::{fig04, fig07, fig08, fig09, fig10, fig11};
pub use pdn_figs::{fig01, fig02, fig06, table1};
pub use table2_exp::{build_reports, table2};

use emvolt_backend::BackendSpec;
use std::error::Error;

/// An experiment entry point: takes the options, returns the printed
/// report.
pub type ExperimentFn = fn(&Options) -> Result<String, Box<dyn Error>>;

/// Global experiment options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Options {
    /// Reduced-scale run (smaller GA populations/sweeps) for smoke tests.
    pub quick: bool,
    /// Regenerate viruses even when a cached copy exists.
    pub refresh: bool,
    /// Measurement backend for the EM GA campaigns. `None` runs the live
    /// chain directly; `record:DIR` / `replay:DIR` name a directory
    /// holding one `<label>.jsonl` trace per campaign (see
    /// [`Options::backend_for`]).
    pub backend: Option<BackendSpec>,
}

impl Options {
    /// The backend spec for one named campaign: record/replay paths are
    /// taken as directories and become `DIR/<label>.jsonl`, so a
    /// multi-campaign run keeps one trace per virus.
    pub fn backend_for(&self, label: &str) -> Option<BackendSpec> {
        self.backend.as_ref().map(|spec| match spec {
            BackendSpec::Live => BackendSpec::Live,
            BackendSpec::Record(dir) => BackendSpec::Record(dir.join(format!("{label}.jsonl"))),
            BackendSpec::Replay(dir) => BackendSpec::Replay(dir.join(format!("{label}.jsonl"))),
        })
    }
}

/// The registry of all experiments in paper order.
pub fn all_experiments() -> Vec<(&'static str, ExperimentFn)> {
    vec![
        ("table1", table1 as ExperimentFn),
        ("fig01", fig01),
        ("fig02", fig02),
        ("fig04", fig04),
        ("fig06", fig06),
        ("fig07", fig07),
        ("fig08", fig08),
        ("fig09", fig09),
        ("fig10", fig10),
        ("fig11", fig11),
        ("fig12", fig12),
        ("fig13", fig13),
        ("fig14", fig14),
        ("fig15", fig15),
        ("fig16", fig16),
        ("fig17", fig17),
        ("fig18", fig18),
        ("table2", table2),
    ]
}

/// Ablation studies and §10 future-work extensions (not part of the
/// paper's figures; `emvolt-experiments ablations` runs them all).
pub fn all_extensions() -> Vec<(&'static str, ExperimentFn)> {
    vec![
        ("ablation_band", ablation_band as ExperimentFn),
        ("ablation_samples", ablation_samples),
        ("ablation_q", ablation_q),
        ("ablation_jitter", ablation_jitter),
        ("ext_margin_prediction", ext_margin_prediction),
        ("ext_tamper", ext_tamper),
        ("ext_gpu", ext_gpu),
    ]
}

/// Runs one experiment by name, printing its report.
///
/// # Errors
///
/// Propagates the experiment's error, or reports an unknown name.
pub fn run_experiment(name: &str, opts: &Options) -> Result<String, Box<dyn Error>> {
    for (n, f) in all_experiments().into_iter().chain(all_extensions()) {
        if n == name {
            return f(opts);
        }
    }
    Err(format!("unknown experiment `{name}`").into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_table_and_figure() {
        let names: Vec<&str> = all_experiments().iter().map(|(n, _)| *n).collect();
        for expected in [
            "table1", "fig01", "fig02", "fig04", "fig06", "fig07", "fig08", "fig09", "fig10",
            "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "table2",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
        assert_eq!(names.len(), 18);
    }

    #[test]
    fn unknown_experiment_is_an_error() {
        let opts = Options {
            quick: true,
            ..Options::default()
        };
        assert!(run_experiment("fig99", &opts).is_err());
    }

    #[test]
    fn backend_for_appends_the_campaign_label() {
        let opts = Options {
            backend: Some("record:/tmp/traces".parse().unwrap()),
            ..Options::default()
        };
        assert_eq!(
            opts.backend_for("a72em"),
            Some("record:/tmp/traces/a72em.jsonl".parse().unwrap())
        );
        assert_eq!(Options::default().backend_for("a72em"), None);
    }
}
