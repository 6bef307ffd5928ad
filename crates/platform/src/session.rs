//! Workstation ↔ target orchestration (§3.2 of the paper).
//!
//! The paper's GA framework runs on a separate workstation: it ships each
//! individual's source over SSH, the target compiles and runs it, the
//! workstation drives the spectrum analyzer, then kills the binary.
//! Measurement backends run that protocol in-process and report what each
//! step would cost physically (compilation, deployment, measurement,
//! teardown) through [`SessionCosts`]; campaigns account it in simulated
//! time, which is how the paper's "~15 hours for 60 generations" figure
//! arises.

/// Cost model of one orchestration step, in simulated seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionCosts {
    /// Shipping source to the target (SSH/scp).
    pub upload_s: f64,
    /// Compiling the individual on the target.
    pub compile_s: f64,
    /// Launching the binary and letting it reach steady state.
    pub launch_s: f64,
    /// One spectrum-analyzer sample.
    pub sample_s: f64,
    /// Terminating the binary.
    pub teardown_s: f64,
}

impl Default for SessionCosts {
    fn default() -> Self {
        SessionCosts {
            upload_s: 0.3,
            compile_s: 1.0,
            launch_s: 0.5,
            sample_s: 0.6,
            teardown_s: 0.2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Upload, compile, launch, 30 analyzer samples and teardown add up to
    /// the paper's ~20 s per individual, so 60 generations of 50
    /// individuals land in its ~15 h campaign ballpark.
    #[test]
    fn default_costs_match_the_paper() {
        let c = SessionCosts::default();
        let per_individual =
            c.upload_s + c.compile_s + c.launch_s + 30.0 * c.sample_s + c.teardown_s;
        assert!(
            (19.0..22.0).contains(&per_individual),
            "per-individual cost {per_individual} s"
        );
        let campaign_hours = per_individual * 50.0 * 60.0 / 3600.0;
        assert!(
            (14.0..20.0).contains(&campaign_hours),
            "campaign estimate {campaign_hours} h"
        );
    }
}
