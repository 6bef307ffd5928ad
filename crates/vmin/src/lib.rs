//! # emvolt-vmin
//!
//! The V_MIN test harness of §5.2: starting from a high supply voltage,
//! step down (10 mV in the paper) until execution deviates from a golden
//! reference — through silent data corruption, an application crash or a
//! system crash — and report both the first-failure voltage and the
//! lowest safe voltage.
//!
//! The failure model is a timing wall: a workload fails when its worst
//! die-voltage excursion dips below a critical voltage `V_crit(f)`.
//! Within a small band above outright crash the workload suffers SDC
//! (implemented with real bit-flip fault injection checked against the
//! golden digest), mirroring the paper's observation that SDC/application
//! crashes appear ~10 mV above the system-crash voltage.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;

pub use campaign::{vmin_test_resumable, VminCampaign};

use emvolt_engine::DriveOptions;
use emvolt_isa::Kernel;
use emvolt_obs::Telemetry;
use emvolt_platform::{DomainError, RunConfig, VoltageDomain};
use rand::Rng;

/// The timing-wall failure model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureModel {
    /// Critical die voltage at the reference frequency: dipping below it
    /// begins to violate timing.
    pub v_crit: f64,
    /// Reference frequency for `v_crit`.
    pub f_ref: f64,
    /// Sensitivity of the critical voltage to clock frequency, in volts
    /// per unit relative frequency (`v_crit(f) = v_crit + k*(f/f_ref-1)`).
    pub freq_sensitivity: f64,
    /// Width of the SDC/app-crash band above the system-crash voltage
    /// (~10 mV in the paper).
    pub sdc_band: f64,
    /// Run-to-run variation (sigma, volts) of the worst droop — a short
    /// observation window underestimates the true worst case, so repeated
    /// trials scatter (the paper runs 30 V_MIN tests per virus).
    pub trial_sigma: f64,
}

impl FailureModel {
    /// Model for the Juno Cortex-A72 cluster at 1.2 GHz / 1.0 V nominal.
    pub fn juno_a72() -> Self {
        FailureModel {
            v_crit: 0.777,
            f_ref: 1.2e9,
            freq_sensitivity: 0.25,
            sdc_band: 0.010,
            trial_sigma: 0.0020,
        }
    }

    /// Model for the Juno Cortex-A53 cluster at 950 MHz / 1.0 V nominal.
    pub fn juno_a53() -> Self {
        FailureModel {
            v_crit: 0.803,
            f_ref: 950e6,
            freq_sensitivity: 0.22,
            sdc_band: 0.010,
            trial_sigma: 0.0020,
        }
    }

    /// Model for the AMD Athlon II at 3.1 GHz / 1.4 V nominal.
    pub fn amd() -> Self {
        FailureModel {
            v_crit: 1.200,
            f_ref: 3.1e9,
            freq_sensitivity: 0.35,
            sdc_band: 0.010,
            trial_sigma: 0.0025,
        }
    }

    /// Critical voltage at clock `f`.
    pub fn v_crit_at(&self, f: f64) -> f64 {
        self.v_crit + self.freq_sensitivity * (f / self.f_ref - 1.0)
    }
}

/// Outcome of one undervolted trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// Output matched the golden reference.
    Pass,
    /// Output deviated silently from the golden reference.
    Sdc,
    /// The workload crashed but the system survived.
    AppCrash,
    /// The whole system went down.
    SystemCrash,
}

impl Outcome {
    /// `true` for any deviation from nominal execution.
    pub fn is_failure(self) -> bool {
        self != Outcome::Pass
    }
}

/// V_MIN campaign configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct VminConfig {
    /// First (highest) voltage tested.
    pub start_v: f64,
    /// Step size (10 mV in the paper).
    pub step_v: f64,
    /// Do not test below this voltage.
    pub floor_v: f64,
    /// Trials per voltage (30 for viruses, 2 for SPEC in the paper).
    pub trials: usize,
    /// Cores loaded with the workload.
    pub loaded_cores: usize,
    /// Physics fidelity of the underlying runs.
    pub run: RunConfig,
    /// Loop iterations used for the golden-output comparison.
    pub golden_iterations: usize,
    /// Noise seed for trial-to-trial variation and fault injection.
    pub seed: u64,
}

impl Default for VminConfig {
    fn default() -> Self {
        VminConfig {
            start_v: 1.0,
            step_v: 0.010,
            floor_v: 0.70,
            trials: 5,
            loaded_cores: 2,
            run: RunConfig::fast(),
            golden_iterations: 200,
            seed: 0xD00B,
        }
    }
}

/// Result of a V_MIN campaign for one workload.
#[derive(Debug, Clone)]
pub struct VminResult {
    /// Highest voltage at which *any* deviation was observed — the value
    /// Figs. 10/14/18 report. `NaN` if nothing failed above the floor.
    pub first_failure_v: f64,
    /// Lowest voltage at which every trial passed (one step above the
    /// first failure).
    pub vmin_v: f64,
    /// Maximum droop measured at the starting voltage.
    pub max_droop_v: f64,
    /// Peak-to-peak voltage noise at the starting voltage.
    pub peak_to_peak_v: f64,
    /// Per-voltage outcomes, highest voltage first.
    pub ladder: Vec<(f64, Vec<Outcome>)>,
}

/// Runs a V_MIN campaign for `kernel` on a copy of `domain`.
///
/// # Errors
///
/// Propagates simulation failures from the underlying domain runs, and
/// returns [`DomainError::InvalidConfig`] for a failure model with a
/// non-finite field, a non-positive `sdc_band` or a negative
/// `trial_sigma`, or a non-finite or non-positive `step_v`/`floor_v`.
pub fn vmin_test(
    domain: &VoltageDomain,
    kernel: &Kernel,
    model: &FailureModel,
    config: &VminConfig,
) -> Result<VminResult, DomainError> {
    vmin_test_with(domain, kernel, model, config, Telemetry::noop())
}

/// Like [`vmin_test`], charging the single physical domain run to
/// `telemetry` — counters, spans and (when a wave sink is attached) the
/// `cpu.*` / `pdn.*` waveform traces of the droop measurement that anchors
/// the whole ladder. The ladder itself is pure arithmetic on that run and
/// emits nothing.
///
/// # Errors
///
/// As for [`vmin_test`].
pub fn vmin_test_with(
    domain: &VoltageDomain,
    kernel: &Kernel,
    model: &FailureModel,
    config: &VminConfig,
    telemetry: Telemetry,
) -> Result<VminResult, DomainError> {
    // No batch limit in the default options, so the drive always runs to
    // completion.
    let result = vmin_test_resumable(
        domain,
        kernel,
        model,
        config,
        telemetry,
        &DriveOptions::default(),
    )?;
    Ok(result.expect("campaign without a batch limit always completes"))
}

/// Standard-Gumbel-distributed positive excursion scaled by `sigma`,
/// modelling the tail of the worst droop over a long physical run.
pub(crate) fn gumbel<R: Rng>(rng: &mut R, sigma: f64) -> f64 {
    if sigma <= 0.0 {
        return 0.0;
    }
    let u: f64 = rng.gen_range(1e-12..1.0);
    let g = -(-u.ln()).ln(); // standard Gumbel, mean ~0.577
    (g + 0.5) * sigma * 0.5
}

#[cfg(test)]
mod tests {
    use super::*;
    use emvolt_cpu::CoreModel;
    use emvolt_isa::{
        kernels::{resonant_stress_kernel, sweep_kernel},
        Isa,
    };
    use emvolt_platform::a72_pdn;

    fn a72_domain() -> VoltageDomain {
        VoltageDomain::new("A72", CoreModel::cortex_a72(), a72_pdn(), 1.2e9)
    }

    fn quick_cfg() -> VminConfig {
        VminConfig {
            trials: 3,
            golden_iterations: 50,
            ..VminConfig::default()
        }
    }

    #[test]
    fn bad_start_voltage_is_a_typed_error() {
        let d = a72_domain();
        let model = FailureModel::juno_a72();
        for start_v in [f64::NAN, 0.0, -0.5] {
            let cfg = VminConfig {
                start_v,
                ..quick_cfg()
            };
            let err = vmin_test_resumable(
                &d,
                &sweep_kernel(Isa::ArmV8),
                &model,
                &cfg,
                Telemetry::noop(),
                &DriveOptions::default(),
            )
            .expect_err("a non-positive start voltage must be rejected");
            assert!(
                matches!(err, DomainError::InvalidVoltage { requested_v } if requested_v.to_bits() == start_v.to_bits()),
                "start_v {start_v}: {err}"
            );
        }
    }

    /// Runs a campaign that must be refused before its anchor run, and
    /// returns the message of its `InvalidConfig` error.
    fn refused(model: FailureModel, cfg: VminConfig) -> String {
        let err = vmin_test_resumable(
            &a72_domain(),
            &sweep_kernel(Isa::ArmV8),
            &model,
            &cfg,
            Telemetry::noop(),
            &DriveOptions::default(),
        )
        .expect_err("the campaign must be refused");
        match err {
            DomainError::InvalidConfig(msg) => msg,
            other => panic!("expected InvalidConfig, got {other}"),
        }
    }

    #[test]
    fn non_finite_failure_model_is_a_typed_error() {
        type Field = fn(&mut FailureModel) -> &mut f64;
        let fields: [(&str, Field); 5] = [
            ("v_crit", |m| &mut m.v_crit),
            ("f_ref", |m| &mut m.f_ref),
            ("freq_sensitivity", |m| &mut m.freq_sensitivity),
            ("sdc_band", |m| &mut m.sdc_band),
            ("trial_sigma", |m| &mut m.trial_sigma),
        ];
        for (name, field) in fields {
            for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut model = FailureModel::juno_a72();
                *field(&mut model) = x;
                let msg = refused(model, quick_cfg());
                assert!(msg.contains(name), "{name} = {x}: {msg}");
            }
        }
    }

    #[test]
    fn non_positive_sdc_band_is_a_typed_error() {
        for sdc_band in [0.0, -0.01] {
            let model = FailureModel {
                sdc_band,
                ..FailureModel::juno_a72()
            };
            assert!(refused(model, quick_cfg()).contains("sdc_band"));
        }
    }

    #[test]
    fn negative_trial_sigma_is_a_typed_error() {
        let model = FailureModel {
            trial_sigma: -0.001,
            ..FailureModel::juno_a72()
        };
        assert!(refused(model, quick_cfg()).contains("trial_sigma"));
    }

    #[test]
    fn bad_step_voltage_is_a_typed_error() {
        for step_v in [f64::NAN, f64::INFINITY, 0.0, -0.01] {
            let cfg = VminConfig {
                step_v,
                ..quick_cfg()
            };
            let msg = refused(FailureModel::juno_a72(), cfg);
            assert!(msg.contains("step_v"), "step_v {step_v}: {msg}");
        }
    }

    #[test]
    fn bad_floor_voltage_is_a_typed_error() {
        for floor_v in [f64::NAN, f64::INFINITY, 0.0, -0.5] {
            let cfg = VminConfig {
                floor_v,
                ..quick_cfg()
            };
            let msg = refused(FailureModel::juno_a72(), cfg);
            assert!(msg.contains("floor_v"), "floor_v {floor_v}: {msg}");
        }
    }

    #[test]
    fn ladder_descends_until_crash() {
        let d = a72_domain();
        let model = FailureModel::juno_a72();
        let res = vmin_test(&d, &sweep_kernel(Isa::ArmV8), &model, &quick_cfg()).unwrap();
        assert!(!res.ladder.is_empty());
        // Ladder voltages strictly decrease.
        for w in res.ladder.windows(2) {
            assert!(w[1].0 < w[0].0);
        }
        // The campaign ends in a system crash (virus-class workload).
        let last = res.ladder.last().unwrap();
        assert!(last.1.contains(&Outcome::SystemCrash));
        assert!(res.vmin_v > res.first_failure_v);
        assert!((res.vmin_v - res.first_failure_v - 0.010).abs() < 1e-9);
    }

    #[test]
    fn noisier_workload_has_higher_vmin() {
        let d = a72_domain();
        let model = FailureModel::juno_a72();
        // A resonant stress kernel versus a quiet single-add loop.
        let arch = std::sync::Arc::new(emvolt_isa::Architecture::armv8());
        let add = arch.op_by_name("add").unwrap();
        let quiet = emvolt_isa::Kernel::new(
            arch,
            vec![emvolt_isa::Instr {
                op: add,
                dst: emvolt_isa::Reg::gpr(1),
                srcs: [emvolt_isa::Reg::gpr(2), emvolt_isa::Reg::gpr(3)],
                mem_slot: 0,
            }],
        );
        let noisy_res = vmin_test(
            &d,
            &resonant_stress_kernel(Isa::ArmV8, 12, 17),
            &model,
            &quick_cfg(),
        )
        .unwrap();
        let quiet_res = vmin_test(&d, &quiet, &model, &quick_cfg()).unwrap();
        assert!(
            noisy_res.max_droop_v > quiet_res.max_droop_v,
            "droops {} vs {}",
            noisy_res.max_droop_v,
            quiet_res.max_droop_v
        );
        assert!(
            noisy_res.vmin_v >= quiet_res.vmin_v,
            "vmin {} vs {}",
            noisy_res.vmin_v,
            quiet_res.vmin_v
        );
    }

    #[test]
    fn sdc_band_produces_mixed_outcomes() {
        let d = a72_domain();
        let model = FailureModel::juno_a72();
        let cfg = VminConfig {
            trials: 10,
            golden_iterations: 100,
            ..VminConfig::default()
        };
        let res = vmin_test(
            &d,
            &resonant_stress_kernel(Isa::ArmV8, 12, 17),
            &model,
            &cfg,
        )
        .unwrap();
        let all: Vec<Outcome> = res.ladder.iter().flat_map(|(_, o)| o.clone()).collect();
        assert!(all.contains(&Outcome::Pass));
        assert!(all.contains(&Outcome::SystemCrash));
        // Some deviation short of a full system crash should appear in
        // the band (SDC or app crash).
        assert!(
            all.iter()
                .any(|o| matches!(o, Outcome::Sdc | Outcome::AppCrash)),
            "no SDC/app-crash band observed: {all:?}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let d = a72_domain();
        let model = FailureModel::juno_a72();
        let a = vmin_test(&d, &sweep_kernel(Isa::ArmV8), &model, &quick_cfg()).unwrap();
        let b = vmin_test(&d, &sweep_kernel(Isa::ArmV8), &model, &quick_cfg()).unwrap();
        assert_eq!(a.first_failure_v, b.first_failure_v);
        assert_eq!(a.ladder.len(), b.ladder.len());
    }

    #[test]
    fn v_crit_scales_with_frequency() {
        let m = FailureModel::juno_a72();
        assert!(m.v_crit_at(1.2e9) > m.v_crit_at(600e6));
        assert!((m.v_crit_at(1.2e9) - m.v_crit).abs() < 1e-12);
    }

    #[test]
    fn never_failing_workload_reports_floor() {
        let d = a72_domain();
        // Absurdly low critical voltage: nothing fails before the floor.
        let model = FailureModel {
            v_crit: 0.1,
            ..FailureModel::juno_a72()
        };
        let cfg = VminConfig {
            floor_v: 0.90,
            trials: 2,
            golden_iterations: 20,
            ..VminConfig::default()
        };
        let res = vmin_test(&d, &sweep_kernel(Isa::ArmV8), &model, &cfg).unwrap();
        assert!(res.first_failure_v.is_nan());
        assert_eq!(res.vmin_v, 0.90);
    }
}
