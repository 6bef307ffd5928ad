//! Pins every output of the 35 `vmin_suite` ladders (the 14 SPEC-like
//! kernels on each Juno cluster, then the 7 desktop kernels on the
//! Athlon) at seeds 1–3 to literal values.
//!
//! perfbench's `sim_digest` covers only its first two campaigns, so a
//! change to the functional executor or to the ladder's fault-draw order
//! that alters an outcome on any other ladder would pass it unnoticed.
//! These literals were captured from the one-trial-at-a-time interpreter
//! that preceded the lane-group executor.

use emvolt_engine::Fingerprint;
use emvolt_platform::{desktop_suite, spec2006_suite, AmdDesktop, JunoBoard};
use emvolt_vmin::{vmin_test, FailureModel, Outcome, VminConfig};

#[test]
fn vmin_suite_ladders_match_their_pinned_fingerprint() {
    let juno = JunoBoard::new();
    let amd = AmdDesktop::new().domain;
    let spec = spec2006_suite(emvolt_isa::Isa::ArmV8);
    let mut ladders = Vec::new();
    for (domain, model) in [
        (&juno.a72, FailureModel::juno_a72()),
        (&juno.a53, FailureModel::juno_a53()),
    ] {
        ladders.extend(spec.iter().map(|w| (domain, model, w.kernel.clone())));
    }
    ladders.extend(
        desktop_suite()
            .into_iter()
            .map(|w| (&amd, FailureModel::amd(), w.kernel)),
    );
    assert_eq!(ladders.len(), 35);

    let mut fp = Fingerprint::new();
    let (mut trials, mut failures) = (0u64, 0u64);
    for seed in 1..=3u64 {
        let config = VminConfig {
            seed,
            ..VminConfig::default()
        };
        for (domain, model, kernel) in &ladders {
            let r = vmin_test(domain, kernel, model, &config).unwrap();
            fp = fp
                .f64(r.first_failure_v)
                .f64(r.vmin_v)
                .f64(r.max_droop_v)
                .f64(r.peak_to_peak_v);
            for (v, outcomes) in &r.ladder {
                fp = fp.f64(*v);
                for &o in outcomes {
                    trials += 1;
                    failures += u64::from(o.is_failure());
                    fp = fp.u64(match o {
                        Outcome::Pass => 0,
                        Outcome::Sdc => 1,
                        Outcome::AppCrash => 2,
                        Outcome::SystemCrash => 3,
                    });
                }
            }
        }
    }
    let got = (trials, failures, fp.finish());
    assert_eq!(
        got,
        (9085, 854, 0x2a54_bfd4_1d19_fc97),
        "(trials, failures, fingerprint)"
    );
}
