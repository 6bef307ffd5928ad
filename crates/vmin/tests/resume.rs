//! A ladder interrupted right after a rung whose trials ran as one lane
//! group of four or more resumes bit-identically.

use emvolt_engine::DriveOptions;
use emvolt_isa::{kernels::resonant_stress_kernel, Isa};
use emvolt_obs::Telemetry;
use emvolt_platform::JunoBoard;
use emvolt_vmin::{vmin_test_resumable, FailureModel, Outcome, VminConfig, VminResult};

fn ladder(opts: &DriveOptions) -> Option<VminResult> {
    // A wide SDC band with little trial scatter puts whole rungs inside
    // the band, so their faulted runs share a lane group.
    let model = FailureModel {
        sdc_band: 0.03,
        trial_sigma: 0.0005,
        ..FailureModel::juno_a72()
    };
    let config = VminConfig {
        golden_iterations: 60,
        seed: 11,
        ..VminConfig::default()
    };
    vmin_test_resumable(
        &JunoBoard::new().a72,
        &resonant_stress_kernel(Isa::ArmV8, 12, 17),
        &model,
        &config,
        Telemetry::noop(),
        opts,
    )
    .unwrap()
}

#[test]
fn resume_after_a_grouped_rung_reproduces_the_ladder() {
    let baseline = ladder(&DriveOptions::default()).expect("uninterrupted run completes");
    // Faults land on nearly every faulted run, so a rung of four or more
    // SDC/app-crash outcomes ran at least that many SDC-band trials.
    let rung = baseline
        .ladder
        .iter()
        .position(|(_, outcomes)| {
            outcomes
                .iter()
                .filter(|o| matches!(o, Outcome::Sdc | Outcome::AppCrash))
                .count()
                >= 4
        })
        .expect("some rung runs four or more SDC-band trials");
    assert!(
        rung + 1 < baseline.ladder.len(),
        "the grouped rung is the last"
    );

    let path = std::env::temp_dir().join(format!("emvolt_vmin_group_{}.jsonl", std::process::id()));
    // Batch 0 is the anchor, so the grouped rung is batch `rung + 1`.
    let interrupted = ladder(&DriveOptions {
        checkpoint: Some(path.clone()),
        checkpoint_every: 1,
        max_batches: Some(rung as u64 + 2),
        ..DriveOptions::default()
    });
    assert!(interrupted.is_none(), "the batch limit interrupts");
    let resumed = ladder(&DriveOptions {
        resume: Some(path.clone()),
        ..DriveOptions::default()
    })
    .expect("resumed run completes");
    std::fs::remove_file(&path).ok();

    assert_eq!(
        baseline.first_failure_v.to_bits(),
        resumed.first_failure_v.to_bits()
    );
    assert_eq!(baseline.vmin_v.to_bits(), resumed.vmin_v.to_bits());
    assert_eq!(baseline.ladder.len(), resumed.ladder.len());
    for ((va, oa), (vb, ob)) in baseline.ladder.iter().zip(&resumed.ladder) {
        assert_eq!(va.to_bits(), vb.to_bits());
        assert_eq!(oa, ob);
    }
}
