//! Wavetrace acceptance tests: a seeded virus campaign records a waveform
//! database covering the digital, analog and instrument layers, and the
//! resulting VCD is byte-identical at any worker-thread count and any
//! lane width.

use emvolt_backend::LiveBackend;
use emvolt_core::{generate_em_virus_on, VirusGenConfig};
use emvolt_cpu::CoreModel;
use emvolt_ga::GaConfig;
use emvolt_obs::{validate_vcd_text, NoopRecorder, Telemetry, WaveDb};
use emvolt_platform::{a72_pdn, EmBench, VoltageDomain};
use std::sync::Arc;

fn a72() -> VoltageDomain {
    VoltageDomain::new("A72", CoreModel::cortex_a72(), a72_pdn(), 1.2e9)
}

/// Runs one seeded campaign with a wave sink attached and returns the
/// rendered VCD text.
fn traced_vcd(threads: usize, lanes: usize, stride: usize) -> String {
    let db = Arc::new(WaveDb::with_config(stride, Vec::new()));
    let tel = Telemetry::with_waves(Arc::new(NoopRecorder), db.clone());
    let cfg = VirusGenConfig {
        ga: GaConfig {
            population: 6,
            generations: 3,
            ..GaConfig::default()
        },
        kernel_len: 16,
        samples_per_individual: 3,
        threads,
        lanes,
        telemetry: tel,
        ..VirusGenConfig::default()
    };
    let mut live = LiveBackend::single(a72(), EmBench::new(11), cfg.run.clone());
    generate_em_virus_on("wave-test", &mut live, "A72", &cfg, |_| {}).unwrap();
    db.to_vcd_string()
}

#[test]
fn campaign_vcd_covers_digital_analog_and_instrument_layers() {
    let vcd = traced_vcd(1, 0, 1);
    for signal in [
        " i_core $end",
        " issue_slots $end",
        " v_die $end",
        " i_pkg $end",
        " band_dbm $end",
    ] {
        assert!(vcd.contains(signal), "missing declaration for {signal:?}");
    }
    for scope in ["cpu", "pdn", "inst"] {
        assert!(
            vcd.contains(&format!("$scope module {scope} $end")),
            "missing scope {scope:?}"
        );
    }
    let check = validate_vcd_text(&vcd).expect("campaign VCD must validate");
    assert!(check.signals >= 5, "{} signals", check.signals);
    assert!(check.changes > 0);
}

#[test]
fn campaign_vcd_is_independent_of_thread_count_and_lane_width() {
    let reference = traced_vcd(1, 0, 1);
    assert!(!reference.is_empty());
    for (threads, lanes) in [(4, 0), (2, 3), (1, 8)] {
        let other = traced_vcd(threads, lanes, 1);
        assert_eq!(
            reference, other,
            "threads={threads} lanes={lanes}: VCD must be byte-identical"
        );
    }
}

#[test]
fn stride_decimation_thins_the_trace_without_breaking_validity() {
    let dense = traced_vcd(1, 0, 1);
    let thin = traced_vcd(1, 0, 8);
    let dense_check = validate_vcd_text(&dense).unwrap();
    let thin_check = validate_vcd_text(&thin).unwrap();
    assert_eq!(dense_check.signals, thin_check.signals);
    assert!(
        thin_check.changes * 4 < dense_check.changes,
        "stride 8 should drop most samples: {} vs {}",
        thin_check.changes,
        dense_check.changes
    );
}
