//! The tentpole guarantee of the batch measurement pipeline: a campaign
//! is bit-identical no matter how many worker threads evaluate it.
//!
//! Per-individual measurement seeds are derived from
//! `(campaign seed, generation, index)`, so neither thread scheduling nor
//! evaluation order can leak into fitness, history, or the evolved
//! winner.

use emvolt_backend::LiveBackend;
use emvolt_core::{
    generate_em_virus_on, generate_voltage_virus, GenerationRecord, Virus, VirusGenConfig,
};
use emvolt_cpu::CoreModel;
use emvolt_ga::GaConfig;
use emvolt_inst::{Oscilloscope, ScopeConfig};
use emvolt_platform::{a72_pdn, EmBench, VoltageDomain};

fn reduced_config(threads: usize) -> VirusGenConfig {
    VirusGenConfig {
        ga: GaConfig {
            population: 8,
            generations: 5,
            seed: 0xD1CE,
            ..GaConfig::default()
        },
        kernel_len: 16,
        samples_per_individual: 3,
        threads,
        ..VirusGenConfig::default()
    }
}

fn a72() -> VoltageDomain {
    VoltageDomain::new("A72", CoreModel::cortex_a72(), a72_pdn(), 1.2e9)
}

/// Runs the EM GA on the live A72 chain behind a fresh bench.
fn em_virus(name: &str, config: &VirusGenConfig) -> Virus {
    let mut live = LiveBackend::single(a72(), EmBench::new(21), config.run.clone());
    generate_em_virus_on(name, &mut live, "A72", config, |_| {}).unwrap()
}

fn assert_histories_identical(a: &[GenerationRecord], b: &[GenerationRecord], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: history length");
    for (ra, rb) in a.iter().zip(b) {
        assert_eq!(ra.index, rb.index, "{what}: generation index");
        assert_eq!(
            ra.best_fitness.to_bits(),
            rb.best_fitness.to_bits(),
            "{what}: best fitness, generation {}",
            ra.index
        );
        assert_eq!(
            ra.mean_fitness.to_bits(),
            rb.mean_fitness.to_bits(),
            "{what}: mean fitness, generation {}",
            ra.index
        );
        assert_eq!(
            ra.dominant_hz.to_bits(),
            rb.dominant_hz.to_bits(),
            "{what}: dominant frequency, generation {}",
            ra.index
        );
        assert_eq!(
            ra.droop_v, rb.droop_v,
            "{what}: droop, generation {}",
            ra.index
        );
    }
}

#[test]
fn em_campaign_is_bit_identical_across_thread_counts() {
    let run = |threads: usize| em_virus("det", &reduced_config(threads));
    let serial = run(1);
    for threads in [2, 8] {
        let parallel = run(threads);
        assert_eq!(
            serial.kernel, parallel.kernel,
            "{threads} threads: winning kernel"
        );
        assert_eq!(
            serial.fitness.to_bits(),
            parallel.fitness.to_bits(),
            "{threads} threads: fitness"
        );
        assert_eq!(
            serial.dominant_hz.to_bits(),
            parallel.dominant_hz.to_bits(),
            "{threads} threads: dominant frequency"
        );
        assert_eq!(
            serial.generation_best, parallel.generation_best,
            "{threads} threads: generation bests"
        );
        assert_histories_identical(&serial.history, &parallel.history, "em");
        // Clock accounting must not depend on thread count either.
        assert_eq!(
            serial.campaign.seconds().to_bits(),
            parallel.campaign.seconds().to_bits(),
            "{threads} threads: campaign clock"
        );
    }
    // 8 individuals x 5 generations at 3 x 0.6 s + 2 s each.
    let expected = 8.0 * 5.0 * (3.0 * 0.6 + 2.0);
    assert!((serial.campaign.seconds() - expected).abs() < 1e-6);
}

/// The lane-major extension of the same guarantee: the evaluation lane
/// width — how many individuals ride one batched backend call — is a
/// pure performance knob. Batched readings are bit-identical to serial
/// ones and per-individual seeds don't depend on grouping, so every
/// `(threads, lanes)` combination evolves the same virus.
#[test]
fn em_campaign_is_bit_identical_across_lane_widths_and_threads() {
    let run = |threads: usize, lanes: usize| {
        let config = VirusGenConfig {
            lanes,
            ..reduced_config(threads)
        };
        em_virus("det-l", &config)
    };
    let reference = run(1, 1);
    for lanes in [1, 3, 8] {
        for threads in [1, 4] {
            let lane_run = run(threads, lanes);
            let what = format!("lanes {lanes} x threads {threads}");
            assert_eq!(reference.kernel, lane_run.kernel, "{what}: winning kernel");
            assert_eq!(
                reference.fitness.to_bits(),
                lane_run.fitness.to_bits(),
                "{what}: fitness"
            );
            assert_eq!(
                reference.generation_best, lane_run.generation_best,
                "{what}: generation bests"
            );
            assert_histories_identical(&reference.history, &lane_run.history, &what);
            assert_eq!(
                reference.campaign.seconds().to_bits(),
                lane_run.campaign.seconds().to_bits(),
                "{what}: campaign clock"
            );
        }
    }
}

/// The SIMD counterpart of the same guarantee: the runtime-dispatched
/// vector level (what `EMVOLT_SIMD` selects from the environment) is a
/// pure performance knob. Every level runs the identical fused `mul_add`
/// sequence per element, so forcing scalar, SSE2, or AVX2 — at any lane
/// width — must reproduce the campaign bit for bit, including the
/// emitted telemetry byte stream (the dispatched level is summary-only
/// and never enters trace events).
#[test]
fn em_campaign_is_bit_identical_across_simd_levels_and_lanes() {
    use emvolt_obs::{JsonlRecorder, Telemetry};
    use std::io::Write;
    use std::sync::{Arc, Mutex};

    #[derive(Clone)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let run = |level: Option<emvolt_simd::SimdLevel>, lanes: usize| {
        emvolt_simd::force_level(level);
        let buf = Arc::new(Mutex::new(Vec::new()));
        let tel = Telemetry::new(Arc::new(JsonlRecorder::new(SharedBuf(buf.clone()))));
        let config = VirusGenConfig {
            lanes,
            telemetry: tel.clone(),
            ..reduced_config(1)
        };
        let virus = em_virus("det-s", &config);
        tel.flush();
        emvolt_simd::force_level(None);
        let bytes = buf.lock().unwrap().clone();
        (virus, bytes)
    };

    // Campaign results must agree across every (level, lanes) pair; the
    // telemetry byte stream must agree across levels at a fixed lane
    // width (lane grouping is deterministic trace content — the
    // `batch_lane*` counters record it — so traces are only comparable
    // width against width).
    let (reference, _) = run(Some(emvolt_simd::SimdLevel::Scalar), 1);
    for lanes in [1, 3, 8] {
        let (_, scalar_bytes) = run(Some(emvolt_simd::SimdLevel::Scalar), lanes);
        assert!(!scalar_bytes.is_empty(), "trace should carry events");
        for &level in emvolt_simd::supported_levels() {
            let (virus, bytes) = run(Some(level), lanes);
            let what = format!("level {} x lanes {lanes}", level.as_str());
            assert_eq!(reference.kernel, virus.kernel, "{what}: winning kernel");
            assert_eq!(
                reference.fitness.to_bits(),
                virus.fitness.to_bits(),
                "{what}: fitness"
            );
            assert_eq!(
                reference.dominant_hz.to_bits(),
                virus.dominant_hz.to_bits(),
                "{what}: dominant frequency"
            );
            assert_eq!(
                reference.generation_best, virus.generation_best,
                "{what}: generation bests"
            );
            assert_histories_identical(&reference.history, &virus.history, &what);
            assert_eq!(scalar_bytes, bytes, "{what}: telemetry byte stream");
        }
    }
}

#[test]
fn voltage_campaign_is_bit_identical_across_thread_counts() {
    let domain = a72();
    let scope = Oscilloscope::new(ScopeConfig::oc_dso());
    let run = |threads: usize| {
        generate_voltage_virus("det-v", &domain, &scope, &reduced_config(threads), 13).unwrap()
    };
    let serial = run(1);
    for threads in [2, 8] {
        let parallel = run(threads);
        assert_eq!(serial.kernel, parallel.kernel);
        assert_eq!(serial.fitness.to_bits(), parallel.fitness.to_bits());
        assert_eq!(serial.generation_best, parallel.generation_best);
        assert_histories_identical(&serial.history, &parallel.history, "voltage");
    }
}

#[test]
fn fitness_cache_changes_seeds_but_not_determinism() {
    let run = |threads: usize| {
        let config = VirusGenConfig {
            cache_fitness: true,
            ..reduced_config(threads)
        };
        em_virus("det-c", &config)
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial.kernel, parallel.kernel);
    assert_eq!(serial.fitness.to_bits(), parallel.fitness.to_bits());
    assert_histories_identical(&serial.history, &parallel.history, "cached em");
    // Cached campaigns skip repeat measurements, so the accounted time
    // can only shrink relative to the measure-everything flow.
    let full = 8.0 * 5.0 * (3.0 * 0.6 + 2.0);
    assert!(serial.campaign.seconds() <= full + 1e-6);
}
