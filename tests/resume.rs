//! Kill-and-resume determinism for the step-engine (ISSUE 10): a
//! campaign interrupted at an arbitrary batch boundary and resumed from
//! its checkpoint must produce results identical to an uninterrupted
//! run — at any worker-thread count, including a different count on
//! resume than at interrupt.

use emvolt::backend::LiveBackend;
use emvolt::core::{
    fast_resonance_sweep_resumable, generate_em_virus_resumable, FastSweepConfig, FastSweepResult,
    VirusGenConfig,
};
use emvolt::engine::{Checkpoint, DriveOptions};
use emvolt::ga::GaConfig;
use emvolt::isa::kernels::resonant_stress_kernel;
use emvolt::obs::{JsonlRecorder, Telemetry};
use emvolt::prelude::*;
use emvolt::vmin::{vmin_test_resumable, FailureModel, VminConfig};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

fn a72() -> VoltageDomain {
    VoltageDomain::new("A72", CoreModel::cortex_a72(), a72_pdn(), 1.2e9)
}

fn small_virus_config() -> VirusGenConfig {
    VirusGenConfig {
        ga: GaConfig {
            population: 4,
            generations: 2,
            seed: 9,
            ..GaConfig::default()
        },
        kernel_len: 8,
        samples_per_individual: 2,
        ..VirusGenConfig::default()
    }
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("emvolt_resume_{tag}_{}.jsonl", std::process::id()))
}

fn run_virus(opts: &DriveOptions) -> Option<emvolt::core::Virus> {
    let cfg = small_virus_config();
    let mut backend = LiveBackend::single(a72(), EmBench::new(9), cfg.run.clone());
    generate_em_virus_resumable("resume-test", &mut backend, "A72", &cfg, opts, |_| {}).unwrap()
}

fn assert_same_virus(a: &emvolt::core::Virus, b: &emvolt::core::Virus) {
    assert_eq!(a.kernel.render(), b.kernel.render());
    assert_eq!(a.fitness.to_bits(), b.fitness.to_bits());
    assert_eq!(a.dominant_hz.to_bits(), b.dominant_hz.to_bits());
    assert_eq!(a.history.len(), b.history.len());
    for (x, y) in a.history.iter().zip(&b.history) {
        assert_eq!(x.index, y.index);
        assert_eq!(x.best_fitness.to_bits(), y.best_fitness.to_bits());
        assert_eq!(x.mean_fitness.to_bits(), y.mean_fitness.to_bits());
        assert_eq!(x.dominant_hz.to_bits(), y.dominant_hz.to_bits());
    }
}

#[test]
fn virus_resume_is_identical_at_any_thread_count() {
    let baseline = run_virus(&DriveOptions::default()).expect("uninterrupted run completes");
    // Interrupt after each of the first batches, resume with a thread
    // count different from both the baseline and the interrupted leg.
    for (interrupt_after, threads_a, threads_b) in [(1, 1, 4), (2, 4, 1), (3, 2, 3)] {
        let path = scratch(&format!("virus_{interrupt_after}"));
        let interrupted = run_virus(&DriveOptions {
            threads: threads_a,
            checkpoint: Some(path.clone()),
            checkpoint_every: 1,
            max_batches: Some(interrupt_after),
            ..DriveOptions::default()
        });
        assert!(
            interrupted.is_none(),
            "batch limit {interrupt_after} should interrupt the campaign"
        );
        let resumed = run_virus(&DriveOptions {
            threads: threads_b,
            resume: Some(path.clone()),
            ..DriveOptions::default()
        })
        .expect("resumed run completes");
        assert_same_virus(&baseline, &resumed);
        std::fs::remove_file(&path).ok();
    }
}

/// The header fingerprint of a virus checkpoint is pinned to the value
/// builds with the fitness-cache flag wrote for it unset (the flag's slot
/// now folds a constant 0), so their checkpoints still resume.
#[test]
fn virus_checkpoint_fingerprint_is_pinned() {
    let path = scratch("virus_fingerprint");
    let interrupted = run_virus(&DriveOptions {
        checkpoint: Some(path.clone()),
        checkpoint_every: 1,
        max_batches: Some(1),
        ..DriveOptions::default()
    });
    assert!(interrupted.is_none());
    let cp = Checkpoint::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(cp.campaign, "virus");
    assert_eq!(cp.fingerprint, 0xa69a_e775_18b9_761c);
}

/// In-memory JSONL sink, so event streams compare byte for byte.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs the first 20 points of the A72 sweep under `opts`, returning the
/// result (if it completed) and the JSONL events it emitted.
fn run_sweep(opts: &DriveOptions) -> (Option<FastSweepResult>, Vec<u8>) {
    let buf = SharedBuf::default();
    let domain = a72();
    let mut cfg = FastSweepConfig {
        telemetry: Telemetry::new(Arc::new(JsonlRecorder::new(buf.clone()))),
        ..FastSweepConfig::for_domain(&domain)
    };
    cfg.cpu_freqs_hz.truncate(20);
    let mut backend = LiveBackend::single(domain, EmBench::new(5), cfg.run.clone());
    let result = fast_resonance_sweep_resumable(&mut backend, "A72", &cfg, opts).unwrap();
    cfg.telemetry.flush();
    let events = buf.0.lock().unwrap().clone();
    (result, events)
}

/// The sweep hands its points to the backend a lane width at a time, but
/// counts each point as one step: interrupted at a point that is not a
/// multiple of the width and resumed at another width, it reproduces the
/// uninterrupted points, and the two legs' events concatenate to the
/// uninterrupted event stream.
#[test]
fn sweep_resume_mid_chunk_is_identical() {
    let (baseline, events) = run_sweep(&DriveOptions::pool(1, 1));
    let baseline = baseline.expect("uninterrupted sweep completes");
    let path = scratch("sweep");
    let (interrupted, mut legs) = run_sweep(&DriveOptions {
        lanes: 3,
        checkpoint: Some(path.clone()),
        checkpoint_every: 1,
        max_batches: Some(13),
        ..DriveOptions::default()
    });
    assert!(interrupted.is_none(), "13 of 20 points should interrupt");
    let (resumed, rest) = run_sweep(&DriveOptions {
        lanes: 8,
        resume: Some(path.clone()),
        ..DriveOptions::default()
    });
    std::fs::remove_file(&path).ok();
    let resumed = resumed.expect("resumed sweep completes");
    let bits = |r: &FastSweepResult| -> Vec<[u64; 3]> {
        r.points
            .iter()
            .map(|p| {
                [
                    p.cpu_freq_hz.to_bits(),
                    p.loop_freq_hz.to_bits(),
                    p.amplitude_dbm.to_bits(),
                ]
            })
            .collect()
    };
    assert_eq!(bits(&baseline), bits(&resumed));
    assert_eq!(
        baseline.campaign.seconds().to_bits(),
        resumed.campaign.seconds().to_bits()
    );
    legs.extend_from_slice(&rest);
    assert_eq!(String::from_utf8(events), String::from_utf8(legs));
}

#[test]
fn vmin_resume_reproduces_the_ladder() {
    let domain = a72();
    let kernel = resonant_stress_kernel(Isa::ArmV8, 12, 17);
    let model = FailureModel::juno_a72();
    let cfg = VminConfig {
        trials: 3,
        golden_iterations: 40,
        ..VminConfig::default()
    };
    let baseline = vmin_test_resumable(
        &domain,
        &kernel,
        &model,
        &cfg,
        Telemetry::noop(),
        &DriveOptions::default(),
    )
    .unwrap()
    .expect("uninterrupted run completes");

    let path = scratch("vmin");
    let interrupted = vmin_test_resumable(
        &domain,
        &kernel,
        &model,
        &cfg,
        Telemetry::noop(),
        &DriveOptions {
            checkpoint: Some(path.clone()),
            checkpoint_every: 1,
            max_batches: Some(3),
            ..DriveOptions::default()
        },
    )
    .unwrap();
    assert!(interrupted.is_none(), "batch limit should interrupt");
    let resumed = vmin_test_resumable(
        &domain,
        &kernel,
        &model,
        &cfg,
        Telemetry::noop(),
        &DriveOptions {
            resume: Some(path.clone()),
            ..DriveOptions::default()
        },
    )
    .unwrap()
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

#[test]
fn resume_refuses_a_mismatched_config() {
    let path = scratch("guard");
    let interrupted = run_virus(&DriveOptions {
        checkpoint: Some(path.clone()),
        checkpoint_every: 1,
        max_batches: Some(1),
        ..DriveOptions::default()
    });
    assert!(interrupted.is_none());

    // Same checkpoint, different GA seed: the fingerprint must refuse.
    let mut cfg = small_virus_config();
    cfg.ga.seed = 10;
    let mut backend = LiveBackend::single(a72(), EmBench::new(9), cfg.run.clone());
    let err = generate_em_virus_resumable(
        "resume-test",
        &mut backend,
        "A72",
        &cfg,
        &DriveOptions {
            resume: Some(path.clone()),
            ..DriveOptions::default()
        },
        |_| {},
    )
    .unwrap_err();
    std::fs::remove_file(&path).ok();
    assert!(
        err.to_string().contains("refusing to resume"),
        "unexpected error: {err}"
    );
}

/// A checkpoint whose register index was corrupted past the register
/// file must be refused with a typed error at restore, not panic later
/// in the core simulation.
#[test]
fn corrupted_register_index_is_a_typed_restore_error() {
    let path = scratch("regindex");
    let interrupted = run_virus(&DriveOptions {
        checkpoint: Some(path.clone()),
        checkpoint_every: 1,
        max_batches: Some(1),
        ..DriveOptions::default()
    });
    assert!(interrupted.is_none());

    let text = std::fs::read_to_string(&path).unwrap();
    let at = text
        .find("\"index\":")
        .expect("checkpoint holds a register")
        + "\"index\":".len();
    let digits = text[at..].chars().take_while(char::is_ascii_digit).count();
    let mutated = format!("{}255{}", &text[..at], &text[at + digits..]);
    std::fs::write(&path, mutated).unwrap();

    let cfg = small_virus_config();
    let mut backend = LiveBackend::single(a72(), EmBench::new(9), cfg.run.clone());
    let err = generate_em_virus_resumable(
        "resume-test",
        &mut backend,
        "A72",
        &cfg,
        &DriveOptions {
            resume: Some(path.clone()),
            ..DriveOptions::default()
        },
        |_| {},
    )
    .unwrap_err();
    std::fs::remove_file(&path).ok();
    assert!(
        err.to_string().contains("register index 255"),
        "unexpected error: {err}"
    );
}

/// A replayed sweep resumes too: the replay cursor and analyzer time in
/// the checkpoint's rig line carry over to a fresh `replay:` backend.
/// Interrupted at a point that is not a multiple of the lane width and
/// resumed, it prints the uninterrupted replay's bytes, and the two
/// legs' telemetry concatenates to the uninterrupted trace.
#[test]
fn replayed_sweep_resumes_mid_chunk() {
    let dir = std::env::temp_dir().join(format!("emvolt_resume_replay_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sweep = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_emvolt"))
            .args(["sweep", "--platform", "a53"])
            .args(args)
            .current_dir(&dir)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let recorded = sweep(&["--backend", "record:trace.jsonl"]);
    let replay = ["--backend", "replay:trace.jsonl"];
    let full = sweep(&[&replay[..], &["--telemetry", "full.jsonl"]].concat());
    assert_eq!(recorded, full);
    let interrupted = sweep(
        &[
            &replay[..],
            &["--lanes", "3", "--telemetry", "part1.jsonl"],
            &["--checkpoint", "ck.jsonl", "--step-limit", "13"],
        ]
        .concat(),
    );
    assert!(
        interrupted.is_empty(),
        "an interrupted sweep prints no table"
    );
    let resumed = sweep(
        &[
            &replay[..],
            &["--lanes", "8", "--telemetry", "part2.jsonl"],
            &["--resume", "ck.jsonl"],
        ]
        .concat(),
    );
    let read = |name: &str| std::fs::read(dir.join(name)).unwrap();
    let (whole, mut legs) = (read("full.jsonl"), read("part1.jsonl"));
    legs.extend(read("part2.jsonl"));
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(full, resumed);
    assert!(whole == legs, "the legs' telemetry differs from the whole");
}
