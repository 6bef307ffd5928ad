//! Record/replay equivalence, driven through the real campaigns in
//! `emvolt-core` (a dev-only dependency cycle): the GA virus search and
//! the fast resonance sweep must produce bit-identical results and
//! byte-identical telemetry traces whichever backend serves the
//! measurements — live, recording, or replay — across seeds and worker
//! thread counts. Replay does all of this without ever invoking the
//! transient solver.

use emvolt_backend::{LiveBackend, MeasurementBackend, RecordBackend, ReplayBackend};
use emvolt_core::{
    fast_resonance_sweep_on, fast_resonance_sweep_resumable, generate_em_virus_on, FastSweepConfig,
    FastSweepResult, Virus, VirusGenConfig,
};
use emvolt_cpu::CoreModel;
use emvolt_engine::DriveOptions;
use emvolt_ga::GaConfig;
use emvolt_obs::{JsonlRecorder, Telemetry};
use emvolt_platform::{a72_pdn, EmBench, RunConfig, VoltageDomain};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

fn a72() -> VoltageDomain {
    VoltageDomain::new("A72", CoreModel::cortex_a72(), a72_pdn(), 1.2e9)
}

fn live(seed: u64) -> LiveBackend {
    LiveBackend::single(a72(), EmBench::new(seed ^ 0xBEEF), RunConfig::fast())
}

/// In-memory telemetry sink so whole traces compare byte-for-byte.
#[derive(Clone)]
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

fn telemetry() -> (Telemetry, SharedBuf) {
    let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    let tel = Telemetry::new(Arc::new(JsonlRecorder::new(buf.clone())));
    (tel, buf)
}

fn ga_config(seed: u64, threads: usize, telemetry: Telemetry) -> VirusGenConfig {
    VirusGenConfig {
        ga: GaConfig {
            population: 6,
            generations: 3,
            seed,
            ..GaConfig::default()
        },
        kernel_len: 12,
        samples_per_individual: 2,
        threads,
        telemetry,
        ..VirusGenConfig::default()
    }
}

/// Every observable output of a campaign, at `to_bits` precision.
fn virus_fingerprint(v: &Virus) -> String {
    let mut s = format!(
        "{}|{:016x}|{:016x}|{:016x}\n{}\n",
        v.name,
        v.fitness.to_bits(),
        v.dominant_hz.to_bits(),
        v.campaign.seconds().to_bits(),
        v.kernel.render(),
    );
    for rec in &v.history {
        let _ = writeln!(
            s,
            "g{} {:016x} {:016x} {:016x}",
            rec.index,
            rec.best_fitness.to_bits(),
            rec.mean_fitness.to_bits(),
            rec.dominant_hz.to_bits(),
        );
    }
    for k in &v.generation_best {
        let _ = writeln!(s, "{}", k.render());
    }
    s
}

fn sweep_fingerprint(r: &FastSweepResult) -> String {
    let mut s = format!(
        "{:016x}|{:016x}\n",
        r.resonance_hz.to_bits(),
        r.campaign.seconds().to_bits()
    );
    for p in &r.points {
        let _ = writeln!(
            s,
            "{:016x} {:016x} {:016x}",
            p.cpu_freq_hz.to_bits(),
            p.loop_freq_hz.to_bits(),
            p.amplitude_dbm.to_bits(),
        );
    }
    s
}

/// Runs one GA campaign over `backend`, returning the result fingerprint
/// and the full telemetry trace bytes.
fn run_ga<B: MeasurementBackend + ?Sized>(
    backend: &mut B,
    seed: u64,
    threads: usize,
) -> (String, Vec<u8>) {
    let (tel, buf) = telemetry();
    let cfg = ga_config(seed, threads, tel);
    let virus = generate_em_virus_on("rr", backend, "A72", &cfg, |_| {}).expect("campaign runs");
    let bytes = buf.0.lock().unwrap().clone();
    (virus_fingerprint(&virus), bytes)
}

fn trace_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("emvolt-rr-{tag}-{}.jsonl", std::process::id()))
}

#[test]
fn ga_replay_is_bit_identical_to_live_across_seeds_and_threads() {
    for seed in [11u64, 0xA72E3] {
        let trace = trace_path(&format!("ga-{seed}"));

        let mut live1 = live(seed);
        let (fp_live, tel_live) = run_ga(&mut live1, seed, 1);

        // Same campaign, four worker threads: thread count must not leak
        // into results or traces.
        let mut live4 = live(seed);
        let (fp_live4, tel_live4) = run_ga(&mut live4, seed, 4);
        assert_eq!(
            fp_live, fp_live4,
            "seed {seed}: thread count changed the live campaign"
        );
        assert_eq!(
            tel_live, tel_live4,
            "seed {seed}: thread count changed the live trace"
        );

        // Recording wraps live without disturbing it.
        let mut rec = RecordBackend::create(live(seed), &trace).expect("trace file opens");
        let (fp_rec, tel_rec) = run_ga(&mut rec, seed, 1);
        assert_eq!(
            fp_live, fp_rec,
            "seed {seed}: recording changed the campaign"
        );
        assert_eq!(
            tel_live, tel_rec,
            "seed {seed}: recording changed the trace"
        );

        // Replay serves the identical campaign from the trace alone — no
        // domain, no bench, no solver — at either thread count.
        for threads in [1usize, 4] {
            let mut rep = ReplayBackend::open(&trace).expect("trace loads");
            let (fp_rep, tel_rep) = run_ga(&mut rep, seed, threads);
            assert_eq!(
                fp_live, fp_rep,
                "seed {seed}, {threads} thread(s): replay diverged from live"
            );
            assert_eq!(
                tel_live, tel_rep,
                "seed {seed}, {threads} thread(s): replay trace diverged from live"
            );
        }

        let _ = std::fs::remove_file(&trace);
    }
}

#[test]
fn fast_sweep_replay_is_bit_identical_to_live() {
    let trace = trace_path("sweep");
    let sweep_cfg = |tel: Telemetry| FastSweepConfig {
        cpu_freqs_hz: vec![1.2e9, 1.0e9, 800e6, 600e6, 400e6],
        samples_per_point: 2,
        telemetry: tel,
        ..FastSweepConfig::for_max_frequency(1.2e9)
    };

    let (tel, buf) = telemetry();
    let mut live_backend = live(9);
    let live_result = fast_resonance_sweep_on(&mut live_backend, "A72", &sweep_cfg(tel)).unwrap();
    let tel_live = buf.0.lock().unwrap().clone();

    let (tel, buf) = telemetry();
    let mut rec = RecordBackend::create(live(9), &trace).expect("trace file opens");
    let rec_result = fast_resonance_sweep_on(&mut rec, "A72", &sweep_cfg(tel)).unwrap();
    let tel_rec = buf.0.lock().unwrap().clone();
    assert_eq!(
        sweep_fingerprint(&live_result),
        sweep_fingerprint(&rec_result)
    );
    assert_eq!(tel_live, tel_rec, "recording changed the sweep trace");

    let (tel, buf) = telemetry();
    let mut rep = ReplayBackend::open(&trace).expect("trace loads");
    let rep_result = fast_resonance_sweep_on(&mut rep, "A72", &sweep_cfg(tel)).unwrap();
    let tel_rep = buf.0.lock().unwrap().clone();
    assert_eq!(
        sweep_fingerprint(&live_result),
        sweep_fingerprint(&rep_result),
        "replay diverged from the live sweep"
    );
    assert_eq!(tel_live, tel_rep, "replay sweep trace diverged from live");

    let _ = std::fs::remove_file(&trace);
}

/// The sweep hands its points to the backend a lane width at a time;
/// recorded at one point per call or eight, it writes the same trace
/// file byte for byte — one entry per point, in visit order, each with
/// its own events, counters and analyzer time — and the same telemetry.
#[test]
fn sweep_trace_does_not_depend_on_lane_width() {
    let record = |lanes: usize| {
        let trace = trace_path(&format!("sweep-lanes{lanes}"));
        let (tel, buf) = telemetry();
        let cfg = FastSweepConfig {
            telemetry: tel,
            ..FastSweepConfig::for_max_frequency(1.2e9)
        };
        let mut rec = RecordBackend::create(live(5), &trace).expect("trace file opens");
        let result =
            fast_resonance_sweep_resumable(&mut rec, "A72", &cfg, &DriveOptions::pool(1, lanes))
                .unwrap()
                .expect("no batch limit");
        let file = std::fs::read(&trace).expect("trace written");
        let _ = std::fs::remove_file(&trace);
        let events = buf.0.lock().unwrap().clone();
        (sweep_fingerprint(&result), file, events)
    };
    let (fp1, file1, tel1) = record(1);
    let (fp8, file8, tel8) = record(8);
    assert_eq!(fp1, fp8);
    assert_eq!(
        String::from_utf8(file1),
        String::from_utf8(file8),
        "lane width changed the trace file"
    );
    assert_eq!(tel1, tel8, "lane width changed the telemetry");
}

#[test]
fn replaying_a_different_campaign_fails_with_missing_recording() {
    let trace = trace_path("mismatch");
    let mut rec = RecordBackend::create(live(3), &trace).expect("trace file opens");
    let _ = run_ga(&mut rec, 3, 1);

    // A different GA seed evolves different kernels; their keys are not
    // in the trace, so the campaign must fail loudly rather than serve
    // wrong data.
    let mut rep = ReplayBackend::open(&trace).expect("trace loads");
    let (tel, _buf) = telemetry();
    let cfg = ga_config(4, 1, tel);
    let err = generate_em_virus_on("rr", &mut rep, "A72", &cfg, |_| {})
        .expect_err("mismatched replay must fail");
    assert!(
        err.to_string().contains("no recorded measurement"),
        "unexpected error: {err}"
    );

    let _ = std::fs::remove_file(&trace);
}
