//! Exports machine-readable benchmark numbers to `BENCH_eval.json` and
//! `BENCH_ga.json` at the repository root.
//!
//! The criterion benches print to stdout only; CI and EXPERIMENTS.md
//! want stable JSON artifacts, so this binary re-times the same
//! workloads with `std::time::Instant` and writes
//! `{name, samples, min_ms, mean_ms, max_ms}` records. Two headline
//! comparisons: `full_chain_baseline` (the default auto-selected
//! state-space + band-Goertzel path) against `full_chain_lu_fft` (the
//! general LU solve + full Bluestein FFT it replaced), and
//! `full_chain_noop_recorder` (telemetry hooks present, everything
//! gated off) against the baseline — the telemetry tentpole requires
//! the noop path within 1% of it.
//!
//! The GA-scale pair `checkpoint_overhead` / `ga_campaign_noop_recorder`
//! times the engine-driven campaign checkpointing every batch against
//! the legacy one-shot path — the step-engine tentpole requires the
//! checkpointed path within 3% of it, which `bench_gate` enforces.
//!
//! `bench_gate` consumes the `full_chain_*` records, so warmup must be
//! long enough that min_ms is a stable floor, not a cold-cache draw.
//! The `simd_fold_lanes_*` pair times the dispatched lane-major fold
//! against the same fold forced to the scalar tier — the same-run ratio
//! `bench_gate` holds a floor on for hosts with AVX2.
//!
//! Besides overwriting the two snapshot files, every run appends one
//! line to `BENCH_history.jsonl` in the same directory — the trajectory
//! of the floors across commits, keyed by the run stamp and the
//! dispatched SIMD level.
//!
//! Usage: `export_bench [output_dir] [stamp]` (default `.`; the stamp
//! defaults to the unix time in seconds — pass one explicitly to keep
//! reproducing runs, e.g. in tests, off the wall clock).

use emvolt_backend::LiveBackend;
use emvolt_bench::fixtures::{a72_domain, arm_kernel};
use emvolt_core::{generate_em_virus_on, generate_em_virus_resumable, VirusGenConfig};
use emvolt_engine::DriveOptions;
use emvolt_ga::GaConfig;
use emvolt_obs::{JsonlRecorder, NoopRecorder, Telemetry, WaveDb};
use emvolt_platform::{
    DomainRun, DomainRunner, EmBench, KernelChoice, Load, MeasureScratch, RunConfig, SpectralChoice,
};
use serde::Value;
use std::sync::Arc;
use std::time::Instant;

struct Stats {
    name: &'static str,
    samples: usize,
    /// Individuals evaluated per timed iteration; batched entries set
    /// this above 1 and additionally export `ms_per_lane = min_ms /
    /// lanes`, the number the amortization gate compares against the
    /// serial chain.
    lanes: usize,
    min_ms: f64,
    mean_ms: f64,
    max_ms: f64,
}

fn stats_of(name: &'static str, times: &[f64]) -> Stats {
    let min = times.iter().copied().fold(f64::INFINITY, f64::min);
    let max = times.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    Stats {
        name,
        samples: times.len(),
        lanes: 1,
        min_ms: min,
        mean_ms: mean,
        max_ms: max,
    }
}

/// Times `f` over `samples` iterations after `warmup` discarded ones.
fn time_ms(name: &'static str, warmup: usize, samples: usize, mut f: impl FnMut()) -> Stats {
    for _ in 0..warmup {
        f();
    }
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        f();
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    stats_of(name, &times)
}

/// Times `a` and `b` in alternating rounds, so both records sample the
/// same machine conditions. Sequentially-timed records each see a
/// different slice of a drifting CPU clock — a few percent here, which
/// swamps any gate comparing the two as a ratio (`bench_gate` holds
/// `checkpoint_overhead` within 3% of `ga_campaign_noop_recorder`).
fn time_pair_ms(
    name_a: &'static str,
    name_b: &'static str,
    warmup: usize,
    samples: usize,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> (Stats, Stats) {
    for _ in 0..warmup {
        a();
        b();
    }
    let mut times_a = Vec::with_capacity(samples);
    let mut times_b = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        a();
        times_a.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        b();
        times_b.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    (stats_of(name_a, &times_a), stats_of(name_b, &times_b))
}

fn to_value(records: &[Stats]) -> Value {
    Value::Arr(
        records
            .iter()
            .map(|s| {
                let mut obj = vec![
                    ("name".to_owned(), Value::Str(s.name.to_owned())),
                    ("samples".to_owned(), Value::Num(s.samples as f64)),
                    ("min_ms".to_owned(), Value::Num(s.min_ms)),
                    ("mean_ms".to_owned(), Value::Num(s.mean_ms)),
                    ("max_ms".to_owned(), Value::Num(s.max_ms)),
                ];
                if s.lanes > 1 {
                    obj.push(("lanes".to_owned(), Value::Num(s.lanes as f64)));
                    obj.push((
                        "ms_per_lane".to_owned(),
                        Value::Num(s.min_ms / s.lanes as f64),
                    ));
                }
                Value::Obj(obj)
            })
            .collect(),
    )
}

/// The vendored `Value` has no blanket `Serialize` impl; this newtype
/// hands a prebuilt tree to the serializer.
struct Raw(Value);

impl serde::Serialize for Raw {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

fn write_json(dir: &str, file: &str, records: &[Stats]) {
    let path = format!("{dir}/{file}");
    let json =
        serde_json::to_string_pretty(&Raw(to_value(records))).expect("serialize bench records");
    std::fs::write(&path, json + "\n").unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("wrote {path}");
}

/// One full-chain evaluation closure over reusable scratch: the exact
/// per-individual loop the GA pays.
fn eval_records() -> Vec<Stats> {
    let domain = a72_domain();
    let cfg = RunConfig::fast();
    let kernel = arm_kernel();
    let bench = EmBench::new(0xBE7C);
    let shared = bench.share();
    // Warmup long enough to fault in code, warm caches, and settle the
    // allocator before any timed sample: without it min-to-max spread
    // ran 2x and min_ms was not a gateable floor.
    const WARMUP: usize = 50;
    const SAMPLES: usize = 40;

    let mut records = Vec::new();

    // Reference "before" path: general LU back-substitution per step and
    // a full Bluestein FFT per sweep, both forced. This is what every
    // chain paid before the structure-exploiting kernels landed; keeping
    // it timed records the before/after trajectory in every export.
    {
        let mut lu_cfg = cfg.clone();
        lu_cfg.kernel = KernelChoice::Lu;
        lu_cfg.spectral = SpectralChoice::FullFft;
        let mut fft_bench = EmBench::new(0xBE7C);
        fft_bench.set_spectral(SpectralChoice::FullFft);
        let fft_shared = fft_bench.share();
        let mut runner = DomainRunner::new(&domain, lu_cfg).unwrap();
        let mut run = DomainRun::empty();
        let mut measure = MeasureScratch::new();
        records.push(time_ms("full_chain_lu_fft", WARMUP, SAMPLES, || {
            runner.run_into(&kernel, 1, &mut run).unwrap();
            std::hint::black_box(
                fft_shared
                    .measure_in_band_seeded_with(&run, 50e6, 200e6, 3, 7, &mut measure)
                    .metric_dbm,
            );
        }));
    }

    // Baseline: plain constructors, no telemetry argument anywhere. Auto
    // selection resolves to the state-space kernel + band Goertzel on
    // this workload; this is the entry `bench_gate` holds the line on.
    {
        let mut runner = DomainRunner::new(&domain, cfg.clone()).unwrap();
        let mut run = DomainRun::empty();
        let mut measure = MeasureScratch::new();
        records.push(time_ms("full_chain_baseline", WARMUP, SAMPLES, || {
            runner.run_into(&kernel, 1, &mut run).unwrap();
            std::hint::black_box(
                shared
                    .measure_in_band_seeded_with(&run, 50e6, 200e6, 3, 7, &mut measure)
                    .metric_dbm,
            );
        }));
    }

    // Batched: L individuals stepped through the lane-major transient
    // fold together, then measured through the multi-lane Goertzel +
    // shared EM transfer path in one call. `ms_per_lane` is the per-eval
    // cost the amortization gate holds against the serial baseline.
    for &(name, lanes) in &[
        ("full_chain_batched_x4", 4usize),
        ("full_chain_batched_x8", 8),
    ] {
        let mut runner = DomainRunner::new(&domain, cfg.clone()).unwrap();
        let loads: Vec<Load<'_>> = (0..lanes)
            .map(|i| Load::Kernel {
                kernel: &kernel,
                loaded_cores: 1 + i % 2,
            })
            .collect();
        let seeds = vec![7u64; lanes];
        let mut outs = vec![DomainRun::empty(); lanes];
        let mut measure = MeasureScratch::new();
        let mut stats = time_ms(name, WARMUP, SAMPLES, || {
            runner.run_batch_into(&loads, &mut outs).unwrap();
            let runs: Vec<&DomainRun> = outs.iter().collect();
            let readings = shared.measure_in_band_batch_seeded_with(
                &runs,
                50e6,
                200e6,
                3,
                &seeds,
                &mut measure,
            );
            for reading in &readings {
                std::hint::black_box(reading.metric_dbm);
            }
        });
        stats.lanes = lanes;
        records.push(stats);
    }

    // SIMD dispatch microbench: the lane-major response-column fold —
    // the innermost per-step loop of the batched transient — at the
    // dispatched level against the scalar tier, same shapes, same run.
    // The vectors differ only in instruction selection (bit-identical
    // results), so the min-time ratio isolates the SIMD payoff from
    // every other chain cost; `bench_gate` holds a floor on it.
    {
        const N_NODES: usize = 16;
        const N_INPUTS: usize = 12;
        const LANES: usize = 8;
        // One fold is ~1.5k flops; repeat enough that a sample dwarfs
        // timer granularity.
        const REPS: usize = 4000;
        let cols: Vec<f64> = (0..N_NODES * N_INPUTS)
            .map(|i| (i as f64 * 0.37).sin())
            .collect();
        let inputs: Vec<f64> = (0..N_INPUTS * LANES)
            .map(|i| (i as f64 * 0.73).cos())
            .collect();
        let mut xn = vec![0.0; N_NODES * LANES];
        for (name, level) in [
            ("simd_fold_lanes_dispatch", emvolt_simd::level()),
            ("simd_fold_lanes_scalar", emvolt_simd::SimdLevel::Scalar),
        ] {
            records.push(time_ms(name, WARMUP, SAMPLES, || {
                for _ in 0..REPS {
                    level.fold_cols_lanes(&cols, N_NODES, &inputs, LANES, &mut xn);
                }
                std::hint::black_box(&mut xn);
            }));
        }
    }

    // Noop recorder: hooks live, emission gated off.
    {
        let noop = Telemetry::noop();
        let mut runner = DomainRunner::new_with(&domain, cfg.clone(), noop.clone()).unwrap();
        let mut run = DomainRun::empty();
        let mut measure = MeasureScratch::new();
        measure.set_telemetry(noop);
        records.push(time_ms("full_chain_noop_recorder", WARMUP, SAMPLES, || {
            runner.run_into(&kernel, 1, &mut run).unwrap();
            std::hint::black_box(
                shared
                    .measure_in_band_seeded_with(&run, 50e6, 200e6, 3, 7, &mut measure)
                    .metric_dbm,
            );
        }));
    }

    // JSONL recorder to an in-memory sink: the enabled-path upper bound.
    {
        let tel = Telemetry::new(Arc::new(JsonlRecorder::new(std::io::sink())));
        let mut runner = DomainRunner::new_with(&domain, cfg.clone(), tel.clone()).unwrap();
        let mut run = DomainRun::empty();
        let mut measure = MeasureScratch::new();
        measure.set_telemetry(tel);
        records.push(time_ms("full_chain_jsonl_to_sink", WARMUP, SAMPLES, || {
            runner.run_into(&kernel, 1, &mut run).unwrap();
            std::hint::black_box(
                shared
                    .measure_in_band_seeded_with(&run, 50e6, 200e6, 3, 7, &mut measure)
                    .metric_dbm,
            );
        }));
    }

    // Wave sink attached: the full chain streaming every probed waveform
    // (core current, issue slots, die voltage, package current, swept-bin
    // readings) into an in-memory WaveDb — the enabled upper bound the
    // `--trace-vcd` flag pays. With the sink absent the chain must stay
    // within 1% of `full_chain_baseline`, which `full_chain_noop_recorder`
    // above measures (the noop handle also carries the inert wave sink).
    {
        let db = Arc::new(WaveDb::new());
        let tel = Telemetry::with_waves(Arc::new(NoopRecorder), db);
        let mut runner = DomainRunner::new_with(&domain, cfg.clone(), tel.clone()).unwrap();
        let mut run = DomainRun::empty();
        let mut measure = MeasureScratch::new();
        measure.set_telemetry(tel);
        records.push(time_ms("wavetrace_overhead", WARMUP, SAMPLES, || {
            runner.run_into(&kernel, 1, &mut run).unwrap();
            std::hint::black_box(
                shared
                    .measure_in_band_seeded_with(&run, 50e6, 200e6, 3, 7, &mut measure)
                    .metric_dbm,
            );
        }));
    }

    records
}

fn ga_config(telemetry: Telemetry) -> VirusGenConfig {
    VirusGenConfig {
        ga: GaConfig {
            population: 6,
            generations: 3,
            ..GaConfig::default()
        },
        kernel_len: 16,
        samples_per_individual: 3,
        threads: 1,
        telemetry,
        ..VirusGenConfig::default()
    }
}

fn ga_records() -> Vec<Stats> {
    let domain = a72_domain();
    const WARMUP: usize = 3;
    const SAMPLES: usize = 5;

    // Engine-driven campaign snapshotting its state to disk after every
    // absorbed batch: the price of `--checkpoint PATH:1`, the tightest
    // cadence the CLI accepts. The one-shot entry
    // (`ga_campaign_noop_recorder`) is a thin driver over the same
    // engine with checkpointing off, so the ratio of the two floors —
    // sampled in alternating rounds — isolates the snapshot stash +
    // debounced render/write cost; `bench_gate` holds it within 3%.
    let path = std::env::temp_dir().join(format!(
        "emvolt_bench_checkpoint_{}.jsonl",
        std::process::id()
    ));
    // More rounds than the solo records: the gate compares the two
    // floors as a ratio, and occasional multi-ms filesystem stalls on
    // the checkpoint side need enough samples for the floor to dodge
    // them.
    const PAIR_SAMPLES: usize = 15;
    let (noop, checkpoint) = time_pair_ms(
        "ga_campaign_noop_recorder",
        "checkpoint_overhead",
        WARMUP,
        PAIR_SAMPLES,
        || {
            let cfg = ga_config(Telemetry::noop());
            let mut live = LiveBackend::single(domain.clone(), EmBench::new(11), cfg.run.clone());
            std::hint::black_box(
                generate_em_virus_on("bench", &mut live, "A72", &cfg, |_| {})
                    .unwrap()
                    .fitness,
            );
        },
        || {
            let cfg = ga_config(Telemetry::noop());
            let mut backend =
                LiveBackend::single(domain.clone(), EmBench::new(11), cfg.run.clone());
            let opts = DriveOptions {
                checkpoint: Some(path.clone()),
                checkpoint_every: 1,
                ..DriveOptions::default()
            };
            let virus =
                generate_em_virus_resumable("bench", &mut backend, "A72", &cfg, &opts, |_| {})
                    .unwrap()
                    .expect("no batch limit, so the drive runs to completion");
            std::hint::black_box(virus.fitness);
        },
    );
    std::fs::remove_file(&path).ok();

    let mut records = vec![noop];
    records.push(time_ms(
        "ga_campaign_jsonl_to_sink",
        WARMUP,
        SAMPLES,
        || {
            let tel = Telemetry::new(Arc::new(JsonlRecorder::new(std::io::sink())));
            let cfg = ga_config(tel);
            let mut live = LiveBackend::single(domain.clone(), EmBench::new(11), cfg.run.clone());
            std::hint::black_box(
                generate_em_virus_on("bench", &mut live, "A72", &cfg, |_| {})
                    .unwrap()
                    .fitness,
            );
        },
    ));
    records.push(checkpoint);
    records
}

/// One `BENCH_history.jsonl` line: the run stamp, the dispatched SIMD
/// level, and every record's floor. Appending (never rewriting) keeps
/// the trajectory of the numbers across commits greppable without
/// archaeology through git history of the snapshot files.
fn append_history(dir: &str, stamp: &str, eval: &[Stats], ga: &[Stats]) {
    let floors = |records: &[Stats]| {
        Value::Obj(
            records
                .iter()
                .map(|s| (s.name.to_owned(), Value::Num(s.min_ms)))
                .collect(),
        )
    };
    let line = Value::Obj(vec![
        ("stamp".to_owned(), Value::Str(stamp.to_owned())),
        (
            "simd".to_owned(),
            Value::Str(emvolt_simd::level().as_str().to_owned()),
        ),
        ("eval_min_ms".to_owned(), floors(eval)),
        ("ga_min_ms".to_owned(), floors(ga)),
    ]);
    let json = serde_json::to_string(&Raw(line)).expect("serialize history line");
    let path = format!("{dir}/BENCH_history.jsonl");
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .unwrap_or_else(|e| panic!("open {path}: {e}"));
    writeln!(file, "{json}").unwrap_or_else(|e| panic!("append {path}: {e}"));
    eprintln!("appended {path}");
}

fn main() {
    let mut args = std::env::args().skip(1);
    let dir = args.next().unwrap_or_else(|| ".".to_owned());
    let stamp = args.next().unwrap_or_else(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs().to_string())
            .unwrap_or_else(|_| "pre-epoch".to_owned())
    });
    let eval = eval_records();
    for s in &eval {
        eprintln!(
            "{:<28} min {:.3} ms  mean {:.3} ms  max {:.3} ms",
            s.name, s.min_ms, s.mean_ms, s.max_ms
        );
    }
    write_json(&dir, "BENCH_eval.json", &eval);

    let ga = ga_records();
    for s in &ga {
        eprintln!(
            "{:<28} min {:.3} ms  mean {:.3} ms  max {:.3} ms",
            s.name, s.min_ms, s.mean_ms, s.max_ms
        );
    }
    write_json(&dir, "BENCH_ga.json", &ga);

    append_history(&dir, &stamp, &eval, &ga);
}
