//! Times the emvolt evaluation chain, the core sim alone and a reduced GA
//! campaign, and gates every record against the baseline pinned in the last
//! line of `BENCH_history.jsonl` at the repository root.
//!
//! ```text
//! bench_gate                      # time every record and check it
//! bench_gate --rebaseline STAMP   # time every record and pin a new line
//! ```
//!
//! Exit status: 0 when every check passes (or the new line was pinned),
//! 1 when a check fails, 2 when the arguments or the baseline file are
//! bad. Check mode writes nothing; `--rebaseline` appends one line to
//! `BENCH_history.jsonl` and writes nothing else into the repository.
//!
//! Two kinds of check, one printed line each:
//!
//! - **Absolute floors.** Every record's fresh `min_ms` must be at most
//!   [`FLOOR_TOLERANCE`] times its pinned `min_ms`. A record pinned but
//!   not timed, or timed but not pinned, fails, so renaming, adding or
//!   dropping a record forces a deliberate `--rebaseline`. Runners are
//!   noisy and heterogeneous: these floors catch integer-factor
//!   regressions, not single-digit-percent drift.
//! - **Same-run ratios.** Both sides of a ratio are timed in the same
//!   run, in alternating rounds, so the ratio holds on runners of any
//!   speed:
//!   - `full_chain_lu_fft` (LU solve + full FFT, the reference chain)
//!     must cost at least [`FAST_PATH_SPEEDUP`] times
//!     `full_chain_baseline` (the state-space kernel + band Goertzel);
//!   - each lane of every `full_chain_batched_xN` must cost at most
//!     [`AMORTIZATION_CEILING`] times `full_chain_baseline`, which is a
//!     lane group of one;
//!   - on hosts that detect AVX2, the dispatched transient step kernel
//!     must beat the scalar-forced one by [`SIMD_SPEEDUP`]; other hosts
//!     skip this check, whose floor is calibrated to 4-wide FMA;
//!   - a campaign checkpointing after every batch must cost at most
//!     [`CHECKPOINT_CEILING`] times the same campaign without one, by
//!     the median of at least [`CHECKPOINT_PAIRS`] per-round pair ratios
//!     (one ratio of two minima flapped across the ceiling).
//!
//! `--rebaseline` still runs the same-run ratios and pins nothing when
//! one fails.

use emvolt_backend::LiveBackend;
use emvolt_core::{generate_em_virus_resumable, VirusGenConfig};
use emvolt_cpu::{CoreModel, Cpu};
use emvolt_dsp::{Spectrum, SpectrumScratch, Window};
use emvolt_engine::DriveOptions;
use emvolt_ga::GaConfig;
use emvolt_inst::SpectrumAnalyzer;
use emvolt_isa::{kernels::sweep_kernel, InstructionPool, Isa, Kernel};
use emvolt_obs::{JsonlRecorder, NoopRecorder, Telemetry, WaveDb};
use emvolt_platform::{
    a72_pdn, DomainRun, DomainRunner, EmBench, KernelChoice, Load, MeasureScratch, RunConfig,
    VoltageDomain,
};
use emvolt_simd::{SimdLevel, StepOperands, StepRows};
use rand::{rngs::StdRng, SeedableRng};
use serde::{DeError, Deserialize, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// A fresh floor may exceed its pinned floor by at most this factor.
const FLOOR_TOLERANCE: f64 = 1.5;
/// Lower bound on `full_chain_lu_fft / full_chain_baseline`.
const FAST_PATH_SPEEDUP: f64 = 1.5;
/// Upper bound on a batched lane's cost over `full_chain_baseline`.
const AMORTIZATION_CEILING: f64 = 0.75;
/// Lower bound on `simd_steps_scalar / simd_steps_dispatch` on AVX2.
const SIMD_SPEEDUP: f64 = 1.3;
/// Upper bound on the `checkpoint_overhead` [`median_ratio`].
const CHECKPOINT_CEILING: f64 = 1.03;
/// Fewest rounds the `checkpoint_overhead` [`median_ratio`] is taken over.
const CHECKPOINT_PAIRS: usize = 9;

/// `{record name -> min_ms}`.
type Floors = BTreeMap<String, f64>;

/// `{record name -> the ms of each timed round}`.
type Samples = BTreeMap<String, Vec<f64>>;

/// Each record's fastest sample.
fn floors_of(samples: &Samples) -> Floors {
    let min = |ms: &Vec<f64>| ms.iter().copied().fold(f64::INFINITY, f64::min);
    samples
        .iter()
        .map(|(name, ms)| (name.clone(), min(ms)))
        .collect()
}

/// The median per-round `num / den` of two records timed in the same
/// rounds (the upper middle one for an even count) and the round count;
/// `None` when either record was not timed.
fn median_ratio(samples: &Samples, num: &str, den: &str) -> Option<(f64, usize)> {
    let num_den = samples.get(num)?.iter().zip(samples.get(den)?);
    let mut ratios: Vec<f64> = num_den.map(|(n, d)| n / d).collect();
    ratios.sort_by(f64::total_cmp);
    Some((*ratios.get(ratios.len() / 2)?, ratios.len()))
}

/// One `BENCH_history.jsonl` line: the stamp it was pinned under, the
/// SIMD level the host dispatched, and every record's floor, grouped
/// as the historic lines group them.
#[derive(Debug, Clone, PartialEq)]
struct Snapshot {
    stamp: String,
    simd: String,
    eval_min_ms: Floors,
    ga_min_ms: Floors,
}

impl Snapshot {
    /// Both groups in one map; record names are unique across them.
    fn floors(&self) -> Floors {
        let mut all = self.eval_min_ms.clone();
        all.extend(self.ga_min_ms.clone());
        all
    }

    fn to_line(&self) -> String {
        let group = |floors: &Floors| {
            Value::Obj(
                floors
                    .iter()
                    .map(|(name, &ms)| (name.clone(), Value::Num(ms)))
                    .collect(),
            )
        };
        serde_json::value_to_string(&Value::Obj(vec![
            ("stamp".to_owned(), Value::Str(self.stamp.clone())),
            ("simd".to_owned(), Value::Str(self.simd.clone())),
            ("eval_min_ms".to_owned(), group(&self.eval_min_ms)),
            ("ga_min_ms".to_owned(), group(&self.ga_min_ms)),
        ]))
    }
}

impl Deserialize for Snapshot {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Snapshot {
            stamp: String::from_value(v.field_value("stamp")?)?,
            simd: String::from_value(v.field_value("simd")?)?,
            eval_min_ms: floors_from(v, "eval_min_ms")?,
            ga_min_ms: floors_from(v, "ga_min_ms")?,
        })
    }
}

/// Reads one group of floors, each a finite number of ms above zero.
fn floors_from(line: &Value, group: &str) -> Result<Floors, DeError> {
    let Value::Obj(records) = line.field_value(group)? else {
        return Err(DeError::new(format!("`{group}` is not an object")));
    };
    records
        .iter()
        .map(|(name, floor)| match floor {
            Value::Num(ms) if ms.is_finite() && *ms > 0.0 => Ok((name.clone(), *ms)),
            other => Err(DeError::new(format!(
                "`{group}.{name}` is {other:?}, not a finite number of ms above 0"
            ))),
        })
        .collect()
}

/// Why the pinned baseline could not be read.
#[derive(Debug)]
enum BaselineError {
    Read(std::io::Error),
    Empty,
    Invalid {
        line: usize,
        source: serde_json::Error,
    },
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaselineError::Read(e) => write!(f, "cannot read: {e}"),
            BaselineError::Empty => write!(f, "no pinned line; run with --rebaseline STAMP"),
            BaselineError::Invalid { line, source } => write!(f, "line {line}: {source}"),
        }
    }
}

/// The last non-blank line of a history file's text.
fn parse_pinned(text: &str) -> Result<Snapshot, BaselineError> {
    let (index, line) = text
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .last()
        .ok_or(BaselineError::Empty)?;
    serde_json::from_str(line).map_err(|source| BaselineError::Invalid {
        line: index + 1,
        source,
    })
}

fn load_pinned(path: &Path) -> Result<Snapshot, BaselineError> {
    parse_pinned(&std::fs::read_to_string(path).map_err(BaselineError::Read)?)
}

fn history_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_history.jsonl")
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Verdict {
    Ok,
    Fail,
    Skip,
}

/// One gate verdict and the line that explains it.
#[derive(Debug)]
struct Check {
    verdict: Verdict,
    what: String,
}

impl Check {
    fn new(pass: bool, what: String) -> Self {
        let verdict = if pass { Verdict::Ok } else { Verdict::Fail };
        Check { verdict, what }
    }

    fn missing(records: &str) -> Self {
        Check::new(false, format!("{records} not timed"))
    }
}

impl fmt::Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self.verdict {
            Verdict::Ok => "ok  ",
            Verdict::Fail => "FAIL",
            Verdict::Skip => "skip",
        };
        write!(f, "{tag} {}", self.what)
    }
}

/// Every record pinned or timed, checked against its pinned floor.
fn floor_checks(pinned: &Floors, fresh: &Floors) -> Vec<Check> {
    let names: BTreeSet<&String> = pinned.keys().chain(fresh.keys()).collect();
    names
        .into_iter()
        .map(|name| match (pinned.get(name), fresh.get(name)) {
            (Some(&base), Some(&now)) => Check::new(
                now <= base * FLOOR_TOLERANCE,
                format!(
                    "{name:<28} {now:.3} ms vs pinned {base:.3} ms (ceiling {FLOOR_TOLERANCE}x)"
                ),
            ),
            (Some(_), None) => Check::new(false, format!("{name:<28} pinned but not timed")),
            (None, _) => Check::new(
                false,
                format!("{name:<28} timed but not pinned; run --rebaseline"),
            ),
        })
        .collect()
}

/// The same-run ratio checks over one run's floors and its checkpoint
/// [`median_ratio`]; `level` is the SIMD level the host detects.
fn ratio_checks(fresh: &Floors, checkpoint: Option<(f64, usize)>, level: SimdLevel) -> Vec<Check> {
    let ratio = |num: &str, den: &str| Some(fresh.get(num)? / fresh.get(den)?);
    let mut checks = Vec::new();

    checks.push(match ratio("full_chain_lu_fft", "full_chain_baseline") {
        Some(r) => Check::new(
            r >= FAST_PATH_SPEEDUP,
            format!("lu_fft/baseline speedup {r:.2}x (floor {FAST_PATH_SPEEDUP}x)"),
        ),
        None => Check::missing("full_chain_lu_fft/full_chain_baseline"),
    });

    let batched: Vec<(&String, usize, f64)> = fresh
        .iter()
        .filter_map(|(name, &ms)| {
            let lanes: usize = name.strip_prefix("full_chain_batched_x")?.parse().ok()?;
            Some((name, lanes, ms / lanes as f64))
        })
        .collect();
    match (batched.is_empty(), fresh.get("full_chain_baseline")) {
        (false, Some(&serial)) => {
            checks.extend(batched.into_iter().map(|(name, lanes, per_lane)| {
                let r = per_lane / serial;
                Check::new(
                    r <= AMORTIZATION_CEILING,
                    format!(
                        "{name:<28} {per_lane:.3} ms/lane x{lanes} = {r:.2}x serial \
                         (ceiling {AMORTIZATION_CEILING}x)"
                    ),
                )
            }))
        }
        _ => checks.push(Check::missing("full_chain_batched_xN/full_chain_baseline")),
    }

    checks.push(if level != SimdLevel::Avx2 {
        Check {
            verdict: Verdict::Skip,
            what: format!(
                "simd step speedup floor: host detects {} (calibrated for avx2)",
                level.as_str()
            ),
        }
    } else {
        match ratio("simd_steps_scalar", "simd_steps_dispatch") {
            Some(r) => Check::new(
                r >= SIMD_SPEEDUP,
                format!("simd step dispatch/scalar speedup {r:.2}x (floor {SIMD_SPEEDUP}x)"),
            ),
            None => Check::missing("simd_steps_scalar/simd_steps_dispatch"),
        }
    });

    checks.push(
        match checkpoint.filter(|&(_, pairs)| pairs >= CHECKPOINT_PAIRS) {
            Some((r, pairs)) => Check::new(
                r <= CHECKPOINT_CEILING,
                format!(
                    "checkpoint_overhead {r:.3}x ga_campaign_noop_recorder, median of {pairs} \
                 pairs (ceiling {CHECKPOINT_CEILING}x)"
                ),
            ),
            None => Check::missing("checkpoint_overhead/ga_campaign_noop_recorder (9+ pairs)"),
        },
    );
    checks
}

/// A record name and the work one timed sample runs.
type Job<'a> = (&'static str, Box<dyn FnMut() + 'a>);

/// Times every job of `group` in alternating rounds, so each record
/// samples the same machine conditions and a ratio between two of them
/// is not skewed by a drifting CPU clock. The first `warmup` rounds
/// fault in code, warm caches and settle the allocator; each record
/// keeps its `rounds` timed samples, in round order, and its floor is
/// the fastest ([`floors_of`]). A shared host's speed drifts over
/// seconds, so the eval and GA groups each sample for a few seconds,
/// which gives their floors more chances to catch the host at its
/// fastest.
fn time_group(group: &mut [Job<'_>], warmup: usize, rounds: usize) -> Samples {
    let mut samples = vec![Vec::with_capacity(rounds); group.len()];
    for round in 0..warmup + rounds {
        for ((_, job), ms) in group.iter_mut().zip(&mut samples) {
            let t0 = Instant::now();
            job();
            if round >= warmup {
                ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    group
        .iter()
        .map(|(name, _)| name.to_string())
        .zip(samples)
        .collect()
}

/// The calibrated A72 domain.
fn a72_domain() -> VoltageDomain {
    VoltageDomain::new("A72", CoreModel::cortex_a72(), a72_pdn(), 1.2e9)
}

/// A deterministic 50-instruction ARM kernel.
fn arm_kernel() -> Kernel {
    let pool = InstructionPool::default_for(Isa::ArmV8);
    let mut rng = StdRng::seed_from_u64(0xBE7C);
    pool.random_kernel(50, &mut rng)
}

/// One full-chain evaluation of `lanes` individuals over reusable
/// scratch: the per-individual loop the GA pays, core sim and transient
/// through `runner`, then spectrum, EM transfer and analyzer metric.
fn chain_job<'a>(
    cfg: RunConfig,
    bench: &EmBench,
    telemetry: Telemetry,
    kernel: &'a Kernel,
    lanes: usize,
) -> Box<dyn FnMut() + 'a> {
    let mut runner = DomainRunner::new_with(&a72_domain(), cfg, telemetry.clone())
        .expect("the A72 domain plans a transient at RunConfig::fast");
    let mut measure = MeasureScratch::new();
    measure.set_telemetry(telemetry);
    let shared = bench.share();
    let loads: Vec<Load<'a>> = (0..lanes)
        .map(|i| Load::Kernel {
            kernel,
            loaded_cores: 1 + i % 2,
        })
        .collect();
    let seeds = vec![7u64; lanes];
    let clocks = vec![runner.domain().frequency(); lanes];
    let mut outs = vec![DomainRun::empty(); lanes];
    Box::new(move || {
        runner
            .run_batch_into(&loads, &clocks, &mut outs)
            .expect("the benchmark kernel simulates");
        let runs: Vec<&DomainRun> = outs.iter().collect();
        let readings =
            shared.measure_in_band_batch_seeded_with(&runs, 50e6, 200e6, 3, &seeds, &mut measure);
        for reading in &readings {
            std::hint::black_box(reading.metric_dbm);
        }
    })
}

/// The general chain the fast path replaced, one individual at a time:
/// the LU transient, then the full one-sided FFT of the die current,
/// channel propagation of every bin, and a seeded analyzer over the
/// paper's band.
fn lu_fft_chain_job<'a>(bench: &EmBench, kernel: &'a Kernel) -> Box<dyn FnMut() + 'a> {
    let mut cfg = RunConfig::fast();
    cfg.kernel = KernelChoice::Lu;
    let mut runner = DomainRunner::new_with(&a72_domain(), cfg, Telemetry::noop())
        .expect("the A72 domain plans a transient at RunConfig::fast");
    let channel = bench.channel.clone();
    let analyzer_config = bench.analyzer.config().clone();
    let loads = [Load::Kernel {
        kernel,
        loaded_cores: 1,
    }];
    let clocks = [runner.domain().frequency()];
    let mut outs = vec![DomainRun::empty()];
    let mut spec = SpectrumScratch::new();
    let mut i_spec = Spectrum::default();
    let mut rx = Spectrum::default();
    Box::new(move || {
        runner
            .run_batch_into(&loads, &clocks, &mut outs)
            .expect("the benchmark kernel simulates");
        Spectrum::of_trace_into(&outs[0].i_die, Window::Hann, &mut spec, &mut i_spec);
        channel.received_spectrum_into_with(&i_spec, &mut rx, &Telemetry::noop());
        let mut analyzer = SpectrumAnalyzer::new(analyzer_config.clone());
        let reading = analyzer.peak_metric(&rx, 50e6, 200e6, 3, &mut StdRng::seed_from_u64(7));
        std::hint::black_box(reading.0);
    })
}

/// The eval-chain records: the fast path against the general path it
/// replaced, the batched lane groups, and the enabled telemetry and
/// waveform sinks.
fn eval_floors() -> Floors {
    let kernel = arm_kernel();
    let cfg = RunConfig::fast();
    let bench = EmBench::new(0xBE7C);
    let jsonl = Telemetry::new(Arc::new(JsonlRecorder::new(std::io::sink())));
    let waves = Telemetry::with_waves(Arc::new(NoopRecorder), Arc::new(WaveDb::new()));
    let noop = Telemetry::noop;
    let mut group: Vec<Job<'_>> = vec![
        ("full_chain_lu_fft", lu_fft_chain_job(&bench, &kernel)),
        (
            "full_chain_baseline",
            chain_job(cfg.clone(), &bench, noop(), &kernel, 1),
        ),
        (
            "full_chain_batched_x4",
            chain_job(cfg.clone(), &bench, noop(), &kernel, 4),
        ),
        (
            "full_chain_batched_x8",
            chain_job(cfg.clone(), &bench, noop(), &kernel, 8),
        ),
        (
            "full_chain_jsonl_to_sink",
            chain_job(cfg.clone(), &bench, jsonl, &kernel, 1),
        ),
        (
            "wavetrace_overhead",
            chain_job(cfg, &bench, waves, &kernel, 1),
        ),
    ];
    floors_of(&time_group(&mut group, 50, 120))
}

/// The cycle-level core sim alone, the top layer of a GA evaluation: a
/// random GA kernel, and the sweep kernel whose eight adds wait on two
/// ALUs, the case where most ready ops are blocked on a busy unit. Its
/// speed moves with code layout as well as with source changes, so
/// these floors catch a codegen shift the full chain would blur.
fn cpu_floors() -> Floors {
    let cpu = Cpu::new(CoreModel::cortex_a72(), 1.2e9);
    let cfg = RunConfig::fast().sim;
    let ga = arm_kernel();
    let sweep = sweep_kernel(Isa::ArmV8);
    let (cpu, cfg) = (&cpu, &cfg);
    let sim = |kernel: Kernel| -> Box<dyn FnMut() + '_> {
        Box::new(move || {
            let out = cpu
                .simulate(&kernel, cfg)
                .expect("the benchmark kernel simulates");
            std::hint::black_box(out.ipc);
        })
    };
    let mut group: Vec<Job<'_>> = vec![
        ("cpu_simulate_ga", sim(ga)),
        ("cpu_simulate_sweep", sim(sweep)),
    ];
    floors_of(&time_group(&mut group, 50, 300))
}

/// One `state_steps` call, the transient's innermost loop, at the
/// dispatched level and at the scalar tier: a synthetic 8-lane group of
/// 64 steps with the A72 PDN's 132-column fold (32 nodes, 64 capacitors,
/// 64 inductors, 4 sources), restarted from the same rows each sample.
/// The two differ only in instruction selection, so their ratio isolates
/// the SIMD payoff from every other chain cost.
fn simd_floors() -> Floors {
    let (lanes, steps, n_nodes, n_elems, n_src) = (8, 64, 32, 64, 4);
    let wave = |n: usize, f: f64, scale: f64| -> Vec<f64> {
        (0..n).map(|i| (i as f64 * f).sin() * scale).collect()
    };
    let cols = wave((2 * n_elems + n_src) * n_nodes, 0.37, 1e-2);
    let g = wave(n_elems, 0.11, 1e-3);
    // Element `k` sits between node rows `k % 32 + 1` and `k % 33`.
    let between: Vec<[u32; 2]> = (0..n_elems)
        .map(|k| [(k % n_nodes + 1) as u32, (k % (n_nodes + 1)) as u32])
        .collect();
    let ops = StepOperands {
        cols: &cols,
        n_nodes,
        cap_g: &g,
        ind_g: &g,
        cap_rows: &between,
        ind_rows: &between,
        probe_nodes: &[1, n_nodes as u32],
        probe_inds: &[0],
    };
    let sources = wave(steps * n_src * lanes, 0.73, 1.0);
    let state = wave((n_nodes + 1) * lanes, 0.19, 1.0);
    let elems = wave(n_elems * lanes, 0.29, 1.0);
    let start = [state, elems.clone(), elems.clone(), elems.clone(), elems];
    let (ops, sources, start) = (&ops, &sources, &start);
    let run = |level: SimdLevel| -> Box<dyn FnMut() + '_> {
        let mut rows = start.clone();
        let mut hist = vec![0.0; 2 * n_elems * lanes];
        let mut probes = vec![0.0; steps * 3 * lanes];
        Box::new(move || {
            rows.clone_from(start);
            let [state, cap_v, cap_i, ind_v, ind_i] = &mut rows;
            let mut group = StepRows {
                stride: lanes,
                state,
                cap_v,
                cap_i,
                ind_v,
                ind_i,
                hist: &mut hist,
            };
            level.state_steps(ops, &mut group, steps, sources, &mut probes);
            std::hint::black_box(&mut probes);
        })
    };
    let mut group: Vec<Job<'_>> = vec![
        ("simd_steps_dispatch", run(emvolt_simd::level())),
        ("simd_steps_scalar", run(SimdLevel::Scalar)),
    ];
    floors_of(&time_group(&mut group, 50, 200))
}

/// One reduced EM GA campaign on the live A72 chain: 6 individuals x 3
/// generations, single-threaded, under `opts`.
fn ga_job(telemetry: fn() -> Telemetry, opts: DriveOptions) -> Box<dyn FnMut()> {
    let domain = a72_domain();
    Box::new(move || {
        let cfg = VirusGenConfig {
            ga: GaConfig {
                population: 6,
                generations: 3,
                ..GaConfig::default()
            },
            kernel_len: 16,
            samples_per_individual: 3,
            threads: 1,
            telemetry: telemetry(),
            ..VirusGenConfig::default()
        };
        let mut live = LiveBackend::single(domain.clone(), EmBench::new(11), cfg.run.clone());
        let virus = generate_em_virus_resumable("bench", &mut live, "A72", &cfg, &opts, |_| {})
            .expect("the reduced campaign runs")
            .expect("no batch limit, so the drive runs to completion");
        std::hint::black_box(virus.fitness);
    })
}

/// The GA records: a campaign with telemetry off, with a JSONL recorder
/// to a sink, and snapshotting its state to disk after every batch (the
/// price of `--checkpoint PATH:1`, the tightest cadence the CLI takes).
/// Every round's sample is kept for the checkpoint pair ratios.
fn ga_samples() -> Samples {
    let path = std::env::temp_dir().join(format!(
        "emvolt_bench_checkpoint_{}.jsonl",
        std::process::id()
    ));
    let checkpoint = DriveOptions {
        checkpoint: Some(path.clone()),
        checkpoint_every: 1,
        ..DriveOptions::default()
    };
    let mut group: Vec<Job<'_>> = vec![
        (
            "ga_campaign_noop_recorder",
            ga_job(Telemetry::noop, DriveOptions::default()),
        ),
        (
            "ga_campaign_jsonl_to_sink",
            ga_job(
                || Telemetry::new(Arc::new(JsonlRecorder::new(std::io::sink()))),
                DriveOptions::default(),
            ),
        ),
        ("checkpoint_overhead", ga_job(Telemetry::noop, checkpoint)),
    ];
    let samples = time_group(&mut group, 3, 45);
    std::fs::remove_file(&path).ok();
    samples
}

fn append_line(path: &Path, snapshot: &Snapshot) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{}", snapshot.to_line())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rebaseline = match args.as_slice() {
        [] => None,
        [flag, stamp] if flag == "--rebaseline" && !stamp.is_empty() => Some(stamp.clone()),
        _ => {
            eprintln!("usage: bench_gate [--rebaseline STAMP]");
            return ExitCode::from(2);
        }
    };
    let path = history_path();
    let pinned = match rebaseline {
        Some(_) => None,
        None => match load_pinned(&path) {
            Ok(pinned) => Some(pinned),
            Err(e) => {
                eprintln!("bench_gate: {}: {e}", path.display());
                return ExitCode::from(2);
            }
        },
    };

    let mut eval_min_ms = eval_floors();
    eval_min_ms.extend(cpu_floors());
    eval_min_ms.extend(simd_floors());
    let ga = ga_samples();
    let fresh = Snapshot {
        stamp: rebaseline.clone().unwrap_or_default(),
        simd: emvolt_simd::level().as_str().to_owned(),
        eval_min_ms,
        ga_min_ms: floors_of(&ga),
    };
    let floors = fresh.floors();
    let checkpoint = median_ratio(&ga, "checkpoint_overhead", "ga_campaign_noop_recorder");
    let mut checks = ratio_checks(&floors, checkpoint, emvolt_simd::detected_level());
    if let Some(pinned) = &pinned {
        println!("pinned line \"{}\" ({})", pinned.stamp, pinned.simd);
        checks.extend(floor_checks(&pinned.floors(), &floors));
    }
    for check in &checks {
        println!("{check}");
    }
    if checks.iter().any(|c| c.verdict == Verdict::Fail) {
        return ExitCode::FAILURE;
    }

    if rebaseline.is_some() {
        for (name, ms) in &floors {
            println!("pin  {name:<28} {ms:.3} ms");
        }
        if let Err(e) = append_line(&path, &fresh) {
            eprintln!("bench_gate: {}: cannot append: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("appended \"{}\" to {}", fresh.stamp, path.display());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn floors(records: &[(&str, f64)]) -> Floors {
        records.iter().map(|&(n, ms)| (n.to_owned(), ms)).collect()
    }

    /// A run that passes every same-run ratio with room to spare.
    fn passing_run() -> Floors {
        floors(&[
            ("full_chain_lu_fft", 3.0),
            ("full_chain_baseline", 1.0),
            ("full_chain_batched_x4", 2.0),
            ("full_chain_batched_x8", 3.0),
            ("simd_steps_dispatch", 1.0),
            ("simd_steps_scalar", 10.0),
        ])
    }

    /// The median of the fewest checkpoint pairs the check takes.
    fn pairs(r: f64) -> Option<(f64, usize)> {
        Some((r, CHECKPOINT_PAIRS))
    }

    fn verdicts(checks: &[Check]) -> Vec<Verdict> {
        checks.iter().map(|c| c.verdict).collect()
    }

    /// The verdict of the one check whose line starts with `needle`.
    fn verdict_of(checks: &[Check], needle: &str) -> Verdict {
        let found: Vec<&Check> = checks
            .iter()
            .filter(|c| c.what.starts_with(needle))
            .collect();
        assert_eq!(found.len(), 1, "one check starts with {needle}: {checks:?}");
        found[0].verdict
    }

    fn ratios_with(record: &str, ms: f64) -> Vec<Check> {
        let mut run = passing_run();
        run.insert(record.to_owned(), ms);
        ratio_checks(&run, pairs(1.0), SimdLevel::Avx2)
    }

    #[test]
    fn passing_run_passes_every_ratio() {
        let checks = ratio_checks(&passing_run(), pairs(1.0), SimdLevel::Avx2);
        assert_eq!(checks.len(), 5);
        assert!(verdicts(&checks).iter().all(|&v| v == Verdict::Ok));
    }

    #[test]
    fn floor_passes_at_tolerance_and_fails_past_it() {
        let pinned = floors(&[("a", 2.0)]);
        let at = floor_checks(&pinned, &floors(&[("a", 3.0)]));
        assert_eq!(verdicts(&at), [Verdict::Ok]);
        let past = floor_checks(&pinned, &floors(&[("a", 3.0001)]));
        assert_eq!(verdicts(&past), [Verdict::Fail]);
    }

    #[test]
    fn a_record_on_one_side_only_fails() {
        let pinned = floors(&[("a", 1.0), ("b", 1.0)]);
        let checks = floor_checks(&pinned, &floors(&[("a", 1.0), ("c", 1.0)]));
        assert_eq!(verdict_of(&checks, "a "), Verdict::Ok);
        assert_eq!(verdict_of(&checks, "b "), Verdict::Fail);
        assert_eq!(verdict_of(&checks, "c "), Verdict::Fail);
    }

    #[test]
    fn fast_path_speedup_passes_at_floor_and_fails_below() {
        let at = ratios_with("full_chain_lu_fft", 1.5);
        assert_eq!(verdict_of(&at, "lu_fft/baseline"), Verdict::Ok);
        let below = ratios_with("full_chain_lu_fft", 1.4999);
        assert_eq!(verdict_of(&below, "lu_fft/baseline"), Verdict::Fail);
    }

    #[test]
    fn batched_lane_cost_passes_at_ceiling_and_fails_above() {
        let at = ratios_with("full_chain_batched_x4", 3.0);
        assert_eq!(verdict_of(&at, "full_chain_batched_x4"), Verdict::Ok);
        let above = ratios_with("full_chain_batched_x4", 3.0001);
        assert_eq!(verdict_of(&above, "full_chain_batched_x4"), Verdict::Fail);
        assert_eq!(verdict_of(&above, "full_chain_batched_x8"), Verdict::Ok);
    }

    #[test]
    fn simd_speedup_passes_at_floor_and_fails_below_on_avx2() {
        let at = ratios_with("simd_steps_scalar", 1.3);
        assert_eq!(verdict_of(&at, "simd step"), Verdict::Ok);
        let below = ratios_with("simd_steps_scalar", 1.2999);
        assert_eq!(verdict_of(&below, "simd step"), Verdict::Fail);
    }

    #[test]
    fn non_avx2_host_skips_the_simd_floor() {
        let mut run = passing_run();
        run.insert("simd_steps_scalar".to_owned(), 1.0);
        for level in [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Neon] {
            let checks = ratio_checks(&run, pairs(1.0), level);
            assert_eq!(verdict_of(&checks, "simd step"), Verdict::Skip);
        }
    }

    #[test]
    fn checkpoint_overhead_passes_at_ceiling_and_fails_above() {
        let checks = |r: f64| ratio_checks(&passing_run(), pairs(r), SimdLevel::Avx2);
        assert_eq!(
            verdict_of(&checks(1.03), "checkpoint_overhead"),
            Verdict::Ok
        );
        assert_eq!(
            verdict_of(&checks(1.03001), "checkpoint_overhead"),
            Verdict::Fail
        );
    }

    /// Nine rounds of a campaign whose speed drifts, with and without
    /// checkpoints, the checkpoint side costing `overhead` times its
    /// round's campaign.
    fn checkpoint_rounds(overhead: f64) -> Samples {
        let noop = vec![100.0, 104.0, 97.0, 110.0, 99.0, 101.0, 120.0, 98.0, 102.0];
        let checkpoint = noop.iter().map(|ms| ms * overhead).collect();
        [
            ("ga_campaign_noop_recorder".to_owned(), noop),
            ("checkpoint_overhead".to_owned(), checkpoint),
        ]
        .into_iter()
        .collect()
    }

    fn checkpoint_verdict(rounds: &Samples) -> Verdict {
        let median = median_ratio(rounds, "checkpoint_overhead", "ga_campaign_noop_recorder");
        let checks = ratio_checks(&passing_run(), median, SimdLevel::Avx2);
        verdict_of(&checks, "checkpoint_overhead")
    }

    #[test]
    fn one_outlier_pair_cannot_flip_the_checkpoint_verdict() {
        // One stalled checkpoint write does not fail a 1% overhead...
        let mut stalled = checkpoint_rounds(1.01);
        stalled.get_mut("checkpoint_overhead").unwrap()[3] *= 1.5;
        assert_eq!(checkpoint_verdict(&stalled), Verdict::Ok);
        // ...and one lucky checkpoint round does not pass a 4% one, which
        // the ratio of the two minima would (95 / 97 < 1).
        let mut lucky = checkpoint_rounds(1.04);
        lucky.get_mut("checkpoint_overhead").unwrap()[0] = 95.0;
        let floors = floors_of(&lucky);
        assert!(floors["checkpoint_overhead"] / floors["ga_campaign_noop_recorder"] < 1.0);
        assert_eq!(checkpoint_verdict(&lucky), Verdict::Fail);
    }

    #[test]
    fn a_uniform_checkpoint_slowdown_fails() {
        assert_eq!(checkpoint_verdict(&checkpoint_rounds(1.0)), Verdict::Ok);
        assert_eq!(checkpoint_verdict(&checkpoint_rounds(1.04)), Verdict::Fail);
    }

    #[test]
    fn too_few_checkpoint_pairs_fail() {
        let mut rounds = checkpoint_rounds(1.0);
        for ms in rounds.values_mut() {
            ms.truncate(CHECKPOINT_PAIRS - 1);
        }
        assert_eq!(checkpoint_verdict(&rounds), Verdict::Fail);
        rounds.remove("checkpoint_overhead");
        assert_eq!(checkpoint_verdict(&rounds), Verdict::Fail);
    }

    #[test]
    fn median_ratio_takes_the_middle_round() {
        let rounds = |num: &[f64]| -> Samples {
            let den = vec![1.0; num.len()];
            [("n".to_owned(), num.to_vec()), ("d".to_owned(), den)].into()
        };
        assert_eq!(median_ratio(&rounds(&[]), "n", "d"), None);
        assert_eq!(
            median_ratio(&rounds(&[3.0, 1.0, 2.0]), "n", "d"),
            Some((2.0, 3))
        );
        assert_eq!(
            median_ratio(&rounds(&[4.0, 1.0, 3.0, 2.0]), "n", "d"),
            Some((3.0, 4))
        );
        assert_eq!(median_ratio(&rounds(&[1.0]), "n", "x"), None);
    }

    #[test]
    fn a_ratio_record_missing_from_the_run_fails() {
        for record in [
            "full_chain_lu_fft",
            "full_chain_baseline",
            "simd_steps_dispatch",
        ] {
            let mut run = passing_run();
            run.remove(record);
            let checks = ratio_checks(&run, pairs(1.0), SimdLevel::Avx2);
            assert!(
                verdicts(&checks).contains(&Verdict::Fail),
                "{record}: {checks:?}"
            );
        }
        let mut run = passing_run();
        run.retain(|name, _| !name.starts_with("full_chain_batched_x"));
        let checks = ratio_checks(&run, pairs(1.0), SimdLevel::Avx2);
        assert_eq!(verdict_of(&checks, "full_chain_batched_xN"), Verdict::Fail);
    }

    #[test]
    fn historic_lines_parse() {
        let text = std::fs::read_to_string(history_path()).expect("BENCH_history.jsonl exists");
        let lines: Vec<Snapshot> = text
            .lines()
            .map(|line| serde_json::from_str(line).expect("every pinned line parses"))
            .collect();
        let stamps: Vec<&str> = lines.iter().take(3).map(|s| s.stamp.as_str()).collect();
        assert_eq!(
            stamps,
            ["2026-08-08-pr8", "ci-wavetrace", "2026-08-08-pr10"]
        );
        assert_eq!(lines[2].ga_min_ms.len(), 3);
        assert!(parse_pinned(&text).is_ok());
    }

    #[test]
    fn a_written_line_parses_back() {
        let snapshot = Snapshot {
            stamp: "s".to_owned(),
            simd: "avx2".to_owned(),
            eval_min_ms: floors(&[("full_chain_baseline", 1.424175)]),
            ga_min_ms: floors(&[("ga_campaign_noop_recorder", 39.349062999999994)]),
        };
        let text = format!("{}\n{}\n\n", r#"{"garbage"#, snapshot.to_line());
        assert_eq!(parse_pinned(&text).unwrap(), snapshot);
    }

    #[test]
    fn a_missing_file_is_a_read_error() {
        let path = std::env::temp_dir().join("emvolt_bench_gate_no_such_history.jsonl");
        assert!(matches!(load_pinned(&path), Err(BaselineError::Read(_))));
    }

    #[test]
    fn malformed_files_are_errors() {
        let good = r#"{"stamp":"s","simd":"avx2","eval_min_ms":{"a":1.5},"ga_min_ms":{"b":2}}"#;
        assert!(parse_pinned(good).is_ok());
        assert!(matches!(parse_pinned(""), Err(BaselineError::Empty)));
        assert!(matches!(parse_pinned("\n \n"), Err(BaselineError::Empty)));
        for bad in [
            // Truncated last line after a good one.
            format!("{good}\n{}", &good[..good.len() / 2]),
            good.replace("1.5", "\"fast\""),
            good.replace("1.5", "null"),
            good.replace("1.5", "1e999"),
            good.replace("1.5", "0"),
            good.replace("1.5", "-1.5"),
            good.replace("eval_min_ms", "evals"),
            good.replace("ga_min_ms", "ga"),
        ] {
            let err = parse_pinned(&bad).expect_err(&bad);
            assert!(matches!(err, BaselineError::Invalid { .. }), "{bad}: {err}");
        }
        // JSON cannot spell NaN, so check the floor rule on the tree.
        let nan = Value::Obj(vec![(
            "eval_min_ms".to_owned(),
            Value::Obj(vec![("a".to_owned(), Value::Num(f64::NAN))]),
        )]);
        assert!(floors_from(&nan, "eval_min_ms").is_err());
    }
}
