//! `emvolt` — command-line front end for the EM voltage-noise
//! characterization flow.
//!
//! ```sh
//! emvolt platforms
//! emvolt sweep --platform a72 [--cores 1]
//! emvolt impedance --platform amd
//! emvolt virus --platform a53 [--population 20] [--generations 15] [--seed 7]
//! emvolt vmin --platform a72 [--workload lbm | --stress]
//! ```

use emvolt::backend::BackendSpec;
use emvolt::core::{
    fast_resonance_sweep_resumable, generate_em_virus_resumable, FastSweepConfig, VirusGenConfig,
};
use emvolt::engine::DriveOptions;
use emvolt::ga::GaConfig;
use emvolt::isa::kernels::resonant_stress_kernel;
use emvolt::obs::{CounterId, JsonlRecorder, Layer, NoopRecorder, Telemetry, WaveDb, WaveKind};
use emvolt::pdn::{lin_freqs, strongest_peak_in_band};
use emvolt::platform::spec2006_suite;
use emvolt::prelude::*;
use std::collections::HashMap;
use std::error::Error;
use std::io::{self, Write};
use std::process::ExitCode;
use std::sync::Arc;

/// `eprintln!` for diagnostics that must not abort the run: with stderr
/// closed (`2>&-`, or a pipe whose reader exited) the line is lost
/// instead of panicking mid-campaign. Results go to stdout through the
/// writer each command takes.
macro_rules! diag {
    ($($arg:tt)*) => {{
        let _ = writeln!(io::stderr(), $($arg)*);
    }};
}

const USAGE: &str = "\
emvolt — EM-emanation-driven voltage-noise characterization

USAGE:
    emvolt <COMMAND> [OPTIONS]

COMMANDS:
    platforms                  list the built-in platforms
    sweep      --platform P    fast EM loop-frequency resonance sweep (paper §5.3)
    impedance  --platform P    PDN impedance table around the first-order band
    virus      --platform P    evolve a dI/dt virus with the EM-driven GA (§5.1)
    vmin       --platform P    undervolting ladder for a workload (§5.2)

OPTIONS:
    --platform a72|a53|amd|gpu   target platform (required except for `platforms`)
    --cores N                    powered cores (default: all)
    --population N               GA population (default 20)
    --generations N              GA generations (default 15)
    --lanes N                    virus/sweep: requests per batched backend
                                 call — GA individuals, or DVFS points and
                                 champion re-measures on the serial rig —
                                 0..=64 (default 0 = auto: the detected SIMD
                                 level's preferred width, 8 on AVX2 hosts, 4
                                 otherwise); purely a performance knob —
                                 output, traces and checkpoints are
                                 bit-identical at any lane width
    --seed S                     GA / measurement seed (default 42)
    --workload NAME              vmin: SPEC-like workload name (default lbm)
    --stress                     vmin: use the built-in resonant stress kernel
    --telemetry PATH             write a JSONL trace of the run to PATH and
                                 append a summary to results/campaign_summaries.jsonl
    --trace-vcd SPEC             record the analog/digital waveforms of the run
                                 into a VCD (or .rtt binary) waveform database.
                                 SPEC is PATH[:signals][:stride]: `signals` is a
                                 comma-separated list of hierarchical prefixes
                                 to keep (e.g. `pdn,cpu.i_core`; default all),
                                 `stride` a decimation factor (default 1).
                                 Output is deterministic: a seeded campaign
                                 dumps a byte-identical file at any thread
                                 count and any SIMD level
    --threads N                  fitness-evaluation worker threads (default
                                 0 = one per core); results and traces are
                                 bit-identical at any setting
    --checkpoint SPEC            sweep/virus/vmin: checkpoint campaign state to
                                 a versioned JSONL snapshot. SPEC is PATH[:N]
                                 with N the cadence in absorbed steps — a GA
                                 generation, one serial rig measurement (a
                                 DVFS point) or a V_MIN rung — (default 1 =
                                 every step). The file carries a
                                 run-config fingerprint, so it refuses to seed
                                 a run on a different chip/config
    --resume PATH                sweep/virus/vmin: restore campaign, rig and
                                 telemetry state from a checkpoint and continue;
                                 a seeded resumed run reproduces the
                                 uninterrupted run byte-for-byte
    --step-limit N               sweep/virus/vmin: stop after N absorbed
                                 steps, writing a final checkpoint (requires
                                 --checkpoint); the deterministic stand-in for
                                 killing a campaign mid-flight
    --progress                   virus: print one line per GA generation
    --backend SPEC               sweep/virus: measurement backend — `live` (the
                                 default simulated chain), `record:PATH` (live,
                                 persisting every measurement to a JSONL trace)
                                 or `replay:PATH` (serve a recorded trace; the
                                 circuit solver never runs). Traces hold no
                                 waveforms, so `--trace-vcd` under replay
                                 writes only the VCD header

ENVIRONMENT:
    EMVOLT_SIMD=auto|scalar|sse2|avx2|neon
                                 caps the runtime-dispatched SIMD level of the
                                 hot kernels (default auto = best supported);
                                 requests above the host's capability are
                                 clamped. Results are bit-identical at every
                                 level; `--lanes 0` auto-width follows the
                                 resolved level. Any other value is an error,
                                 reported before the command runs.
";

/// The flag group every measurement campaign shares, declared once so
/// `--threads`/`--lanes`/`--backend`/`--telemetry`/`--trace-vcd`/
/// `--checkpoint`/`--resume`/`--step-limit` parse uniformly across
/// sweep, virus, vmin and impedance.
const CAMPAIGN_FLAGS: &[&str] = &[
    "platform",
    "cores",
    "seed",
    "threads",
    "lanes",
    "backend",
    "telemetry",
    "trace-vcd",
    "checkpoint",
    "resume",
    "step-limit",
];

/// Which flags a subcommand accepts: `valued` take the next argument,
/// `boolean` stand alone.
struct FlagSpec {
    valued: Vec<&'static str>,
    boolean: Vec<&'static str>,
}

impl FlagSpec {
    /// The shared campaign group plus a subcommand's own flags.
    fn campaign(valued: &[&'static str], boolean: &[&'static str]) -> FlagSpec {
        FlagSpec {
            valued: CAMPAIGN_FLAGS.iter().chain(valued).copied().collect(),
            boolean: boolean.to_vec(),
        }
    }

    fn for_command(command: &str) -> Option<FlagSpec> {
        let spec = match command {
            "platforms" => FlagSpec {
                valued: Vec::new(),
                boolean: Vec::new(),
            },
            "sweep" => FlagSpec::campaign(&[], &[]),
            "impedance" => FlagSpec::campaign(&[], &[]),
            "virus" => FlagSpec::campaign(&["population", "generations"], &["progress"]),
            "vmin" => FlagSpec::campaign(&["workload"], &["stress"]),
            _ => return None,
        };
        Some(spec)
    }

    fn describe(&self) -> String {
        self.valued
            .iter()
            .map(|f| format!("--{f} <value>"))
            .chain(self.boolean.iter().map(|f| format!("--{f}")))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Strict flag parsing: every argument must be a flag the subcommand
/// declares; unknown flags, stray positionals and valued flags missing
/// their value are all hard errors rather than silently ignored.
fn parse_flags(
    command: &str,
    args: &[String],
    spec: &FlagSpec,
) -> Result<HashMap<String, String>, Box<dyn Error>> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let Some(name) = args[i].strip_prefix("--") else {
            return Err(format!(
                "unexpected argument `{}` — `emvolt {command}` takes flags only",
                args[i]
            )
            .into());
        };
        if spec.valued.contains(&name) {
            i += 1;
            let Some(value) = args.get(i) else {
                return Err(format!("flag `--{name}` requires a value").into());
            };
            flags.insert(name.to_owned(), value.clone());
        } else if spec.boolean.contains(&name) {
            flags.insert(name.to_owned(), "true".to_owned());
        } else {
            let accepted = spec.describe();
            let hint = if accepted.is_empty() {
                format!("`emvolt {command}` takes no flags")
            } else {
                format!("`emvolt {command}` accepts: {accepted}")
            };
            return Err(format!("unknown flag `--{name}` — {hint}").into());
        }
        i += 1;
    }
    Ok(flags)
}

/// A live waveform database plus the output path to dump it to — the
/// CLI-side state behind `--trace-vcd`.
struct Wavetrace {
    db: Arc<WaveDb>,
    path: String,
}

/// Parses `--trace-vcd PATH[:signals][:stride]`. The optional suffix
/// segments may appear in either order: an all-digit segment is the
/// decimation stride, anything else a comma-separated list of signal-name
/// prefixes to keep.
fn wavetrace_from(flags: &HashMap<String, String>) -> Result<Option<Wavetrace>, Box<dyn Error>> {
    let Some(spec) = flags.get("trace-vcd") else {
        return Ok(None);
    };
    let mut parts = spec.split(':');
    let path = parts.next().unwrap_or_default().to_owned();
    if path.is_empty() {
        return Err(format!("--trace-vcd {spec}: empty output path").into());
    }
    let mut stride = 1usize;
    let mut filters: Vec<String> = Vec::new();
    for part in parts {
        if part.is_empty() {
            continue;
        }
        if part.bytes().all(|b| b.is_ascii_digit()) {
            stride = part
                .parse()
                .map_err(|_| format!("--trace-vcd {spec}: stride `{part}` out of range"))?;
            if stride == 0 {
                return Err(format!("--trace-vcd {spec}: stride must be >= 1").into());
            }
        } else {
            filters.extend(part.split(',').filter(|s| !s.is_empty()).map(str::to_owned));
        }
    }
    Ok(Some(Wavetrace {
        db: Arc::new(WaveDb::with_config(stride, filters)),
        path,
    }))
}

/// Builds the telemetry handle for `--telemetry PATH` / `--trace-vcd`,
/// or the inert handle when both flags are absent.
fn telemetry_from(
    flags: &HashMap<String, String>,
) -> Result<(Telemetry, Option<Wavetrace>), Box<dyn Error>> {
    let trace = wavetrace_from(flags)?;
    let recorder: Arc<dyn emvolt::obs::Recorder> = match flags.get("telemetry") {
        Some(path) => {
            Arc::new(JsonlRecorder::create(path).map_err(|e| format!("--telemetry {path}: {e}"))?)
        }
        None => Arc::new(NoopRecorder),
    };
    let tel = match &trace {
        Some(t) => Telemetry::with_waves(recorder, t.db.clone()),
        None if flags.contains_key("telemetry") => Telemetry::new(recorder),
        None => Telemetry::noop(),
    };
    Ok((tel, trace))
}

/// Charges the wavetrace counters and writes the waveform database to its
/// output path (VCD, or the compact binary form for a `.rtt` extension).
/// Call before [`finish_telemetry`] so the counters land in the campaign
/// summary. No-op without `--trace-vcd`.
fn dump_wavetrace(tel: &Telemetry, trace: &Option<Wavetrace>) -> Result<(), Box<dyn Error>> {
    let Some(trace) = trace else {
        return Ok(());
    };
    tel.count(CounterId::WavetraceSignals, trace.db.signal_count() as u64);
    tel.count(
        CounterId::WavetraceSamplesWritten,
        trace.db.samples_written(),
    );
    trace
        .db
        .dump_to_path(std::path::Path::new(&trace.path))
        .map_err(|e| format!("--trace-vcd {}: {e}", trace.path))?;
    diag!(
        "waveform trace: {} ({} signals, {} value changes)",
        trace.path,
        trace.db.signal_count(),
        trace.db.samples_written()
    );
    Ok(())
}

/// Flushes the trace and appends the campaign summary to
/// `results/campaign_summaries.jsonl`. No-op without `--telemetry`.
fn finish_telemetry(
    tel: &Telemetry,
    flags: &HashMap<String, String>,
    label: &str,
) -> Result<(), Box<dyn Error>> {
    if !tel.sink_enabled() {
        return Ok(());
    }
    tel.flush();
    let summary = tel.summary(label);
    std::fs::create_dir_all("results")?;
    summary.append_to("results/campaign_summaries.jsonl")?;
    diag!("{}", summary.render());
    if let Some(path) = flags.get("telemetry") {
        diag!("telemetry trace: {path}; summary appended to results/campaign_summaries.jsonl");
    }
    Ok(())
}

fn build_platform(flags: &HashMap<String, String>) -> Result<VoltageDomain, Box<dyn Error>> {
    let name = flags
        .get("platform")
        .ok_or("missing --platform (a72|a53|amd|gpu)")?;
    let mut domain = match name.as_str() {
        "a72" => JunoBoard::new().a72,
        "a53" => JunoBoard::new().a53,
        "amd" => AmdDesktop::new().domain,
        "gpu" => emvolt::platform::GpuCard::new().domain,
        other => return Err(format!("unknown platform `{other}`").into()),
    };
    if let Some(cores) = flags.get("cores") {
        domain
            .try_power_gate(cores.parse()?)
            .map_err(|e| format!("--cores {cores}: {e}"))?;
    }
    Ok(domain)
}

/// Parses `--backend` (default `live`) and builds the measurement
/// backend over `domain`.
fn backend_from(
    flags: &HashMap<String, String>,
    domain: &VoltageDomain,
    bench_seed: u64,
    run_config: &RunConfig,
) -> Result<Box<dyn emvolt::backend::MeasurementBackend>, Box<dyn Error>> {
    let spec: BackendSpec = flags
        .get("backend")
        .map_or(Ok(BackendSpec::Live), |s| s.parse())?;
    let backend = spec
        .build(
            vec![domain.clone()],
            EmBench::new(bench_seed),
            run_config.clone(),
        )
        .map_err(|e| format!("--backend {spec}: {e}"))?;
    Ok(backend)
}

/// Parses the numeric flag `--name` strictly: absent means `default`;
/// anything that does not parse as `T` is a hard error naming the flag.
fn parse_number<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
    expected: &str,
) -> Result<T, Box<dyn Error>> {
    match flags.get(name) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("--{name} {raw}: expected {expected}").into()),
    }
}

fn seed(flags: &HashMap<String, String>) -> Result<u64, Box<dyn Error>> {
    parse_number(flags, "seed", 42, "a non-negative integer")
}

/// Largest accepted `--lanes` width. Far above any useful batch width
/// (the SoA state of a 64-lane group already thrashes cache), so the cap
/// only rejects typos like `--lanes 1000000`.
const MAX_LANES: usize = 64;

/// Parses `--lanes` strictly: `0` (the default) means "auto — the
/// detected SIMD level's preferred width"; anything non-numeric or above
/// [`MAX_LANES`] is a hard error naming the accepted range.
fn parse_lanes(flags: &HashMap<String, String>) -> Result<usize, Box<dyn Error>> {
    let lanes: usize = parse_number(
        flags,
        "lanes",
        0,
        &format!("an integer in 0..={MAX_LANES} (0 = auto)"),
    )?;
    if lanes > MAX_LANES {
        return Err(format!(
            "--lanes {lanes}: accepted range is 0..={MAX_LANES} (0 = auto; \
             results are bit-identical at any width)"
        )
        .into());
    }
    Ok(lanes)
}

/// Parses `--threads` strictly: `0` (the default) means one worker per
/// core; anything non-numeric is a hard error.
fn parse_threads(flags: &HashMap<String, String>) -> Result<usize, Box<dyn Error>> {
    parse_number(flags, "threads", 0, "a non-negative integer (0 = auto)")
}

/// Builds the step-engine options from the shared campaign flag group:
/// worker-pool shape (`--threads`/`--lanes`) plus the checkpoint/resume
/// wiring (`--checkpoint PATH[:N]`, `--resume PATH`, `--step-limit N`).
fn drive_options_from(flags: &HashMap<String, String>) -> Result<DriveOptions, Box<dyn Error>> {
    let mut opts = DriveOptions::pool(parse_threads(flags)?, parse_lanes(flags)?);
    opts.checkpoint_every = 1;
    if let Some(spec) = flags.get("checkpoint") {
        let (path, every) = match spec.rsplit_once(':') {
            Some((path, n)) if !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()) => {
                let every: u64 = n
                    .parse()
                    .map_err(|_| format!("--checkpoint {spec}: cadence `{n}` out of range"))?;
                if every == 0 {
                    return Err(format!("--checkpoint {spec}: cadence must be >= 1").into());
                }
                (path, every)
            }
            _ => (spec.as_str(), 1),
        };
        if path.is_empty() {
            return Err(format!("--checkpoint {spec}: empty checkpoint path").into());
        }
        opts.checkpoint = Some(path.into());
        opts.checkpoint_every = every;
    }
    if let Some(path) = flags.get("resume") {
        if path.is_empty() {
            return Err("--resume: empty checkpoint path".into());
        }
        opts.resume = Some(path.into());
    }
    if let Some(raw) = flags.get("step-limit") {
        let limit: u64 = raw
            .parse()
            .map_err(|_| format!("--step-limit {raw}: expected a positive batch count"))?;
        if limit == 0 {
            return Err(format!("--step-limit {raw}: must be >= 1").into());
        }
        if opts.checkpoint.is_none() {
            return Err(
                "--step-limit requires --checkpoint PATH, or the interrupted state is lost".into(),
            );
        }
        opts.max_batches = Some(limit);
    }
    Ok(opts)
}

/// Reports an engine interrupt (`--step-limit` reached): the campaign
/// state went to the checkpoint, so flush the event trace and stop
/// without appending a campaign summary or dumping a wavetrace — the
/// resumed run owns those, and the interrupted trace concatenated with
/// the resumed one reproduces the uninterrupted event stream.
fn report_interrupted(what: &str, tel: &Telemetry, opts: &DriveOptions) {
    tel.flush();
    let path = opts
        .checkpoint
        .as_ref()
        .expect("--step-limit requires --checkpoint");
    diag!(
        "{what} interrupted by --step-limit after {} batches; \
         resume with --resume {}",
        opts.max_batches.unwrap_or(0),
        path.display()
    );
}

fn cmd_platforms(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "platform  cores  clock      nominal  analytic resonance"
    )?;
    for (tag, domain) in [
        ("a72", JunoBoard::new().a72),
        ("a53", JunoBoard::new().a53),
        ("amd", AmdDesktop::new().domain),
        ("gpu", emvolt::platform::GpuCard::new().domain),
    ] {
        writeln!(
            out,
            "{tag:<8}  {:<5}  {:>6.2} GHz  {:>5.2} V  {:>6.1} MHz",
            domain.core_count(),
            domain.max_frequency() / 1e9,
            domain.voltage(),
            domain.expected_resonance_hz() / 1e6
        )?;
    }
    Ok(())
}

fn cmd_sweep(flags: &HashMap<String, String>, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let domain = build_platform(flags)?;
    let (tel, trace) = telemetry_from(flags)?;
    let opts = drive_options_from(flags)?;
    let cfg = FastSweepConfig {
        telemetry: tel.clone(),
        ..FastSweepConfig::for_domain(&domain)
    };
    let mut backend = backend_from(flags, &domain, seed(flags)?, &cfg.run)?;
    diag!(
        "sweeping {} ({} powered cores) ...",
        domain.name(),
        domain.active_cores()
    );
    let Some(result) = fast_resonance_sweep_resumable(&mut *backend, domain.name(), &cfg, &opts)?
    else {
        report_interrupted("sweep", &tel, &opts);
        return Ok(());
    };
    writeln!(out, "clock (MHz)  loop (MHz)  EM (dBm)")?;
    for p in &result.points {
        writeln!(
            out,
            "{:>11.1}  {:>10.1}  {:>8.1}",
            p.cpu_freq_hz / 1e6,
            p.loop_freq_hz / 1e6,
            p.amplitude_dbm
        )?;
    }
    writeln!(
        out,
        "\nfirst-order resonance ≈ {:.1} MHz (analytic {:.1} MHz); physical sweep {}",
        result.resonance_hz / 1e6,
        domain.expected_resonance_hz() / 1e6,
        result.campaign.display()
    )?;
    dump_wavetrace(&tel, &trace)?;
    finish_telemetry(&tel, flags, "sweep")?;
    Ok(())
}

fn cmd_impedance(
    flags: &HashMap<String, String>,
    out: &mut dyn Write,
) -> Result<(), Box<dyn Error>> {
    let domain = build_platform(flags)?;
    let (tel, trace) = telemetry_from(flags)?;
    // The shared campaign flag group parses uniformly here too, but an
    // impedance table is one analytic sweep — nothing to checkpoint.
    let opts = drive_options_from(flags)?;
    if opts.checkpoint.is_some() || opts.resume.is_some() || opts.max_batches.is_some() {
        diag!("note: impedance is a single analytic sweep; checkpoint/resume have no effect");
    }
    let pdn = domain.build_pdn();
    let freqs = lin_freqs(20e6, 250e6, 2e6);
    let sweep = pdn.impedance_sweep(&freqs)?;
    if tel.wave_enabled() {
        // A frequency-domain "waveform": one trace second per MHz, so
        // the impedance curve plots directly against the sweep axis.
        let z_id = tel.wave_register("pdn.z_mohm", WaveKind::Real);
        for (f, z) in &sweep {
            tel.wave_real(z_id, f / 1e6, z.norm() * 1e3);
        }
    }
    writeln!(out, "freq (MHz)  |Z| (mOhm)")?;
    for (f, z) in sweep.iter().step_by(5) {
        writeln!(out, "{:>10.1}  {:>10.2}", f / 1e6, z.norm() * 1e3)?;
    }
    if let Some(peak) = strongest_peak_in_band(&sweep, 50e6, 200e6) {
        writeln!(
            out,
            "\nfirst-order peak: {:.1} MHz at {:.1} mOhm",
            peak.frequency_hz / 1e6,
            peak.impedance_ohms * 1e3
        )?;
        tel.span(
            "impedance",
            Layer::Cli,
            &[
                ("points", sweep.len() as f64),
                ("peak_mhz", peak.frequency_hz / 1e6),
                ("peak_mohm", peak.impedance_ohms * 1e3),
            ],
        );
    }
    dump_wavetrace(&tel, &trace)?;
    finish_telemetry(&tel, flags, "impedance")?;
    Ok(())
}

fn cmd_virus(flags: &HashMap<String, String>, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let domain = build_platform(flags)?;
    let population = parse_number(flags, "population", 20, "a non-negative integer")?;
    let generations = parse_number(flags, "generations", 15, "a non-negative integer")?;
    let seed = seed(flags)?;
    let (tel, trace) = telemetry_from(flags)?;
    let opts = drive_options_from(flags)?;
    let progress = flags.contains_key("progress");
    let cfg = VirusGenConfig {
        ga: GaConfig {
            population,
            generations,
            seed,
            ..GaConfig::default()
        },
        loaded_cores: domain.active_cores(),
        samples_per_individual: 5,
        telemetry: tel.clone(),
        ..VirusGenConfig::default()
    };
    let mut backend = backend_from(flags, &domain, seed, &cfg.run)?;
    diag!(
        "evolving a dI/dt virus on {} ({population} x {generations}) ...",
        domain.name()
    );
    let virus =
        generate_em_virus_resumable("cli", &mut *backend, domain.name(), &cfg, &opts, |p| {
            if progress {
                diag!(
                    "gen {:>3}  best {:>8.2} dBm  mean {:>8.2} dBm  cache {:>3.0}%",
                    p.index,
                    p.best_dbm,
                    p.mean_dbm,
                    p.cache_hit_pct()
                );
            }
        })?;
    let Some(virus) = virus else {
        report_interrupted("virus", &tel, &opts);
        return Ok(());
    };
    writeln!(out, "gen  best (dBm)  dominant (MHz)")?;
    for r in &virus.history {
        writeln!(
            out,
            "{:>3}  {:>10.2}  {:>14.2}",
            r.index,
            r.best_fitness,
            r.dominant_hz / 1e6
        )?;
    }
    writeln!(
        out,
        "\nfinal: {:.1} dBm at {:.1} MHz; simulated campaign {}",
        virus.fitness,
        virus.dominant_hz / 1e6,
        virus.campaign.display()
    )?;
    writeln!(out, "\ngenerated loop:\n{}", virus.kernel.render())?;
    dump_wavetrace(&tel, &trace)?;
    finish_telemetry(&tel, flags, "virus")?;
    Ok(())
}

fn cmd_vmin(flags: &HashMap<String, String>, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let domain = build_platform(flags)?;
    let (tel, trace) = telemetry_from(flags)?;
    let opts = drive_options_from(flags)?;
    let model = match domain.name() {
        "A72" => FailureModel::juno_a72(),
        "A53" => FailureModel::juno_a53(),
        _ => FailureModel::amd(),
    };
    let (label, kernel) = if flags.contains_key("stress") {
        let isa = domain.core_model().isa;
        (
            "resonant stress kernel".to_owned(),
            resonant_stress_kernel(isa, 12, 17),
        )
    } else {
        let name = flags
            .get("workload")
            .cloned()
            .unwrap_or_else(|| "lbm".to_owned());
        let w = spec2006_suite(domain.core_model().isa)
            .into_iter()
            .find(|w| w.name == name)
            .ok_or_else(|| format!("unknown workload `{name}` (try `lbm`)"))?;
        (w.name, w.kernel)
    };
    let cfg = VminConfig {
        start_v: domain.voltage(),
        floor_v: domain.voltage() - 0.35,
        trials: 5,
        loaded_cores: domain.active_cores(),
        ..VminConfig::default()
    };
    diag!(
        "running the V_MIN ladder for `{label}` on {} ...",
        domain.name()
    );
    let res =
        emvolt::vmin::vmin_test_resumable(&domain, &kernel, &model, &cfg, tel.clone(), &opts)?;
    let Some(res) = res else {
        report_interrupted("vmin", &tel, &opts);
        return Ok(());
    };
    writeln!(out, "voltage (V)  outcomes")?;
    for (v, outcomes) in &res.ladder {
        let marks: String = outcomes
            .iter()
            .map(|o| match o {
                emvolt::vmin::Outcome::Pass => '.',
                emvolt::vmin::Outcome::Sdc => 'S',
                emvolt::vmin::Outcome::AppCrash => 'A',
                emvolt::vmin::Outcome::SystemCrash => 'X',
            })
            .collect();
        writeln!(out, "{v:>11.3}  {marks}")?;
    }
    writeln!(
        out,
        "\nV_MIN = {:.3} V (droop {:.1} mV, p2p {:.1} mV, margin {:.0} mV)",
        res.vmin_v,
        res.max_droop_v * 1e3,
        res.peak_to_peak_v * 1e3,
        (domain.voltage() - res.vmin_v) * 1e3
    )?;
    tel.span(
        "vmin",
        Layer::Cli,
        &[
            ("vmin_v", res.vmin_v),
            ("droop_mv", res.max_droop_v * 1e3),
            ("p2p_mv", res.peak_to_peak_v * 1e3),
            ("margin_mv", (domain.voltage() - res.vmin_v) * 1e3),
        ],
    );
    dump_wavetrace(&tel, &trace)?;
    finish_telemetry(&tel, flags, "vmin")?;
    Ok(())
}

/// Stdout whose reader may leave early. A reader that stops
/// (`emvolt sweep | head -1`) is not an error: whatever it wanted was
/// printed. Later writes are dropped, so the command still runs to the
/// end and writes its `--trace-vcd` file and campaign summary.
struct ClosableStdout<W> {
    inner: W,
    closed: bool,
}

impl<W: Write> ClosableStdout<W> {
    fn pass<T>(&mut self, done: T, op: impl FnOnce(&mut W) -> io::Result<T>) -> io::Result<T> {
        if self.closed {
            return Ok(done);
        }
        match op(&mut self.inner) {
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {
                self.closed = true;
                Ok(done)
            }
            r => r,
        }
    }
}

impl<W: Write> Write for ClosableStdout<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.pass(buf.len(), |w| w.write(buf))
    }

    fn flush(&mut self) -> io::Result<()> {
        self.pass((), Write::flush)
    }
}

/// Runs one subcommand, printing its results to `out`.
fn run(command: &str, rest: &[String], out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    if matches!(command, "help" | "--help" | "-h") {
        write!(out, "{USAGE}")?;
        return Ok(());
    }
    let Some(spec) = FlagSpec::for_command(command) else {
        return Err(format!("unknown command `{command}`\n\n{USAGE}").into());
    };
    let flags = parse_flags(command, rest, &spec)?;
    match command {
        "platforms" => Ok(cmd_platforms(out)?),
        "sweep" => cmd_sweep(&flags, out),
        "impedance" => cmd_impedance(&flags, out),
        "virus" => cmd_virus(&flags, out),
        "vmin" => cmd_vmin(&flags, out),
        _ => unreachable!("spec resolved above"),
    }
}

fn main() -> ExitCode {
    // A bad SIMD override is a usage error, reported before any work.
    if let Err(e) = emvolt_simd::env_request() {
        diag!("error: {e}");
        return ExitCode::FAILURE;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        let _ = write!(io::stderr(), "{USAGE}");
        return ExitCode::FAILURE;
    };
    let mut out = ClosableStdout {
        inner: io::stdout().lock(),
        closed: false,
    };
    match run(command, &args[1..], &mut out).and_then(|()| Ok(out.flush()?)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            diag!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emvolt::obs::WaveSink;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn known_flags_parse_with_values() {
        let spec = FlagSpec::for_command("virus").unwrap();
        let flags = parse_flags(
            "virus",
            &argv(&["--platform", "a72", "--seed", "7", "--progress"]),
            &spec,
        )
        .unwrap();
        assert_eq!(flags.get("platform").unwrap(), "a72");
        assert_eq!(flags.get("seed").unwrap(), "7");
        assert_eq!(flags.get("progress").unwrap(), "true");
    }

    #[test]
    fn unknown_flag_is_rejected_with_accepted_list() {
        let spec = FlagSpec::for_command("sweep").unwrap();
        let err = parse_flags("sweep", &argv(&["--platfrom", "a72"]), &spec)
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown flag `--platfrom`"), "{err}");
        assert!(err.contains("--platform"), "should list accepted: {err}");
    }

    #[test]
    fn boolean_flag_of_other_command_is_rejected() {
        // `--stress` belongs to vmin, not virus.
        let spec = FlagSpec::for_command("virus").unwrap();
        let err = parse_flags("virus", &argv(&["--stress"]), &spec)
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown flag `--stress`"), "{err}");
    }

    #[test]
    fn stray_positional_is_rejected() {
        let spec = FlagSpec::for_command("vmin").unwrap();
        let err = parse_flags("vmin", &argv(&["a72"]), &spec)
            .unwrap_err()
            .to_string();
        assert!(err.contains("unexpected argument `a72`"), "{err}");
    }

    #[test]
    fn valued_flag_missing_value_is_rejected() {
        let spec = FlagSpec::for_command("virus").unwrap();
        let err = parse_flags("virus", &argv(&["--telemetry"]), &spec)
            .unwrap_err()
            .to_string();
        assert!(err.contains("`--telemetry` requires a value"), "{err}");
    }

    #[test]
    fn platforms_takes_no_flags() {
        let spec = FlagSpec::for_command("platforms").unwrap();
        let err = parse_flags("platforms", &argv(&["--platform", "a72"]), &spec)
            .unwrap_err()
            .to_string();
        assert!(err.contains("takes no flags"), "{err}");
        assert!(parse_flags("platforms", &[], &spec).unwrap().is_empty());
    }

    #[test]
    fn unknown_command_has_no_spec() {
        assert!(FlagSpec::for_command("viurs").is_none());
    }

    #[test]
    fn lanes_flag_is_validated() {
        // Absent: auto.
        assert_eq!(parse_lanes(&HashMap::new()).unwrap(), 0);
        // In range: honored as-is.
        let mut flags = HashMap::new();
        flags.insert("lanes".to_owned(), "8".to_owned());
        assert_eq!(parse_lanes(&flags).unwrap(), 8);
        // Absurd widths and non-numbers are hard errors naming the range.
        for bad in ["1000000", "eight", "-3"] {
            let mut flags = HashMap::new();
            flags.insert("lanes".to_owned(), bad.to_owned());
            let err = parse_lanes(&flags).unwrap_err().to_string();
            assert!(err.contains("0..=64"), "{err}");
        }
    }

    #[test]
    fn numeric_flags_are_validated() {
        let one = |name: &str, value: &str| {
            let mut flags = HashMap::new();
            flags.insert(name.to_owned(), value.to_owned());
            flags
        };
        // Absent: the documented default.
        assert_eq!(seed(&HashMap::new()).unwrap(), 42);
        assert_eq!(parse_threads(&HashMap::new()).unwrap(), 0);
        // Well-formed: honored as-is.
        assert_eq!(seed(&one("seed", "9")).unwrap(), 9);
        assert_eq!(parse_threads(&one("threads", "4")).unwrap(), 4);
        let population: usize = parse_number(&one("population", "6"), "population", 20, "n")
            .expect("six is a population");
        assert_eq!(population, 6);
        // Malformed: a hard error naming the flag, never the default.
        for bad in ["abc", "-3", "1.5", ""] {
            let err = seed(&one("seed", bad)).unwrap_err().to_string();
            assert!(err.starts_with("--seed"), "{err}");
            let err = parse_threads(&one("threads", bad)).unwrap_err().to_string();
            assert!(err.starts_with("--threads"), "{err}");
            for name in ["population", "generations"] {
                let err = parse_number::<usize>(&one(name, bad), name, 20, "a count")
                    .unwrap_err()
                    .to_string();
                assert!(err.starts_with(&format!("--{name} {bad}:")), "{err}");
            }
        }
    }

    #[test]
    fn virus_rejects_malformed_counts_before_running() {
        for (flag, bad) in [
            ("--population", "abc"),
            ("--generations", "x"),
            ("--seed", "-1"),
        ] {
            let err = run(
                "virus",
                &argv(&["--platform", "a53", flag, bad]),
                &mut io::sink(),
            )
            .unwrap_err()
            .to_string();
            assert!(err.starts_with(&format!("{flag} {bad}:")), "{err}");
        }
        // Well-formed but degenerate GA shapes are typed errors too.
        for (flag, value, what) in [
            ("--population", "1", "population must be at least 2"),
            ("--generations", "0", "generations must be at least 1"),
        ] {
            let err = run(
                "virus",
                &argv(&["--platform", "a53", flag, value]),
                &mut io::sink(),
            )
            .unwrap_err()
            .to_string();
            assert!(err.contains(what), "{err}");
        }
    }

    #[test]
    fn campaign_flag_group_is_uniform_across_commands() {
        // Satellite of the step-engine refactor: the shared flag group
        // parses identically on every campaign command.
        for command in ["sweep", "impedance", "virus", "vmin"] {
            let spec = FlagSpec::for_command(command).unwrap();
            let flags = parse_flags(
                command,
                &argv(&[
                    "--platform",
                    "a72",
                    "--threads",
                    "2",
                    "--lanes",
                    "4",
                    "--backend",
                    "live",
                    "--telemetry",
                    "t.jsonl",
                    "--trace-vcd",
                    "w.vcd",
                    "--checkpoint",
                    "c.jsonl:3",
                    "--resume",
                    "c.jsonl",
                    "--step-limit",
                    "5",
                ]),
                &spec,
            )
            .unwrap();
            let opts = drive_options_from(&flags).unwrap();
            assert_eq!(opts.threads, 2, "{command}");
            assert_eq!(opts.lanes, 4, "{command}");
            assert_eq!(
                opts.checkpoint.as_deref(),
                Some("c.jsonl".as_ref()),
                "{command}"
            );
            assert_eq!(opts.checkpoint_every, 3, "{command}");
            assert_eq!(
                opts.resume.as_deref(),
                Some("c.jsonl".as_ref()),
                "{command}"
            );
            assert_eq!(opts.max_batches, Some(5), "{command}");
        }
    }

    #[test]
    fn checkpoint_spec_parses_cadence_suffix() {
        let mut flags = HashMap::new();
        // Bare path: cadence 1.
        flags.insert("checkpoint".to_owned(), "state.jsonl".to_owned());
        let opts = drive_options_from(&flags).unwrap();
        assert_eq!(opts.checkpoint.as_deref(), Some("state.jsonl".as_ref()));
        assert_eq!(opts.checkpoint_every, 1);
        // A path with a colon that is not a cadence stays a path
        // (Windows-style or odd names keep working).
        flags.insert("checkpoint".to_owned(), "state:a.jsonl".to_owned());
        let opts = drive_options_from(&flags).unwrap();
        assert_eq!(opts.checkpoint.as_deref(), Some("state:a.jsonl".as_ref()));
        // Zero cadence and empty paths are hard errors.
        for bad in ["state.jsonl:0", ":4", ""] {
            flags.insert("checkpoint".to_owned(), bad.to_owned());
            assert!(drive_options_from(&flags).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn step_limit_requires_a_checkpoint_path() {
        let mut flags = HashMap::new();
        flags.insert("step-limit".to_owned(), "3".to_owned());
        let err = drive_options_from(&flags).unwrap_err().to_string();
        assert!(err.contains("requires --checkpoint"), "{err}");
        flags.insert("checkpoint".to_owned(), "c.jsonl".to_owned());
        let opts = drive_options_from(&flags).unwrap();
        assert_eq!(opts.max_batches, Some(3));
        for bad in ["0", "-1", "three"] {
            flags.insert("step-limit".to_owned(), bad.to_owned());
            assert!(drive_options_from(&flags).is_err(), "{bad}");
        }
    }

    #[test]
    fn trace_vcd_spec_parses_path_filters_and_stride() {
        let mut flags = HashMap::new();
        // Bare path: all signals, stride 1.
        flags.insert("trace-vcd".to_owned(), "out.vcd".to_owned());
        let t = wavetrace_from(&flags).unwrap().unwrap();
        assert_eq!(t.path, "out.vcd");
        assert_eq!(t.db.stride(), 1);
        assert!(t.db.keeps("anything.at.all"));

        // Filters plus stride, in either order.
        for spec in ["out.vcd:pdn,cpu.i_core:4", "out.vcd:4:pdn,cpu.i_core"] {
            flags.insert("trace-vcd".to_owned(), spec.to_owned());
            let t = wavetrace_from(&flags).unwrap().unwrap();
            assert_eq!(t.db.stride(), 4, "{spec}");
            assert!(t.db.keeps("pdn.v_die"), "{spec}");
            assert!(t.db.keeps("cpu.i_core"), "{spec}");
            assert!(!t.db.keeps("inst.band_dbm"), "{spec}");
        }

        // Absent flag: no trace.
        assert!(wavetrace_from(&HashMap::new()).unwrap().is_none());

        // Malformed specs are hard errors.
        for bad in [":pdn:4", "out.vcd:0"] {
            flags.insert("trace-vcd".to_owned(), bad.to_owned());
            assert!(wavetrace_from(&flags).is_err(), "{bad}");
        }
    }

    #[test]
    fn trace_vcd_flag_is_accepted_on_all_physics_commands() {
        for command in ["sweep", "impedance", "virus", "vmin"] {
            let spec = FlagSpec::for_command(command).unwrap();
            let flags =
                parse_flags(command, &argv(&["--trace-vcd", "out.vcd:pdn:2"]), &spec).unwrap();
            assert_eq!(flags.get("trace-vcd").unwrap(), "out.vcd:pdn:2");
        }
    }

    #[test]
    fn backend_flag_parses_on_sweep_and_virus() {
        for command in ["sweep", "virus"] {
            let spec = FlagSpec::for_command(command).unwrap();
            let flags = parse_flags(
                command,
                &argv(&["--backend", "record:/tmp/trace.jsonl"]),
                &spec,
            )
            .unwrap();
            let spec: BackendSpec = flags.get("backend").unwrap().parse().unwrap();
            assert_eq!(spec.to_string(), "record:/tmp/trace.jsonl");
        }
    }

    #[test]
    fn malformed_backend_spec_is_rejected() {
        let err = "tape:/tmp/x.jsonl".parse::<BackendSpec>().unwrap_err();
        assert!(err.contains("tape"), "{err}");
    }

    /// The run configs that `sweep` and `virus` hand their backend keep
    /// the automatic solver: the transient kernel follows the system's
    /// dimension and no command-line flag reaches it.
    #[test]
    fn solver_flags_apply_to_the_run_config() {
        let domain = JunoBoard::new().a72;
        let sweep = FastSweepConfig::for_domain(&domain);
        assert_eq!(sweep.run.kernel, emvolt::platform::KernelChoice::Auto);
        let virus = VirusGenConfig::default();
        assert_eq!(virus.run.kernel, emvolt::platform::KernelChoice::Auto);
    }

    /// The transient kernel and the in-band spectral path follow the
    /// system, not the command line: no subcommand takes a selector, so
    /// every value of one — valid before or not — is an unknown flag.
    #[test]
    fn bad_solver_flag_values_are_rejected() {
        for command in ["sweep", "virus"] {
            let spec = FlagSpec::for_command(command).unwrap();
            for (name, value) in [
                ("kernel", "lu"),
                ("kernel", "cholesky"),
                ("spectrum", "fft"),
                ("spectrum", "bluestein"),
            ] {
                let flag = format!("--{name}");
                let err = parse_flags(command, &argv(&[&flag, value]), &spec)
                    .unwrap_err()
                    .to_string();
                assert!(err.contains(&format!("unknown flag `{flag}`")), "{err}");
            }
        }
    }
}
