//! Runs the paper's tables and figures, the ablation studies, or any
//! named subset of them, printing each report to stdout.
//!
//! ```text
//! emvolt-experiments [--quick] [--refresh] [--backend SPEC] [--telemetry PATH] (all | ablations | NAME...)
//! ```
//!
//! * `all` regenerates every table and figure in paper order and writes
//!   the combined report to `results/all_experiments.txt`.
//! * `ablations` runs every ablation study and §10 extension and writes
//!   `results/ablations.txt`.
//! * `NAME...` runs the named experiments (`table1`, `fig07`,
//!   `ablation_q`, ...) in the order given.
//!
//! `--quick` (or `EMVOLT_QUICK=1`) runs at reduced scale. `--refresh`
//! regenerates cached viruses. `--backend SPEC` (or `EMVOLT_BACKEND=SPEC`)
//! routes the EM GA campaigns through a measurement backend: `record:DIR`
//! persists one `<label>.jsonl` trace per virus under `DIR`, `replay:DIR`
//! serves them back without touching the simulation chain; combine it
//! with `--refresh` so the campaigns actually run instead of loading
//! cached kernels.
//!
//! `--telemetry PATH` writes a JSONL trace with one wall-clock-stamped
//! span per experiment (name, duration, outcome) and appends a campaign
//! summary to `results/campaign_summaries.jsonl`. Wall-clock stamps make
//! these traces non-reproducible by design; use the `emvolt` subcommand
//! flags for deterministic traces.

use emvolt_experiments::{
    all_experiments, all_extensions, output, run_experiment, ExperimentFn, Options,
};
use emvolt_obs::{JsonlRecorder, Layer, Telemetry};
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str = "usage: emvolt-experiments [--quick] [--refresh] [--backend SPEC] \
                     [--telemetry PATH] (all | ablations | NAME...)";

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    // A bad SIMD override is a usage error, reported before any work.
    if let Err(e) = emvolt_simd::env_request() {
        usage_error(&e);
    }
    let mut opts = Options {
        quick: std::env::var("EMVOLT_QUICK").is_ok_and(|v| v == "1"),
        ..Options::default()
    };
    let mut backend = std::env::var("EMVOLT_BACKEND").ok();
    let mut telemetry_path = None;
    let mut positionals = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--refresh" => opts.refresh = true,
            "--backend" => {
                backend = Some(
                    args.next()
                        .unwrap_or_else(|| usage_error("--backend needs a SPEC")),
                );
            }
            "--telemetry" => {
                telemetry_path = Some(
                    args.next()
                        .unwrap_or_else(|| usage_error("--telemetry needs a PATH")),
                );
            }
            flag if flag.starts_with("--") => usage_error(&format!("unknown flag `{flag}`")),
            _ => positionals.push(arg),
        }
    }
    if let Some(spec) = backend {
        let parsed = spec
            .parse()
            .unwrap_or_else(|e| usage_error(&format!("--backend {spec}: {e}")));
        opts.backend = Some(parsed);
    }

    let names_of = |list: Vec<(&str, ExperimentFn)>| -> Vec<String> {
        list.into_iter().map(|(n, _)| n.to_owned()).collect()
    };
    let (names, report_file, label) = match positionals.as_slice() {
        [] => usage_error("name `all`, `ablations` or at least one experiment"),
        [mode] if mode == "all" => (
            names_of(all_experiments()),
            Some("all_experiments.txt"),
            "run_all",
        ),
        [mode] if mode == "ablations" => (
            names_of(all_extensions()),
            Some("ablations.txt"),
            "ablations",
        ),
        names => {
            let known = names_of([all_experiments(), all_extensions()].concat());
            if let Some(unknown) = names.iter().find(|n| !known.contains(n)) {
                usage_error(&format!("unknown experiment `{unknown}`"));
            }
            (names.to_vec(), None, "experiments")
        }
    };

    let started = Instant::now();
    let tel = match &telemetry_path {
        Some(path) => match JsonlRecorder::create(path) {
            Ok(recorder) => Telemetry::with_wall_clock(Arc::new(recorder), move || {
                started.elapsed().as_secs_f64()
            }),
            Err(e) => {
                eprintln!("--telemetry {path}: {e}");
                std::process::exit(2);
            }
        },
        None => Telemetry::noop(),
    };

    let mut combined = String::new();
    let mut failures = 0usize;
    for name in &names {
        eprintln!(">> running {name} ...");
        let t0 = Instant::now();
        let ok = match run_experiment(name, &opts) {
            Ok(report) => {
                println!("{report}");
                combined.push_str(&report);
                true
            }
            Err(e) => {
                eprintln!("{name} FAILED: {e}");
                failures += 1;
                false
            }
        };
        tel.span(
            name,
            Layer::Cli,
            &[
                ("seconds", t0.elapsed().as_secs_f64()),
                ("ok", if ok { 1.0 } else { 0.0 }),
            ],
        );
    }
    if let Some(file) = report_file {
        if let Err(e) = output::write_report(file, &combined) {
            eprintln!("could not write combined report: {e}");
        }
    }
    if tel.sink_enabled() {
        tel.flush();
        let summary = tel.summary(label);
        let _ = std::fs::create_dir_all("results");
        if let Err(e) = summary.append_to("results/campaign_summaries.jsonl") {
            eprintln!("could not append campaign summary: {e}");
        }
    }
    if failures > 0 {
        eprintln!("{failures} experiment(s) failed");
        std::process::exit(1);
    }
}
