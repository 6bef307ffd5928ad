//! Single-evaluation benchmarks: the per-individual cost the GA pays
//! `population x generations` times per campaign.
//!
//! Three levels are timed: the solver alone (one PDN transient), one
//! full `DomainRunner` evaluation (CPU sim + transient), and the full
//! measurement chain (evaluation + spectrum + analyzer metric). Record
//! before/after numbers in EXPERIMENTS.md when they move.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use emvolt_bench::fixtures::{a72_domain, arm_kernel};
use emvolt_circuit::TransientScratch;
use emvolt_platform::{
    DomainRun, DomainRunner, EmBench, KernelChoice, Load, MeasureScratch, RunConfig, SpectralChoice,
};

fn bench_solver(c: &mut Criterion) {
    let domain = a72_domain();
    let pdn = domain.build_pdn();
    let cfg = RunConfig::fast();
    let transient_cfg =
        emvolt_circuit::TransientConfig::new(cfg.pdn_dt, cfg.pdn_warmup + cfg.pdn_window)
            .with_warmup(cfg.pdn_warmup);
    let plan = pdn.plan_transient(cfg.pdn_dt).unwrap();

    let mut g = c.benchmark_group("solver");
    // Allocating path: records every node and branch into fresh Vecs.
    g.bench_function("transient_with_plan_full_record", |b| {
        b.iter(|| {
            let (v, i) = pdn.transient_with_plan(&plan, &transient_cfg).unwrap();
            black_box((v.len(), i.len()))
        })
    });
    // Zero-allocation path: probes only the die node and package branch
    // and reuses one scratch across iterations.
    let mut scratch = TransientScratch::new();
    g.bench_function("transient_scoped_reused_scratch", |b| {
        b.iter(|| {
            let die = pdn
                .transient_scoped(&plan, &transient_cfg, &mut scratch)
                .unwrap();
            black_box((die.len(), die.v_die()[die.len() - 1]))
        })
    });
    // Kernel head-to-head on the same plan shape: LU back-substitution
    // per step vs the precomputed state-space update.
    let plan_lu = pdn
        .plan_transient_kernel(cfg.pdn_dt, KernelChoice::Lu)
        .unwrap();
    g.bench_function("transient_scoped_lu_kernel", |b| {
        b.iter(|| {
            let die = pdn
                .transient_scoped(&plan_lu, &transient_cfg, &mut scratch)
                .unwrap();
            black_box((die.len(), die.v_die()[die.len() - 1]))
        })
    });
    let plan_ss = pdn
        .plan_transient_kernel(cfg.pdn_dt, KernelChoice::StateSpace)
        .unwrap();
    g.bench_function("transient_scoped_statespace_kernel", |b| {
        b.iter(|| {
            let die = pdn
                .transient_scoped(&plan_ss, &transient_cfg, &mut scratch)
                .unwrap();
            black_box((die.len(), die.v_die()[die.len() - 1]))
        })
    });
    g.finish();
}

fn bench_evaluation(c: &mut Criterion) {
    let domain = a72_domain();
    let cfg = RunConfig::fast();
    let kernel = arm_kernel();
    let mut runner = DomainRunner::new(&domain, cfg.clone()).unwrap();

    let mut g = c.benchmark_group("evaluation");
    // Allocating path: every run returns freshly allocated traces.
    g.bench_function("runner_run", |b| {
        b.iter(|| black_box(runner.run(&kernel, 1).unwrap().peak_to_peak()))
    });
    // Reuse path: one DomainRun recycled across evaluations.
    let mut run = DomainRun::empty();
    g.bench_function("runner_run_into_reused", |b| {
        b.iter(|| {
            runner.run_into(&kernel, 1, &mut run).unwrap();
            black_box(run.peak_to_peak())
        })
    });
    g.finish();
}

fn bench_full_chain(c: &mut Criterion) {
    let domain = a72_domain();
    let cfg = RunConfig::fast();
    let kernel = arm_kernel();
    let mut runner = DomainRunner::new(&domain, cfg.clone()).unwrap();
    let bench = EmBench::new(0xBE7C);
    let shared = bench.share();

    let mut g = c.benchmark_group("full_chain");
    // Allocating path: fresh traces and spectra per measurement.
    g.bench_function("run_and_measure", |b| {
        b.iter(|| {
            let run = runner.run(&kernel, 1).unwrap();
            black_box(
                shared
                    .measure_in_band_seeded(&run, 50e6, 200e6, 3, 7)
                    .metric_dbm,
            )
        })
    });
    // Reuse path: the exact per-individual loop the GA runs — one
    // DomainRun plus one MeasureScratch checked out for every evaluation.
    let mut run = DomainRun::empty();
    let mut measure = MeasureScratch::new();
    g.bench_function("run_and_measure_reused_scratch", |b| {
        b.iter(|| {
            runner.run_into(&kernel, 1, &mut run).unwrap();
            black_box(
                shared
                    .measure_in_band_seeded_with(&run, 50e6, 200e6, 3, 7, &mut measure)
                    .metric_dbm,
            )
        })
    });
    // Forced "before" path: LU back-substitution transients and a full
    // Bluestein FFT per sweep — what auto selection replaced.
    let mut lu_cfg = cfg.clone();
    lu_cfg.kernel = KernelChoice::Lu;
    lu_cfg.spectral = SpectralChoice::FullFft;
    let mut fft_bench = EmBench::new(0xBE7C);
    fft_bench.set_spectral(SpectralChoice::FullFft);
    let fft_shared = fft_bench.share();
    let mut lu_runner = DomainRunner::new(&domain, lu_cfg).unwrap();
    g.bench_function("run_and_measure_lu_fft", |b| {
        b.iter(|| {
            lu_runner.run_into(&kernel, 1, &mut run).unwrap();
            black_box(
                fft_shared
                    .measure_in_band_seeded_with(&run, 50e6, 200e6, 3, 7, &mut measure)
                    .metric_dbm,
            )
        })
    });
    // Batched path: four independent stimuli folded through the
    // state-space kernel together, then measured per lane.
    let loads: Vec<Load<'_>> = [1usize, 2, 1, 2]
        .iter()
        .map(|&loaded_cores| Load::Kernel {
            kernel: &kernel,
            loaded_cores,
        })
        .collect();
    let mut outs = vec![DomainRun::empty(); loads.len()];
    g.bench_function("run_and_measure_batched_x4", |b| {
        b.iter(|| {
            runner.run_batch_into(&loads, &mut outs).unwrap();
            let mut acc = 0.0;
            for out in &outs {
                acc += shared
                    .measure_in_band_seeded_with(out, 50e6, 200e6, 3, 7, &mut measure)
                    .metric_dbm;
            }
            black_box(acc)
        })
    });
    g.finish();
}

/// The tentpole acceptance bench: the full per-individual chain with the
/// default [`NoopRecorder`](emvolt_obs::NoopRecorder) handle attached
/// must stay within 1% of the un-instrumented baseline
/// (`full_chain/run_and_measure_reused_scratch`), and the JSONL-enabled
/// path shows what tracing actually costs.
fn bench_telemetry(c: &mut Criterion) {
    use emvolt_obs::{JsonlRecorder, Telemetry};
    use std::sync::Arc;

    let domain = a72_domain();
    let cfg = RunConfig::fast();
    let kernel = arm_kernel();

    let mut g = c.benchmark_group("telemetry");

    // Disabled path: every hook present, every emission gated off. This
    // is exactly what un-flagged campaigns run.
    let noop = Telemetry::noop();
    let mut runner = DomainRunner::new_with(&domain, cfg.clone(), noop.clone()).unwrap();
    let bench = EmBench::new(0xBE7C);
    let shared = bench.share();
    let mut run = DomainRun::empty();
    let mut measure = MeasureScratch::new();
    measure.set_telemetry(noop);
    g.bench_function("full_chain_noop_recorder", |b| {
        b.iter(|| {
            runner.run_into(&kernel, 1, &mut run).unwrap();
            black_box(
                shared
                    .measure_in_band_seeded_with(&run, 50e6, 200e6, 3, 7, &mut measure)
                    .metric_dbm,
            )
        })
    });

    // Enabled path: spans serialized per measurement into an in-memory
    // sink — the upper bound a `--telemetry` campaign pays per eval.
    let tel = Telemetry::new(Arc::new(JsonlRecorder::new(std::io::sink())));
    let mut runner = DomainRunner::new_with(&domain, cfg.clone(), tel.clone()).unwrap();
    let mut run = DomainRun::empty();
    let mut measure = MeasureScratch::new();
    measure.set_telemetry(tel);
    g.bench_function("full_chain_jsonl_to_sink", |b| {
        b.iter(|| {
            runner.run_into(&kernel, 1, &mut run).unwrap();
            black_box(
                shared
                    .measure_in_band_seeded_with(&run, 50e6, 200e6, 3, 7, &mut measure)
                    .metric_dbm,
            )
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_solver,
    bench_evaluation,
    bench_full_chain,
    bench_telemetry
);
criterion_main!(benches);
