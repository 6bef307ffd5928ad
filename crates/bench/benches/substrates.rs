//! Performance benchmarks for the simulation substrates.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use emvolt_bench::fixtures::{a72_domain, arm_kernel, x86_kernel};
use emvolt_circuit::{Stimulus, TransientConfig};
use emvolt_cpu::{CoreModel, Cpu, SimConfig};
use emvolt_dsp::{fft_real, Spectrum, Window};
use emvolt_ga::{GaConfig, GaState, KernelRepresentation};
use emvolt_isa::{InstructionPool, Isa, OpClass};
use emvolt_pdn::{log_freqs, Pdn, PdnParams};
use emvolt_platform::RunConfig;

fn bench_circuit(c: &mut Criterion) {
    let mut g = c.benchmark_group("circuit");
    g.sample_size(20);

    let params = PdnParams::generic_mobile();
    g.bench_function("transient_10k_steps", |b| {
        let mut pdn = Pdn::new(params.clone(), 2);
        pdn.set_load(Stimulus::square(0.0, 1.0, 70e6));
        let cfg = TransientConfig::new(0.5e-9, 5e-6);
        b.iter(|| pdn.transient(&cfg).expect("transient runs"));
    });

    g.bench_function("ac_sweep_200_points", |b| {
        let pdn = Pdn::new(params.clone(), 2);
        let freqs = log_freqs(1e4, 1e9, 200);
        b.iter(|| pdn.impedance_sweep(&freqs).expect("sweep runs"));
    });
    g.finish();
}

fn bench_dsp(c: &mut Criterion) {
    let mut g = c.benchmark_group("dsp");
    let signal: Vec<f64> = (0..16_384)
        .map(|i| (i as f64 * 0.1).sin() + (i as f64 * 0.03).cos())
        .collect();
    g.bench_function("fft_16k", |b| b.iter(|| fft_real(&signal)));
    g.bench_function("spectrum_16k_hann", |b| {
        b.iter(|| Spectrum::of_samples(&signal, 1e9, Window::Hann))
    });
    g.finish();
}

fn bench_cpu(c: &mut Criterion) {
    let mut g = c.benchmark_group("cpu");
    g.sample_size(20);
    let kernel = arm_kernel();
    let cfg = SimConfig::default();
    g.bench_function("a72_sim_4us", |b| {
        let cpu = Cpu::new(CoreModel::cortex_a72(), 1.2e9);
        b.iter(|| cpu.simulate(&kernel, &cfg).expect("sim runs"));
    });
    let x86 = x86_kernel();
    g.bench_function("athlon_sim_4us", |b| {
        let cpu = Cpu::new(CoreModel::athlon_ii(), 3.1e9);
        b.iter(|| cpu.simulate(&x86, &cfg).expect("sim runs"));
    });
    g.bench_function("functional_execute_200_iters", |b| {
        b.iter(|| emvolt_cpu::execute(&kernel, 200));
    });
    g.finish();
}

fn bench_chain(c: &mut Criterion) {
    let mut g = c.benchmark_group("measurement_chain");
    g.sample_size(10);
    let domain = a72_domain();
    let kernel = arm_kernel();
    let cfg = RunConfig::fast();
    g.bench_function("domain_run_fast", |b| {
        b.iter(|| domain.run(&kernel, 2, &cfg).expect("run succeeds"));
    });
    g.bench_function("em_measure_30_samples", |b| {
        let run = domain.run(&kernel, 2, &cfg).expect("run succeeds");
        b.iter_batched(
            || emvolt_platform::EmBench::new(1),
            |mut bench| bench.measure(&run, 30),
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_ga(c: &mut Criterion) {
    let mut g = c.benchmark_group("ga");
    g.sample_size(10);
    g.bench_function("ga_10_generations_toy_fitness", |b| {
        let config = GaConfig {
            population: 20,
            generations: 10,
            ..GaConfig::default()
        };
        let tel = emvolt_obs::Telemetry::noop();
        b.iter(|| {
            let pool = InstructionPool::default_for(Isa::ArmV8);
            let repr = KernelRepresentation::new(pool, 50);
            let mut state = GaState::new(&repr, &config).expect("valid GA config");
            while !state.is_done(&config) {
                let scores: Vec<f64> = state
                    .population
                    .iter()
                    .map(|k| k.class_fraction(OpClass::Simd))
                    .collect();
                state.absorb_scores(&repr, &config, &tel, &scores, |_| {});
            }
            state.into_result()
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_circuit,
    bench_dsp,
    bench_cpu,
    bench_chain,
    bench_ga
);
criterion_main!(benches);
