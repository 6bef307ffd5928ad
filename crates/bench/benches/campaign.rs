//! Campaign-level benchmark: the full EM-driven GA measurement pipeline
//! at several thread counts, with and without the fitness cache. Record
//! the numbers in EXPERIMENTS.md when they move.

use criterion::{criterion_group, criterion_main, Criterion};
use emvolt_backend::LiveBackend;
use emvolt_bench::fixtures::a72_domain;
use emvolt_core::{generate_em_virus_on, VirusGenConfig};
use emvolt_ga::GaConfig;
use emvolt_platform::EmBench;

/// Reduced campaign: 8 individuals x 5 generations, 3 spectrum samples
/// each — the same physics per individual as the paper's flow, scaled to
/// bench-friendly runtime.
fn campaign_config(threads: usize, cache_fitness: bool) -> VirusGenConfig {
    VirusGenConfig {
        ga: GaConfig {
            population: 8,
            generations: 5,
            seed: 0xBE7C,
            ..GaConfig::default()
        },
        kernel_len: 20,
        samples_per_individual: 3,
        threads,
        cache_fitness,
        ..VirusGenConfig::default()
    }
}

fn batch_campaign(threads: usize, cache_fitness: bool) -> f64 {
    let config = campaign_config(threads, cache_fitness);
    let mut live = LiveBackend::single(a72_domain(), EmBench::new(0xBE7C), config.run.clone());
    generate_em_virus_on("bench", &mut live, "A72", &config, |_| {})
        .expect("campaign runs")
        .fitness
}

fn bench_campaign(c: &mut Criterion) {
    let mut g = c.benchmark_group("campaign");
    g.sample_size(10);

    g.bench_function("em_batch_1_thread", |b| b.iter(|| batch_campaign(1, false)));
    g.bench_function("em_batch_4_threads", |b| {
        b.iter(|| batch_campaign(4, false))
    });
    g.bench_function("em_batch_4_threads_cached", |b| {
        b.iter(|| batch_campaign(4, true))
    });
    g.finish();
}

criterion_group!(benches, bench_campaign);
criterion_main!(benches);
