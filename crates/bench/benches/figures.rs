//! One Criterion benchmark per table/figure of the paper: each measures
//! the cost of regenerating that experiment's data at reduced scale, so
//! regressions in any part of the reproduction pipeline are visible
//! per-figure.

use criterion::{criterion_group, criterion_main, Criterion};
use emvolt_backend::LiveBackend;
use emvolt_bench::fixtures::{a72_domain, arm_kernel};
use emvolt_circuit::{Stimulus, TransientConfig};
use emvolt_core::monitor::{capture_multi_domain, detect_signatures};
use emvolt_core::{fast_resonance_sweep_on, FastSweepConfig};
use emvolt_cpu::CoreModel;
use emvolt_dsp::{Spectrum, Window};
use emvolt_em::LoopAntenna;
use emvolt_ga::{GaConfig, GaState, KernelRepresentation};
use emvolt_inst::Vna;
use emvolt_isa::{kernels::padded_sweep_kernel, InstructionPool, Isa};
use emvolt_pdn::{log_freqs, Pdn, PdnParams};
use emvolt_platform::{
    a53_pdn, desktop_suite, lbm_kernel, spec2006_suite, AmdDesktop, EmBench, RunConfig, Scl,
    VoltageDomain,
};
use emvolt_vmin::{vmin_test, FailureModel, VminConfig};
use rand::{rngs::StdRng, SeedableRng};

fn quick_vmin() -> VminConfig {
    VminConfig {
        trials: 2,
        golden_iterations: 30,
        ..VminConfig::default()
    }
}

fn figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);

    // Table 1: platform construction.
    g.bench_function("table1_platforms", |b| {
        b.iter(|| {
            let juno = emvolt_platform::JunoBoard::new();
            let amd = AmdDesktop::new();
            (juno.a72.core_count(), amd.domain.core_count())
        });
    });

    // Fig. 1(b): impedance sweep.
    g.bench_function("fig01b_impedance_sweep", |b| {
        let pdn = Pdn::new(PdnParams::generic_mobile(), 2);
        let freqs = log_freqs(1e3, 1e9, 150);
        b.iter(|| pdn.impedance_sweep(&freqs).expect("sweep"));
    });

    // Fig. 1(c): step response.
    g.bench_function("fig01c_step_response", |b| {
        let mut pdn = Pdn::new(PdnParams::generic_mobile(), 2);
        pdn.set_load(Stimulus::Step {
            t0: 50e-9,
            before: 0.0,
            after: 1.0,
        });
        let cfg = TransientConfig::new(0.5e-9, 1e-6);
        b.iter(|| pdn.transient(&cfg).expect("transient"));
    });

    // Fig. 2: resonant square-wave excitation.
    g.bench_function("fig02_resonant_excitation", |b| {
        let params = PdnParams::generic_mobile();
        let f = params.first_order_resonance_hz(2);
        let mut pdn = Pdn::new(params, 2);
        pdn.set_load(Stimulus::square(0.0, 1.0, f));
        let cfg = TransientConfig::new(0.5e-9, 2e-6).with_warmup(1e-6);
        b.iter(|| pdn.transient(&cfg).expect("transient"));
    });

    // Fig. 4: OC-DSO capture of a workload.
    g.bench_function("fig04_ocdso_capture", |b| {
        let domain = a72_domain();
        let run = domain
            .run(&arm_kernel(), 2, &RunConfig::fast())
            .expect("run");
        let scope = emvolt_inst::Oscilloscope::new(emvolt_inst::ScopeConfig::oc_dso());
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| scope.capture(&run.v_die, &mut rng));
    });

    // Fig. 6: antenna S11 sweep.
    g.bench_function("fig06_antenna_s11", |b| {
        let antenna = LoopAntenna::default();
        let vna = Vna::default();
        let freqs: Vec<f64> = (1..=200).map(|i| i as f64 * 2e7).collect();
        let mut rng = StdRng::seed_from_u64(6);
        b.iter(|| vna.measure_s11(&antenna, &freqs, &mut rng));
    });

    // Figs. 7/12/17: one GA generation of EM-driven search (population
    // evaluation dominates).
    g.bench_function("fig07_ga_generation", |b| {
        let domain = a72_domain();
        let config = GaConfig {
            population: 4,
            generations: 2,
            ..GaConfig::default()
        };
        let tel = emvolt_obs::Telemetry::noop();
        b.iter(|| {
            let pool = InstructionPool::default_for(Isa::ArmV8);
            let repr = KernelRepresentation::new(pool, 50);
            let mut state = GaState::new(&repr, &config).expect("valid GA config");
            let mut bench = EmBench::new(7);
            while !state.is_done(&config) {
                let scores: Vec<f64> = state
                    .population
                    .iter()
                    .map(|k| match domain.run(k, 2, &RunConfig::fast()) {
                        Ok(run) => bench.measure(&run, 2).metric_dbm,
                        Err(_) => -200.0,
                    })
                    .collect();
                state.absorb_scores(&repr, &config, &tel, &scores, |_| {});
            }
            state.into_result()
        });
    });

    // Fig. 8: one SCL sweep point.
    g.bench_function("fig08_scl_point", |b| {
        let domain = a72_domain();
        let scl = Scl::default();
        b.iter(|| scl.excite(&domain, 69e6, &RunConfig::fast()).expect("scl"));
    });

    // Fig. 9: analyzer sweep vs OC-DSO FFT of the same run.
    g.bench_function("fig09_spectrum_comparison", |b| {
        let domain = a72_domain();
        let run = domain
            .run(&padded_sweep_kernel(Isa::ArmV8, 17), 2, &RunConfig::fast())
            .expect("run");
        let scope = emvolt_inst::Oscilloscope::new(emvolt_inst::ScopeConfig::oc_dso());
        let mut rng = StdRng::seed_from_u64(9);
        b.iter(|| {
            let mut bench = EmBench::new(9);
            let sweep = bench.sweep(&run);
            let shot = scope.capture(&run.v_die, &mut rng);
            let spec = Spectrum::of_trace(&shot, Window::Hann);
            (
                sweep.peak_in_band(50e6, 200e6),
                spec.peak_in_band(50e6, 200e6),
            )
        });
    });

    // Figs. 10/14: one V_MIN campaign (SPEC workload).
    g.bench_function("fig10_vmin_campaign", |b| {
        let domain = a72_domain();
        let lbm = lbm_kernel(&InstructionPool::default_for(Isa::ArmV8), 114);
        let model = FailureModel::juno_a72();
        b.iter(|| vmin_test(&domain, &lbm, &model, &quick_vmin()).expect("vmin"));
    });

    // Figs. 11/13/16: one fast-sweep point per iteration.
    g.bench_function("fig11_fast_sweep_8_points", |b| {
        let domain = a72_domain();
        let cfg = FastSweepConfig {
            cpu_freqs_hz: (1..=8).map(|i| i as f64 * 150e6).collect(),
            samples_per_point: 2,
            ..FastSweepConfig::for_domain(&domain)
        };
        b.iter(|| {
            let mut live = LiveBackend::single(domain.clone(), EmBench::new(11), cfg.run.clone());
            fast_resonance_sweep_on(&mut live, domain.name(), &cfg).expect("sweep")
        });
    });

    // Fig. 15: multi-domain capture + signature detection.
    g.bench_function("fig15_multidomain_capture", |b| {
        let a72 = a72_domain();
        let a53 = VoltageDomain::new("A53", CoreModel::cortex_a53(), a53_pdn(), 950e6);
        let cfg = RunConfig::fast();
        let r72 = a72
            .run(&padded_sweep_kernel(Isa::ArmV8, 17), 2, &cfg)
            .expect("run");
        let r53 = a53
            .run(&padded_sweep_kernel(Isa::ArmV8, 8), 4, &cfg)
            .expect("run");
        b.iter(|| {
            let mut bench = EmBench::new(15);
            let reading = capture_multi_domain(&mut bench, &[&r72, &r53]);
            detect_signatures(&reading, -95.0, 4, 4e6, 10.0)
        });
    });

    // Fig. 18: one desktop-workload V_MIN point on the AMD platform.
    g.bench_function("fig18_amd_vmin_campaign", |b| {
        let amd = AmdDesktop::new();
        let prime95 = desktop_suite()
            .into_iter()
            .find(|w| w.name == "prime95")
            .expect("prime95 exists");
        let model = FailureModel::amd();
        let cfg = VminConfig {
            start_v: 1.4,
            floor_v: 1.05,
            loaded_cores: 4,
            ..quick_vmin()
        };
        b.iter(|| vmin_test(&amd.domain, &prime95.kernel, &model, &cfg).expect("vmin"));
    });

    // Table 2: virus metric extraction (IPC, loop/dominant frequency,
    // mix) for a fixed kernel.
    g.bench_function("table2_virus_analysis", |b| {
        let domain = a72_domain();
        let kernel = arm_kernel();
        let model = FailureModel::juno_a72();
        b.iter(|| {
            emvolt_core::analyze_virus(
                "bench",
                &domain,
                &kernel,
                &model,
                &quick_vmin(),
                &RunConfig::fast(),
            )
            .expect("analysis")
        });
    });

    // SPEC suite construction cost (workload substrate shared by Figs.
    // 4/10/14).
    g.bench_function("workload_suite_construction", |b| {
        b.iter(|| (spec2006_suite(Isa::ArmV8).len(), desktop_suite().len()));
    });

    g.finish();
}

criterion_group!(fig_benches, figures);
criterion_main!(fig_benches);
