//! Lane-major batched transients on the four platform PDNs (Juno A72
//! and A53, Athlon II, GPU): every lane of `Pdn::transient_batch` must
//! be `to_bits`-identical to a serial `Pdn::transient_scoped` run of the
//! same load, at every SIMD level the host supports and for batch sizes
//! that leave groups of every width, padded or whole — including a
//! 1-lane remainder group — under the state-space kernel and the LU-only
//! plan alike.
//!
//! Loads are shaped like the cluster currents the platform layer feeds
//! the PDN: wrapping zero-order-hold traces at the core clock, one
//! length per lane.

use std::sync::Arc;

use emvolt_circuit::{BatchTransientScratch, Stimulus, TransientConfig, TransientScratch};
use emvolt_platform::{AmdDesktop, GpuCard, JunoBoard, KernelChoice, RunConfig, VoltageDomain};
use emvolt_simd::{force_level, supported_levels};

/// A cluster-current-like trace: a per-lane loop of `len` cycles with a
/// burst phase, at the domain's core clock.
fn cluster_load(domain: &VoltageDomain, lane: usize) -> Stimulus {
    let len = 40 + 29 * lane;
    let values: Vec<f64> = (0..len)
        .map(|k| {
            let burst = if (k * 7 + lane) % len < len / 2 {
                1.0
            } else {
                0.0
            };
            0.4 + 1.5 * burst + 0.05 * ((k * (lane + 2)) as f64).sin()
        })
        .collect();
    Stimulus::Samples {
        dt: 1.0 / domain.frequency(),
        values: Arc::from(values),
        repeat: true,
    }
}

#[test]
fn batched_lanes_match_serial_runs_on_every_platform_pdn() {
    let juno = JunoBoard::new();
    let domains = [
        juno.a72,
        juno.a53,
        AmdDesktop::new().domain,
        GpuCard::new().domain,
    ];
    let run = RunConfig::fast();
    // A shortened GA window keeps the unoptimized test build quick while
    // still spanning several wraps of every trace.
    let cfg = TransientConfig::new(run.pdn_dt, 1e-6).with_warmup(0.5e-6);
    let mut batch = BatchTransientScratch::new();
    let mut scratch = TransientScratch::new();
    // The LU reference has no SIMD dispatch, so one level covers it.
    let runs = supported_levels()
        .iter()
        .map(|&level| (level, KernelChoice::Auto))
        .chain([(supported_levels()[0], KernelChoice::Lu)]);
    for (level, kernel) in runs {
        force_level(Some(level));
        for domain in &domains {
            let mut pdn = domain.build_pdn();
            let plan = pdn.plan_transient_kernel(cfg.dt, kernel).unwrap();
            assert_eq!(
                plan.uses_state_kernel(),
                kernel == KernelChoice::Auto,
                "{} PDN is small",
                domain.name()
            );
            let loads: Vec<Stimulus> = (0..13).map(|l| cluster_load(domain, l)).collect();
            let serial: Vec<(Vec<f64>, Vec<f64>)> = loads
                .iter()
                .map(|load| {
                    pdn.set_load(load.clone());
                    let die = pdn.transient_scoped(&plan, &cfg, &mut scratch).unwrap();
                    (die.v_die().to_vec(), die.i_die().to_vec())
                })
                .collect();
            for n_lanes in [1, 2, 3, 4, 6, 7, 8, 9, 13] {
                pdn.transient_batch(&plan, &cfg, &loads[..n_lanes], &mut batch)
                    .unwrap();
                for (i, (v, i_die)) in serial[..n_lanes].iter().enumerate() {
                    let lane = pdn.die_lane(&batch, i);
                    let what = format!(
                        "{} lane {i} of {n_lanes} at {} ({})",
                        domain.name(),
                        level.as_str(),
                        kernel.as_str()
                    );
                    assert_eq!(bits(v), bits(lane.v_die()), "{what}: v_die");
                    assert_eq!(bits(i_die), bits(lane.i_die()), "{what}: i_die");
                }
            }
        }
    }
    force_level(None);
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}
