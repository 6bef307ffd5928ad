//! Property-based tests for the circuit substrate.

use emvolt_circuit::{AcExcitation, Circuit, NodeId, Stimulus, TransientConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Ohm's law at arbitrary R and I: v = i * r at the DC operating point.
    #[test]
    fn dc_ohms_law(r in 1e-3..1e6f64, i in -10.0..10.0f64) {
        let mut c = Circuit::new();
        let n = c.node("n");
        c.current_source(NodeId::GROUND, n, Stimulus::Dc(i)).unwrap();
        c.resistor(n, NodeId::GROUND, r).unwrap();
        let op = c.dc_operating_point().unwrap();
        let v = op.voltage(n);
        prop_assert!((v - i * r).abs() <= 1e-9 * (1.0 + (i * r).abs()));
    }

    /// Voltage-divider ratio holds for any positive resistor pair.
    #[test]
    fn dc_divider_ratio(r1 in 1e-2..1e5f64, r2 in 1e-2..1e5f64, vs in 0.1..100.0f64) {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let mid = c.node("mid");
        c.voltage_source(vin, NodeId::GROUND, Stimulus::Dc(vs)).unwrap();
        c.resistor(vin, mid, r1).unwrap();
        c.resistor(mid, NodeId::GROUND, r2).unwrap();
        let op = c.dc_operating_point().unwrap();
        let expected = vs * r2 / (r1 + r2);
        prop_assert!((op.voltage(mid) - expected).abs() < 1e-6 * (1.0 + expected.abs()));
    }

    /// AC impedance magnitude of a series RC is sqrt(R^2 + (1/wC)^2).
    #[test]
    fn ac_series_rc_impedance(
        r in 1e-2..1e4f64,
        cap in 1e-12..1e-6f64,
        f in 1e3..1e9f64,
    ) {
        let mut c = Circuit::new();
        let port = c.node("port");
        let mid = c.node("mid");
        let src = c.current_source(port, NodeId::GROUND, Stimulus::Dc(0.0)).unwrap();
        c.resistor(port, mid, r).unwrap();
        c.capacitor(mid, NodeId::GROUND, cap).unwrap();
        let z = c.driving_point_impedance(src, &[f]).unwrap();
        let xc = 1.0 / (2.0 * std::f64::consts::PI * f * cap);
        let expected = (r * r + xc * xc).sqrt();
        prop_assert!(
            (z[0].1.norm() - expected).abs() / expected < 1e-6,
            "got {}, expected {}", z[0].1.norm(), expected
        );
    }

    /// Passivity: a transient of a source-free damped RLC never grows.
    #[test]
    fn transient_passive_network_is_bounded(
        l in 1e-12..1e-9f64,
        cap in 1e-9..1e-6f64,
        r in 1e-3..10.0f64,
    ) {
        let mut c = Circuit::new();
        let n = c.node("tank");
        let mid = c.node("mid");
        c.inductor(n, mid, l).unwrap();
        c.resistor(mid, NodeId::GROUND, r).unwrap();
        c.capacitor(n, NodeId::GROUND, cap).unwrap();
        c.resistor(n, NodeId::GROUND, 1e7).unwrap();
        c.current_source(NodeId::GROUND, n, Stimulus::Step {
            t0: 0.0, before: 0.0, after: 1.0,
        }).unwrap();
        let f_res = 1.0 / (2.0 * std::f64::consts::PI * (l * cap).sqrt());
        let dt = 1.0 / (64.0 * f_res);
        let cfg = TransientConfig::new(dt, 2000.0 * dt);
        let res = c.transient(&cfg).unwrap();
        let v = res.voltage(n);
        // The worst possible excursion of a passive RLC to a 1 A step is
        // bounded by the peak impedance; use a loose envelope.
        let z_char = (l / cap).sqrt();
        let bound = 10.0 * (r + z_char + 1.0);
        prop_assert!(v.max().abs() < bound, "max {} exceeded bound {}", v.max(), bound);
        prop_assert!(v.min().abs() < bound);
    }

    /// The AC solution must be linear in the excitation: solving the same
    /// network twice gives identical results (determinism).
    #[test]
    fn ac_is_deterministic(f in 1e4..1e9f64) {
        let mut c = Circuit::new();
        let n = c.node("n");
        let src = c.current_source(n, NodeId::GROUND, Stimulus::Dc(0.0)).unwrap();
        c.resistor(n, NodeId::GROUND, 5.0).unwrap();
        c.capacitor(n, NodeId::GROUND, 1e-9).unwrap();
        let a = c.ac_solve(AcExcitation::Current(src), f).unwrap().voltage(n);
        let b = c.ac_solve(AcExcitation::Current(src), f).unwrap().voltage(n);
        prop_assert_eq!(a, b);
    }

    /// The state-space transient kernel agrees with LU back-substitution
    /// on random PDN-style ladder networks (VRM source, package RL, die
    /// RC stages, arbitrary load stimulus) — the equivalence that lets
    /// `KernelChoice::Auto` default to the fused kernel.
    #[test]
    fn state_space_kernel_matches_lu_on_random_ladders(
        stages in 1usize..4,
        r_pkg in 1e-3..0.1f64,
        l_pkg in 1e-12..1e-10f64,
        r_die in 1e-3..0.5f64,
        c_die in 1e-9..1e-7f64,
        v_s in 0.5..1.5f64,
        amp in 0.1..2.0f64,
        freq in 2e7..2e8f64,
        phase in 0.0..1.0f64,
    ) {
        use emvolt_circuit::{KernelChoice, TransientProbes, TransientScratch};

        let mut c = Circuit::new();
        let vrm = c.node("vrm");
        c.voltage_source(vrm, NodeId::GROUND, Stimulus::Dc(v_s)).unwrap();
        let mut prev = vrm;
        let mut die = vrm;
        for s in 0..stages {
            let a = c.node(format!("a{s}"));
            let b = c.node(format!("b{s}"));
            c.resistor(prev, a, r_pkg * (1.0 + s as f64 * 0.3)).unwrap();
            c.inductor(a, b, l_pkg * (1.0 + s as f64 * 0.5)).unwrap();
            c.resistor(b, NodeId::GROUND, 1e5).unwrap();
            let cn = c.node(format!("c{s}"));
            c.resistor(b, cn, r_die).unwrap();
            c.capacitor(cn, NodeId::GROUND, c_die).unwrap();
            prev = b;
            die = b;
        }
        c.current_source(die, NodeId::GROUND, Stimulus::Sine {
            offset: amp * 0.5, amplitude: amp, freq, phase,
        }).unwrap();

        let dt = 0.5e-9;
        let cfg = TransientConfig::new(dt, 1500.0 * dt).with_warmup(500.0 * dt);
        let probes = TransientProbes::none().with_node(die);

        let plan_lu = c.plan_transient_kernel(dt, KernelChoice::Lu).unwrap();
        let plan_ss = c.plan_transient_kernel(dt, KernelChoice::StateSpace).unwrap();
        prop_assert!(!plan_lu.uses_state_kernel());
        prop_assert!(plan_ss.uses_state_kernel());

        let mut s_lu = TransientScratch::new();
        let mut s_ss = TransientScratch::new();
        let v_lu = {
            let view = c.transient_scoped(&plan_lu, &cfg, &probes, &mut s_lu).unwrap();
            view.voltage_samples(die).to_vec()
        };
        let view = c.transient_scoped(&plan_ss, &cfg, &probes, &mut s_ss).unwrap();
        let v_ss = view.voltage_samples(die);

        prop_assert_eq!(v_lu.len(), v_ss.len());
        let scale = v_lu.iter().fold(0.0f64, |m, &v| m.max(v.abs())).max(1e-9);
        for (i, (a, b)) in v_lu.iter().zip(v_ss).enumerate() {
            prop_assert!(
                (a - b).abs() <= 1e-8 * scale,
                "sample {}: lu={}, statespace={}", i, a, b
            );
        }
    }

    /// The lane-major SoA batch fold must reproduce serial state-space
    /// runs `to_bits`-identically on random PDN-style ladders, for lane
    /// counts covering whole and padded groups of every width and
    /// several groups per batch — the contract that lets GA generations
    /// evaluate in lanes without changing fitness. Loads are sinusoids
    /// or production-shaped `Samples` traces (wrapping or clamped, a
    /// different length per lane), either sharing one `dt` (one sample
    /// index per step serves the group) or with a `dt` per lane (every
    /// lane indexes its own trace).
    #[test]
    fn batched_soa_fold_matches_serial_state_space_on_random_ladders(
        stages in 1usize..4,
        r_pkg in 1e-3..0.1f64,
        l_pkg in 1e-12..1e-10f64,
        c_die in 1e-9..1e-7f64,
        v_s in 0.5..1.5f64,
        amp in 0.1..2.0f64,
        freq in 2e7..2e8f64,
        n_lanes in 1usize..=17,
        load_kind in 0u8..3,
        sample_dt in 0.3e-9..1.5e-9f64,
    ) {
        use emvolt_circuit::{
            BatchTransientScratch, KernelChoice, TransientProbes, TransientScratch,
        };

        let mut c = Circuit::new();
        let vrm = c.node("vrm");
        c.voltage_source(vrm, NodeId::GROUND, Stimulus::Dc(v_s)).unwrap();
        let mut prev = vrm;
        let mut die = vrm;
        for s in 0..stages {
            let a = c.node(format!("a{s}"));
            let b = c.node(format!("b{s}"));
            c.resistor(prev, a, r_pkg * (1.0 + s as f64 * 0.3)).unwrap();
            c.inductor(a, b, l_pkg * (1.0 + s as f64 * 0.5)).unwrap();
            let cn = c.node(format!("c{s}"));
            c.resistor(b, cn, 0.05).unwrap();
            c.capacitor(cn, NodeId::GROUND, c_die).unwrap();
            prev = b;
            die = b;
        }
        let load = c.current_source(die, NodeId::GROUND, Stimulus::Dc(0.0)).unwrap();

        let loads: Vec<Stimulus> = (0..n_lanes)
            .map(|l| match load_kind {
                0 => Stimulus::Sine {
                    offset: amp * 0.5,
                    amplitude: amp * (1.0 + l as f64 * 0.1),
                    freq: freq * (1.0 + l as f64 * 0.05),
                    phase: l as f64 * 0.2,
                },
                kind => {
                    let len = 50 + 37 * l;
                    let values: Vec<f64> = (0..len)
                        .map(|k| amp * (0.5 + 0.5 * ((k * (l + 3)) as f64 * 0.7).sin()))
                        .collect();
                    let dt = if kind == 1 {
                        sample_dt
                    } else {
                        sample_dt * (1.0 + l as f64 * 0.13)
                    };
                    Stimulus::Samples { dt, values: values.into(), repeat: l % 3 != 2 }
                }
            })
            .collect();

        let dt = 0.5e-9;
        let cfg = TransientConfig::new(dt, 600.0 * dt).with_warmup(200.0 * dt);
        let probes = TransientProbes::none().with_node(die);
        let plan = c.plan_transient_kernel(dt, KernelChoice::StateSpace).unwrap();

        let mut batch = BatchTransientScratch::new();
        c.transient_batch_scoped(&plan, &cfg, &probes, load, &loads, &mut batch).unwrap();

        let mut single = TransientScratch::new();
        for (i, stim) in loads.iter().enumerate() {
            c.set_current_stimulus(load, stim.clone());
            let view = c.transient_scoped(&plan, &cfg, &probes, &mut single).unwrap();
            let lane = batch.lane(i);
            prop_assert_eq!(view.len(), lane.len());
            for (s, (a, b)) in view
                .voltage_samples(die)
                .iter()
                .zip(lane.voltage_samples(die))
                .enumerate()
            {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "lane {} of {} diverged at sample {}", i, n_lanes, s
                );
            }
        }
    }

    /// Stimulus::Pulse is periodic: f(t) == f(t + k*period).
    #[test]
    fn pulse_periodicity(
        period in 1e-9..1e-3f64,
        duty in 0.05..0.95f64,
        t in 0.0..1e-3f64,
        k in 1u32..50,
    ) {
        let s = Stimulus::Pulse { lo: 0.0, hi: 1.0, period, duty, t0: 0.0 };
        let a = s.value_at(t);
        let b = s.value_at(t + k as f64 * period);
        // Floating-point phase wrap can disagree exactly at the edge;
        // tolerate the edge case by re-checking slightly inside.
        if a != b {
            let eps = period * 1e-6;
            prop_assert_eq!(s.value_at(t + eps), s.value_at(t + k as f64 * period + eps));
        }
    }
}
