//! Property-based tests for the V_MIN harness.

use emvolt_cpu::CoreModel;
use emvolt_isa::kernels::resonant_stress_kernel;
use emvolt_isa::Isa;
use emvolt_platform::{a72_pdn, RunConfig, VoltageDomain};
use emvolt_vmin::{vmin_test, FailureModel, VminConfig};
use proptest::prelude::*;

fn a72() -> VoltageDomain {
    VoltageDomain::new("A72", CoreModel::cortex_a72(), a72_pdn(), 1.2e9)
}

fn quick(seed: u64) -> VminConfig {
    VminConfig {
        trials: 3,
        golden_iterations: 30,
        loaded_cores: 2,
        seed,
        run: RunConfig::fast(),
        ..VminConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// V_MIN rises monotonically with the critical voltage for any seed.
    #[test]
    fn vmin_monotone_in_v_crit(seed in any::<u64>(), dv in 0.02..0.08f64) {
        let d = a72();
        let kernel = resonant_stress_kernel(Isa::ArmV8, 12, 17);
        let base = FailureModel { v_crit: 0.76, ..FailureModel::juno_a72() };
        let raised = FailureModel { v_crit: 0.76 + dv, ..base };
        let lo = vmin_test(&d, &kernel, &base, &quick(seed)).unwrap();
        let hi = vmin_test(&d, &kernel, &raised, &quick(seed)).unwrap();
        prop_assert!(
            hi.vmin_v >= lo.vmin_v,
            "raising v_crit by {dv} lowered vmin: {} -> {}",
            lo.vmin_v,
            hi.vmin_v
        );
        // The shift tracks dv to within the ladder step + trial noise.
        let shift = hi.vmin_v - lo.vmin_v;
        prop_assert!((shift - dv).abs() <= 0.021, "shift {shift} vs dv {dv}");
    }

    /// The ladder is well-formed for arbitrary seeds: strictly descending
    /// voltages, every voltage within [floor, start], and the reported
    /// first-failure voltage actually appears in the ladder.
    #[test]
    fn ladder_is_well_formed(seed in any::<u64>()) {
        let d = a72();
        let kernel = resonant_stress_kernel(Isa::ArmV8, 12, 17);
        let model = FailureModel::juno_a72();
        let cfg = quick(seed);
        let res = vmin_test(&d, &kernel, &model, &cfg).unwrap();
        prop_assert!(!res.ladder.is_empty());
        for w in res.ladder.windows(2) {
            prop_assert!(w[1].0 < w[0].0);
        }
        for (v, outcomes) in &res.ladder {
            prop_assert!(*v <= cfg.start_v + 1e-12 && *v >= cfg.floor_v - 1e-12);
            prop_assert_eq!(outcomes.len(), cfg.trials);
        }
        if !res.first_failure_v.is_nan() {
            prop_assert!(res
                .ladder
                .iter()
                .any(|(v, _)| (*v - res.first_failure_v).abs() < 1e-12));
            prop_assert!((res.vmin_v - res.first_failure_v - cfg.step_v).abs() < 1e-9);
        }
    }

    /// Droop and peak-to-peak reported by the campaign match a direct run
    /// (they come from the same physics, independent of the seed).
    #[test]
    fn reported_droop_matches_direct_run(seed in any::<u64>()) {
        let d = a72();
        let kernel = resonant_stress_kernel(Isa::ArmV8, 12, 17);
        let model = FailureModel::juno_a72();
        let cfg = quick(seed);
        let res = vmin_test(&d, &kernel, &model, &cfg).unwrap();
        let mut dom = d.clone();
        dom.try_set_voltage(cfg.start_v).unwrap();
        let run = dom.run(&kernel, cfg.loaded_cores, &cfg.run).unwrap();
        prop_assert!((res.max_droop_v - run.max_droop()).abs() < 1e-12);
        prop_assert!((res.peak_to_peak_v - run.peak_to_peak()).abs() < 1e-12);
    }
}
