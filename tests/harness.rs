//! Integration tests of the experiment harness and the instrument rig.

use emvolt::isa::kernels::padded_sweep_kernel;
use emvolt::prelude::*;
use emvolt_experiments::{run_experiment, Options};

fn quick() -> Options {
    Options {
        quick: true,
        ..Options::default()
    }
}

/// The cheap experiments run end-to-end through the registry and produce
/// the sections their figures require.
#[test]
fn cheap_experiments_run_through_the_registry() {
    std::env::set_var(
        "EMVOLT_RESULTS",
        std::env::temp_dir().join("emvolt_test_results"),
    );
    let table1 = run_experiment("table1", &quick()).expect("table1 runs");
    assert!(table1.contains("Cortex-A72"));
    assert!(table1.contains("Athlon II"));

    let fig02 = run_experiment("fig02", &quick()).expect("fig02 runs");
    assert!(fig02.contains("resonant"));

    let fig06 = run_experiment("fig06", &quick()).expect("fig06 runs");
    assert!(fig06.contains("self-resonance"));
    assert!(fig06.contains("2.9"), "dip near 2.95 GHz: {fig06}");
}

/// The OC-DSO capture and the EM path agree end to end: the frequency the
/// scope FFT sees on the rail is the frequency the analyzer sees over the
/// air (the Fig. 9 property as a regression test).
#[test]
fn scope_and_analyzer_agree_on_the_dominant_frequency() {
    use emvolt::dsp::{Spectrum, Window};
    use emvolt::inst::{Oscilloscope, ScopeConfig};
    use rand::{rngs::StdRng, SeedableRng};

    let board = JunoBoard::new();
    let run = board
        .a72
        .run(&padded_sweep_kernel(Isa::ArmV8, 17), 2, &RunConfig::fast())
        .expect("run succeeds");

    let mut bench = EmBench::new(99);
    let reading = bench.measure(&run, 10);

    let scope = Oscilloscope::new(ScopeConfig::oc_dso());
    let mut rng = StdRng::seed_from_u64(99);
    let shot = scope.capture(&run.v_die, &mut rng);
    let (f_scope, _) = Spectrum::of_trace(&shot, Window::Hann)
        .peak_in_band(50e6, 200e6)
        .expect("band covered");

    assert!(
        (reading.dominant_hz - f_scope).abs() < 3e6,
        "analyzer {:.1} MHz vs scope {:.1} MHz",
        reading.dominant_hz / 1e6,
        f_scope / 1e6
    );
}

/// The assembly parser loads what the CLI/docs print: a full round trip
/// through text for a generated virus-sized kernel.
#[test]
fn kernels_survive_a_text_round_trip() {
    use emvolt::isa::{parse_kernel, InstructionPool};
    use rand::{rngs::StdRng, SeedableRng};

    for isa in [Isa::ArmV8, Isa::X86_64] {
        let pool = InstructionPool::default_for(isa);
        let mut rng = StdRng::seed_from_u64(123);
        let kernel = pool.random_kernel(50, &mut rng);
        let text = kernel.render();
        let parsed = parse_kernel(isa, &text).expect("parses");
        assert_eq!(parsed.render(), text);
    }
}
