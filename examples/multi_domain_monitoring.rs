//! Simultaneous voltage-noise monitoring of both Juno clusters through a
//! single antenna (§6.1, Fig. 15) — impossible with any physically
//! attached probe.
//!
//! ```sh
//! cargo run --release --example multi_domain_monitoring
//! ```

use emvolt::backend::CombinedSource;
use emvolt::core::monitor::{detect_signatures, CAPTURE_SEED};
use emvolt::isa::kernels::padded_sweep_kernel;
use emvolt::obs::Telemetry;
use emvolt::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let board = JunoBoard::new();
    let cfg = RunConfig::default();

    // Run a resonant kernel on each cluster simultaneously. Their PDNs
    // resonate at different frequencies (69 vs 76.5 MHz), so their EM
    // signatures are separable in one spectrum.
    let k_a72 = padded_sweep_kernel(Isa::ArmV8, 17);
    let k_a53 = padded_sweep_kernel(Isa::ArmV8, 8);
    let run_a72 = board.a72.run(&k_a72, 2, &cfg)?;
    let run_a53 = board.a53.run(&k_a53, 4, &cfg)?;
    println!(
        "A72 loop at {:.1} MHz; A53 loop at {:.1} MHz",
        run_a72.loop_frequency / 1e6,
        run_a53.loop_frequency / 1e6
    );

    // One antenna, one analyzer sweep, both clusters radiating at once.
    let sources = [
        CombinedSource {
            domain: board.a72.name(),
            kernel: Some(&k_a72),
            loaded_cores: 2,
        },
        CombinedSource {
            domain: board.a53.name(),
            kernel: Some(&k_a53),
            loaded_cores: 4,
        },
    ];
    let mut backend = LiveBackend::new(
        vec![board.a72.clone(), board.a53.clone()],
        EmBench::new(2024),
        cfg,
    );
    let reading = backend.capture_combined(&sources, CAPTURE_SEED, &Telemetry::noop())?;
    let signatures = detect_signatures(&reading, -95.0, 4, 4e6, 10.0);

    println!("\ndetected voltage-noise signatures:");
    for s in &signatures {
        println!("  {:>6.1} MHz at {:>6.1} dBm", s.freq_hz / 1e6, s.level_dbm);
    }
    let sees = |f: f64| signatures.iter().any(|s| (s.freq_hz - f).abs() < 5e6);
    println!(
        "\nA72 domain visible: {}   A53 domain visible: {}",
        sees(run_a72.loop_frequency),
        sees(run_a53.loop_frequency)
    );
    println!("one antenna observes every voltage domain at once — no probe points needed.");
    Ok(())
}
