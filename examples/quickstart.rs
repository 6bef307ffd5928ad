//! Quickstart: characterize a Cortex-A72-class voltage domain with the
//! EM methodology end to end.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use emvolt::core::analyze_virus;
use emvolt::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build the platform: a dual-core out-of-order cluster on the
    //    calibrated Juno-like PDN (first-order resonance ~69 MHz).
    let domain = VoltageDomain::new("A72", CoreModel::cortex_a72(), a72_pdn(), 1.2e9);
    println!(
        "platform: {} x{} @ {:.1} GHz, {:.2} V",
        domain.core_model().name,
        domain.core_count(),
        domain.max_frequency() / 1e9,
        domain.voltage()
    );
    println!(
        "analytic first-order resonance: {:.1} MHz",
        domain.expected_resonance_hz() / 1e6
    );

    // Aim the simulated EM rig (antenna + spectrum analyzer) at it.
    let run = RunConfig::fast();
    let mut backend = LiveBackend::single(domain.clone(), EmBench::new(42), run.clone());

    // 2. §5.3: the fast loop-frequency sweep localizes the resonance in
    //    simulated minutes instead of a multi-hour GA run.
    let sweep_cfg = FastSweepConfig::for_max_frequency(domain.max_frequency());
    let sweep = fast_resonance_sweep_on(&mut backend, "A72", &sweep_cfg)?;
    println!(
        "\nfast sweep: resonance ≈ {:.1} MHz (physical campaign {})",
        sweep.resonance_hz / 1e6,
        sweep.campaign.display()
    );

    // 3. §5.1: evolve a dI/dt virus guided only by EM amplitude. A small
    //    GA keeps the example quick; raise population/generations to the
    //    paper's 50x60 for a production-strength virus.
    let config = VirusGenConfig {
        ga: GaConfig {
            population: 16,
            generations: 12,
            ..GaConfig::default()
        },
        loaded_cores: 2,
        samples_per_individual: 5,
        ..VirusGenConfig::default()
    };
    let virus = generate_em_virus_on("a72em-quick", &mut backend, "A72", &config, |_| {})?;
    println!(
        "\nvirus after {} generations: {:.1} dBm at {:.1} MHz",
        virus.history.len(),
        virus.fitness,
        virus.dominant_hz / 1e6
    );
    println!("generated loop body:\n{}", virus.kernel.render());

    // 4. §5.2: quantify how hard the virus stresses the margin.
    let report = analyze_virus(
        &virus.name,
        &domain,
        &virus.kernel,
        &FailureModel::juno_a72(),
        &VminConfig {
            trials: 5,
            loaded_cores: 2,
            ..VminConfig::default()
        },
        &run,
    )?;
    println!(
        "V_MIN margin below nominal: {:.0} mV (loop {:.1} MHz, dominant {:.1} MHz, IPC {:.2})",
        report.voltage_margin_v * 1e3,
        report.loop_freq_hz / 1e6,
        report.dominant_freq_hz / 1e6,
        report.ipc
    );
    Ok(())
}
