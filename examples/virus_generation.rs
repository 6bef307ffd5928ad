//! Full dI/dt virus generation on the AMD desktop platform, comparing the
//! EM-driven flow against the voltage-feedback baseline (§7).
//!
//! ```sh
//! cargo run --release --example virus_generation
//! ```

use emvolt::ga::GaConfig;
use emvolt::inst::{Oscilloscope, ScopeConfig};
use emvolt::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let amd = AmdDesktop::new();
    let config = VirusGenConfig {
        ga: GaConfig {
            population: 24,
            generations: 20,
            ..GaConfig::default()
        },
        loaded_cores: 4,
        samples_per_individual: 5,
        ..VirusGenConfig::default()
    };

    // EM-driven: no probe, just the antenna.
    let mut live = LiveBackend::single(amd.domain.clone(), EmBench::new(7), config.run.clone());
    let em_virus = generate_em_virus_on("amdEm", &mut live, amd.domain.name(), &config, |_| {})?;
    println!(
        "EM-driven virus:       {:>7.1} dBm at {:>5.1} MHz (campaign {})",
        em_virus.fitness,
        em_virus.dominant_hz / 1e6,
        em_virus.campaign.display()
    );

    // Voltage-feedback baseline: differential probe on the Kelvin pads.
    let mut scope_cfg = ScopeConfig::bench_scope();
    scope_cfg.v_center = amd.domain.voltage();
    let scope = Oscilloscope::new(scope_cfg);
    let osc_virus = generate_voltage_virus("amdOsc", &amd.domain, &scope, &config, 99)?;
    println!(
        "voltage-driven virus:  {:>7.1} mV droop at {:>5.1} MHz",
        osc_virus.fitness * 1e3,
        osc_virus.dominant_hz / 1e6
    );

    // Both flows find the same resonance and comparable stress.
    let cfg = RunConfig::default();
    let em_run = amd.domain.run(&em_virus.kernel, 4, &cfg)?;
    let osc_run = amd.domain.run(&osc_virus.kernel, 4, &cfg)?;
    println!(
        "\ndroop on 4 cores: EM virus {:.1} mV vs voltage virus {:.1} mV",
        em_run.max_droop() * 1e3,
        osc_run.max_droop() * 1e3
    );
    println!(
        "dominant frequencies within the same band: {}",
        (em_virus.dominant_hz - osc_virus.dominant_hz).abs() < 10e6
    );
    println!("\nthe EM flow needed no voltage probe — only an antenna near the package.");
    Ok(())
}
