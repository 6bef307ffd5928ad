//! Fast EM resonance detection (§5.3) across all three of the paper's
//! CPUs, including the power-gating shifts of Fig. 13.
//!
//! ```sh
//! cargo run --release --example resonance_sweep
//! ```

use emvolt::prelude::*;

fn sweep(domain: &VoltageDomain, seed: u64) -> Result<f64, Box<dyn std::error::Error>> {
    let cfg = FastSweepConfig::for_domain(domain);
    let mut live = LiveBackend::single(domain.clone(), EmBench::new(seed), cfg.run.clone());
    let result = fast_resonance_sweep_on(&mut live, domain.name(), &cfg)?;
    Ok(result.resonance_hz)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let juno = JunoBoard::new();
    let amd = AmdDesktop::new();

    println!("platform            analytic    EM sweep");
    for (name, domain, seed) in [
        ("A72 (2 cores)", juno.a72.clone(), 1u64),
        ("A53 (4 cores)", juno.a53.clone(), 2),
        ("Athlon (4 cores)", amd.domain.clone(), 3),
    ] {
        let f = sweep(&domain, seed)?;
        println!(
            "{name:<18} {:>7.1} MHz {:>7.1} MHz",
            domain.expected_resonance_hz() / 1e6,
            f / 1e6
        );
    }

    // Power-gating shifts the A53 resonance upward (Fig. 13).
    println!("\nA53 power-gating scenarios:");
    for active in (1..=4).rev() {
        let mut a53 = juno.a53.clone();
        a53.try_power_gate(active)?;
        let f = sweep(&a53, 10 + active as u64)?;
        println!(
            "  {active} core(s) powered: analytic {:>5.1} MHz, measured {:>5.1} MHz",
            a53.expected_resonance_hz() / 1e6,
            f / 1e6
        );
    }
    println!("\ngating cores off removes die capacitance, raising the resonance —");
    println!("a power-saving feature that makes voltage noise faster and harder to damp (§6).");
    Ok(())
}
