//! PDN tamper detection from outside the case (§10 future work): the
//! EM-measured first-order resonance is a fingerprint of the board's
//! capacitance and inductance; rework, implants or missing decaps move
//! it.
//!
//! ```sh
//! cargo run --release --example tamper_detection
//! ```

use emvolt::core::tamper::{compare, fingerprint, PdnFingerprint, TamperVerdict};
use emvolt::platform::DomainError;
use emvolt::prelude::*;

/// Fingerprints `board` with the fast sweep on a live rig seeded `seed`.
fn fingerprint_live(board: &VoltageDomain, seed: u64) -> Result<PdnFingerprint, DomainError> {
    let cfg = FastSweepConfig::for_domain(board);
    let mut live = LiveBackend::single(board.clone(), EmBench::new(seed), cfg.run.clone());
    fingerprint(&mut live, board.name(), &cfg)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Golden reference captured at manufacturing time.
    let golden_board = VoltageDomain::new("A72", CoreModel::cortex_a72(), a72_pdn(), 1.2e9);
    let golden = fingerprint_live(&golden_board, 1)?;
    println!(
        "golden fingerprint: resonance {:.1} MHz, peak {:.1} dBm",
        golden.resonance_hz / 1e6,
        golden.peak_dbm
    );

    let audit = |label: &str, board: &VoltageDomain| -> Result<(), Box<dyn std::error::Error>> {
        let fp = fingerprint_live(board, 2)?;
        match compare(&golden, &fp, 0.05) {
            TamperVerdict::Clean => {
                println!("{label:<32} {:.1} MHz  -> clean", fp.resonance_hz / 1e6)
            }
            TamperVerdict::ResonanceShift { shift, .. } => println!(
                "{label:<32} {:.1} MHz  -> TAMPERED ({:+.1}% resonance shift)",
                fp.resonance_hz / 1e6,
                shift * 100.0
            ),
        }
        Ok(())
    };

    println!();
    // A unit fresh off the same line.
    audit("identical unit", &golden_board.clone())?;

    // A reworked package that lost half its shared decap.
    let mut damaged = a72_pdn();
    damaged.die_capacitance.cluster_farads *= 0.5;
    audit(
        "decap removed during rework",
        &VoltageDomain::new("A72", CoreModel::cortex_a72(), damaged, 1.2e9),
    )?;

    // A hardware implant hanging extra capacitance on the rail.
    let mut implant = a72_pdn();
    implant.die_capacitance.cluster_farads *= 1.6;
    audit(
        "parasitic implant on the rail",
        &VoltageDomain::new("A72", CoreModel::cortex_a72(), implant, 1.2e9),
    )?;

    println!("\nthe check is non-contact and takes one fast sweep per unit.");
    Ok(())
}
