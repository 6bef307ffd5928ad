//! Validates a campaign checkpoint file structurally, in the
//! `validate_telemetry` / `validate_vcd` style.
//!
//! Usage: `validate_checkpoint <state.jsonl> [more checkpoints...]`
//!
//! Re-parses the four snapshot lines (header, state, rig, telemetry),
//! checks the format version, and round-trips the file through the
//! writer — a valid checkpoint re-renders to the exact bytes on disk,
//! so any lossy field (a float that did not cross as its bit pattern, a
//! counter past 2^53) fails loudly. Prints a summary per file; exits
//! non-zero on the first malformed one so CI can gate on it.

use std::process::ExitCode;

use emvolt_engine::Checkpoint;
use emvolt_obs::snap::Bits;

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: validate_checkpoint <state.jsonl> [more checkpoints...]");
        return ExitCode::FAILURE;
    }
    let mut ok = true;
    for path in &paths {
        match validate_file(path) {
            Ok(report) => println!("{path}: {report}"),
            Err(err) => {
                eprintln!("{path}: INVALID: {err}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn validate_file(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let cp = Checkpoint::from_lines(&text)?;
    if cp.campaign.is_empty() {
        return Err("header names no campaign kind".to_string());
    }
    let rendered = cp.to_lines();
    if rendered != text {
        return Err(
            "file does not round-trip through the checkpoint writer (lossy or re-ordered fields)"
                .to_string(),
        );
    }
    Ok(format!(
        "`{}` campaign, fingerprint {}, {} batches, {} rig pairs, \
         {} counters, {} histograms ok",
        cp.campaign,
        Bits(cp.fingerprint),
        cp.batches,
        cp.rig.len(),
        cp.telemetry.counters.len(),
        cp.telemetry.hists.len(),
    ))
}
