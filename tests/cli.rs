//! End-to-end runs of the `emvolt` binary.

use std::process::Command;

/// `vmin` on the Athlon builds the x86 SPEC-like suite, whose `lbm`
/// kernel must resolve x86 mnemonics.
#[test]
fn vmin_runs_on_the_amd_platform() {
    let dir = std::env::temp_dir().join(format!("emvolt_cli_vmin_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_emvolt"))
        .args(["vmin", "--platform", "amd"])
        .current_dir(&dir)
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        out.status.success(),
        "exit {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("V_MIN ="));
}
