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

/// A misspelled `EMVOLT_SIMD` override is reported as a usage error
/// before any work, not as a panic from deep inside the first kernel.
#[test]
fn bad_simd_override_is_a_clean_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_emvolt"))
        .args([
            "virus",
            "--platform",
            "a53",
            "--population",
            "4",
            "--generations",
            "1",
        ])
        .env("EMVOLT_SIMD", "bogus")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error: EMVOLT_SIMD=`bogus`"), "{stderr}");
    assert!(stderr.contains("scalar|sse2|avx2|neon|auto"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
