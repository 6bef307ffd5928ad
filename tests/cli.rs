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

/// A reader that closes the pipe before the output arrives
/// (`emvolt sweep | head -1`) ends the run quietly with success, not with
/// a "failed printing to stdout" panic, and loses only the printed table:
/// the trace files and campaign summary written after it still appear.
#[test]
fn closed_stdout_is_a_quiet_success() {
    use std::process::Stdio;
    let dir = std::env::temp_dir().join(format!("emvolt_cli_pipe_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_emvolt"))
        .args(["sweep", "--platform", "a53"])
        .args(["--trace-vcd", "v.vcd", "--telemetry", "t.jsonl"])
        .current_dir(&dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // The sweep prints only once it has run, so the read end is long
    // closed by the first write.
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    // The files written after the table must not be lost with it.
    let vcd = std::fs::metadata(dir.join("v.vcd")).map(|m| m.len());
    let summary = dir.join("results/campaign_summaries.jsonl").exists();
    std::fs::remove_dir_all(&dir).ok();
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(vcd.is_ok_and(|len| len > 0), "no VCD: {stderr}");
    assert!(summary, "no campaign summary: {stderr}");
}

/// Closing stderr loses the diagnostics, not the run: the sweep still
/// completes and prints its table.
#[test]
fn closed_stderr_still_completes_the_run() {
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_emvolt"))
        .args(["sweep", "--platform", "a53"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stderr.take());
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("first-order resonance"));
}

/// `emvolt sweep` prints the same bytes at any lane width, and a sweep
/// interrupted at a point that is not a multiple of the width resumes
/// to the uninterrupted output.
#[test]
fn sweep_output_does_not_depend_on_lanes_or_interruption() {
    let dir = std::env::temp_dir().join(format!("emvolt_cli_sweep_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sweep = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_emvolt"))
            .args(["sweep", "--platform", "a53"])
            .args(args)
            .current_dir(&dir)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let one = sweep(&["--lanes", "1"]);
    assert!(String::from_utf8_lossy(&one).contains("first-order resonance"));
    assert_eq!(one, sweep(&["--lanes", "3"]));
    assert_eq!(one, sweep(&["--lanes", "8"]));

    let interrupted = sweep(&[
        "--lanes",
        "3",
        "--checkpoint",
        "ck.jsonl",
        "--step-limit",
        "13",
    ]);
    assert!(
        interrupted.is_empty(),
        "an interrupted sweep prints no table"
    );
    let resumed = sweep(&["--lanes", "8", "--resume", "ck.jsonl"]);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(one, resumed);
}

/// A `record:` run writes the live run's waveform trace: the capture
/// handle behind each recorded call shares the caller's wave sink.
#[test]
fn recorded_sweep_writes_the_live_vcd() {
    let dir = std::env::temp_dir().join(format!("emvolt_cli_record_vcd_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sweep = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_emvolt"))
            .args(["sweep", "--platform", "a53"])
            .args(args)
            .current_dir(&dir)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let live = sweep(&["--trace-vcd", "live.vcd"]);
    let recorded = sweep(&["--backend", "record:trace.jsonl", "--trace-vcd", "rec.vcd"]);
    let live_vcd = std::fs::read(dir.join("live.vcd")).unwrap();
    let recorded_vcd = std::fs::read(dir.join("rec.vcd")).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(live, recorded);
    assert!(live_vcd.len() > 1000, "the live sweep traces its waveforms");
    assert!(
        live_vcd == recorded_vcd,
        "the recorded VCD differs from the live one"
    );
}
