//! One mutation harness for every reader of the shared JSONL codec
//! (`emvolt_obs::snap`): campaign checkpoints (virus, sweep, V_MIN, and
//! replayed sweep and virus campaigns) and a recorded trace, truncated,
//! byte-flipped, spliced with a line of another file or fed a hostile
//! number, must come back `Ok` or as a typed error within a fixed time:
//! never a panic, never a hang.
//!
//! A checkpoint goes to `Checkpoint::from_lines` and then to its
//! campaign's resume entry point, limited to one step past the
//! checkpoint (or, for a step count at the top of its range, not
//! limited at all); a trace goes to `ReplayBackend::open`.

use emvolt::backend::ReplayBackend;
use emvolt::core::{fast_resonance_sweep_resumable, generate_em_virus_resumable};
use emvolt::engine::{Checkpoint, DriveOptions};
use emvolt::isa::kernels::resonant_stress_kernel;
use emvolt::obs::Telemetry;
use emvolt::platform::DomainError;
use emvolt::prelude::*;
use emvolt::vmin::vmin_test_resumable;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, OnceLock};
use std::time::Duration;

/// Longest a reader may take on one mutated file (a debug build resuming
/// one GA generation takes well under a second).
const CASE_BOUND: Duration = Duration::from_secs(60);

/// Numbers no well-formed file holds where they land.
const HOSTILE: [&str; 9] = [
    "NaN",
    "1e400",
    "-1",
    "18446744073709551616",
    "18446744073709551615",
    "ffffffffffffffff",
    NAN_BITS,
    NEG_INF_BITS,
    NEG_TWO_BITS,
];

/// The bits of NaN, -inf and -2.0: no analyzer time a rig can restore.
const NAN_BITS: &str = "7ff8000000000000";
const NEG_INF_BITS: &str = "fff0000000000000";
const NEG_TWO_BITS: &str = "c000000000000000";

/// Which reader takes an input, and how it resumes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Reader {
    Virus,
    Sweep,
    Vmin,
    ReplaySweep,
    ReplayVirus,
    Trace,
}

struct Fixtures {
    dir: PathBuf,
    inputs: Vec<(Reader, Vec<u8>)>,
}

fn a72() -> VoltageDomain {
    VoltageDomain::new("A72", CoreModel::cortex_a72(), a72_pdn(), 1.2e9)
}

/// Five samples per individual, as the champion re-measures take: the
/// final re-measure of the best kernel repeats a champion's `rig` key,
/// so a replay cursor past the champions holds a `served:` count.
fn virus_config() -> VirusGenConfig {
    VirusGenConfig {
        ga: GaConfig {
            population: 4,
            generations: 2,
            seed: 9,
            ..GaConfig::default()
        },
        kernel_len: 8,
        samples_per_individual: 5,
        ..VirusGenConfig::default()
    }
}

fn sweep_config() -> FastSweepConfig {
    let mut cfg = FastSweepConfig::for_domain(&a72());
    cfg.cpu_freqs_hz.truncate(20);
    cfg
}

fn vmin_config() -> VminConfig {
    VminConfig {
        trials: 3,
        golden_iterations: 40,
        ..VminConfig::default()
    }
}

fn backend(spec: &str) -> Box<dyn MeasurementBackend> {
    let spec: BackendSpec = spec.parse().unwrap();
    spec.build(vec![a72()], EmBench::new(9), virus_config().run)
        .unwrap()
}

fn run_virus(spec: &str, opts: &DriveOptions) -> Result<bool, DomainError> {
    let mut be = backend(spec);
    generate_em_virus_resumable("readers", &mut *be, "A72", &virus_config(), opts, |_| {})
        .map(|v| v.is_some())
}

fn run_sweep(spec: &str, opts: &DriveOptions) -> Result<bool, DomainError> {
    let mut be = backend(spec);
    fast_resonance_sweep_resumable(&mut *be, "A72", &sweep_config(), opts).map(|r| r.is_some())
}

fn run_vmin(opts: &DriveOptions) -> Result<bool, DomainError> {
    let kernel = resonant_stress_kernel(Isa::ArmV8, 12, 17);
    let model = FailureModel::juno_a72();
    vmin_test_resumable(
        &a72(),
        &kernel,
        &model,
        &vmin_config(),
        Telemetry::noop(),
        opts,
    )
    .map(|r| r.is_some())
}

fn interrupted_at(limit: u64, lanes: usize, path: &Path) -> DriveOptions {
    DriveOptions {
        lanes,
        checkpoint: Some(path.to_path_buf()),
        checkpoint_every: 1,
        max_batches: Some(limit),
        ..DriveOptions::default()
    }
}

/// Records the campaigns and takes their checkpoints, once per process.
fn fixtures() -> &'static Fixtures {
    static FIXTURES: OnceLock<Fixtures> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("readers");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let file = |name: &str| dir.join(name);
        let read = |name: &str| std::fs::read(dir.join(name)).unwrap();
        let record = |name: &str| format!("record:{}", file(name).display());
        let replay = |name: &str| format!("replay:{}", file(name).display());

        assert!(run_virus(&record("virus.trace"), &DriveOptions::default()).unwrap());
        assert!(!run_virus("live", &interrupted_at(1, 0, &file("virus.ck"))).unwrap());
        assert!(run_sweep(&record("sweep.trace"), &DriveOptions::default()).unwrap());
        assert!(!run_sweep("live", &interrupted_at(13, 3, &file("sweep.ck"))).unwrap());
        assert!(!run_vmin(&interrupted_at(3, 0, &file("vmin.ck"))).unwrap());
        let replay_sweep = interrupted_at(13, 3, &file("replay_sweep.ck"));
        assert!(!run_sweep(&replay("sweep.trace"), &replay_sweep).unwrap());
        // The first interrupt after a champion re-measure that the final
        // re-measure repeats.
        let served = (3..8).find(|&limit| {
            let opts = interrupted_at(limit, 0, &file("replay_virus.ck"));
            !run_virus(&replay("virus.trace"), &opts).unwrap()
                && String::from_utf8(read("replay_virus.ck"))
                    .unwrap()
                    .contains("served:")
        });
        assert!(served.is_some(), "no replay cursor holds a served count");

        let inputs = vec![
            (Reader::Virus, read("virus.ck")),
            (Reader::Sweep, read("sweep.ck")),
            (Reader::Vmin, read("vmin.ck")),
            (Reader::ReplaySweep, read("replay_sweep.ck")),
            (Reader::ReplayVirus, read("replay_virus.ck")),
            (Reader::Trace, read("virus.trace")),
        ];
        Fixtures { dir, inputs }
    })
}

/// Feeds `bytes` to `reader`. Any `Ok` or typed error is an answer.
fn feed(reader: Reader, path: &Path, bytes: &[u8]) -> Result<bool, DomainError> {
    let fx = fixtures();
    if reader == Reader::Trace {
        return ReplayBackend::open(path)
            .map(|_| true)
            .map_err(|e| DomainError::Backend(e.to_string()));
    }
    let batches = std::str::from_utf8(bytes)
        .map_err(|e| e.to_string())
        .and_then(Checkpoint::from_lines)
        .map_or(0, |cp| cp.batches);
    let opts = DriveOptions {
        resume: Some(path.to_path_buf()),
        max_batches: Some(batches.saturating_add(1)),
        ..DriveOptions::default()
    };
    let replay = |name: &str| format!("replay:{}", fx.dir.join(name).display());
    match reader {
        Reader::Virus => run_virus("live", &opts),
        Reader::Sweep => run_sweep("live", &opts),
        Reader::Vmin => run_vmin(&opts),
        Reader::ReplaySweep => run_sweep(&replay("sweep.trace"), &opts),
        Reader::ReplayVirus => run_virus(&replay("virus.trace"), &opts),
        Reader::Trace => unreachable!("handled above"),
    }
}

/// Runs one mutated input on its own thread and returns its answer;
/// fails on a panic or on no answer within [`CASE_BOUND`].
fn check(reader: Reader, bytes: Vec<u8>, what: &str) -> Result<bool, DomainError> {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let path = fixtures().dir.join(format!("case_{n}.jsonl"));
    std::fs::write(&path, &bytes).unwrap();
    let (tx, rx) = mpsc::channel();
    let case_path = path.clone();
    let reader_thread = std::thread::spawn(move || {
        let _ = tx.send(feed(reader, &case_path, &bytes));
    });
    // A reader that never answers is left running: joining it would hang
    // the test, and the process ends with the test binary.
    let answer = rx.recv_timeout(CASE_BOUND);
    if let Err(mpsc::RecvTimeoutError::Timeout) = answer {
        panic!("{reader:?} {what}: no answer within {CASE_BOUND:?}");
    }
    if reader_thread.join().is_err() {
        panic!("{reader:?} {what}: the reader panicked");
    }
    std::fs::remove_file(&path).unwrap();
    answer.expect("a reader that did not panic answered")
}

/// Byte ranges of the numeric and hex tokens of `text`: maximal runs of
/// alphanumerics, `.`, `+` and `-` that are all hex digits or parse as a
/// number.
fn tokens(text: &[u8]) -> Vec<std::ops::Range<usize>> {
    let part = |b: &u8| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'+' | b'-');
    let mut out = Vec::new();
    let mut i = 0;
    while i < text.len() {
        let len = text[i..].iter().take_while(|b| part(b)).count();
        if len == 0 {
            i += 1;
            continue;
        }
        let run = &text[i..i + len];
        let numeric = std::str::from_utf8(run).is_ok_and(|s| s.parse::<f64>().is_ok());
        if run.iter().all(u8::is_ascii_hexdigit) || numeric {
            out.push(i..i + len);
        }
        i += len;
    }
    out
}

fn replace(text: &[u8], range: std::ops::Range<usize>, with: &str) -> Vec<u8> {
    [&text[..range.start], with.as_bytes(), &text[range.end..]].concat()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(36))]

    #[test]
    fn mutated_files_get_an_answer(
        input in 0usize..6,
        kind in 0u8..4,
        at in any::<u64>(),
        mask in 1u8..=255,
        other in any::<u64>(),
    ) {
        let fx = fixtures();
        let (reader, text) = &fx.inputs[input];
        let pick = |n: usize| (at % n.max(1) as u64) as usize;
        let (what, mutated) = match kind {
            0 => ("truncation", text[..pick(text.len())].to_vec()),
            1 => {
                let mut bytes = text.clone();
                bytes[pick(text.len())] ^= mask;
                ("byte flip", bytes)
            }
            2 => {
                let donor = &fx.inputs[(other % 6) as usize].1;
                let donor: Vec<&[u8]> = donor.split(|&b| b == b'\n').collect();
                let mut lines: Vec<&[u8]> = text.split(|&b| b == b'\n').collect();
                let slot = pick(lines.len());
                lines[slot] = donor[(other >> 8) as usize % donor.len()];
                ("spliced line", lines.join(&b'\n'))
            }
            _ => {
                let spans = tokens(text);
                let with = HOSTILE[(other % HOSTILE.len() as u64) as usize];
                ("hostile token", replace(text, spans[pick(spans.len())].clone(), with))
            }
        };
        let _ = check(*reader, mutated, what);
    }
}

/// Every number and bit string of a rig line — the live analyzer's RNG
/// words and time, the replay cursors' `served:` counts and time —
/// replaced by every hostile number: the readers resume at once or
/// refuse, and a live analyzer time of NaN, -inf or -2 s is refused as a
/// checkpoint error.
#[test]
fn hostile_replay_cursors_get_an_answer() {
    let fx = fixtures();
    let mut refused_times = 0;
    for (reader, text) in &fx.inputs {
        if matches!(reader, Reader::Vmin | Reader::Trace) {
            continue;
        }
        let live = matches!(reader, Reader::Virus | Reader::Sweep);
        let text_str = String::from_utf8_lossy(text);
        let rig = text_str.find("{\"k\":\"rig\"").expect("a rig line");
        let rig = rig..rig + text_str[rig..].find('\n').expect("a line after the rig");
        let elapsed = text_str[rig.clone()]
            .find("[\"elapsed\",\"")
            .map(|at| rig.start + at + "[\"elapsed\",\"".len());
        assert!(elapsed.is_some(), "{reader:?}: no analyzer time");
        for span in tokens(text).into_iter().filter(|s| rig.contains(&s.start)) {
            for with in HOSTILE {
                let what = format!("rig token {span:?} -> {with}");
                let answer = check(*reader, replace(text, span.clone(), with), &what);
                let unreachable_time = [NAN_BITS, NEG_INF_BITS, NEG_TWO_BITS].contains(&with);
                if live && unreachable_time && Some(span.start) == elapsed {
                    assert!(
                        matches!(answer, Err(DomainError::Checkpoint(_))),
                        "{reader:?} {what}: {answer:?}"
                    );
                    refused_times += 1;
                }
            }
        }
    }
    // Three times each for the live virus and the live sweep.
    assert_eq!(refused_times, 6);
}

/// A live checkpoint whose step count is `u64::MAX`, resumed with no step
/// limit: the next step cannot be counted, which is a checkpoint error —
/// not an overflow panic, and not a count wrapped to zero.
#[test]
fn a_step_count_at_the_top_is_a_checkpoint_error() {
    let fx = fixtures();
    for (reader, text) in &fx.inputs {
        let run: fn(&str, &DriveOptions) -> Result<bool, DomainError> = match reader {
            Reader::Virus => run_virus,
            Reader::Sweep => run_sweep,
            _ => continue,
        };
        let text = String::from_utf8_lossy(text);
        let field = "\"batches\":\"";
        let at = text.find(field).expect("a step count") + field.len();
        let top = format!("{}ffffffffffffffff{}", &text[..at], &text[at + 16..]);
        let path = fx.dir.join(format!("top_{reader:?}.jsonl"));
        std::fs::write(&path, top).unwrap();
        let opts = DriveOptions {
            resume: Some(path),
            ..DriveOptions::default()
        };
        let answer = run("live", &opts);
        assert!(
            matches!(answer, Err(DomainError::Checkpoint(_))),
            "{reader:?}: {answer:?}"
        );
    }
}

/// The retired `cached` flag of a recorded observation and of a virus
/// checkpoint's final observation is still written, always `false`; a
/// `true` is refused with a typed error naming the field, while the same
/// file with `false` is accepted.
#[test]
fn a_cached_observation_is_a_typed_error() {
    let fx = fixtures();
    let text = |reader| {
        let (_, bytes) = fx.inputs.iter().find(|(r, _)| *r == reader).unwrap();
        String::from_utf8(bytes.clone()).unwrap()
    };
    let refused = |answer: Result<bool, DomainError>, what: &str| match answer {
        Err(e) => assert!(e.to_string().contains("`cached`"), "{what}: {e}"),
        Ok(_) => panic!("{what}: a cached observation was accepted"),
    };

    let trace = text(Reader::Trace);
    assert!(trace.contains("\"cached\":false"));
    let cached_trace = trace.replacen("\"cached\":false", "\"cached\":true", 1);
    refused(
        check(
            Reader::Trace,
            cached_trace.into_bytes(),
            "cached trace entry",
        ),
        "trace entry",
    );

    let checkpoint = text(Reader::Virus);
    assert!(checkpoint.contains("\"final\":null"));
    let with_final = |cached: bool| {
        let hex = |v: f64| format!("\"{:016x}\"", v.to_bits());
        let fields = [
            ("metric_dbm", -40.0),
            ("dominant_hz", 7.2e7),
            ("loop_hz", 7.2e7),
            ("ipc", 1.5),
            ("droop_v", 0.04),
            ("p2p_v", 0.08),
            ("band_lo", 5e7),
            ("band_hi", 2e8),
        ]
        .map(|(key, v)| format!("\"{key}\":{}", hex(v)))
        .join(",");
        let obs = format!("{{{fields},\"cached\":{cached}}}");
        checkpoint
            .replacen("\"final\":null", &format!("\"final\":{obs}"), 1)
            .into_bytes()
    };
    assert!(check(Reader::Virus, with_final(false), "final observation").is_ok());
    refused(
        check(Reader::Virus, with_final(true), "cached final observation"),
        "checkpoint final observation",
    );
}
