//! Telemetry acceptance tests: a seeded campaign produces a parseable
//! JSONL trace with events from every instrumented layer, and two
//! identical campaigns produce byte-identical traces — at any thread
//! count.

use emvolt_backend::LiveBackend;
use emvolt_core::{generate_em_virus_on, VirusGenConfig};
use emvolt_cpu::CoreModel;
use emvolt_ga::GaConfig;
use emvolt_obs::{Event, EventKind, JsonlRecorder, Layer, Telemetry};
use emvolt_platform::{a72_pdn, EmBench, VoltageDomain};
use parking_lot::Mutex;
use std::io::{self, Write};
use std::sync::Arc;

#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn a72() -> VoltageDomain {
    VoltageDomain::new("A72", CoreModel::cortex_a72(), a72_pdn(), 1.2e9)
}

fn campaign_config(telemetry: Telemetry, threads: usize, lanes: usize) -> VirusGenConfig {
    VirusGenConfig {
        ga: GaConfig {
            population: 6,
            generations: 4,
            ..GaConfig::default()
        },
        kernel_len: 16,
        samples_per_individual: 3,
        threads,
        lanes,
        cache_fitness: true,
        telemetry,
        ..VirusGenConfig::default()
    }
}

/// Runs one seeded campaign and returns the raw trace bytes.
fn traced_campaign(threads: usize) -> Vec<u8> {
    traced_campaign_with_lanes(threads, 0)
}

fn traced_campaign_with_lanes(threads: usize, lanes: usize) -> Vec<u8> {
    let buf = Arc::new(Mutex::new(Vec::new()));
    let tel = Telemetry::new(Arc::new(JsonlRecorder::new(SharedBuf(buf.clone()))));
    let cfg = campaign_config(tel, threads, lanes);
    let mut live = LiveBackend::single(a72(), EmBench::new(11), cfg.run.clone());
    generate_em_virus_on("det-test", &mut live, "A72", &cfg, |_| {}).unwrap();
    let bytes = buf.lock().clone();
    bytes
}

/// Drops the `batch_lanes` / `batch_lane_occupancy` counter events — the
/// only trace content that is *allowed* to vary with the lane width.
fn without_lane_counters(bytes: &[u8]) -> String {
    String::from_utf8(bytes.to_vec())
        .unwrap()
        .lines()
        .filter(|line| {
            !line.contains("\"batch_lanes\"") && !line.contains("\"batch_lane_occupancy\"")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn seeded_campaign_trace_covers_all_layers_and_kinds() {
    let bytes = traced_campaign(1);
    let text = String::from_utf8(bytes).unwrap();
    assert!(!text.is_empty(), "campaign emitted no telemetry");

    let events: Vec<Event> = text
        .lines()
        .map(|l| {
            let e: Event = serde_json::from_str(l)
                .unwrap_or_else(|err| panic!("unparseable line {l:?}: {err:?}"));
            e.validate()
                .unwrap_or_else(|err| panic!("invalid {l:?}: {err}"));
            e
        })
        .collect();

    for layer in [
        Layer::Circuit,
        Layer::Dsp,
        Layer::Platform,
        Layer::Core,
        Layer::Ga,
    ] {
        assert!(
            events.iter().any(|e| e.layer == layer),
            "no event from layer {layer}"
        );
    }
    for kind in EventKind::ALL {
        assert!(
            events.iter().any(|e| e.kind == kind),
            "no event of kind {kind:?}"
        );
    }
    // The DSP span is "goertzel": every in-band measurement takes the
    // band path (only displayed spectra run the FFT and emit "fft").
    for span in [
        "transient_solve",
        "goertzel",
        "measure",
        "eval",
        "generation",
        "campaign",
    ] {
        assert!(
            events
                .iter()
                .any(|e| e.kind == EventKind::Span && e.name == span),
            "missing span {span:?}"
        );
    }
    // Deterministic traces carry no wall-clock stamps.
    assert!(events.iter().all(|e| e.wall_s.is_none()));
}

#[test]
fn identical_seeded_campaigns_trace_byte_identical() {
    let a = traced_campaign(1);
    let b = traced_campaign(1);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same-seed campaigns must trace identically");
}

#[test]
fn trace_is_independent_of_thread_count() {
    let serial = traced_campaign(1);
    let threaded = traced_campaign(4);
    assert_eq!(
        serial, threaded,
        "thread count must not leak into the trace"
    );
}

/// The lane width may only surface in the two lane-bookkeeping counters.
/// After dropping those, traces are identical across lane widths; at a
/// fixed lane width they are byte-identical across thread counts with
/// the lane counters included.
#[test]
fn trace_is_independent_of_lane_width_modulo_lane_counters() {
    let reference = traced_campaign_with_lanes(1, 1);
    assert!(
        String::from_utf8(reference.clone())
            .unwrap()
            .contains("\"batch_lanes\""),
        "lane campaigns must emit the batch_lanes counter"
    );
    for lanes in [3, 8] {
        let trace = traced_campaign_with_lanes(1, lanes);
        assert_eq!(
            without_lane_counters(&trace),
            without_lane_counters(&reference),
            "lanes {lanes}: only lane counters may differ from lanes=1"
        );
        let threaded = traced_campaign_with_lanes(4, lanes);
        assert_eq!(
            trace, threaded,
            "lanes {lanes}: thread count must not leak into the trace"
        );
    }
}
