//! Campaign telemetry: deterministic spans, counters and JSONL traces.
//!
//! The measurement chain simulates multi-hour physical campaigns (§5.1,
//! §5.3 of the paper), and this crate is how those campaigns stop running
//! dark. It is deliberately dependency-free beyond the vendored offline
//! subsets: counters are plain atomics, histograms sit behind
//! `parking_lot` mutexes, and the sink renders through the vendored
//! `serde_json`.
//!
//! Three pieces:
//!
//! - [`Recorder`]: the sink trait. [`NoopRecorder`] is the zero-cost
//!   default; [`JsonlRecorder`] writes one [`Event`] per line.
//! - [`Telemetry`]: the cheap cloneable handle threaded through the
//!   measurement chain. Counters accumulate from any thread; span and
//!   histogram *emission* happens only from single-threaded coordinator
//!   contexts so traces are byte-identical regardless of worker count
//!   (see [`Telemetry::quiet`]).
//! - [`CampaignSummary`]: end-of-run aggregation (counter totals +
//!   histogram percentiles) appended to `results/`.
//!
//! A fourth piece records *waveforms* rather than events: [`WaveSink`] /
//! [`WaveDb`] capture timed hierarchical signals (per-cycle core
//! current, die voltage, instrument readings) behind the same zero-cost
//! noop discipline and dump VCD or a compact binary.
//!
//! [`snap`] is the bit-exact codec behind every JSONL line emvolt
//! writes and later reads back (record traces, checkpoints, rig state).
//!
//! Timestamps come from the simulated campaign clock (`emvolt-platform`'s
//! `SimClock`, propagated via [`Telemetry::set_sim_time`]); an optional
//! caller-injected wall-clock closure adds a `wall` field when real-time
//! latencies are wanted. The deterministic path never reads the host
//! clock.

#![forbid(unsafe_code)]

mod event;
mod metrics;
mod recorder;
pub mod snap;
mod summary;
mod telemetry;
mod wavetrace;

pub use event::{Event, EventKind, Layer};
pub use metrics::{CounterId, HistId, HistSummary};
pub use recorder::{JsonlRecorder, NoopRecorder, Recorder};
pub use summary::{CampaignSummary, CounterTotal, HistTotal};
pub use telemetry::Telemetry;
pub use wavetrace::{
    read_rtt, validate_vcd_text, NoopWaveSink, RttDump, VcdCheck, WaveDb, WaveId, WaveKind,
    WaveSink,
};
