//! Replay backend: serve a recorded campaign without the circuit solver.
//!
//! This module deliberately imports nothing from the simulation chain —
//! no domains, no runners, no PDN, no transient solver. Every answer
//! comes from the JSONL trace a [`RecordBackend`](crate::RecordBackend)
//! wrote: the observation (bit-exact, hex-encoded floats), the counter
//! deltas, histogram values and telemetry events the live call charged.
//! Replaying a recorded campaign therefore reproduces its outputs and
//! telemetry byte-for-byte at a fraction of the cost.
//!
//! Entries are keyed by request. Seeded requests are order-independent;
//! unseeded (`rig`) requests replay in recording order per key, which
//! reproduces the stateful analyzer-RNG sequence of the serial path.

use crate::request::{CombinedSource, DomainInfo, EmObservation, MeasureRequest};
use crate::trace::{combined_key, request_key, TraceHeader, TraceLine, TracePayload};
use crate::{fingerprint::run_config_fingerprint, BackendError, MeasurementBackend};
use emvolt_inst::SweepReading;
use emvolt_obs::snap::{parse_bits, Bits};
use emvolt_obs::{CounterId, Event, HistId, Telemetry};
use emvolt_platform::{RunConfig, SessionCosts};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// One stored call, reduced to what replay serves.
#[derive(Debug, Clone)]
struct StoredCall {
    payload: TracePayload,
    counters: Vec<(CounterId, u64)>,
    hists: Vec<(HistId, Vec<f64>)>,
    events: Vec<Event>,
    elapsed_s: f64,
}

/// [`MeasurementBackend`] serving a recorded trace.
#[derive(Debug)]
pub struct ReplayBackend {
    header: TraceHeader,
    entries: Mutex<HashMap<String, VecDeque<StoredCall>>>,
    /// Calls actually popped per key (the keep-last clone rule means a key
    /// can serve more often than it was recorded without popping). This is
    /// the replay cursor a campaign checkpoint must restore so in-order
    /// `rig` streams resume where they left off.
    served: Mutex<HashMap<String, u64>>,
    elapsed: Mutex<f64>,
    cfg_fp: AtomicU64,
}

impl ReplayBackend {
    /// Loads a trace written by [`RecordBackend`](crate::RecordBackend).
    ///
    /// # Errors
    ///
    /// [`BackendError::Store`] on I/O failure, a missing or
    /// wrong-version header, or a malformed line.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, BackendError> {
        let path = path.as_ref();
        let file = File::open(path)
            .map_err(|e| BackendError::Store(format!("open {}: {e}", path.display())))?;
        let mut header = None;
        let mut entries: HashMap<String, VecDeque<StoredCall>> = HashMap::new();
        for (lineno, line) in BufReader::new(file).lines().enumerate() {
            let line =
                line.map_err(|e| BackendError::Store(format!("read line {}: {e}", lineno + 1)))?;
            if line.trim().is_empty() {
                continue;
            }
            let parsed = TraceLine::parse(&line)
                .map_err(|e| BackendError::Store(format!("line {}: {e}", lineno + 1)))?;
            match parsed {
                TraceLine::Header(h) => {
                    if header.replace(h).is_some() {
                        return Err(BackendError::Store(format!(
                            "line {}: duplicate header",
                            lineno + 1
                        )));
                    }
                }
                TraceLine::Entry(e) => {
                    if header.is_none() {
                        return Err(BackendError::Store("trace entry before header".to_string()));
                    }
                    entries
                        .entry(e.key.clone())
                        .or_default()
                        .push_back(StoredCall {
                            payload: e.payload,
                            counters: e.counters,
                            hists: e.hists,
                            events: e.events,
                            elapsed_s: e.elapsed_s,
                        });
                }
            }
        }
        let header =
            header.ok_or_else(|| BackendError::Store("trace has no header line".to_string()))?;
        Ok(ReplayBackend {
            header,
            entries: Mutex::new(entries),
            served: Mutex::new(HashMap::new()),
            elapsed: Mutex::new(0.0),
            cfg_fp: AtomicU64::new(0),
        })
    }

    /// Total recorded calls available for lookup.
    pub fn len(&self) -> usize {
        self.entries.lock().values().map(VecDeque::len).sum()
    }

    /// Whether the trace holds no calls.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pops the next stored call for `key`, keeping a clone of the final
    /// one so a key can be served more often than it was recorded (the
    /// last call's result repeats — matching how a seeded measurement is
    /// a pure function of its key).
    fn serve(&self, key: &str, tel: &Telemetry) -> Result<StoredCall, BackendError> {
        let call = {
            let mut entries = self.entries.lock();
            let queue = entries
                .get_mut(key)
                .ok_or_else(|| BackendError::MissingRecording(key.to_string()))?;
            if queue.len() == 1 {
                queue.front().cloned().expect("len checked above")
            } else {
                *self.served.lock().entry(key.to_string()).or_insert(0) += 1;
                queue.pop_front().expect("len checked above")
            }
        };
        for &(id, n) in &call.counters {
            tel.count(id, n);
        }
        for (id, vs) in &call.hists {
            for &v in vs {
                tel.record_value(*id, v);
            }
        }
        for event in &call.events {
            tel.emit_event(event);
        }
        *self.elapsed.lock() += call.elapsed_s;
        Ok(call)
    }

    fn observation_of(call: StoredCall, key: &str) -> Result<EmObservation, BackendError> {
        match call.payload {
            TracePayload::Observation(obs) => Ok(obs),
            TracePayload::Failed(err) => Err(BackendError::RecordedFailure(err)),
            TracePayload::Points(_) => Err(BackendError::Store(format!(
                "entry `{key}` is a combined capture, not a measurement"
            ))),
        }
    }
}

impl MeasurementBackend for ReplayBackend {
    fn label(&self) -> &'static str {
        "replay"
    }

    fn domains(&self) -> Vec<DomainInfo> {
        self.header.domains.clone()
    }

    fn configure_run(&mut self, config: &RunConfig) -> Result<(), BackendError> {
        self.cfg_fp
            .store(run_config_fingerprint(config), Ordering::Relaxed);
        Ok(())
    }

    fn measure(
        &self,
        req: &MeasureRequest<'_>,
        telemetry: &Telemetry,
    ) -> Result<EmObservation, BackendError> {
        if req.seed.is_none() {
            return Err(BackendError::SeedRequired);
        }
        let key = request_key(req, self.cfg_fp.load(Ordering::Relaxed));
        let call = self.serve(&key, telemetry)?;
        Self::observation_of(call, &key)
    }

    fn measure_serial(
        &mut self,
        req: &MeasureRequest<'_>,
        telemetry: &Telemetry,
    ) -> Result<EmObservation, BackendError> {
        let key = request_key(req, self.cfg_fp.load(Ordering::Relaxed));
        let call = self.serve(&key, telemetry)?;
        Self::observation_of(call, &key)
    }

    fn capture_combined(
        &mut self,
        sources: &[CombinedSource<'_>],
        seed: u64,
        telemetry: &Telemetry,
    ) -> Result<SweepReading, BackendError> {
        let key = combined_key(sources, seed, self.cfg_fp.load(Ordering::Relaxed));
        let call = self.serve(&key, telemetry)?;
        match call.payload {
            TracePayload::Points(points) => Ok(SweepReading { points }),
            TracePayload::Failed(err) => Err(BackendError::RecordedFailure(err)),
            TracePayload::Observation(_) => Err(BackendError::Store(format!(
                "entry `{key}` is a measurement, not a combined capture"
            ))),
        }
    }

    fn elapsed_seconds(&self) -> f64 {
        *self.elapsed.lock()
    }

    fn costs(&self) -> SessionCosts {
        self.header.costs
    }

    fn rig_state(&self) -> Vec<(String, String)> {
        let served = self.served.lock();
        let mut keys: Vec<_> = served.iter().collect();
        keys.sort();
        let mut state: Vec<(String, String)> = keys
            .into_iter()
            .map(|(k, n)| (format!("served:{k}"), n.to_string()))
            .collect();
        state.push((
            "elapsed".to_string(),
            Bits(self.elapsed.lock().to_bits()).to_string(),
        ));
        state
    }

    fn restore_rig_state(&mut self, state: &[(String, String)]) -> Result<(), BackendError> {
        for (key, value) in state {
            if let Some(entry_key) = key.strip_prefix("served:") {
                let n: u64 = value.parse().map_err(|e| {
                    BackendError::Store(format!(
                        "bad served count `{value}` for `{entry_key}`: {e}"
                    ))
                })?;
                let mut entries = self.entries.lock();
                let queue = entries
                    .get_mut(entry_key)
                    .ok_or_else(|| BackendError::MissingRecording(entry_key.to_string()))?;
                // Keep the last call, as `serve` does. The count comes from
                // the file, so it is capped, never iterated.
                let pops = n.min(queue.len() as u64 - 1) as usize;
                queue.drain(..pops);
                *self.served.lock().entry(entry_key.to_string()).or_insert(0) = n;
            } else if key == "elapsed" {
                let bits = parse_bits(value)
                    .map_err(|e| BackendError::Store(format!("bad elapsed bits: {e}")))?;
                *self.elapsed.lock() = f64::from_bits(bits);
            } else {
                return Err(BackendError::Store(format!(
                    "replay backend knows no rig-state key `{key}`"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEntry;
    use std::time::{Duration, Instant};

    /// A replay of one `rig` key recorded three times, the calls told
    /// apart by their analyzer time.
    fn three_calls_of_one_key(tag: &str) -> ReplayBackend {
        let header = TraceHeader {
            backend: "live".to_string(),
            costs: SessionCosts::default(),
            domains: Vec::new(),
        };
        let mut text = header.to_line() + "\n";
        for elapsed_s in [1.0, 2.0, 3.0] {
            let entry = TraceEntry {
                key: "k".to_string(),
                payload: TracePayload::Failed("recorded".to_string()),
                counters: Vec::new(),
                hists: Vec::new(),
                events: Vec::new(),
                elapsed_s,
            };
            text += &(entry.to_line() + "\n");
        }
        let path =
            std::env::temp_dir().join(format!("emvolt_replay_{tag}_{}.jsonl", std::process::id()));
        std::fs::write(&path, text).unwrap();
        let backend = ReplayBackend::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        backend
    }

    /// The calls left to serve after restoring `served:k` = `n`.
    fn cursor_after(n: &str, tag: &str) -> Vec<f64> {
        let mut backend = three_calls_of_one_key(tag);
        backend
            .restore_rig_state(&[("served:k".to_string(), n.to_string())])
            .unwrap();
        let entries = backend.entries.lock();
        entries["k"].iter().map(|call| call.elapsed_s).collect()
    }

    /// The served count comes from a checkpoint file: a hand-edited count
    /// near `u64::MAX` restores at once, to the cursor of the largest
    /// count that still keeps the last call.
    #[test]
    fn a_huge_served_count_restores_at_once() {
        let start = Instant::now();
        let capped = cursor_after("18446744073709551615", "served_max");
        assert!(start.elapsed() < Duration::from_secs(5));
        assert_eq!(capped, cursor_after("2", "served_two"));
        assert_eq!(capped, [3.0]);
        assert_eq!(cursor_after("1", "served_one"), [2.0, 3.0]);
    }
}
