//! Recording wrapper: measure live, persist every call to a JSONL trace.
//!
//! Each backend call runs against a fresh *capture* [`Telemetry`] handle,
//! so the call's counter deltas, histogram values and events are known
//! exactly even when worker threads interleave. Everything captured is
//! (a) forwarded to the caller's handle — quiet worker handles drop the
//! events, full handles emit them, exactly as the live path would — and
//! (b) stored in the trace entry, so replay can forward the identical
//! emissions later. Waveform samples skip the capture: the handle writes
//! them straight to the caller's wave sink, so a recorded run's VCD is
//! the live run's. The trace stores no waves, so a replay writes none.
//!
//! Parallel `measure` calls append entries in completion order, so two
//! recordings of one campaign at different thread counts may order lines
//! differently; replay keys entries by request, not by line number, and
//! only same-key (serial `rig`) entries rely on relative order — those
//! are written from the coordinator thread, in call order.

use crate::fingerprint::run_config_fingerprint;
use crate::request::{CombinedSource, DomainInfo, EmObservation, MeasureRequest};
use crate::trace::{combined_key, request_key, TraceEntry, TraceHeader, TracePayload};
use crate::{BackendError, MeasurementBackend, Served};
use emvolt_inst::SweepReading;
use emvolt_obs::{CounterId, Event, HistId, Recorder, Telemetry};
use emvolt_platform::{RunConfig, SessionCosts};
use parking_lot::Mutex;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::ops::ControlFlow;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// In-memory recorder behind the per-call capture handle.
#[derive(Debug, Default)]
struct CaptureRecorder {
    events: Mutex<Vec<Event>>,
}

impl Recorder for CaptureRecorder {
    fn is_enabled(&self) -> bool {
        true
    }

    fn record(&self, event: &Event) {
        self.events.lock().push(event.clone());
    }
}

/// What one inner call charged, observed through a capture handle.
struct Captured {
    counters: Vec<(CounterId, u64)>,
    hists: Vec<(HistId, Vec<f64>)>,
    events: Vec<Event>,
}

/// A capture handle plus how much of it has been taken, so one inner
/// call serving several requests can be split into per-request captures.
struct Capture {
    recorder: Arc<CaptureRecorder>,
    tel: Telemetry,
    counters_taken: [u64; CounterId::ALL.len()],
    hists_taken: [usize; HistId::ALL.len()],
}

impl Capture {
    /// A fresh capture handle stamping events at `tel`'s sim time and
    /// writing waveforms to `tel`'s wave sink, as the live call would.
    fn new(tel: &Telemetry) -> Self {
        let recorder = Arc::new(CaptureRecorder::default());
        let cap = tel.sharing_waves(recorder.clone());
        cap.set_sim_time(tel.sim_time());
        Capture {
            recorder,
            tel: cap,
            counters_taken: [0; CounterId::ALL.len()],
            hists_taken: [0; HistId::ALL.len()],
        }
    }

    /// Takes everything charged since the last take and forwards it to
    /// `tel`: counters, then histogram values, then events.
    fn take(&mut self, tel: &Telemetry) -> Captured {
        let cap = &self.tel;
        let counters: Vec<(CounterId, u64)> = CounterId::ALL
            .into_iter()
            .zip(&mut self.counters_taken)
            .filter_map(|(id, taken)| {
                let total = cap.counter(id);
                let n = total - std::mem::replace(taken, total);
                (n > 0).then_some((id, n))
            })
            .collect();
        let hists: Vec<(HistId, Vec<f64>)> = HistId::ALL
            .into_iter()
            .zip(&mut self.hists_taken)
            .filter_map(|(id, taken)| {
                let all = cap.hist_values(id);
                let vs = all[std::mem::replace(taken, all.len())..].to_vec();
                (!vs.is_empty()).then_some((id, vs))
            })
            .collect();
        let events = std::mem::take(&mut *self.recorder.events.lock());
        for &(id, n) in &counters {
            tel.count(id, n);
        }
        for (id, vs) in &hists {
            for &v in vs {
                tel.record_value(*id, v);
            }
        }
        for event in &events {
            tel.emit_event(event);
        }
        Captured {
            counters,
            hists,
            events,
        }
    }
}

/// Runs `f` against a fresh capture handle, forwards everything captured
/// to `tel`, and returns the capture for storage.
fn capture_call<T>(tel: &Telemetry, f: impl FnOnce(&Telemetry) -> T) -> (T, Captured) {
    let mut capture = Capture::new(tel);
    let out = f(&capture.tel);
    (out, capture.take(tel))
}

/// The trace file and the first write failure, shared by every call.
#[derive(Debug)]
struct TraceSink {
    writer: Mutex<BufWriter<File>>,
    write_error: Mutex<Option<String>>,
}

impl TraceSink {
    /// Appends one entry; failures are remembered and surfaced by
    /// [`MeasurementBackend::finish`] so the (possibly parallel) hot path
    /// never aborts mid-campaign on disk trouble.
    fn append(&self, key: String, payload: TracePayload, captured: Captured, elapsed_s: f64) {
        let entry = TraceEntry {
            key,
            payload,
            counters: captured.counters,
            hists: captured.hists,
            events: captured.events,
            elapsed_s,
        };
        if let Err(e) = writeln!(self.writer.lock(), "{}", entry.to_line()) {
            self.write_error
                .lock()
                .get_or_insert_with(|| format!("append entry: {e}"));
        }
    }
}

/// [`MeasurementBackend`] wrapper that persists every call of an inner
/// backend to a JSONL trace for later [`ReplayBackend`](crate::ReplayBackend) use.
#[derive(Debug)]
pub struct RecordBackend<B> {
    inner: B,
    sink: TraceSink,
    cfg_fp: AtomicU64,
}

impl<B: MeasurementBackend> RecordBackend<B> {
    /// Wraps `inner`, truncating/creating the trace at `path` and writing
    /// the header line (inner label, cost model, domain descriptions).
    ///
    /// # Errors
    ///
    /// [`BackendError::Store`] on file-creation or header-write failure.
    pub fn create(inner: B, path: impl AsRef<Path>) -> Result<Self, BackendError> {
        let path = path.as_ref();
        let file = File::create(path)
            .map_err(|e| BackendError::Store(format!("create {}: {e}", path.display())))?;
        let mut writer = BufWriter::new(file);
        let header = TraceHeader {
            backend: inner.label().to_string(),
            costs: inner.costs(),
            domains: inner.domains(),
        };
        writeln!(writer, "{}", header.to_line())
            .map_err(|e| BackendError::Store(format!("write header: {e}")))?;
        Ok(RecordBackend {
            inner,
            sink: TraceSink {
                writer: Mutex::new(writer),
                write_error: Mutex::new(None),
            },
            cfg_fp: AtomicU64::new(0),
        })
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Unwraps, dropping the trace writer (flushing it first).
    pub fn into_inner(self) -> B {
        let _ = self.sink.writer.lock().flush();
        self.inner
    }

    fn payload_of(result: &Result<EmObservation, BackendError>) -> TracePayload {
        match result {
            Ok(obs) => TracePayload::Observation(*obs),
            Err(e) => TracePayload::Failed(e.to_string()),
        }
    }

    /// Analyzer occupancy attributed to one parallel call: sweeps charged
    /// times the per-sample cost. Exact for the stock analyzer (0.6 s per
    /// sweep); an approximation if the cost model and analyzer sweep time
    /// are configured apart.
    fn elapsed_estimate(&self, captured: &Captured) -> f64 {
        let sweeps = captured
            .counters
            .iter()
            .find(|(id, _)| *id == CounterId::AnalyzerSweeps)
            .map_or(0, |&(_, n)| n);
        sweeps as f64 * self.inner.costs().sample_s
    }
}

impl<B: MeasurementBackend> MeasurementBackend for RecordBackend<B> {
    fn label(&self) -> &'static str {
        "record"
    }

    fn domains(&self) -> Vec<DomainInfo> {
        self.inner.domains()
    }

    fn configure_run(&mut self, config: &RunConfig) -> Result<(), BackendError> {
        self.cfg_fp
            .store(run_config_fingerprint(config), Ordering::Relaxed);
        self.inner.configure_run(config)
    }

    fn measure(
        &self,
        req: &MeasureRequest<'_>,
        telemetry: &Telemetry,
    ) -> Result<EmObservation, BackendError> {
        let key = request_key(req, self.cfg_fp.load(Ordering::Relaxed));
        let (result, captured) = capture_call(telemetry, |cap| self.inner.measure(req, cap));
        let elapsed = self.elapsed_estimate(&captured);
        self.sink
            .append(key, Self::payload_of(&result), captured, elapsed);
        result
    }

    /// A batch of one, so the slice form below is the only place serial
    /// entries are written.
    fn measure_serial(
        &mut self,
        req: &MeasureRequest<'_>,
        telemetry: &Telemetry,
    ) -> Result<EmObservation, BackendError> {
        let mut result = None;
        self.measure_serial_batch(std::slice::from_ref(req), telemetry, &mut |served| {
            result = Some(served.result);
            ControlFlow::Continue(())
        });
        result.expect("one result per request")
    }

    /// Serves the run through the inner backend's slice form and writes
    /// one entry per request as its result arrives, holding that
    /// request's own counters, histogram values, events and analyzer
    /// time — the same entries a loop of one-request calls writes.
    fn measure_serial_batch(
        &mut self,
        reqs: &[MeasureRequest<'_>],
        telemetry: &Telemetry,
        on_result: &mut dyn FnMut(Served) -> ControlFlow<()>,
    ) {
        let cfg_fp = self.cfg_fp.load(Ordering::Relaxed);
        let mut capture = Capture::new(telemetry);
        let mut before = self.inner.elapsed_seconds();
        let mut next = reqs.iter();
        let RecordBackend { inner, sink, .. } = self;
        let cap = capture.tel.clone();
        inner.measure_serial_batch(reqs, &cap, &mut |served| {
            let req = next.next().expect("one result per request");
            let captured = capture.take(telemetry);
            let elapsed = served.elapsed_s - before;
            before = served.elapsed_s;
            sink.append(
                request_key(req, cfg_fp),
                Self::payload_of(&served.result),
                captured,
                elapsed,
            );
            let flow = on_result(served);
            // The caller may have moved the campaign clock; the next
            // request's events are stamped with it.
            capture.tel.set_sim_time(telemetry.sim_time());
            flow
        });
    }

    fn capture_combined(
        &mut self,
        sources: &[CombinedSource<'_>],
        seed: u64,
        telemetry: &Telemetry,
    ) -> Result<SweepReading, BackendError> {
        let key = combined_key(sources, seed, self.cfg_fp.load(Ordering::Relaxed));
        let before = self.inner.elapsed_seconds();
        let (result, captured) = capture_call(telemetry, |cap| {
            self.inner.capture_combined(sources, seed, cap)
        });
        let elapsed = self.inner.elapsed_seconds() - before;
        let payload = match &result {
            Ok(reading) => TracePayload::Points(reading.points.clone()),
            Err(e) => TracePayload::Failed(e.to_string()),
        };
        self.sink.append(key, payload, captured, elapsed);
        result
    }

    fn elapsed_seconds(&self) -> f64 {
        self.inner.elapsed_seconds()
    }

    fn costs(&self) -> SessionCosts {
        self.inner.costs()
    }

    fn rig_state(&self) -> Vec<(String, String)> {
        self.inner.rig_state()
    }

    fn restore_rig_state(&mut self, state: &[(String, String)]) -> Result<(), BackendError> {
        self.inner.restore_rig_state(state)
    }

    fn finish(&mut self) -> Result<(), BackendError> {
        self.inner.finish()?;
        self.sink
            .writer
            .lock()
            .flush()
            .map_err(|e| BackendError::Store(format!("flush trace: {e}")))?;
        match self.sink.write_error.lock().take() {
            Some(e) => Err(BackendError::Store(e)),
            None => Ok(()),
        }
    }
}
