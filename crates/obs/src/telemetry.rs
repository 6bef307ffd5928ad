//! The [`Telemetry`] handle threaded through the measurement chain.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::event::{Event, EventKind, Layer};
use crate::metrics::{CounterId, Counters, HistId, Histograms};
use crate::recorder::{NoopRecorder, Recorder};
use crate::summary::{CampaignSummary, CounterTotal, HistTotal};
use crate::wavetrace::{NoopWaveSink, WaveId, WaveKind, WaveSink};

/// Injected wall-clock closure. Distinct from the *simulated* campaign
/// clock (`emvolt-platform`'s `SimClock`), which advances by modeled
/// measurement cost, not host time.
type WallClockFn = Arc<dyn Fn() -> f64 + Send + Sync>;

struct Inner {
    recorder: Arc<dyn Recorder>,
    waves: Arc<dyn WaveSink>,
    counters: Counters,
    hists: Histograms,
    /// Simulated campaign seconds, stored as f64 bits.
    sim_t_bits: AtomicU64,
    wall: Option<WallClockFn>,
}

/// Cheap cloneable telemetry handle.
///
/// All clones of one handle share the same counters, histograms, sink
/// and simulated clock. Two clone flavors exist:
///
/// - [`Telemetry::clone`]: full handle — counts *and* emits events.
/// - [`Telemetry::quiet`]: worker handle — counts (atomic adds are
///   order-independent) and records histogram values, but never emits
///   events. Handing quiet clones to worker threads and emitting only
///   from single-threaded coordinator contexts is what keeps traces
///   byte-identical at any thread count.
///
/// The default handle ([`Telemetry::noop`]) sinks to [`NoopRecorder`];
/// its hot path is one branch per emission site plus one relaxed atomic
/// add per counter update, with no allocation (asserted by the
/// `noop_alloc` integration test).
pub struct Telemetry {
    inner: Arc<Inner>,
    silent: bool,
}

impl Clone for Telemetry {
    fn clone(&self) -> Self {
        Telemetry {
            inner: Arc::clone(&self.inner),
            silent: self.silent,
        }
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::noop()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled())
            .field("silent", &self.silent)
            .field("has_wall_clock", &self.inner.wall.is_some())
            .finish()
    }
}

impl Telemetry {
    /// Creates a handle sinking to `recorder`, with no wall clock — the
    /// deterministic default.
    pub fn new(recorder: Arc<dyn Recorder>) -> Self {
        Telemetry::build(recorder, None)
    }

    /// Creates a handle that additionally stamps events with `wall()`
    /// seconds. Traces produced with a wall clock are *not* expected to
    /// be byte-reproducible.
    pub fn with_wall_clock(
        recorder: Arc<dyn Recorder>,
        wall: impl Fn() -> f64 + Send + Sync + 'static,
    ) -> Self {
        Telemetry::build(recorder, Some(Arc::new(wall)))
    }

    /// Creates a handle that additionally routes waveform samples to
    /// `waves` (a `WaveDb` the caller later dumps). Wave emission obeys
    /// the quiet-clone discipline: quiet clones never emit waves, so the
    /// trace content comes exclusively from single-threaded coordinator
    /// contexts and is byte-identical at any thread count.
    pub fn with_waves(recorder: Arc<dyn Recorder>, waves: Arc<dyn WaveSink>) -> Self {
        Telemetry::build_full(recorder, None, waves)
    }

    /// A fresh handle sinking events to `recorder`, with its own
    /// counters, histograms and simulated clock, that routes waveform
    /// samples to this handle's wave sink. It emits exactly the waves this
    /// handle would: none when this handle is quiet.
    pub fn sharing_waves(&self, recorder: Arc<dyn Recorder>) -> Self {
        let waves = if self.silent {
            Arc::new(NoopWaveSink)
        } else {
            Arc::clone(&self.inner.waves)
        };
        Telemetry::build_full(recorder, None, waves)
    }

    fn build(recorder: Arc<dyn Recorder>, wall: Option<WallClockFn>) -> Self {
        Telemetry::build_full(recorder, wall, Arc::new(NoopWaveSink))
    }

    fn build_full(
        recorder: Arc<dyn Recorder>,
        wall: Option<WallClockFn>,
        waves: Arc<dyn WaveSink>,
    ) -> Self {
        Telemetry {
            inner: Arc::new(Inner {
                recorder,
                waves,
                counters: Counters::new(),
                hists: Histograms::new(),
                sim_t_bits: AtomicU64::new(0f64.to_bits()),
                wall,
            }),
            silent: false,
        }
    }

    /// The shared inert handle: counts into a process-wide sink that is
    /// never read, emits nothing. Used as `Default` so scratch types can
    /// derive `Default` without each one allocating an `Inner`.
    pub fn noop() -> Self {
        static NOOP: OnceLock<Telemetry> = OnceLock::new();
        NOOP.get_or_init(|| Telemetry::new(Arc::new(NoopRecorder)))
            .clone()
    }

    /// A clone that shares this handle's counters and histograms but
    /// never emits events. Give these to worker threads.
    pub fn quiet(&self) -> Self {
        Telemetry {
            inner: Arc::clone(&self.inner),
            silent: true,
        }
    }

    /// Whether *this clone* will emit events.
    pub fn enabled(&self) -> bool {
        !self.silent && self.inner.recorder.is_enabled()
    }

    /// Whether the underlying sink persists events (true for quiet
    /// clones of an enabled handle). Histogram recording gates on this.
    pub fn sink_enabled(&self) -> bool {
        self.inner.recorder.is_enabled()
    }

    /// Whether *this clone* emits waveform samples: quiet clones and
    /// handles without an attached `WaveDb` never do. Emission sites
    /// check this once and skip their whole block, keeping the disabled
    /// path to a single branch plus one virtual call.
    pub fn wave_enabled(&self) -> bool {
        !self.silent && self.inner.waves.is_enabled()
    }

    /// Decimation stride for dense waveform emission (every `stride`-th
    /// sample); always ≥ 1.
    pub fn wave_stride(&self) -> usize {
        self.inner.waves.stride().max(1)
    }

    /// Registers a hierarchical waveform signal; returns the inert
    /// [`WaveId::NONE`] on non-emitting clones.
    pub fn wave_register(&self, name: &str, kind: WaveKind) -> WaveId {
        if self.wave_enabled() {
            self.inner.waves.register(name, kind)
        } else {
            WaveId::NONE
        }
    }

    /// Opens a waveform emission epoch at the current simulated campaign
    /// time; subsequent sample timestamps are relative to it.
    pub fn wave_epoch(&self) {
        if self.wave_enabled() {
            self.inner.waves.begin_epoch(self.sim_time());
        }
    }

    /// Records a real waveform sample at `t_s` seconds past the epoch.
    pub fn wave_real(&self, id: WaveId, t_s: f64, value: f64) {
        if self.wave_enabled() {
            self.inner.waves.sample_real(id, t_s, value);
        }
    }

    /// Records an integer waveform sample at `t_s` seconds past the
    /// epoch.
    pub fn wave_int(&self, id: WaveId, t_s: f64, value: u64) {
        if self.wave_enabled() {
            self.inner.waves.sample_int(id, t_s, value);
        }
    }

    /// Records a bit waveform sample at `t_s` seconds past the epoch.
    pub fn wave_bool(&self, id: WaveId, t_s: f64, value: bool) {
        if self.wave_enabled() {
            self.inner.waves.sample_bool(id, t_s, value);
        }
    }

    /// Records a point reading just past the trace's high-water mark
    /// (instrument metrics with no waveform time axis of their own).
    pub fn wave_append(&self, id: WaveId, value: f64) {
        if self.wave_enabled() {
            self.inner.waves.append_real(id, value);
        }
    }

    /// Updates the shared simulated-campaign timestamp, seconds.
    pub fn set_sim_time(&self, seconds: f64) {
        self.inner
            .sim_t_bits
            .store(seconds.to_bits(), Ordering::Relaxed);
    }

    /// Current simulated-campaign timestamp, seconds.
    pub fn sim_time(&self) -> f64 {
        f64::from_bits(self.inner.sim_t_bits.load(Ordering::Relaxed))
    }

    /// Reads the injected wall clock, when present.
    pub fn wall_now(&self) -> Option<f64> {
        self.inner.wall.as_ref().map(|f| f())
    }

    /// Adds `n` to a counter. Safe from any thread and any clone.
    pub fn count(&self, id: CounterId, n: u64) {
        if n != 0 {
            self.inner.counters.add(id, n);
        }
    }

    /// Current total of one counter.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.inner.counters.get(id)
    }

    /// Records a histogram value. Safe from any thread; no-op when the
    /// sink is disabled so the hot path stays allocation-free.
    pub fn record_value(&self, id: HistId, value: f64) {
        if self.sink_enabled() {
            self.inner.hists.record(id, value);
        }
    }

    /// Emits a span event stamped with the simulated clock (and the wall
    /// clock when injected). Quiet clones emit nothing.
    pub fn span(&self, name: &str, layer: Layer, attrs: &[(&str, f64)]) {
        if !self.enabled() {
            return;
        }
        self.inner.recorder.record(&Event {
            kind: EventKind::Span,
            name: name.to_string(),
            layer,
            t_s: self.sim_time(),
            wall_s: self.wall_now(),
            fields: attrs.iter().map(|(k, v)| ((*k).to_string(), *v)).collect(),
        });
    }

    /// Re-emits a pre-built event, preserving its recorded simulated
    /// timestamp but restamping the wall clock from this handle. Quiet
    /// clones emit nothing.
    ///
    /// This is the forwarding path measurement backends use to replay
    /// events captured on another handle (record/replay traces): the
    /// event's `t` was stamped under the same simulated clock discipline,
    /// so passing it through unchanged keeps live and replayed traces
    /// byte-identical.
    pub fn emit_event(&self, event: &Event) {
        if !self.enabled() {
            return;
        }
        self.inner.recorder.record(&Event {
            wall_s: self.wall_now(),
            ..event.clone()
        });
    }

    /// Snapshot of the raw values recorded into one histogram, in
    /// recording order. Empty when the sink is disabled (values are only
    /// retained for enabled sinks).
    pub fn hist_values(&self, id: HistId) -> Vec<f64> {
        self.inner.hists.values(id)
    }

    /// Emits one `counter` event per non-zero counter, in registry
    /// order. Schedule-dependent counters (see
    /// [`CounterId::schedule_dependent`]) are skipped so the trace stays
    /// byte-reproducible at any thread count; their totals still appear
    /// in [`Telemetry::summary`].
    pub fn emit_counters(&self) {
        if !self.enabled() {
            return;
        }
        let t_s = self.sim_time();
        let wall_s = self.wall_now();
        for id in CounterId::ALL {
            if id.schedule_dependent() {
                continue;
            }
            let value = self.inner.counters.get(id);
            if value == 0 {
                continue;
            }
            self.inner.recorder.record(&Event {
                kind: EventKind::Counter,
                name: id.name().to_string(),
                layer: id.layer(),
                t_s,
                wall_s,
                fields: vec![("value".to_string(), value as f64)],
            });
        }
    }

    /// Emits one `hist` event per non-empty histogram, in registry order.
    pub fn emit_histograms(&self) {
        if !self.enabled() {
            return;
        }
        let t_s = self.sim_time();
        let wall_s = self.wall_now();
        for id in HistId::ALL {
            let Some(summary) = self.inner.hists.summary(id) else {
                continue;
            };
            self.inner.recorder.record(&Event {
                kind: EventKind::Hist,
                name: id.name().to_string(),
                layer: id.layer(),
                t_s,
                wall_s,
                fields: summary
                    .fields()
                    .iter()
                    .map(|(k, v)| ((*k).to_string(), *v))
                    .collect(),
            });
        }
    }

    /// Aggregates current totals and percentiles into a summary record.
    pub fn summary(&self, label: &str) -> CampaignSummary {
        CampaignSummary {
            label: label.to_string(),
            sim_seconds: self.sim_time(),
            counters: CounterId::ALL
                .iter()
                .map(|&id| CounterTotal {
                    id,
                    value: self.inner.counters.get(id),
                })
                .filter(|c| c.value != 0)
                .collect(),
            histograms: HistId::ALL
                .iter()
                .filter_map(|&id| {
                    self.inner
                        .hists
                        .summary(id)
                        .map(|stats| HistTotal { id, stats })
                })
                .collect(),
        }
    }

    /// Flushes the sink.
    pub fn flush(&self) {
        self.inner.recorder.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::JsonlRecorder;
    use parking_lot::Mutex;
    use std::io::{self, Write};

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

    fn captured() -> (Telemetry, Arc<Mutex<Vec<u8>>>) {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let tel = Telemetry::new(Arc::new(JsonlRecorder::new(SharedBuf(buf.clone()))));
        (tel, buf)
    }

    fn lines(buf: &Arc<Mutex<Vec<u8>>>) -> Vec<Event> {
        String::from_utf8(buf.lock().clone())
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect()
    }

    #[test]
    fn quiet_clones_share_counters_but_never_emit() {
        let (tel, buf) = captured();
        let quiet = tel.quiet();
        assert!(tel.enabled());
        assert!(!quiet.enabled());
        assert!(quiet.sink_enabled());

        quiet.count(CounterId::SolverSteps, 7);
        quiet.span("transient_solve", Layer::Circuit, &[("steps", 7.0)]);
        assert!(buf.lock().is_empty(), "quiet clone emitted an event");

        tel.count(CounterId::SolverSteps, 3);
        assert_eq!(tel.counter(CounterId::SolverSteps), 10);
        tel.emit_counters();
        let events = lines(&buf);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "solver_steps");
        assert_eq!(events[0].fields, vec![("value".to_string(), 10.0)]);
    }

    #[test]
    fn spans_carry_sim_time_and_omit_wall_by_default() {
        let (tel, buf) = captured();
        tel.set_sim_time(40.5);
        tel.span("eval", Layer::Core, &[("gen", 1.0)]);
        let events = lines(&buf);
        assert_eq!(events[0].t_s, 40.5);
        assert_eq!(events[0].wall_s, None);
    }

    #[test]
    fn injected_wall_clock_stamps_events() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let tel = Telemetry::with_wall_clock(
            Arc::new(JsonlRecorder::new(SharedBuf(buf.clone()))),
            || 12.25,
        );
        tel.span("generation", Layer::Core, &[]);
        assert_eq!(lines(&buf)[0].wall_s, Some(12.25));
    }

    #[test]
    fn histograms_emit_summaries_and_skip_empty() {
        let (tel, buf) = captured();
        let quiet = tel.quiet();
        for v in [3.0, 1.0, 2.0] {
            quiet.record_value(HistId::EvalSeconds, v);
        }
        tel.emit_histograms();
        let events = lines(&buf);
        assert_eq!(events.len(), 1, "empty histograms must not emit");
        assert_eq!(events[0].name, "eval_seconds");
        events[0].validate().unwrap();
        let field = |k: &str| events[0].fields.iter().find(|(n, _)| n == k).unwrap().1;
        assert_eq!(field("count"), 3.0);
        assert_eq!(field("min"), 1.0);
        assert_eq!(field("max"), 3.0);
        assert_eq!(field("p50"), 2.0);
    }

    #[test]
    fn noop_handle_is_shared_and_inert() {
        let a = Telemetry::noop();
        let b = Telemetry::default();
        assert!(!a.enabled());
        assert!(!b.sink_enabled());
        a.span("eval", Layer::Core, &[]);
        a.record_value(HistId::EvalSeconds, 1.0);
        a.emit_counters();
        a.emit_histograms();
        a.flush();
    }

    #[test]
    fn quiet_clones_never_emit_waves() {
        use crate::wavetrace::WaveDb;
        let db = Arc::new(WaveDb::new());
        let tel = Telemetry::with_waves(Arc::new(crate::NoopRecorder), db.clone());
        assert!(tel.wave_enabled());
        let quiet = tel.quiet();
        assert!(!quiet.wave_enabled());

        let id = tel.wave_register("cpu.i_core", WaveKind::Real);
        tel.wave_epoch();
        tel.wave_real(id, 0.0, 1.0);
        // The quiet clone's registrations and samples go nowhere.
        let qid = quiet.wave_register("pdn.v_die", WaveKind::Real);
        assert!(qid.is_none());
        quiet.wave_real(id, 1e-9, 2.0);
        quiet.wave_append(id, 3.0);
        assert_eq!(db.signal_count(), 1);
        assert_eq!(db.samples_written(), 1);
    }

    #[test]
    fn sharing_waves_keeps_the_sink_but_not_the_counts() {
        use crate::wavetrace::WaveDb;
        let db = Arc::new(WaveDb::new());
        let tel = Telemetry::with_waves(Arc::new(crate::NoopRecorder), db.clone());
        let cap = tel.sharing_waves(Arc::new(crate::NoopRecorder));
        cap.count(CounterId::ALL[0], 2);
        assert_eq!(tel.counter(CounterId::ALL[0]), 0);
        let id = cap.wave_register("cpu.i_core", WaveKind::Real);
        cap.wave_epoch();
        cap.wave_real(id, 0.0, 1.0);
        assert_eq!((db.signal_count(), db.samples_written()), (1, 1));
        // A quiet handle's capture emits no waves, as the handle would not.
        let quiet = tel.quiet().sharing_waves(Arc::new(crate::NoopRecorder));
        assert!(!quiet.wave_enabled());
    }

    #[test]
    fn default_handle_has_inert_waves() {
        let tel = Telemetry::noop();
        assert!(!tel.wave_enabled());
        assert_eq!(tel.wave_stride(), 1);
        let id = tel.wave_register("cpu.i_core", WaveKind::Real);
        assert!(id.is_none());
        tel.wave_epoch();
        tel.wave_real(id, 0.0, 1.0);
        tel.wave_int(id, 0.0, 1);
        tel.wave_bool(id, 0.0, true);
        tel.wave_append(id, 1.0);
    }

    #[test]
    fn summary_collects_nonzero_counters_and_histograms() {
        let (tel, _buf) = captured();
        tel.set_sim_time(120.0);
        tel.count(CounterId::FftInvocations, 4);
        tel.record_value(HistId::BandAmplitudeDbm, -60.0);
        let summary = tel.summary("unit");
        assert_eq!(summary.sim_seconds, 120.0);
        assert_eq!(summary.counters.len(), 1);
        assert_eq!(summary.counters[0].id, CounterId::FftInvocations);
        assert_eq!(summary.histograms.len(), 1);
        assert_eq!(summary.histograms[0].stats.count, 1);
    }
}
