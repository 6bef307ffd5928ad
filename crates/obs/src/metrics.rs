//! Counter and histogram registries.
//!
//! Both are closed enums rather than string-keyed maps: every hot-path
//! update is an array index + atomic add (counters) or a mutex push
//! (histograms), and summaries iterate a fixed order so serialized
//! output is deterministic.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::event::Layer;

/// Monotonic counters tracked across the measurement chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterId {
    /// LU factorizations performed while planning transients (circuit).
    LuFactorizations,
    /// Backward/forward solve steps across all transient runs (circuit).
    SolverSteps,
    /// Complete transient simulations (circuit).
    TransientRuns,
    /// Real-input FFT invocations (dsp).
    FftInvocations,
    /// Band-limited Goertzel evaluations that replaced a full FFT (dsp).
    GoertzelInvocations,
    /// Received-spectrum propagations through the EM channel (em).
    RxSpectra,
    /// Spectrum-analyzer band sweeps (platform).
    AnalyzerSweeps,
    /// In-band amplitude measurements (platform).
    Measurements,
    /// Fitness evaluations requested by the GA engine (ga).
    Evaluations,
    /// GA generations completed (ga).
    Generations,
    /// Evaluation-slot checkouts from the runner pool (core).
    ScratchCheckouts,
    /// Checkouts that had to build a fresh slot (core).
    ScratchMisses,
    /// Evaluation lane groups dispatched through the batched measurement
    /// chain (core). Charged at the single-threaded generation barrier,
    /// so the total is a pure function of the campaign's lane
    /// configuration — never of the worker-thread schedule.
    BatchLanes,
    /// Individuals evaluated through batched lane groups (core); divided
    /// by `batch_lanes` this yields the mean lane occupancy. Charged at
    /// the generation barrier like [`CounterId::BatchLanes`].
    BatchLaneOccupancy,
    /// Numeric code of the runtime-dispatched SIMD level the campaign's
    /// hot kernels ran on (core); charged once per campaign with
    /// `emvolt_simd::SimdLevel::code`. Host-dependent by design, so it is
    /// summary-only, like the schedule-dependent counters: results are
    /// bit-identical across levels and emitted traces must not vary with
    /// the host's vector width.
    SimdDispatchLevel,
    /// Signals registered in the waveform trace database (cli). Only
    /// nonzero when `--trace-vcd` is active, so it is summary-only like
    /// [`CounterId::SimdDispatchLevel`]: JSONL traces stay byte-identical
    /// whether or not a host also captured waveforms.
    WavetraceSignals,
    /// Change-compressed waveform samples retained by the trace database
    /// (cli). Summary-only, for the same reason as
    /// [`CounterId::WavetraceSignals`].
    WavetraceSamplesWritten,
    /// Checkpoint snapshots written by the step driver (engine). Only
    /// nonzero when `--checkpoint` is active, so it is summary-only like
    /// [`CounterId::WavetraceSignals`]: whether a run also checkpointed
    /// must not change its emitted JSONL trace.
    CheckpointWrites,
    /// Batches skipped on resume because a checkpoint already held their
    /// results (engine). Summary-only, for the same reason as
    /// [`CounterId::CheckpointWrites`]: a resumed run's trace must
    /// concatenate with the interrupted run's into the uninterrupted
    /// trace, byte for byte.
    StepsResumed,
}

impl CounterId {
    /// Every counter, in emission order.
    pub const ALL: [CounterId; 19] = [
        CounterId::LuFactorizations,
        CounterId::SolverSteps,
        CounterId::TransientRuns,
        CounterId::FftInvocations,
        CounterId::GoertzelInvocations,
        CounterId::RxSpectra,
        CounterId::AnalyzerSweeps,
        CounterId::Measurements,
        CounterId::Evaluations,
        CounterId::Generations,
        CounterId::ScratchCheckouts,
        CounterId::ScratchMisses,
        CounterId::BatchLanes,
        CounterId::BatchLaneOccupancy,
        CounterId::SimdDispatchLevel,
        CounterId::WavetraceSignals,
        CounterId::WavetraceSamplesWritten,
        CounterId::CheckpointWrites,
        CounterId::StepsResumed,
    ];

    /// Looks a counter up by its wire [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<CounterId> {
        CounterId::ALL.into_iter().find(|id| id.name() == name)
    }

    /// Wire name used in counter events and summaries.
    pub fn name(self) -> &'static str {
        match self {
            CounterId::LuFactorizations => "lu_factorizations",
            CounterId::SolverSteps => "solver_steps",
            CounterId::TransientRuns => "transient_runs",
            CounterId::FftInvocations => "fft_invocations",
            CounterId::GoertzelInvocations => "goertzel_invocations",
            CounterId::RxSpectra => "rx_spectra",
            CounterId::AnalyzerSweeps => "analyzer_sweeps",
            CounterId::Measurements => "measurements",
            CounterId::Evaluations => "evaluations",
            CounterId::Generations => "generations",
            CounterId::ScratchCheckouts => "scratch_checkouts",
            CounterId::ScratchMisses => "scratch_misses",
            CounterId::BatchLanes => "batch_lanes",
            CounterId::BatchLaneOccupancy => "batch_lane_occupancy",
            CounterId::SimdDispatchLevel => "simd_dispatch_level",
            CounterId::WavetraceSignals => "wavetrace_signals",
            CounterId::WavetraceSamplesWritten => "wavetrace_samples_written",
            CounterId::CheckpointWrites => "checkpoint_writes",
            CounterId::StepsResumed => "steps_resumed",
        }
    }

    /// Subsystem that owns this counter.
    pub fn layer(self) -> Layer {
        match self {
            CounterId::LuFactorizations | CounterId::SolverSteps | CounterId::TransientRuns => {
                Layer::Circuit
            }
            CounterId::FftInvocations | CounterId::GoertzelInvocations => Layer::Dsp,
            CounterId::RxSpectra => Layer::Em,
            CounterId::AnalyzerSweeps | CounterId::Measurements => Layer::Platform,
            CounterId::Evaluations | CounterId::Generations => Layer::Ga,
            CounterId::ScratchCheckouts
            | CounterId::ScratchMisses
            | CounterId::BatchLanes
            | CounterId::BatchLaneOccupancy
            | CounterId::SimdDispatchLevel => Layer::Core,
            CounterId::WavetraceSignals
            | CounterId::WavetraceSamplesWritten
            | CounterId::CheckpointWrites
            | CounterId::StepsResumed => Layer::Cli,
        }
    }

    /// Whether the counter's value can depend on the worker-thread
    /// schedule rather than on the campaign inputs alone. Pool misses
    /// (and the LU factorizations a cold slot performs) vary with how
    /// workers interleave, and the dispatched SIMD level varies with the
    /// host CPU, so these are reported in campaign summaries but excluded
    /// from emitted trace events, which must stay byte-reproducible at
    /// any thread count and on any host.
    pub fn schedule_dependent(self) -> bool {
        matches!(
            self,
            CounterId::LuFactorizations
                | CounterId::ScratchMisses
                | CounterId::SimdDispatchLevel
                | CounterId::WavetraceSignals
                | CounterId::WavetraceSamplesWritten
                | CounterId::CheckpointWrites
                | CounterId::StepsResumed
        )
    }

    fn index(self) -> usize {
        CounterId::ALL
            .iter()
            .position(|c| *c == self)
            .expect("id in ALL")
    }
}

/// Fixed array of atomics, shared by every clone of a telemetry handle.
#[derive(Debug)]
pub(crate) struct Counters {
    slots: [AtomicU64; CounterId::ALL.len()],
}

impl Counters {
    pub(crate) fn new() -> Self {
        Counters {
            slots: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Adds `n`; ordering is irrelevant because totals are read only at
    /// single-threaded snapshot points.
    pub(crate) fn add(&self, id: CounterId, n: u64) {
        self.slots[id.index()].fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn get(&self, id: CounterId) -> u64 {
        self.slots[id.index()].load(Ordering::Relaxed)
    }
}

/// Value histograms tracked across the measurement chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HistId {
    /// Per-evaluation cost in (simulated or wall) seconds (core).
    EvalSeconds,
    /// Per-generation best fitness, dBm (core).
    FitnessBest,
    /// Per-generation mean fitness, dBm (core).
    FitnessMean,
    /// Per-generation worst fitness, dBm (core).
    FitnessWorst,
    /// In-band amplitude per measurement, dBm (platform).
    BandAmplitudeDbm,
}

impl HistId {
    /// Every histogram, in emission order.
    pub const ALL: [HistId; 5] = [
        HistId::EvalSeconds,
        HistId::FitnessBest,
        HistId::FitnessMean,
        HistId::FitnessWorst,
        HistId::BandAmplitudeDbm,
    ];

    /// Looks a histogram up by its wire [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<HistId> {
        HistId::ALL.into_iter().find(|id| id.name() == name)
    }

    /// Wire name used in hist events and summaries.
    pub fn name(self) -> &'static str {
        match self {
            HistId::EvalSeconds => "eval_seconds",
            HistId::FitnessBest => "fitness_best",
            HistId::FitnessMean => "fitness_mean",
            HistId::FitnessWorst => "fitness_worst",
            HistId::BandAmplitudeDbm => "band_amplitude_dbm",
        }
    }

    /// Subsystem that owns this histogram.
    pub fn layer(self) -> Layer {
        match self {
            HistId::EvalSeconds
            | HistId::FitnessBest
            | HistId::FitnessMean
            | HistId::FitnessWorst => Layer::Core,
            HistId::BandAmplitudeDbm => Layer::Platform,
        }
    }

    fn index(self) -> usize {
        HistId::ALL
            .iter()
            .position(|h| *h == self)
            .expect("id in ALL")
    }
}

/// Percentile summary of one histogram.
///
/// Percentiles use the nearest-rank method on a sorted copy of the raw
/// values, and `sum` is accumulated over the sorted order — both so the
/// result is independent of the thread schedule that recorded values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistSummary {
    /// Number of recorded values.
    pub count: usize,
    /// Sum of all values (sorted-order accumulation).
    pub sum: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// 50th percentile (nearest rank).
    pub p50: f64,
    /// 90th percentile (nearest rank).
    pub p90: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
}

impl HistSummary {
    /// Summarizes raw values; `None` when empty.
    pub fn from_values(values: &[f64]) -> Option<HistSummary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let pct = |p: f64| {
            let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        Some(HistSummary {
            count: sorted.len(),
            sum: sorted.iter().sum(),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            p50: pct(50.0),
            p90: pct(90.0),
            p99: pct(99.0),
        })
    }

    /// Summary fields in schema order, for event emission.
    pub fn fields(&self) -> [(&'static str, f64); 7] {
        [
            ("count", self.count as f64),
            ("sum", self.sum),
            ("min", self.min),
            ("max", self.max),
            ("p50", self.p50),
            ("p90", self.p90),
            ("p99", self.p99),
        ]
    }
}

/// Raw value store, shared by every clone of a telemetry handle.
#[derive(Debug)]
pub(crate) struct Histograms {
    slots: [Mutex<Vec<f64>>; HistId::ALL.len()],
}

impl Histograms {
    pub(crate) fn new() -> Self {
        Histograms {
            slots: std::array::from_fn(|_| Mutex::new(Vec::new())),
        }
    }

    pub(crate) fn record(&self, id: HistId, value: f64) {
        self.slots[id.index()].lock().push(value);
    }

    pub(crate) fn summary(&self, id: HistId) -> Option<HistSummary> {
        HistSummary::from_values(&self.slots[id.index()].lock())
    }

    pub(crate) fn values(&self, id: HistId) -> Vec<f64> {
        self.slots[id.index()].lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_names_are_unique_and_layered() {
        let mut names: Vec<_> = CounterId::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CounterId::ALL.len());
        assert_eq!(CounterId::SolverSteps.layer(), Layer::Circuit);
        assert_eq!(CounterId::BatchLanes.layer(), Layer::Core);
        assert_eq!(CounterId::WavetraceSignals.layer(), Layer::Cli);
    }

    #[test]
    fn wavetrace_counters_are_summary_only() {
        // Whether a host captured waveforms must not change the emitted
        // JSONL trace, only the campaign summary.
        assert!(CounterId::WavetraceSignals.schedule_dependent());
        assert!(CounterId::WavetraceSamplesWritten.schedule_dependent());
    }

    #[test]
    fn counters_accumulate() {
        let c = Counters::new();
        c.add(CounterId::FftInvocations, 2);
        c.add(CounterId::FftInvocations, 3);
        assert_eq!(c.get(CounterId::FftInvocations), 5);
        assert_eq!(c.get(CounterId::SolverSteps), 0);
    }

    #[test]
    fn hist_summary_is_order_independent() {
        let forward = HistSummary::from_values(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        let shuffled = HistSummary::from_values(&[3.0, 1.0, 4.0, 2.0]).unwrap();
        assert_eq!(forward, shuffled);
        assert_eq!(forward.count, 4);
        assert_eq!(forward.min, 1.0);
        assert_eq!(forward.max, 4.0);
        assert_eq!(forward.p50, 2.0);
        assert_eq!(forward.p99, 4.0);
    }

    #[test]
    fn hist_summary_of_empty_is_none() {
        assert!(HistSummary::from_values(&[]).is_none());
        let h = Histograms::new();
        assert!(h.summary(HistId::EvalSeconds).is_none());
        h.record(HistId::EvalSeconds, 0.5);
        assert_eq!(h.summary(HistId::EvalSeconds).unwrap().count, 1);
    }
}
