//! # emvolt-backend
//!
//! Pluggable measurement backends behind one trait.
//!
//! The paper's campaigns (GA virus search §5.1, fast resonance sweep
//! §5.3, multi-domain monitoring §6.1) are all defined against one
//! opaque observable: *the amplitude the spectrum analyzer reports for
//! this kernel on this domain at this DVFS point*. [`MeasurementBackend`]
//! captures exactly that surface, so the algorithms in `emvolt-core`
//! never name the circuit solver directly. Three implementations ship:
//!
//! - [`LiveBackend`] — the full simulated measurement chain (runner
//!   pools + [`SharedEmBench`](emvolt_platform::SharedEmBench) seeded
//!   measurements). It has one evaluation path: its `measure_batch`
//!   serves every request shape — idle loads, bands around the loop
//!   frequency, mixed domains or clocks, LU-only plans, per-lane
//!   failures — through lane groups, and `measure` is its one-request
//!   call. Seeded campaigns through it are bit-identical to the
//!   pre-trait code path.
//! - [`RecordBackend`] / [`ReplayBackend`] — a JSONL trace store keyed
//!   by `(kernel fingerprint, domain, frequency, band, samples, seed)`.
//!   Recording wraps any inner backend and captures each call's
//!   observation, counter deltas, histogram values and telemetry events;
//!   replaying serves the same campaign **without ever invoking the
//!   transient solver**, reproducing outputs and telemetry traces
//!   byte-for-byte.
//! - [`CachingBackend`] — memoizes any inner backend by request key,
//!   subsuming the fitness-cache logic campaigns previously hand-rolled.
//!
//! ## Determinism contract
//!
//! Every backend must satisfy two rules so campaigns stay reproducible:
//!
//! 1. `measure` (the parallel path) requires an explicit seed and must
//!    be callable concurrently from worker threads; any state it touches
//!    is order-independent (pools, atomic counters).
//! 2. Telemetry flows through the handle *passed per call*: quiet worker
//!    handles only accumulate counters/histograms, full coordinator
//!    handles also emit events. Backends forward — never invent —
//!    emissions, so traces are byte-identical across backends and thread
//!    counts.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
mod fingerprint;
mod live;
mod record;
mod replay;
mod request;
mod select;
mod trace;

pub use cache::CachingBackend;
pub use fingerprint::{kernel_fingerprint, run_config_fingerprint};
pub use live::{EvalSlot, LiveBackend};
pub use record::RecordBackend;
pub use replay::ReplayBackend;
pub use request::{BandSpec, CombinedSource, DomainInfo, EmObservation, Load, MeasureRequest};
pub use select::BackendSpec;
pub use trace::{combined_key, request_key, TRACE_FORMAT_VERSION};

use emvolt_inst::SweepReading;
use emvolt_obs::Telemetry;
use emvolt_platform::{DomainError, RunConfig, SessionCosts};
use std::fmt;
use std::ops::ControlFlow;

/// Error from a measurement backend.
#[derive(Debug, Clone)]
pub enum BackendError {
    /// The underlying simulation failed (live backends only).
    Domain(DomainError),
    /// The request named a domain the backend does not serve.
    UnknownDomain(String),
    /// [`MeasurementBackend::measure`] was called without a seed; the
    /// parallel path has no per-backend RNG to fall back on.
    SeedRequired,
    /// Replay found no recorded entry for the request key.
    MissingRecording(String),
    /// Replay found the entry, but the recorded call had failed; the
    /// string is the recorded error.
    RecordedFailure(String),
    /// A caching backend hit a memoized *failure* for this key (the
    /// original error is preserved). Callers that score failures at a
    /// floor treat this as a cache hit, not a fresh measurement.
    CachedFailure(String),
    /// Trace-store I/O or parse failure.
    Store(String),
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Domain(e) => write!(f, "{e}"),
            BackendError::UnknownDomain(name) => write!(f, "backend serves no domain `{name}`"),
            BackendError::SeedRequired => {
                write!(f, "parallel measure() requires an explicit seed")
            }
            BackendError::MissingRecording(key) => {
                write!(f, "no recorded measurement for key `{key}`")
            }
            BackendError::RecordedFailure(err) => write!(f, "recorded call failed: {err}"),
            BackendError::CachedFailure(err) => write!(f, "cached call had failed: {err}"),
            BackendError::Store(msg) => write!(f, "trace store error: {msg}"),
        }
    }
}

impl std::error::Error for BackendError {}

impl From<DomainError> for BackendError {
    fn from(e: DomainError) -> Self {
        BackendError::Domain(e)
    }
}

impl BackendError {
    /// Collapses into the platform error type callers already handle:
    /// simulation errors pass through, everything else becomes
    /// [`DomainError::Backend`].
    pub fn into_domain_error(self) -> DomainError {
        match self {
            BackendError::Domain(e) => e,
            other => DomainError::Backend(other.to_string()),
        }
    }
}

/// One result of [`MeasurementBackend::measure_serial_batch`].
#[derive(Debug)]
pub struct Served {
    /// What the one-request [`MeasurementBackend::measure_serial`] call
    /// would have returned.
    pub result: Result<EmObservation, BackendError>,
    /// The backend's [`MeasurementBackend::elapsed_seconds`] right after
    /// this request, so a wrapper can charge each request its own
    /// analyzer time while the inner call is still running.
    pub elapsed_s: f64,
    /// The backend's [`MeasurementBackend::rig_state`] right after this
    /// request, so the caller can checkpoint between results.
    pub rig: Vec<(String, String)>,
}

/// The observable surface a measurement campaign needs.
///
/// One backend instance serves one or more named voltage domains and is
/// used for the length of a campaign: [`configure_run`] pins the physics
/// fidelity, [`measure`] serves the parallel seeded fitness path,
/// [`measure_serial`] (one request) and [`measure_serial_batch`] (a run
/// of requests) the coordinator's stateful-rig path, and [`finish`]
/// flushes any store.
///
/// [`configure_run`]: MeasurementBackend::configure_run
/// [`measure`]: MeasurementBackend::measure
/// [`measure_serial`]: MeasurementBackend::measure_serial
/// [`measure_serial_batch`]: MeasurementBackend::measure_serial_batch
/// [`finish`]: MeasurementBackend::finish
pub trait MeasurementBackend: Send + Sync {
    /// Short tag for logs and trace headers: `"live"`, `"record"`,
    /// `"replay"`, `"cache"`.
    fn label(&self) -> &'static str;

    /// The domains this backend can measure, with the control state a
    /// campaign plans against (max frequency, gating, expected
    /// resonance). Replay backends answer from the trace header.
    fn domains(&self) -> Vec<DomainInfo>;

    /// Looks up one domain by name.
    fn domain_info(&self, name: &str) -> Option<DomainInfo> {
        self.domains().into_iter().find(|d| d.name == name)
    }

    /// Pins the physics fidelity for subsequent calls. Campaigns call
    /// this once up front; live backends drop warm runner state when the
    /// configuration actually changes, and trace keys incorporate a
    /// fingerprint of it so recordings can't be replayed against the
    /// wrong fidelity.
    ///
    /// # Errors
    ///
    /// Backend-specific; live configuration itself cannot fail.
    fn configure_run(&mut self, config: &RunConfig) -> Result<(), BackendError>;

    /// Runs the request's load and measures the band amplitude with the
    /// request's seed. This is the GA hot path: callable concurrently
    /// from worker threads, it requires `req.seed` to be set and charges
    /// all instrumentation to `telemetry` (hand workers a
    /// [`Telemetry::quiet`] clone).
    ///
    /// # Errors
    ///
    /// [`BackendError::SeedRequired`] without a seed; otherwise
    /// backend-specific (simulation failure, missing recording, ...).
    fn measure(
        &self,
        req: &MeasureRequest<'_>,
        telemetry: &Telemetry,
    ) -> Result<EmObservation, BackendError>;

    /// Batched counterpart of [`MeasurementBackend::measure`]: serves
    /// `reqs` in order, one result per request. The contract is strict —
    /// every implementation returns results bit-identical to the serial
    /// loop over [`MeasurementBackend::measure`] the default provides;
    /// the live backend implements this as its only evaluation path
    /// (one lock-step transient, one multi-lane Goertzel pass per lane
    /// group) without changing a single bit of any reading.
    fn measure_batch(
        &self,
        reqs: &[MeasureRequest<'_>],
        telemetry: &Telemetry,
    ) -> Vec<Result<EmObservation, BackendError>> {
        reqs.iter()
            .map(|req| self.measure(req, telemetry))
            .collect()
    }

    /// Coordinator-thread measurement. With `req.seed == None` the
    /// backend's stateful measurement rig (the analyzer's own RNG)
    /// draws the noise — successive calls advance that rig exactly like
    /// the pre-trait serial flow did. With a seed it behaves like
    /// [`MeasurementBackend::measure`].
    ///
    /// # Errors
    ///
    /// Backend-specific.
    fn measure_serial(
        &mut self,
        req: &MeasureRequest<'_>,
        telemetry: &Telemetry,
    ) -> Result<EmObservation, BackendError>;

    /// Slice form of [`MeasurementBackend::measure_serial`]: serves
    /// `reqs` in order and hands each result to `on_result` as soon as it
    /// exists, before the next request draws rig noise or emits
    /// telemetry. Results, rig state and every emission are those of the
    /// loop of one-request calls the default provides; the caller may
    /// therefore charge telemetry between results (the step engine
    /// absorbs each outcome there). `on_result` returning
    /// [`ControlFlow::Break`] stops the call: no later request is served.
    ///
    /// The live backend runs the physics of consecutive rig requests as
    /// one lane group, then draws each request's noise and emits its
    /// telemetry one request at a time.
    fn measure_serial_batch(
        &mut self,
        reqs: &[MeasureRequest<'_>],
        telemetry: &Telemetry,
        on_result: &mut dyn FnMut(Served) -> ControlFlow<()>,
    ) {
        for req in reqs {
            let result = self.measure_serial(req, telemetry);
            let served = Served {
                result,
                elapsed_s: self.elapsed_seconds(),
                rig: self.rig_state(),
            };
            if on_result(served).is_break() {
                return;
            }
        }
    }

    /// Runs every source and captures one combined analyzer sweep of
    /// their superimposed emissions (multi-domain monitoring, §6.1).
    /// Sweep noise is drawn from `seed`.
    ///
    /// # Errors
    ///
    /// Backend-specific.
    fn capture_combined(
        &mut self,
        sources: &[CombinedSource<'_>],
        seed: u64,
        telemetry: &Telemetry,
    ) -> Result<SweepReading, BackendError>;

    /// Accumulated analyzer occupancy in seconds (sweep time the
    /// physical instrument would have spent).
    fn elapsed_seconds(&self) -> f64;

    /// The session cost model (upload/compile/launch/sample/teardown)
    /// campaigns use to advance their simulated clock.
    fn costs(&self) -> SessionCosts;

    /// Flushes any store. Idempotent; recorded traces are incomplete
    /// until this runs (campaigns call it before returning).
    ///
    /// # Errors
    ///
    /// Backend-specific (store I/O).
    fn finish(&mut self) -> Result<(), BackendError> {
        Ok(())
    }

    /// Opaque key/value pairs capturing the backend's mutable rig state
    /// (measurement-noise RNG words, analyzer occupancy) for campaign
    /// checkpoints. Backends with no such state return an empty list.
    /// Values follow the trace discipline: floats as 16-hex-digit
    /// `f64::to_bits` strings.
    fn rig_state(&self) -> Vec<(String, String)> {
        Vec::new()
    }

    /// Restores state captured by [`rig_state`](Self::rig_state).
    /// Unknown keys are an error (a checkpoint from a different backend
    /// must not resume silently); backends with no state accept only an
    /// empty list.
    ///
    /// # Errors
    ///
    /// [`BackendError`] naming the unusable key or value.
    fn restore_rig_state(&mut self, state: &[(String, String)]) -> Result<(), BackendError> {
        if let Some((key, _)) = state.first() {
            return Err(BackendError::Store(format!(
                "backend `{}` holds no rig state; checkpoint key `{key}` cannot be restored",
                self.label()
            )));
        }
        Ok(())
    }
}

/// Mutable references forward, so campaign functions taking
/// `&mut B where B: MeasurementBackend + ?Sized` compose with wrappers
/// like [`CachingBackend`] borrowing the same backend.
impl<B: MeasurementBackend + ?Sized> MeasurementBackend for &mut B {
    fn label(&self) -> &'static str {
        (**self).label()
    }

    fn domains(&self) -> Vec<DomainInfo> {
        (**self).domains()
    }

    fn domain_info(&self, name: &str) -> Option<DomainInfo> {
        (**self).domain_info(name)
    }

    fn configure_run(&mut self, config: &RunConfig) -> Result<(), BackendError> {
        (**self).configure_run(config)
    }

    fn measure(
        &self,
        req: &MeasureRequest<'_>,
        telemetry: &Telemetry,
    ) -> Result<EmObservation, BackendError> {
        (**self).measure(req, telemetry)
    }

    fn measure_batch(
        &self,
        reqs: &[MeasureRequest<'_>],
        telemetry: &Telemetry,
    ) -> Vec<Result<EmObservation, BackendError>> {
        (**self).measure_batch(reqs, telemetry)
    }

    fn measure_serial(
        &mut self,
        req: &MeasureRequest<'_>,
        telemetry: &Telemetry,
    ) -> Result<EmObservation, BackendError> {
        (**self).measure_serial(req, telemetry)
    }

    fn measure_serial_batch(
        &mut self,
        reqs: &[MeasureRequest<'_>],
        telemetry: &Telemetry,
        on_result: &mut dyn FnMut(Served) -> ControlFlow<()>,
    ) {
        (**self).measure_serial_batch(reqs, telemetry, on_result)
    }

    fn capture_combined(
        &mut self,
        sources: &[CombinedSource<'_>],
        seed: u64,
        telemetry: &Telemetry,
    ) -> Result<SweepReading, BackendError> {
        (**self).capture_combined(sources, seed, telemetry)
    }

    fn elapsed_seconds(&self) -> f64 {
        (**self).elapsed_seconds()
    }

    fn costs(&self) -> SessionCosts {
        (**self).costs()
    }

    fn finish(&mut self) -> Result<(), BackendError> {
        (**self).finish()
    }

    fn rig_state(&self) -> Vec<(String, String)> {
        (**self).rig_state()
    }

    fn restore_rig_state(&mut self, state: &[(String, String)]) -> Result<(), BackendError> {
        (**self).restore_rig_state(state)
    }
}
