//! Resumable step-engine for measurement campaigns.
//!
//! Every campaign — GA virus search, resonance sweep, characterization,
//! Vmin ladder — is a state machine that repeatedly proposes a batch of
//! measurement requests and absorbs the outcomes. This crate makes that
//! loop explicit:
//!
//! * [`Campaign`] — the state-machine trait: propose the next
//!   [`StepBatch`], absorb its [`StepOutcome`]s, and snapshot/restore
//!   the in-flight state as a value tree.
//! * [`drive`] — executes a campaign's batches against any
//!   [`MeasurementBackend`], reusing the exact lane-grouped worker-pool
//!   dispatch of the legacy hot path (`--threads`/`--lanes` semantics
//!   preserved bit-for-bit), and checkpoints campaign + rig + telemetry
//!   state to a versioned JSONL file every N batches, as configured by
//!   [`DriveOptions`].
//! * [`checkpoint`] — the on-disk snapshot format (floats as hex bit
//!   patterns through [`emvolt_obs::snap`], run-config fingerprint
//!   guard against resuming on a different chip/config).
//!
//! The driver never emits telemetry events of its own from worker
//! threads: lane batches run against a quiet clone of the campaign's
//! handle, so a campaign's trace is byte-identical at any thread count
//! and lane width.

pub mod checkpoint;

pub use checkpoint::{Checkpoint, TelemetrySnapshot, CHECKPOINT_FORMAT_VERSION};
pub use emvolt_backend::{kernel_fingerprint, run_config_fingerprint};

use emvolt_backend::{
    BackendError, BandSpec, EmObservation, Load, MeasureRequest, MeasurementBackend, Served,
};
use emvolt_isa::Kernel;
use emvolt_obs::{snap::Bits, CounterId, Telemetry};
use emvolt_platform::DomainError;
use serde::{DeError, Value};
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};

/// Owned analogue of [`Load`]: what runs on the domain during a step.
#[derive(Debug, Clone)]
pub enum StepLoad {
    /// A kernel looping on `loaded_cores` cores.
    Kernel {
        /// The loop body under test.
        kernel: Kernel,
        /// Cores executing it.
        loaded_cores: usize,
    },
    /// Idle domain (noise-floor measurement).
    Idle,
}

/// Owned analogue of [`MeasureRequest`], so a campaign can propose
/// batches without borrowing from its own mutable state.
#[derive(Debug, Clone)]
pub struct StepRequest {
    /// Domain name.
    pub domain: String,
    /// Load during the measurement.
    pub load: StepLoad,
    /// Clock override, Hz (`None` = domain default).
    pub freq_hz: Option<f64>,
    /// Analyzer band.
    pub band: BandSpec,
    /// Analyzer samples.
    pub samples: usize,
    /// `Some` = reproducible seeded path; `None` = stateful rig RNG.
    pub seed: Option<u64>,
}

impl StepRequest {
    /// Borrows as the backend request type.
    pub fn as_measure(&self) -> MeasureRequest<'_> {
        MeasureRequest {
            domain: &self.domain,
            load: match &self.load {
                StepLoad::Kernel {
                    kernel,
                    loaded_cores,
                } => Load::Kernel {
                    kernel,
                    loaded_cores: *loaded_cores,
                },
                StepLoad::Idle => Load::Idle,
            },
            freq_hz: self.freq_hz,
            band: self.band,
            samples: self.samples,
            seed: self.seed,
        }
    }
}

/// What one request produced.
#[derive(Debug, Clone)]
pub enum StepOutcome {
    /// A successful measurement.
    Observation(EmObservation),
    /// A backend failure, rendered.
    Failed(String),
}

/// How a batch's requests are dispatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchMode {
    /// Lane-grouped parallel dispatch over the worker pool (the
    /// seeded GA evaluation path). Requests are chunked into lane
    /// groups; each group is one `measure_batch` call on a quiet
    /// telemetry clone.
    Lanes,
    /// In-order serial dispatch on the coordinator thread with the
    /// campaign's full telemetry handle (the stateful rig path). Each
    /// request is one step: the driver absorbs its outcome alone, before
    /// the next request draws rig noise, and counts it toward the
    /// checkpoint cadence and batch limit. Up to a lane width of
    /// requests go to the backend as one
    /// [`MeasurementBackend::measure_serial_batch`] call.
    Serial,
}

/// One unit of driver work: requests plus their dispatch mode.
///
/// An empty request list is a *compute-only* step — the campaign
/// advances purely in [`Campaign::absorb`] (the Vmin ladder runs its
/// domain directly and uses these to make every rung checkpointable).
#[derive(Debug, Clone)]
pub struct StepBatch {
    /// Dispatch mode.
    pub mode: BatchMode,
    /// Requests, in lane order.
    pub requests: Vec<StepRequest>,
}

impl StepBatch {
    /// A lane-dispatched batch.
    pub fn lanes(requests: Vec<StepRequest>) -> Self {
        StepBatch {
            mode: BatchMode::Lanes,
            requests,
        }
    }

    /// A serial batch: measured in order on the stateful rig and
    /// absorbed one request at a time.
    pub fn serial(requests: Vec<StepRequest>) -> Self {
        StepBatch {
            mode: BatchMode::Serial,
            requests,
        }
    }

    /// A compute-only batch (state advances in `absorb` alone).
    pub fn compute() -> Self {
        StepBatch {
            mode: BatchMode::Serial,
            requests: Vec::new(),
        }
    }
}

/// A campaign decomposed into checkpointable steps.
///
/// # Contract
///
/// * [`next_batch`](Campaign::next_batch) must be a pure function of
///   the current state: it computes the upcoming batch without
///   consuming anything, so the driver may call it and then decide to
///   checkpoint-and-stop instead of executing. State advances only in
///   [`absorb`](Campaign::absorb).
/// * `absorb` receives outcomes in request order and is called from
///   the single-threaded coordinator, so it may emit telemetry events
///   freely — this is where generation barriers, spans and histograms
///   are charged, exactly as the legacy serial sections did. A lane
///   batch is absorbed whole; a serial batch one request at a time (a
///   one-outcome slice per request), and the driver may ask for the
///   next batch after any of them — so after absorbing a prefix of a
///   serial batch, `next_batch` must propose the rest of it.
/// * [`snapshot`](Campaign::snapshot) / [`restore`](Campaign::restore)
///   round-trip every bit of in-flight state (RNG streams included):
///   a restored campaign must produce the same remaining batches, and
///   absorb them to the same result, as the original would have.
pub trait Campaign {
    /// Stable kind tag stored in checkpoint headers (`"virus"`, ...).
    fn kind(&self) -> &'static str;

    /// Fingerprint of everything the checkpoint does **not** store but
    /// correctness depends on: run config, platform, campaign
    /// parameters. Resume refuses a mismatch.
    fn fingerprint(&self) -> u64;

    /// The campaign's telemetry handle (cloned for quiet workers).
    fn telemetry(&self) -> Telemetry;

    /// The next batch, or `None` when the campaign is complete.
    fn next_batch(&mut self) -> Option<StepBatch>;

    /// Absorbs outcomes of the batch just executed (request order).
    ///
    /// # Errors
    ///
    /// [`DomainError`] when an outcome is fatal to the campaign.
    fn absorb(&mut self, outcomes: &[StepOutcome]) -> Result<(), DomainError>;

    /// Serializes all in-flight state.
    fn snapshot(&self) -> Value;

    /// Captures all in-flight state as a deferred render: the returned
    /// closure must build the same tree [`snapshot`](Campaign::snapshot)
    /// would have built at the moment of the call, but runs only when a
    /// debounced checkpoint write actually happens — most cadence
    /// points stash the closure and are superseded before rendering.
    /// The default simply renders eagerly; campaigns with
    /// allocation-heavy snapshots (kernel populations) override it to
    /// clone cheap typed state instead, keeping the batch loop's
    /// checkpoint cost to a few memcpys.
    fn snapshot_deferred(&self) -> Box<dyn FnOnce() -> Value + Send> {
        let tree = self.snapshot();
        Box::new(move || tree)
    }

    /// Restores state written by [`snapshot`](Campaign::snapshot).
    ///
    /// # Errors
    ///
    /// [`DeError`] on a malformed or incompatible tree; resume reports
    /// it as [`DomainError::Checkpoint`].
    fn restore(&mut self, state: &Value) -> Result<(), DeError>;

    /// Called once when the campaign starts fresh (not on resume) —
    /// the place to charge start-of-run counters that a resumed run
    /// restores from its checkpoint instead (e.g. the SIMD dispatch
    /// level).
    fn on_fresh_start(&mut self) {}
}

/// How a drive ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriveOutcome {
    /// The campaign ran out of batches; results are final.
    Complete,
    /// The batch limit was reached; state was checkpointed (when a
    /// checkpoint path is configured) and the campaign can resume.
    Interrupted,
}

/// Executes a [`Campaign`] against a [`MeasurementBackend`] under the
/// [`DriveOptions`] [`drive`] was given.
struct StepDriver<'a, B: MeasurementBackend + ?Sized> {
    backend: &'a mut B,
    opts: &'a DriveOptions,
    batches_done: u64,
}

impl<B: MeasurementBackend + ?Sized> StepDriver<'_, B> {
    /// Loads `path` and restores `campaign`, the backend rig and the
    /// telemetry totals to the snapshot, after verifying the header:
    /// campaign kind and run-config fingerprint must match, so a
    /// checkpoint taken against a different chip/config is refused.
    ///
    /// # Errors
    ///
    /// [`DomainError::Checkpoint`] on I/O or parse failure, a header
    /// mismatch, or incompatible campaign/rig state.
    fn resume<C: Campaign + ?Sized>(
        &mut self,
        campaign: &mut C,
        path: &Path,
    ) -> Result<(), DomainError> {
        let cp = Checkpoint::read(path).map_err(DomainError::Checkpoint)?;
        if cp.campaign != campaign.kind() {
            return Err(DomainError::Checkpoint(format!(
                "{} holds a `{}` campaign, not `{}`",
                path.display(),
                cp.campaign,
                campaign.kind()
            )));
        }
        if cp.fingerprint != campaign.fingerprint() {
            return Err(DomainError::Checkpoint(format!(
                "{} was taken with config fingerprint {}, but this run has {}; \
                 refusing to resume against a different chip/config",
                path.display(),
                Bits(cp.fingerprint),
                Bits(campaign.fingerprint())
            )));
        }
        campaign
            .restore(&cp.state)
            .map_err(|e| DomainError::Checkpoint(e.to_string()))?;
        self.backend
            .restore_rig_state(&cp.rig)
            .map_err(|e| DomainError::Checkpoint(e.to_string()))?;
        let tel = campaign.telemetry();
        cp.telemetry.restore_into(&tel);
        tel.count(CounterId::StepsResumed, cp.batches);
        self.batches_done = cp.batches;
        Ok(())
    }

    /// Runs the campaign to completion or to the batch limit.
    ///
    /// Checkpoint writes are debounced: each cadence point stashes a
    /// cheap typed snapshot ([`Campaign::snapshot_deferred`]) and the
    /// newest one is rendered and atomically written at most once per
    /// window, so `--checkpoint PATH:1` on a fast campaign does not pay
    /// a disk write per batch. A run that stops at the batch limit
    /// always flushes the interrupt snapshot before returning; a
    /// campaign that runs to completion instead discards the stashed
    /// snapshot — a finished campaign has nothing left to resume, so
    /// the success path never pays the final render and write.
    ///
    /// # Errors
    ///
    /// [`DomainError`] from a fatal absorb or a failed checkpoint write.
    fn run<C: Campaign + ?Sized>(&mut self, campaign: &mut C) -> Result<DriveOutcome, DomainError> {
        let mut writer = self.opts.checkpoint.clone().map(CheckpointWriter::new);
        match self.run_loop(campaign, &mut writer) {
            Ok(DriveOutcome::Complete) => Ok(DriveOutcome::Complete),
            Ok(DriveOutcome::Interrupted) => {
                writer.map_or(Ok(()), CheckpointWriter::finish)?;
                Ok(DriveOutcome::Interrupted)
            }
            Err(e) => {
                // Best effort: the newest pre-error snapshot still
                // resumes, and the absorb error outranks a failed flush.
                if let Some(w) = writer {
                    let _ = w.finish();
                }
                Err(e)
            }
        }
    }

    fn run_loop<C: Campaign + ?Sized>(
        &mut self,
        campaign: &mut C,
        writer: &mut Option<CheckpointWriter>,
    ) -> Result<DriveOutcome, DomainError> {
        while let Some(batch) = campaign.next_batch() {
            if self
                .opts
                .max_batches
                .is_some_and(|limit| self.batches_done >= limit)
            {
                self.enqueue_checkpoint(campaign, writer)?;
                return Ok(DriveOutcome::Interrupted);
            }
            match batch.mode {
                BatchMode::Lanes => {
                    let outcomes = self.execute_lanes(campaign, &batch.requests);
                    campaign.absorb(&outcomes)?;
                }
                BatchMode::Serial if batch.requests.is_empty() => campaign.absorb(&[])?,
                BatchMode::Serial => {
                    self.execute_serial(campaign, &batch.requests, writer)?;
                    continue;
                }
            }
            self.batches_done = next_step(self.batches_done)?;
            if writer.is_some()
                && self
                    .batches_done
                    .is_multiple_of(self.opts.checkpoint_every.max(1))
            {
                self.enqueue_checkpoint(campaign, writer)?;
            }
        }
        Ok(DriveOutcome::Complete)
    }

    /// Lane-grouped dispatch: requests are chunked into lane groups,
    /// groups fan out over the scoped worker pool, and every group is a
    /// single `measure_batch` call against a quiet telemetry clone
    /// (workers never emit events).
    fn execute_lanes<C: Campaign + ?Sized>(
        &mut self,
        campaign: &C,
        requests: &[StepRequest],
    ) -> Vec<StepOutcome> {
        let quiet = campaign.telemetry().quiet();
        let groups: Vec<&[StepRequest]> = requests.chunks(self.opts.lanes.max(1)).collect();
        let backend: &B = &*self.backend;
        let eval_group = |chunk: &&[StepRequest]| -> Vec<StepOutcome> {
            let reqs: Vec<MeasureRequest<'_>> = chunk.iter().map(StepRequest::as_measure).collect();
            backend
                .measure_batch(&reqs, &quiet)
                .into_iter()
                .map(outcome_of)
                .collect()
        };
        let grouped: Vec<Vec<StepOutcome>> = if self.opts.threads <= 1 {
            groups.iter().map(eval_group).collect()
        } else {
            emvolt_ga::map_parallel(&groups, eval_group, self.opts.threads)
        };
        grouped.into_iter().flatten().collect()
    }

    /// Serial dispatch: the leading requests, up to a lane width, go to
    /// the backend as one `measure_serial_batch` call on the campaign's
    /// full telemetry handle. Each outcome is absorbed as it arrives and
    /// counts as one step; a step that lands on the checkpoint cadence is
    /// checkpointed right there, inside the call, with the rig state the
    /// backend reports for that request — the snapshot a one-request step
    /// would take. The chunk stops at the batch limit, so an interrupted
    /// run stops exactly where one-request steps would.
    fn execute_serial<C: Campaign + ?Sized>(
        &mut self,
        campaign: &mut C,
        requests: &[StepRequest],
        writer: &mut Option<CheckpointWriter>,
    ) -> Result<(), DomainError> {
        let mut room = self.opts.lanes.max(1) as u64;
        if let Some(limit) = self.opts.max_batches {
            room = room.min(limit - self.batches_done);
        }
        let chunk = &requests[..requests.len().min(room as usize)];
        let reqs: Vec<MeasureRequest<'_>> = chunk.iter().map(StepRequest::as_measure).collect();
        let tel = campaign.telemetry();
        let every = self.opts.checkpoint_every.max(1);
        let before = self.batches_done;
        let batches_done = &mut self.batches_done;
        let mut failed = None;
        self.backend
            .measure_serial_batch(&reqs, &tel, &mut |Served { result, rig, .. }| {
                let step = campaign.absorb(&[outcome_of(result)]).and_then(|()| {
                    *batches_done = next_step(*batches_done)?;
                    match writer.as_mut() {
                        Some(w) if batches_done.is_multiple_of(every) => {
                            send_checkpoint(campaign, w, *batches_done, rig)
                        }
                        _ => Ok(()),
                    }
                });
                match step {
                    Ok(()) => ControlFlow::Continue(()),
                    Err(e) => {
                        failed = Some(e);
                        ControlFlow::Break(())
                    }
                }
            });
        if let Some(e) = failed {
            return Err(e);
        }
        let served = self.batches_done - before;
        if served != chunk.len() as u64 {
            return Err(DomainError::Backend(format!(
                "backend `{}` served {served} of {} serial requests",
                self.backend.label(),
                chunk.len()
            )));
        }
        Ok(())
    }

    fn enqueue_checkpoint<C: Campaign + ?Sized>(
        &mut self,
        campaign: &C,
        writer: &mut Option<CheckpointWriter>,
    ) -> Result<(), DomainError> {
        match writer.as_mut() {
            Some(writer) => send_checkpoint(
                campaign,
                writer,
                self.batches_done,
                self.backend.rig_state(),
            ),
            None => Ok(()),
        }
    }
}

/// The step count after one more step. The count is restored from a
/// checkpoint header, so one near `u64::MAX` is refused, not wrapped.
fn next_step(batches: u64) -> Result<u64, DomainError> {
    batches.checked_add(1).ok_or_else(|| {
        DomainError::Checkpoint(format!(
            "step count {batches} cannot advance; the checkpoint's `batches` is corrupt"
        ))
    })
}

/// Hands `writer` a snapshot of `campaign` after `batches` steps, with the
/// backend's rig state at that point.
fn send_checkpoint<C: Campaign + ?Sized>(
    campaign: &C,
    writer: &mut CheckpointWriter,
    batches: u64,
    rig: Vec<(String, String)>,
) -> Result<(), DomainError> {
    let tel = campaign.telemetry();
    tel.count(CounterId::CheckpointWrites, 1);
    let pending = PendingCheckpoint {
        campaign: campaign.kind().to_string(),
        fingerprint: campaign.fingerprint(),
        batches,
        state: campaign.snapshot_deferred(),
        rig,
        telemetry: TelemetrySnapshot::capture(&tel),
    };
    writer.send(pending)
}

/// A checkpoint captured at a batch boundary but not yet rendered:
/// everything is owned data except `state`, whose `Value` tree is built
/// via [`Campaign::snapshot_deferred`] only if this snapshot survives
/// the debounce window.
struct PendingCheckpoint {
    campaign: String,
    fingerprint: u64,
    batches: u64,
    state: Box<dyn FnOnce() -> Value + Send>,
    rig: Vec<(String, String)>,
    telemetry: TelemetrySnapshot,
}

impl PendingCheckpoint {
    fn render(self) -> Checkpoint {
        Checkpoint {
            campaign: self.campaign,
            fingerprint: self.fingerprint,
            batches: self.batches,
            state: (self.state)(),
            rig: self.rig,
            telemetry: self.telemetry,
        }
    }
}

/// Debounced checkpoint sink: each cadence point hands over a cheap
/// typed snapshot ([`Campaign::snapshot_deferred`]), a newer snapshot
/// supersedes an unwritten older one (the rename would have clobbered
/// it anyway), and JSON rendering plus the atomic write run at most
/// once per [`CHECKPOINT_WRITE_DEBOUNCE`]. A campaign whose batches
/// outlast the window still hits disk at every cadence point; a fast
/// campaign pays for a single write. [`CheckpointWriter::finish`]
/// always flushes the newest held snapshot, so the file a finished or
/// interrupted run leaves behind is exactly the last snapshot taken.
struct CheckpointWriter {
    path: PathBuf,
    held: Option<PendingCheckpoint>,
    last_write: std::time::Instant,
}

/// Minimum gap between cadence-driven disk writes. A kill loses at most
/// this much wall clock on top of the batch in flight — noise next to
/// the minutes a characterization campaign runs — while campaigns whose
/// batches outlast the window still hit disk at every cadence point.
const CHECKPOINT_WRITE_DEBOUNCE: std::time::Duration = std::time::Duration::from_millis(250);

impl CheckpointWriter {
    fn new(path: PathBuf) -> Self {
        CheckpointWriter {
            path,
            held: None,
            // The window opens here, so a campaign that finishes inside
            // it pays for exactly one disk write — the one in `finish`.
            last_write: std::time::Instant::now(),
        }
    }

    /// Takes one snapshot, writing through when the window has lapsed.
    fn send(&mut self, pending: PendingCheckpoint) -> Result<(), DomainError> {
        self.held = Some(pending);
        if self.last_write.elapsed() >= CHECKPOINT_WRITE_DEBOUNCE {
            self.flush()?;
        }
        Ok(())
    }

    /// Renders and atomically writes the held snapshot, if any.
    fn flush(&mut self) -> Result<(), DomainError> {
        if let Some(pending) = self.held.take() {
            pending
                .render()
                .write(&self.path)
                .map_err(DomainError::Checkpoint)?;
            self.last_write = std::time::Instant::now();
        }
        Ok(())
    }

    /// Writes the newest snapshot regardless of the debounce window —
    /// callers must invoke this before relying on the file.
    fn finish(mut self) -> Result<(), DomainError> {
        self.flush()
    }
}

/// Everything a CLI passes down to drive a campaign: worker-pool shape
/// plus checkpoint/resume/interrupt wiring. One struct so every campaign
/// entry point (`sweep`, `virus`, `vmin`) exposes the same knobs.
#[derive(Debug, Clone, Default)]
pub struct DriveOptions {
    /// Worker threads for lane batches (`<= 1` = serial dispatch; the
    /// caller resolves `0 = auto` before building this).
    pub threads: usize,
    /// Requests per backend call: the lane group of a lane batch, the
    /// chunk of a serial batch (resolved by the caller; the campaign
    /// entry points resolve `0` to the detected SIMD level's preferred
    /// width).
    pub lanes: usize,
    /// Checkpoint file; `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Checkpoint cadence in batches (clamped to at least 1).
    pub checkpoint_every: u64,
    /// Resume from this checkpoint before running.
    pub resume: Option<PathBuf>,
    /// Stop (with a checkpoint) after this many absorbed batches.
    pub max_batches: Option<u64>,
}

impl DriveOptions {
    /// Serial, non-checkpointed options with the given pool shape —
    /// what the legacy entry points use.
    pub fn pool(threads: usize, lanes: usize) -> Self {
        DriveOptions {
            threads,
            lanes,
            ..DriveOptions::default()
        }
    }
}

/// Drives `campaign` against `backend` under `opts`: resumes from the
/// checkpoint when one is named (after fingerprint verification),
/// otherwise calls [`Campaign::on_fresh_start`], then runs to
/// completion or the batch limit.
///
/// # Errors
///
/// [`DomainError`] from resume verification, a fatal absorb, or a
/// failed checkpoint write.
pub fn drive<B, C>(
    backend: &mut B,
    campaign: &mut C,
    opts: &DriveOptions,
) -> Result<DriveOutcome, DomainError>
where
    B: MeasurementBackend + ?Sized,
    C: Campaign + ?Sized,
{
    let mut driver = StepDriver {
        backend,
        opts,
        batches_done: 0,
    };
    match &opts.resume {
        Some(path) => driver.resume(campaign, path)?,
        None => campaign.on_fresh_start(),
    }
    driver.run(campaign)
}

/// A backend that cannot measure: for compute-only campaigns (the Vmin
/// ladder) whose batches never carry requests but still want the
/// engine's checkpoint/resume/interrupt machinery.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullBackend;

impl MeasurementBackend for NullBackend {
    fn label(&self) -> &'static str {
        "null"
    }

    fn domains(&self) -> Vec<emvolt_backend::DomainInfo> {
        Vec::new()
    }

    fn configure_run(&mut self, _config: &emvolt_platform::RunConfig) -> Result<(), BackendError> {
        Ok(())
    }

    fn measure(
        &self,
        _req: &MeasureRequest<'_>,
        _telemetry: &Telemetry,
    ) -> Result<EmObservation, BackendError> {
        Err(BackendError::Store(
            "null backend cannot measure".to_string(),
        ))
    }

    fn measure_serial(
        &mut self,
        req: &MeasureRequest<'_>,
        telemetry: &Telemetry,
    ) -> Result<EmObservation, BackendError> {
        self.measure(req, telemetry)
    }

    fn capture_combined(
        &mut self,
        _sources: &[emvolt_backend::CombinedSource<'_>],
        _seed: u64,
        _telemetry: &Telemetry,
    ) -> Result<emvolt_inst::SweepReading, BackendError> {
        Err(BackendError::Store(
            "null backend cannot capture".to_string(),
        ))
    }

    fn elapsed_seconds(&self) -> f64 {
        0.0
    }

    fn costs(&self) -> emvolt_platform::SessionCosts {
        emvolt_platform::SessionCosts::default()
    }
}

fn outcome_of(result: Result<EmObservation, BackendError>) -> StepOutcome {
    match result {
        Ok(obs) => StepOutcome::Observation(obs),
        Err(e) => StepOutcome::Failed(e.to_string()),
    }
}

/// FNV-1a accumulator for campaign fingerprints: fold in the run
/// config, platform identity and campaign parameters so a checkpoint
/// can refuse to resume against anything else.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Starts at the FNV offset basis.
    pub fn new() -> Self {
        Fingerprint(Self::OFFSET)
    }

    /// Folds raw bytes.
    #[must_use]
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Folds a string (length-prefixed so fields cannot run together).
    #[must_use]
    pub fn str(self, s: &str) -> Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// Folds a `u64`.
    #[must_use]
    pub fn u64(self, n: u64) -> Self {
        self.bytes(&n.to_le_bytes())
    }

    /// Folds an `f64` by bit pattern.
    #[must_use]
    pub fn f64(self, v: f64) -> Self {
        self.u64(v.to_bits())
    }

    /// The accumulated fingerprint.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_distinguishes_field_order() {
        let a = Fingerprint::new().str("ab").str("c").finish();
        let b = Fingerprint::new().str("a").str("bc").finish();
        assert_ne!(a, b);
        let again = Fingerprint::new().str("ab").str("c").finish();
        assert_eq!(a, again);
    }

    #[test]
    fn step_batch_helpers_set_modes() {
        assert_eq!(StepBatch::compute().mode, BatchMode::Serial);
        assert!(StepBatch::compute().requests.is_empty());
        assert_eq!(StepBatch::lanes(Vec::new()).mode, BatchMode::Lanes);
        assert_eq!(StepBatch::serial(Vec::new()).mode, BatchMode::Serial);
    }
}
