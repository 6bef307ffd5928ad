//! Memoizing wrapper: any inner backend, cached by request key.
//!
//! This subsumes the fitness cache campaigns used to hand-roll: a
//! request already answered in this campaign is served from memory — no
//! simulation, no analyzer time — and charged to the
//! `fitness_cache_hits` counter. Failures are cached too (as
//! [`BackendError::CachedFailure`]), so a kernel that cannot simulate is
//! not retried per generation, matching the old behavior of caching the
//! noise-floor score.
//!
//! Only the parallel seeded path caches: serial (`rig`) measurements are
//! stateful by design and combined captures are one-shot, so both pass
//! through.

use crate::request::{CombinedSource, DomainInfo, EmObservation, MeasureRequest};
use crate::trace::request_key;
use crate::{BackendError, MeasurementBackend, Served};
use emvolt_inst::SweepReading;
use emvolt_obs::{CounterId, Telemetry};
use emvolt_platform::{RunConfig, SessionCosts};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::ops::ControlFlow;

#[derive(Debug, Clone)]
enum CachedResult {
    Hit(EmObservation),
    Failure(String),
}

/// [`MeasurementBackend`] wrapper memoizing seeded measurements.
#[derive(Debug)]
pub struct CachingBackend<B> {
    inner: B,
    entries: Mutex<HashMap<String, CachedResult>>,
}

impl<B: MeasurementBackend> CachingBackend<B> {
    /// Wraps `inner` with an empty cache.
    pub fn new(inner: B) -> Self {
        CachingBackend {
            inner,
            entries: Mutex::new(HashMap::new()),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Unwraps, dropping the cache.
    pub fn into_inner(self) -> B {
        self.inner
    }

    /// Cached entries so far.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<B: MeasurementBackend> MeasurementBackend for CachingBackend<B> {
    fn label(&self) -> &'static str {
        "cache"
    }

    fn domains(&self) -> Vec<DomainInfo> {
        self.inner.domains()
    }

    fn configure_run(&mut self, config: &RunConfig) -> Result<(), BackendError> {
        // A fidelity change invalidates every memoized reading.
        self.entries.lock().clear();
        self.inner.configure_run(config)
    }

    fn measure(
        &self,
        req: &MeasureRequest<'_>,
        telemetry: &Telemetry,
    ) -> Result<EmObservation, BackendError> {
        // The run-config fingerprint is omitted from cache keys: the
        // cache is cleared on configure_run, so one generation of keys
        // never spans two fidelities.
        let key = request_key(req, 0);
        if let Some(cached) = self.entries.lock().get(&key).cloned() {
            telemetry.count(CounterId::FitnessCacheHits, 1);
            return match cached {
                CachedResult::Hit(obs) => Ok(EmObservation {
                    cached: true,
                    ..obs
                }),
                CachedResult::Failure(err) => Err(BackendError::CachedFailure(err)),
            };
        }
        telemetry.count(CounterId::FitnessCacheMisses, 1);
        let result = self.inner.measure(req, telemetry);
        let stored = match &result {
            Ok(obs) => CachedResult::Hit(*obs),
            Err(e) => CachedResult::Failure(e.to_string()),
        };
        self.entries.lock().insert(key, stored);
        result
    }

    fn measure_serial(
        &mut self,
        req: &MeasureRequest<'_>,
        telemetry: &Telemetry,
    ) -> Result<EmObservation, BackendError> {
        self.inner.measure_serial(req, telemetry)
    }

    fn measure_serial_batch(
        &mut self,
        reqs: &[MeasureRequest<'_>],
        telemetry: &Telemetry,
        on_result: &mut dyn FnMut(Served) -> ControlFlow<()>,
    ) {
        self.inner.measure_serial_batch(reqs, telemetry, on_result)
    }

    fn capture_combined(
        &mut self,
        sources: &[CombinedSource<'_>],
        seed: u64,
        telemetry: &Telemetry,
    ) -> Result<SweepReading, BackendError> {
        self.inner.capture_combined(sources, seed, telemetry)
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
        self.inner.finish()
    }
}
