//! Uniformly-sampled waveform container returned by the transient analysis
//! and consumed by the instrument models.

/// A uniformly sampled real-valued waveform.
///
/// # Examples
///
/// ```
/// use emvolt_circuit::Trace;
/// let t = Trace::from_samples(1e-9, vec![1.0, 3.0, 2.0]);
/// assert_eq!(t.peak_to_peak(), 2.0);
/// assert_eq!(t.len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    dt: f64,
    t0: f64,
    values: Vec<f64>,
}

impl Trace {
    /// Creates a trace starting at `t = 0` with sample spacing `dt`.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive.
    pub fn from_samples(dt: f64, values: Vec<f64>) -> Self {
        assert!(dt > 0.0, "trace sample spacing must be positive");
        Trace {
            dt,
            t0: 0.0,
            values,
        }
    }

    /// Creates a trace with an explicit start time.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive.
    pub fn with_start(dt: f64, t0: f64, values: Vec<f64>) -> Self {
        assert!(dt > 0.0, "trace sample spacing must be positive");
        Trace { dt, t0, values }
    }

    /// Overwrites this trace in place, reusing its sample buffer's
    /// capacity — the allocation-free counterpart of
    /// [`Trace::with_start`] for hot loops that recycle traces.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive.
    pub fn refill(&mut self, dt: f64, t0: f64, samples: &[f64]) {
        assert!(dt > 0.0, "trace sample spacing must be positive");
        self.dt = dt;
        self.t0 = t0;
        self.values.clear();
        self.values.extend_from_slice(samples);
    }

    /// Sample spacing in seconds.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Sampling rate in Hz.
    pub fn sample_rate(&self) -> f64 {
        1.0 / self.dt
    }

    /// Time of the first sample.
    pub fn start_time(&self) -> f64 {
        self.t0
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when the trace holds no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total covered duration in seconds.
    pub fn duration(&self) -> f64 {
        self.values.len() as f64 * self.dt
    }

    /// Borrow the raw samples.
    pub fn samples(&self) -> &[f64] {
        &self.values
    }

    /// Time coordinate of sample `i`.
    pub fn time_at(&self, i: usize) -> f64 {
        self.t0 + i as f64 * self.dt
    }

    /// Iterator over `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(move |(i, &v)| (self.time_at(i), v))
    }

    /// Minimum sample value; `NaN` for an empty trace.
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::NAN, f64::min)
    }

    /// Maximum sample value; `NaN` for an empty trace.
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(f64::NAN, f64::max)
    }

    /// Peak-to-peak excursion (`max - min`); `NaN` for an empty trace.
    pub fn peak_to_peak(&self) -> f64 {
        self.max() - self.min()
    }

    /// Arithmetic mean; `NaN` for an empty trace.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Root-mean-square value; `NaN` for an empty trace.
    pub fn rms(&self) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        (self.values.iter().map(|v| v * v).sum::<f64>() / self.values.len() as f64).sqrt()
    }

    /// Worst undershoot below `nominal` (a positive number when the trace
    /// dips below `nominal`; zero otherwise). This is the paper's "maximum
    /// voltage droop" metric.
    pub fn max_droop_below(&self, nominal: f64) -> f64 {
        (nominal - self.min()).max(0.0)
    }

    /// Returns a sub-trace covering `[from, to)` seconds (relative to the
    /// trace start time), clamped to the available range.
    pub fn window(&self, from: f64, to: f64) -> Trace {
        let i0 = (((from - self.t0) / self.dt).ceil().max(0.0)) as usize;
        let i1 = ((((to - self.t0) / self.dt).floor()).max(0.0) as usize).min(self.values.len());
        let values = if i0 < i1 {
            self.values[i0..i1].to_vec()
        } else {
            Vec::new()
        };
        Trace {
            dt: self.dt,
            t0: self.time_at(i0),
            values,
        }
    }

    /// Resamples the trace onto a new grid with spacing `new_dt` using
    /// zero-order hold — how a piecewise-constant per-cycle current trace
    /// maps onto a finer integration grid.
    ///
    /// # Panics
    ///
    /// Panics if `new_dt` is not strictly positive.
    pub fn resample_hold(&self, new_dt: f64) -> Trace {
        assert!(new_dt > 0.0, "resample spacing must be positive");
        if self.values.is_empty() {
            return Trace {
                dt: new_dt,
                t0: self.t0,
                values: Vec::new(),
            };
        }
        let n = (self.duration() / new_dt).floor() as usize;
        let values = (0..n)
            .map(|i| {
                let t = i as f64 * new_dt;
                let idx = ((t / self.dt) as usize).min(self.values.len() - 1);
                self.values[idx]
            })
            .collect();
        Trace {
            dt: new_dt,
            t0: self.t0,
            values,
        }
    }

    /// Keeps every `stride`-th sample, starting from the first — the
    /// decimation the waveform-trace path applies before emitting dense
    /// transients, so `decimated(1)` is the identity and larger strides
    /// thin the trace without moving `t0`.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    pub fn decimated(&self, stride: usize) -> Trace {
        assert!(stride > 0, "decimation stride must be positive");
        Trace {
            dt: self.dt * stride as f64,
            t0: self.t0,
            values: self.values.iter().copied().step_by(stride).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t123() -> Trace {
        Trace::from_samples(0.5, vec![1.0, 2.0, 3.0, 2.0])
    }

    #[test]
    fn statistics() {
        let t = t123();
        assert_eq!(t.min(), 1.0);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.peak_to_peak(), 2.0);
        assert_eq!(t.mean(), 2.0);
        let expected_rms = ((1.0 + 4.0 + 9.0 + 4.0) / 4.0f64).sqrt();
        assert!((t.rms() - expected_rms).abs() < 1e-12);
    }

    #[test]
    fn droop_metric() {
        let t = t123();
        assert!((t.max_droop_below(1.5) - 0.5).abs() < 1e-12);
        assert_eq!(t.max_droop_below(0.5), 0.0);
    }

    #[test]
    fn windowing() {
        let t = t123();
        let w = t.window(0.5, 1.5);
        assert_eq!(w.samples(), &[2.0, 3.0]);
        assert_eq!(w.start_time(), 0.5);
        let empty = t.window(5.0, 6.0);
        assert!(empty.is_empty());
    }

    #[test]
    fn time_iteration() {
        let t = t123();
        let pts: Vec<(f64, f64)> = t.iter().collect();
        assert_eq!(pts[2], (1.0, 3.0));
    }

    #[test]
    fn resample_hold_coarser_and_finer() {
        let t = Trace::from_samples(1.0, vec![1.0, 2.0]);
        let fine = t.resample_hold(0.5);
        assert_eq!(fine.samples(), &[1.0, 1.0, 2.0, 2.0]);
        let coarse = t.resample_hold(2.0);
        assert_eq!(coarse.samples(), &[1.0]);
    }

    #[test]
    fn empty_trace_stats_are_nan() {
        let t = Trace::from_samples(1.0, vec![]);
        assert!(t.min().is_nan());
        assert!(t.mean().is_nan());
        assert!(t.rms().is_nan());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dt_panics() {
        let _ = Trace::from_samples(0.0, vec![1.0]);
    }

    #[test]
    fn single_sample_trace_is_well_defined() {
        let t = Trace::from_samples(0.25, vec![7.0]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.duration(), 0.25);
        assert_eq!(t.min(), 7.0);
        assert_eq!(t.max(), 7.0);
        assert_eq!(t.mean(), 7.0);
        assert_eq!(t.rms(), 7.0);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(0.0, 7.0)]);
        // Decimation of one sample keeps it, at any stride.
        assert_eq!(t.decimated(10).samples(), &[7.0]);
    }

    #[test]
    fn nonzero_t0_shifts_times_not_values() {
        let t = Trace::with_start(0.5, 3.0, vec![1.0, 2.0, 3.0]);
        assert_eq!(t.start_time(), 3.0);
        assert_eq!(t.time_at(2), 4.0);
        let pts: Vec<(f64, f64)> = t.iter().collect();
        assert_eq!(pts[0], (3.0, 1.0));
        // Windowing and decimation preserve the shifted axis.
        let w = t.window(3.5, 4.5);
        assert_eq!(w.start_time(), 3.5);
        assert_eq!(w.samples(), &[2.0, 3.0]);
        let d = t.decimated(2);
        assert_eq!(d.start_time(), 3.0);
        assert_eq!(d.time_at(1), 4.0);
    }

    #[test]
    fn decimation_identity_and_stride() {
        let t = Trace::with_start(0.5, 1.0, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let id = t.decimated(1);
        assert_eq!(id.samples(), t.samples());
        assert_eq!(id.dt(), t.dt());
        assert_eq!(id.start_time(), t.start_time());
        let d2 = t.decimated(2);
        assert_eq!(d2.samples(), &[1.0, 3.0, 5.0]);
        assert_eq!(d2.dt(), 1.0);
        // The kept samples land at exactly their original timestamps —
        // the invariant the wavetrace stride path relies on.
        for (i, (td, vd)) in d2.iter().enumerate() {
            assert_eq!((td, vd), (t.time_at(2 * i), t.samples()[2 * i]));
        }
        // Over-long strides keep only the first sample.
        assert_eq!(t.decimated(100).samples(), &[1.0]);
    }

    #[test]
    fn decimation_round_trips_through_resample_hold() {
        // A piecewise-constant trace decimated then re-expanded by
        // zero-order hold reproduces itself when values change slower
        // than the stride.
        let t = Trace::from_samples(1.0, vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0]);
        let rt = t.decimated(2).resample_hold(1.0);
        assert_eq!(rt.samples(), t.samples());
        assert_eq!(rt.dt(), 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_stride_panics() {
        let _ = t123().decimated(0);
    }
}
