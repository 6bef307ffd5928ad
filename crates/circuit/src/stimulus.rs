//! Time-varying source waveforms.
//!
//! Every independent source in a netlist carries a [`Stimulus`] describing
//! its value over time. The CPU simulator produces per-cycle current samples
//! which enter the PDN simulation through [`Stimulus::Samples`], mirroring
//! how program activity loads the real power-delivery network.

use std::sync::Arc;

/// A deterministic waveform `f(t)` for an independent source.
#[derive(Debug, Clone)]
pub enum Stimulus {
    /// Constant value.
    Dc(f64),
    /// Ideal step: `before` for `t < t0`, `after` afterwards.
    Step {
        /// Switch time in seconds.
        t0: f64,
        /// Value before `t0`.
        before: f64,
        /// Value at and after `t0`.
        after: f64,
    },
    /// Periodic rectangular wave starting at `t0`; the paper's synthetic
    /// current load (SCL) injects exactly this shape.
    Pulse {
        /// Value during the low phase.
        lo: f64,
        /// Value during the high phase.
        hi: f64,
        /// Period in seconds.
        period: f64,
        /// Fraction of the period spent high, in `(0, 1)`.
        duty: f64,
        /// Start time; the wave is `lo` before `t0`.
        t0: f64,
    },
    /// Sinusoid `offset + amplitude * sin(2*pi*freq*t + phase)`.
    Sine {
        /// DC offset.
        offset: f64,
        /// Peak amplitude.
        amplitude: f64,
        /// Frequency in Hz.
        freq: f64,
        /// Phase in radians.
        phase: f64,
    },
    /// Piecewise-linear interpolation through `(t, v)` points sorted by `t`.
    /// Clamps to the first/last value outside the covered range.
    Pwl(Arc<[(f64, f64)]>),
    /// Zero-order-hold samples spaced `dt` apart, optionally repeated
    /// (tiled) forever — the bridge from cycle-level CPU current traces.
    Samples {
        /// Sample spacing in seconds.
        dt: f64,
        /// Sample values; shared so cloning a netlist stays cheap.
        values: Arc<[f64]>,
        /// When `true` the trace wraps around; when `false` it clamps to
        /// the final sample.
        repeat: bool,
    },
}

impl Stimulus {
    /// Builds a square-wave pulse with 50% duty cycle starting at `t = 0`,
    /// toggling between `lo` and `hi` at frequency `freq`.
    pub fn square(lo: f64, hi: f64, freq: f64) -> Self {
        Stimulus::Pulse {
            lo,
            hi,
            period: 1.0 / freq,
            duty: 0.5,
            t0: 0.0,
        }
    }

    /// Builds a repeating sampled waveform (zero-order hold).
    pub fn repeating_samples(dt: f64, values: impl Into<Arc<[f64]>>) -> Self {
        Stimulus::Samples {
            dt,
            values: values.into(),
            repeat: true,
        }
    }

    /// Evaluates the waveform at time `t` (seconds).
    ///
    /// # Examples
    ///
    /// ```
    /// use emvolt_circuit::Stimulus;
    /// let sq = Stimulus::square(0.0, 1.0, 1e6);
    /// assert_eq!(sq.value_at(0.1e-6), 1.0);
    /// assert_eq!(sq.value_at(0.6e-6), 0.0);
    /// ```
    pub fn value_at(&self, t: f64) -> f64 {
        match self {
            Stimulus::Dc(v) => *v,
            Stimulus::Step { t0, before, after } => {
                if t < *t0 {
                    *before
                } else {
                    *after
                }
            }
            Stimulus::Pulse {
                lo,
                hi,
                period,
                duty,
                t0,
            } => {
                if t < *t0 {
                    return *lo;
                }
                let phase = ((t - t0) / period).fract();
                if phase < *duty {
                    *hi
                } else {
                    *lo
                }
            }
            Stimulus::Sine {
                offset,
                amplitude,
                freq,
                phase,
            } => offset + amplitude * (2.0 * std::f64::consts::PI * freq * t + phase).sin(),
            Stimulus::Pwl(points) => {
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    return points[0].1;
                }
                let last = points[points.len() - 1];
                if t >= last.0 {
                    return last.1;
                }
                // Binary search for the surrounding segment.
                let idx = points.partition_point(|&(pt, _)| pt <= t);
                let (t0, v0) = points[idx - 1];
                let (t1, v1) = points[idx];
                if t1 == t0 {
                    v1
                } else {
                    v0 + (v1 - v0) * (t - t0) / (t1 - t0)
                }
            }
            Stimulus::Samples { dt, values, repeat } => {
                held_sample(values, *repeat, sample_index(*dt, t))
            }
        }
    }

    /// The DC (t -> -inf steady) value used to initialise operating points.
    pub fn dc_value(&self) -> f64 {
        match self {
            Stimulus::Dc(v) => *v,
            Stimulus::Step { before, .. } => *before,
            Stimulus::Pulse { lo, .. } => *lo,
            Stimulus::Sine { offset, .. } => *offset,
            Stimulus::Pwl(points) => points.first().map_or(0.0, |p| p.1),
            Stimulus::Samples { values, .. } => values.first().copied().unwrap_or(0.0),
        }
    }
}

/// The zero-order-hold index of time `t` in a trace of spacing `dt`:
/// `floor(t / dt)`, clamped at zero. Split out of
/// [`Stimulus::value_at`] so a lane group whose loads share one `dt` can
/// compute it once per step for every lane.
pub(crate) fn sample_index(dt: f64, t: f64) -> usize {
    let raw = (t / dt).floor();
    if raw < 0.0 {
        0
    } else {
        raw as usize
    }
}

/// The sample held at index `idx` of a [`Stimulus::Samples`] trace:
/// wrapped when `repeat`, else clamped to the final sample; zero for an
/// empty trace.
pub(crate) fn held_sample(values: &[f64], repeat: bool, idx: usize) -> f64 {
    match values.len() {
        0 => 0.0,
        n if repeat => values[idx % n],
        n => values[idx.min(n - 1)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_is_constant() {
        let s = Stimulus::Dc(2.5);
        assert_eq!(s.value_at(0.0), 2.5);
        assert_eq!(s.value_at(1e9), 2.5);
        assert_eq!(s.dc_value(), 2.5);
    }

    #[test]
    fn step_switches_at_t0() {
        let s = Stimulus::Step {
            t0: 1.0,
            before: 0.0,
            after: 3.0,
        };
        assert_eq!(s.value_at(0.999), 0.0);
        assert_eq!(s.value_at(1.0), 3.0);
        assert_eq!(s.dc_value(), 0.0);
    }

    #[test]
    fn pulse_duty_cycle() {
        let s = Stimulus::Pulse {
            lo: 1.0,
            hi: 2.0,
            period: 1.0,
            duty: 0.25,
            t0: 0.0,
        };
        assert_eq!(s.value_at(0.1), 2.0);
        assert_eq!(s.value_at(0.3), 1.0);
        assert_eq!(s.value_at(1.1), 2.0); // periodic
        assert_eq!(s.value_at(-0.5), 1.0); // before start
    }

    #[test]
    fn sine_has_expected_extremes() {
        let s = Stimulus::Sine {
            offset: 1.0,
            amplitude: 0.5,
            freq: 1.0,
            phase: 0.0,
        };
        assert!((s.value_at(0.25) - 1.5).abs() < 1e-12);
        assert!((s.value_at(0.75) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pwl_interpolates_and_clamps() {
        let s = Stimulus::Pwl(Arc::from(
            vec![(0.0, 0.0), (1.0, 2.0), (2.0, 2.0)].as_slice(),
        ));
        assert_eq!(s.value_at(-1.0), 0.0);
        assert!((s.value_at(0.5) - 1.0).abs() < 1e-12);
        assert_eq!(s.value_at(5.0), 2.0);
    }

    #[test]
    fn samples_repeat_and_clamp() {
        let vals: Arc<[f64]> = Arc::from(vec![1.0, 2.0, 3.0].as_slice());
        let rep = Stimulus::Samples {
            dt: 1.0,
            values: vals.clone(),
            repeat: true,
        };
        assert_eq!(rep.value_at(0.5), 1.0);
        assert_eq!(rep.value_at(4.5), 2.0); // index 4 % 3 == 1
        let clamp = Stimulus::Samples {
            dt: 1.0,
            values: vals,
            repeat: false,
        };
        assert_eq!(clamp.value_at(10.0), 3.0);
    }

    #[test]
    fn square_constructor() {
        let s = Stimulus::square(0.0, 1.0, 2.0);
        assert_eq!(s.value_at(0.1), 1.0);
        assert_eq!(s.value_at(0.3), 0.0);
    }
}
