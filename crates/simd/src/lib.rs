//! # emvolt-simd
//!
//! Runtime-dispatched SIMD kernels for the measurement chain's hot
//! loops: the state-space response-column folds, the SoA history
//! gather / companion-update loops, the Goertzel recurrence and the
//! elementwise products of the band pipeline.
//!
//! ## Dispatch contract
//!
//! A [`SimdLevel`] is resolved once per call site from, in priority
//! order: the in-process [`force_level`] test hook, the `EMVOLT_SIMD`
//! environment variable (`scalar`, `sse2`, `avx2`, `neon` or `auto`),
//! and CPU feature detection. Requests above the host's capability are
//! clamped to the best supported level, so every resolved level is safe
//! to execute.
//!
//! ## Bit-equality contract
//!
//! Every operation is defined by its scalar reference sequence, written
//! in terms of [`f64::mul_add`] — the IEEE 754 correctly-rounded fused
//! multiply-add. The vector paths execute the *identical* per-element
//! operation sequence with hardware FMA instructions (which implement
//! the same correctly-rounded fused operation), and vectorize only
//! across independent elements (nodes, lanes, bins) — never across a
//! sequential accumulation or recurrence dimension. Each element
//! therefore sees the same operations on the same values in the same
//! order at every dispatch level, and results are `to_bits`-identical
//! across `scalar`, `sse2`, `avx2` and `neon`. The property tests in
//! `tests/bit_identity.rs` pin this for every supported level.
//!
//! ```
//! use emvolt_simd::SimdLevel;
//!
//! let x = [1.0, 2.0, 3.0];
//! let y = [4.0, 5.0, 6.0];
//! let mut a = [0.0; 3];
//! let mut b = [0.0; 3];
//! emvolt_simd::level().mul(&x, &y, &mut a);
//! SimdLevel::Scalar.mul(&x, &y, &mut b);
//! assert_eq!(a, b);
//! ```

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

mod kernels;
mod vector;

#[cfg(target_arch = "x86_64")]
mod x86;

#[cfg(target_arch = "aarch64")]
mod neon;

/// A dispatchable instruction-set level. Ordered by capability within
/// each architecture; levels from foreign architectures are clamped to
/// the local capability ladder when requested (see [`level`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdLevel {
    /// Portable reference path: scalar `f64::mul_add` sequences.
    Scalar,
    /// x86-64 128-bit path (SSE2 registers, FMA3 arithmetic).
    Sse2,
    /// x86-64 256-bit path (AVX2 registers, FMA3 arithmetic).
    Avx2,
    /// AArch64 128-bit path (NEON registers, fused `vfmaq_f64`).
    Neon,
}

/// The capability ladder of the compiled architecture, weakest first.
#[cfg(target_arch = "x86_64")]
const LADDER: &[SimdLevel] = &[SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2];
/// The capability ladder of the compiled architecture, weakest first.
#[cfg(target_arch = "aarch64")]
const LADDER: &[SimdLevel] = &[SimdLevel::Scalar, SimdLevel::Neon];
/// The capability ladder of the compiled architecture, weakest first.
#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
const LADDER: &[SimdLevel] = &[SimdLevel::Scalar];

impl SimdLevel {
    /// Parses a level name as accepted by `EMVOLT_SIMD`.
    pub fn parse(s: &str) -> Option<SimdLevel> {
        match s {
            "scalar" => Some(SimdLevel::Scalar),
            "sse2" => Some(SimdLevel::Sse2),
            "avx2" => Some(SimdLevel::Avx2),
            "neon" => Some(SimdLevel::Neon),
            _ => None,
        }
    }

    /// The canonical name [`SimdLevel::parse`] accepts.
    pub fn as_str(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Neon => "neon",
        }
    }

    /// Architecture-independent capability rank used for clamping:
    /// scalar < (sse2 ~ neon) < avx2.
    fn rank(self) -> usize {
        match self {
            SimdLevel::Scalar => 0,
            SimdLevel::Sse2 | SimdLevel::Neon => 1,
            SimdLevel::Avx2 => 2,
        }
    }

    /// Stable small-integer code (1-based), distinct per level — the
    /// value surfaced through the observability counter.
    pub fn code(self) -> u8 {
        match self {
            SimdLevel::Scalar => 1,
            SimdLevel::Sse2 => 2,
            SimdLevel::Avx2 => 3,
            SimdLevel::Neon => 4,
        }
    }

    fn from_code(code: u8) -> Option<SimdLevel> {
        match code {
            1 => Some(SimdLevel::Scalar),
            2 => Some(SimdLevel::Sse2),
            3 => Some(SimdLevel::Avx2),
            4 => Some(SimdLevel::Neon),
            _ => None,
        }
    }

    /// How many `f64`s one vector register of this level holds.
    pub fn vector_f64s(self) -> usize {
        match self {
            SimdLevel::Scalar => 1,
            SimdLevel::Sse2 | SimdLevel::Neon => 2,
            SimdLevel::Avx2 => 4,
        }
    }

    /// Whether this level can execute on the current host.
    pub fn is_supported(self) -> bool {
        LADDER.contains(&self) && self.rank() <= detected_level().rank()
    }

    #[inline]
    fn assert_supported(self) {
        assert!(
            self.is_supported(),
            "SIMD level `{}` is not supported on this host (detected `{}`)",
            self.as_str(),
            detected_level().as_str()
        );
    }
}

/// CPU-feature detection, evaluated once per process.
pub fn detected_level() -> SimdLevel {
    static DETECTED: OnceLock<SimdLevel> = OnceLock::new();
    *DETECTED.get_or_init(detect)
}

#[cfg(target_arch = "x86_64")]
fn detect() -> SimdLevel {
    // Both vector tiers run FMA3 arithmetic (the fused ops are what keep
    // them bit-identical to the scalar `mul_add` reference), so each
    // requires the `fma` feature on top of its register width.
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        SimdLevel::Avx2
    } else if is_x86_feature_detected!("fma") {
        SimdLevel::Sse2
    } else {
        SimdLevel::Scalar
    }
}

#[cfg(target_arch = "aarch64")]
fn detect() -> SimdLevel {
    if std::arch::is_aarch64_feature_detected!("neon") {
        SimdLevel::Neon
    } else {
        SimdLevel::Scalar
    }
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
fn detect() -> SimdLevel {
    SimdLevel::Scalar
}

/// The `EMVOLT_SIMD` request, read once per process. `auto` and an
/// unset/empty variable mean "no request".
///
/// # Panics
///
/// Panics on an unrecognized value — a misspelled override silently
/// running a different path would defeat its testing purpose.
fn env_request() -> Option<SimdLevel> {
    static ENV: OnceLock<Option<SimdLevel>> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("EMVOLT_SIMD") {
        Err(_) => None,
        Ok(v) if v.is_empty() || v == "auto" => None,
        Ok(v) => Some(SimdLevel::parse(&v).unwrap_or_else(|| {
            panic!("EMVOLT_SIMD=`{v}` is not one of scalar|sse2|avx2|neon|auto")
        })),
    })
}

/// In-process override installed by [`force_level`]: 0 = none, else a
/// [`SimdLevel::code`]. Takes priority over `EMVOLT_SIMD` so tests can
/// sweep levels within one process regardless of the environment.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// Forces the dispatched level for this process (test hook), or clears
/// the override with `None`. Like the environment request, a forced
/// level is clamped to the host's capability, so forcing is always safe
/// — and, by the bit-equality contract, invisible in results.
pub fn force_level(level: Option<SimdLevel>) {
    FORCED.store(level.map_or(0, SimdLevel::code), Ordering::Relaxed);
}

/// Clamps a requested level to the host ladder: the requested
/// *capability rank* is limited to the detected rank and mapped onto
/// this architecture's ladder (so e.g. requesting `avx2` on an AArch64
/// host resolves to `neon`, and requesting `neon` on an SSE2-only
/// x86-64 host resolves to `sse2`).
fn clamp(requested: SimdLevel) -> SimdLevel {
    let rank = requested
        .rank()
        .min(detected_level().rank())
        .min(LADDER.len() - 1);
    LADDER[rank]
}

/// The level the process dispatches to right now: the [`force_level`]
/// override if set, else the `EMVOLT_SIMD` request, else detection —
/// always clamped to what the host supports.
pub fn level() -> SimdLevel {
    if let Some(forced) = SimdLevel::from_code(FORCED.load(Ordering::Relaxed)) {
        return clamp(forced);
    }
    match env_request() {
        Some(requested) => clamp(requested),
        None => detected_level(),
    }
}

/// Every level the host can execute, weakest first. Test sweeps iterate
/// this instead of hardcoding an architecture's ladder.
pub fn supported_levels() -> &'static [SimdLevel] {
    &LADDER[..=detected_level().rank().min(LADDER.len() - 1)]
}

/// Default evaluation lane width derived from the dispatched vector
/// width: two vector registers per SoA row (`2 x 4` lanes on AVX2 —
/// wide enough to amortize response-column loads across lanes, narrow
/// enough that per-lane state still fits L1), floored at 4 so scalar
/// and 128-bit hosts keep amortizing the batched chain's shared setup.
pub fn preferred_lanes() -> usize {
    (level().vector_f64s() * 2).max(4)
}

macro_rules! dispatch_ops {
    ($($(#[$doc:meta])* fn $name:ident($($arg:ident : $ty:ty),* $(,)?);)+) => {
        impl SimdLevel {
            $(
            $(#[$doc])*
            ///
            /// # Panics
            ///
            /// Panics if this level is not supported on the host (levels
            /// resolved through [`level`] always are).
            #[inline]
            pub fn $name(self, $($arg: $ty),*) {
                self.assert_supported();
                match self {
                    // SAFETY: the scalar kernel instantiation performs no
                    // target-specific operations; `unsafe` only satisfies
                    // the shared kernel signature.
                    SimdLevel::Scalar => unsafe { kernels::$name::<f64>($($arg),*) },
                    // SAFETY: `assert_supported` guarantees the required
                    // CPU features are present at runtime.
                    #[cfg(target_arch = "x86_64")]
                    SimdLevel::Sse2 => unsafe { x86::sse2::$name($($arg),*) },
                    // SAFETY: as above.
                    #[cfg(target_arch = "x86_64")]
                    SimdLevel::Avx2 => unsafe { x86::avx2::$name($($arg),*) },
                    // SAFETY: as above.
                    #[cfg(target_arch = "aarch64")]
                    SimdLevel::Neon => unsafe { neon::$name($($arg),*) },
                    // Foreign-architecture variants never pass
                    // `assert_supported`, but the match must stay
                    // exhaustive on every target.
                    #[allow(unreachable_patterns)]
                    _ => unreachable!("unsupported level passed assert_supported"),
                }
            }
            )+
        }
    };
}

dispatch_ops! {
    /// Serial response-column fold: zeroes `xn` (length `n_nodes`), then
    /// accumulates `xn[i] = inputs[j].mul_add(cols[j*n_nodes + i], xn[i])`
    /// in ascending `j` — the state-space kernel's per-step solve.
    /// Vectorized across the node dimension, with each block of node
    /// accumulators held in registers across every `j` and written once;
    /// the `j` accumulation order is preserved exactly.
    fn fold_cols(cols: &[f64], n_nodes: usize, inputs: &[f64], xn: &mut [f64]);

    /// Lane-major batched fold: `inputs` is `[n_inputs x lanes]`, `xn`
    /// `[n_nodes x lanes]`; per lane the operation sequence is exactly
    /// [`SimdLevel::fold_cols`]'s. Vectorized across the lane dimension
    /// in register-resident tiles of four nodes, so each response-column
    /// entry is broadcast once per lane block and each output written
    /// once. Any `lanes` is accepted; a multiple of
    /// [`SimdLevel::vector_f64s`] runs whole vectors only.
    fn fold_cols_lanes(cols: &[f64], n_nodes: usize, inputs: &[f64], lanes: usize, xn: &mut [f64]);

    /// Trapezoidal history gather, `out[k*lanes + l] =
    /// g[k].mul_add(v[k*lanes + l], i[k*lanes + l])` — the per-step
    /// input for one reactive-element class. With `lanes == 1` this is
    /// the serial gather, vectorized across elements; with wider lanes
    /// it vectorizes across the lane dimension per element.
    fn gather_hist(g: &[f64], v: &[f64], i: &[f64], lanes: usize, out: &mut [f64]);

    /// Capacitor companion update over lane-major SoA state: per element
    /// `k` (node rows `rows[k]`) and lane `l`, with `vn = state[a+l] -
    /// state[b+l]`: `hist = g[k].mul_add(v, i); i = g[k].mul_add(vn,
    /// -hist); v = vn` — the fused form of the trapezoidal capacitor
    /// step. `state` is node-major `[rows x lanes]` (`lanes == 1` is a
    /// serial scratch's `v`).
    fn cap_updates(
        g: &[f64],
        rows: &[[u32; 2]],
        state: &[f64],
        lanes: usize,
        v: &mut [f64],
        i: &mut [f64],
    );

    /// Inductor companion update, the `+hist` counterpart of
    /// [`SimdLevel::cap_updates`]: `hist = g[k].mul_add(v, i); i =
    /// g[k].mul_add(vn, hist); v = vn`.
    fn ind_updates(
        g: &[f64],
        rows: &[[u32; 2]],
        state: &[f64],
        lanes: usize,
        v: &mut [f64],
        i: &mut [f64],
    );

    /// Goertzel recurrence over one sample record for all bins: per bin
    /// `j` and sample `x`, `t = coeff[j].mul_add(s1[j], x - s2[j]);
    /// s2[j] = s1[j]; s1[j] = t`, advanced four samples per state pass
    /// (the quad form is the unrolled single-sample form — identical
    /// arithmetic). Vectorized across bins; each bin's chain runs in
    /// sample order.
    fn goertzel(samples: &[f64], coeff: &[f64], s1: &mut [f64], s2: &mut [f64]);

    /// Elementwise product `out[i] = x[i] * y[i]` — window application
    /// and band transfer scaling. A single rounding per element, so
    /// trivially identical at every level.
    fn mul(x: &[f64], y: &[f64], out: &mut [f64]);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random doubles in (-1, 1).
    fn lcg(seed: u64, n: usize) -> Vec<f64> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn parse_round_trips() {
        for l in [
            SimdLevel::Scalar,
            SimdLevel::Sse2,
            SimdLevel::Avx2,
            SimdLevel::Neon,
        ] {
            assert_eq!(SimdLevel::parse(l.as_str()), Some(l));
            assert_eq!(SimdLevel::from_code(l.code()), Some(l));
        }
        assert_eq!(SimdLevel::parse("bogus"), None);
    }

    #[test]
    fn ladder_is_ranked_and_scalar_rooted() {
        assert_eq!(LADDER[0], SimdLevel::Scalar);
        for (rank, l) in LADDER.iter().enumerate() {
            assert_eq!(l.rank(), rank);
        }
        assert!(SimdLevel::Scalar.is_supported());
        assert!(detected_level().is_supported());
    }

    #[test]
    fn force_level_overrides_and_clears() {
        force_level(Some(SimdLevel::Scalar));
        assert_eq!(level(), SimdLevel::Scalar);
        // A request above the host capability clamps instead of failing.
        force_level(Some(SimdLevel::Avx2));
        assert!(level().rank() <= detected_level().rank());
        force_level(None);
        assert_eq!(level().rank(), level().rank().min(detected_level().rank()));
    }

    #[test]
    fn supported_levels_end_at_detection() {
        let levels = supported_levels();
        assert_eq!(levels.first(), Some(&SimdLevel::Scalar));
        assert_eq!(levels.last(), Some(&detected_level()));
    }

    #[test]
    fn preferred_lanes_track_vector_width() {
        let lanes = preferred_lanes();
        assert!(lanes >= 4);
        assert!(lanes >= level().vector_f64s());
        assert_eq!(SimdLevel::Avx2.vector_f64s() * 2, 8);
    }

    /// Every op, every supported level, odd sizes (full blocks plus
    /// remainders) — `to_bits`-identical to the scalar reference. The
    /// broader randomized sweep lives in `tests/bit_identity.rs`.
    #[test]
    fn all_ops_match_scalar_reference() {
        let (n_nodes, n_inputs) = (7, 5);
        let cols = lcg(0xC0, n_inputs * n_nodes);
        for &lv in supported_levels() {
            for lanes in [1usize, 3, 4, 8] {
                let inputs = lcg(0xF0 + lanes as u64, n_inputs * lanes);
                let mut want = vec![0.0; n_nodes * lanes];
                let mut got = want.clone();
                SimdLevel::Scalar.fold_cols_lanes(&cols, n_nodes, &inputs, lanes, &mut want);
                lv.fold_cols_lanes(&cols, n_nodes, &inputs, lanes, &mut got);
                assert_eq!(bits(&want), bits(&got), "fold_cols_lanes {lanes} @ {lv:?}");

                let n_elems = 5;
                let g = lcg(1, n_elems);
                let v = lcg(2, n_elems * lanes);
                let i = lcg(3, n_elems * lanes);
                let mut want = vec![0.0; n_elems * lanes];
                let mut got = want.clone();
                SimdLevel::Scalar.gather_hist(&g, &v, &i, lanes, &mut want);
                lv.gather_hist(&g, &v, &i, lanes, &mut got);
                assert_eq!(bits(&want), bits(&got), "gather_hist {lanes} @ {lv:?}");

                let rows: Vec<[u32; 2]> = (0..n_elems as u32).map(|k| [k + 1, k % 2]).collect();
                let state = lcg(4, (n_elems + 1) * lanes);
                for cap in [true, false] {
                    let (mut v1, mut i1) = (v.clone(), i.clone());
                    let (mut v2, mut i2) = (v.clone(), i.clone());
                    if cap {
                        SimdLevel::Scalar.cap_updates(&g, &rows, &state, lanes, &mut v1, &mut i1);
                        lv.cap_updates(&g, &rows, &state, lanes, &mut v2, &mut i2);
                    } else {
                        SimdLevel::Scalar.ind_updates(&g, &rows, &state, lanes, &mut v1, &mut i1);
                        lv.ind_updates(&g, &rows, &state, lanes, &mut v2, &mut i2);
                    }
                    assert_eq!(bits(&v1), bits(&v2), "updates v cap={cap} @ {lv:?}");
                    assert_eq!(bits(&i1), bits(&i2), "updates i cap={cap} @ {lv:?}");
                }
            }

            let serial = lcg(5, n_inputs);
            let mut want = vec![0.0; n_nodes];
            let mut got = want.clone();
            SimdLevel::Scalar.fold_cols(&cols, n_nodes, &serial, &mut want);
            lv.fold_cols(&cols, n_nodes, &serial, &mut got);
            assert_eq!(bits(&want), bits(&got), "fold_cols @ {lv:?}");

            for (n, nb) in [(13usize, 6usize), (16, 1), (4, 5), (3, 9)] {
                let samples = lcg(6, n);
                let coeff = lcg(7, nb);
                let (mut a1, mut b1) = (lcg(8, nb), lcg(9, nb));
                let (mut a2, mut b2) = (a1.clone(), b1.clone());
                SimdLevel::Scalar.goertzel(&samples, &coeff, &mut a1, &mut b1);
                lv.goertzel(&samples, &coeff, &mut a2, &mut b2);
                assert_eq!(bits(&a1), bits(&a2), "goertzel s1 n={n} nb={nb} @ {lv:?}");
                assert_eq!(bits(&b1), bits(&b2), "goertzel s2 n={n} nb={nb} @ {lv:?}");
            }

            let (x, y) = (lcg(10, 11), lcg(11, 11));
            let mut want = vec![0.0; 11];
            let mut got = want.clone();
            SimdLevel::Scalar.mul(&x, &y, &mut want);
            lv.mul(&x, &y, &mut got);
            assert_eq!(bits(&want), bits(&got), "mul @ {lv:?}");
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }
}
