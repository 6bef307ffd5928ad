//! # emvolt-simd
//!
//! Runtime-dispatched SIMD kernels for the measurement chain's hot
//! loops: the fused state-space transient step loop (one dispatched call
//! per block of steps), the Goertzel recurrence and the elementwise
//! products of the band pipeline.
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

/// The `EMVOLT_SIMD` request, read once per process: `Ok(None)` for
/// `auto` or an unset/empty variable, else the requested level.
/// Binaries call this before any work so a bad value is a clean error;
/// [`level`] panics on it instead, because a misspelled override
/// silently running a different path would defeat its testing purpose.
///
/// # Errors
///
/// Returns a message naming the value and the accepted ones when the
/// variable is set to an unrecognized level.
pub fn env_request() -> Result<Option<SimdLevel>, String> {
    static ENV: OnceLock<Result<Option<SimdLevel>, String>> = OnceLock::new();
    ENV.get_or_init(|| match std::env::var("EMVOLT_SIMD") {
        Err(_) => Ok(None),
        Ok(v) if v.is_empty() || v == "auto" => Ok(None),
        Ok(v) => SimdLevel::parse(&v)
            .map(Some)
            .ok_or_else(|| format!("EMVOLT_SIMD=`{v}` is not one of scalar|sse2|avx2|neon|auto")),
    })
    .clone()
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
///
/// # Panics
///
/// Panics when `EMVOLT_SIMD` holds an unrecognized value (see
/// [`env_request`]) and no override is forced.
pub fn level() -> SimdLevel {
    if let Some(forced) = SimdLevel::from_code(FORCED.load(Ordering::Relaxed)) {
        return clamp(forced);
    }
    match env_request().unwrap_or_else(|e| panic!("{e}")) {
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

/// The read-only operands of [`SimdLevel::state_steps`]: one
/// state-space transient plan's response columns and companion tables,
/// and the rows each step records.
#[derive(Debug, Clone, Copy)]
pub struct StepOperands<'a> {
    /// Response columns, row-major `[n_inputs x n_nodes]`, in input order:
    /// capacitor histories, inductor histories, then sources.
    pub cols: &'a [f64],
    /// Solved node rows (ground excluded).
    pub n_nodes: usize,
    /// Capacitor companion conductances.
    pub cap_g: &'a [f64],
    /// Inductor companion conductances.
    pub ind_g: &'a [f64],
    /// `[row_a, row_b]` node-state rows per capacitor (row 0 is ground).
    pub cap_rows: &'a [[u32; 2]],
    /// `[row_a, row_b]` node-state rows per inductor.
    pub ind_rows: &'a [[u32; 2]],
    /// Node-state rows each step records, first.
    pub probe_nodes: &'a [u32],
    /// Inductor-current rows each step records, after the node rows.
    pub probe_inds: &'a [u32],
}

/// The rows of one lane group that [`SimdLevel::state_steps`] advances in
/// place, `stride` lanes per row: element `k` of lane `l` sits at
/// `[k * stride + l]`.
#[derive(Debug)]
pub struct StepRows<'a> {
    /// Lanes per row.
    pub stride: usize,
    /// Node state `[(n_nodes + 1) x stride]`, row 0 the ground row.
    pub state: &'a mut [f64],
    /// Capacitor voltages `[n_caps x stride]`.
    pub cap_v: &'a mut [f64],
    /// Capacitor currents `[n_caps x stride]`.
    pub cap_i: &'a mut [f64],
    /// Inductor voltages `[n_inds x stride]`.
    pub ind_v: &'a mut [f64],
    /// Inductor currents `[n_inds x stride]`.
    pub ind_i: &'a mut [f64],
    /// Working rows for the gathered histories, `[(n_caps + n_inds) x
    /// stride]`; their contents on entry are never read.
    pub hist: &'a mut [f64],
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
            // Not `#[inline]`: the scalar arm holds the whole kernel, and
            // inlined into the transient's driver it slowed `vmin_suite`.
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
    /// Advances one lane group of a state-space transient by `n_steps`
    /// trapezoidal steps in one call. Each step, per lane:
    ///
    /// 1. gathers the companion histories into `rows.hist`,
    ///    `g[k].mul_add(v[k], i[k])`, capacitors then inductors;
    /// 2. folds the inputs through the response columns: zero each solved
    ///    node, then `x_i = w_j.mul_add(cols[j*n_nodes + i], x_i)` in
    ///    ascending `j`, the weights being the gathered histories and then
    ///    the step's `n_src` staged source rows, written to state rows
    ///    `1..=n_nodes` (row 0 is ground and is never written);
    /// 3. runs the companion updates with `vn = state[a] - state[b]`:
    ///    `hist = g.mul_add(v, i)`, then `i = g.mul_add(vn, -hist)` for a
    ///    capacitor or `g.mul_add(vn, hist)` for an inductor, and `v = vn`;
    /// 4. copies the probed node rows, then the probed inductor-current
    ///    rows, into the step's `[n_probes x stride]` slab of `probes`.
    ///
    /// `sources` is step-major `[n_steps x n_src x stride]`, so `n_src` is
    /// `sources.len() / (n_steps * stride)`; `probes` is `[n_steps x
    /// n_probes x stride]`. Every extent and row index is checked once
    /// per call. One lane (`stride == 1`) folds vectorised across nodes.
    /// A wider group must be padded to whole vectors: `stride` is 1 or a
    /// multiple of [`SimdLevel::vector_f64s`], and any other `stride`
    /// panics. Its lanes run lane-major, each block of lane vectors
    /// through all the steps in turn. Lanes never mix, so a lane's bits do
    /// not depend on the group it ran in, and pad lanes may hold anything
    /// finite (the transient replays lane 0 in them).
    fn state_steps(
        ops: &StepOperands<'_>,
        rows: &mut StepRows<'_>,
        n_steps: usize,
        sources: &[f64],
        probes: &mut [f64],
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
    /// remainders) — `to_bits`-identical to the scalar reference. A
    /// multi-lane step group is padded to whole vectors of the level under
    /// test, the pad lanes replaying lane 0, and both levels run that
    /// stride. The broader randomized sweep lives in
    /// `tests/bit_identity.rs`.
    #[test]
    fn all_ops_match_scalar_reference() {
        let (n_nodes, n_inputs) = (7, 5);
        let cols = lcg(0xC0, n_inputs * n_nodes);
        for &lv in supported_levels() {
            for lanes in [1usize, 3, 4, 8] {
                let stride = if lanes == 1 {
                    1
                } else {
                    lanes.next_multiple_of(lv.vector_f64s())
                };
                // `n` rows of `lanes` values, each row padded to `stride`
                // with copies of its lane 0.
                let rows = |seed: u64, n: usize| -> Vec<f64> {
                    let real = lcg(seed, n * lanes);
                    real.chunks_exact(lanes)
                        .flat_map(|row| {
                            let pad = std::iter::repeat_n(row[0], stride - lanes);
                            row.iter().copied().chain(pad)
                        })
                        .collect()
                };

                // Two capacitors, two inductors and one source on the
                // seven nodes above, stepped five times.
                let (nc, nl, n_steps) = (2usize, 2usize, 5usize);
                let cap_rows = [[1, 0], [3, 2]];
                let ind_rows = [[4, 5], [7, 6]];
                let ops = StepOperands {
                    cols: &cols,
                    n_nodes,
                    cap_g: &[0.3, -1.1],
                    ind_g: &[0.7, 0.05],
                    cap_rows: &cap_rows,
                    ind_rows: &ind_rows,
                    probe_nodes: &[0, 7, 2],
                    probe_inds: &[1],
                };
                let sources = rows(0x50 + lanes as u64, n_steps);
                let run = |lv: SimdLevel| {
                    let mut state = rows(1, n_nodes + 1);
                    state[..stride].fill(0.0);
                    let (mut cap_v, mut cap_i) = (rows(2, nc), rows(3, nc));
                    let (mut ind_v, mut ind_i) = (rows(4, nl), rows(5, nl));
                    let mut hist = vec![f64::NAN; (nc + nl) * stride];
                    let mut probes = vec![f64::NAN; n_steps * 4 * stride];
                    let mut rows = StepRows {
                        stride,
                        state: &mut state,
                        cap_v: &mut cap_v,
                        cap_i: &mut cap_i,
                        ind_v: &mut ind_v,
                        ind_i: &mut ind_i,
                        hist: &mut hist,
                    };
                    lv.state_steps(&ops, &mut rows, n_steps, &sources, &mut probes);
                    [state, cap_v, cap_i, ind_v, ind_i, probes].map(|r| bits(&r))
                };
                assert_eq!(
                    run(SimdLevel::Scalar),
                    run(lv),
                    "state_steps {lanes} lanes at stride {stride} @ {lv:?}"
                );
            }

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
