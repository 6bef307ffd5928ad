//! The shared kernel bodies, generic over a [`Vf64`] width.
//!
//! Each kernel vectorizes only across *independent* elements (nodes,
//! lanes, bins): a vector of `V::W` elements is advanced with one vector
//! op per scalar op of the reference sequence. Elements are walked in
//! blocks of compile-time width. A step group's lanes come padded to
//! whole vectors (`stride` is 1 or a multiple of `V::W`, asserted) and
//! are walked in whole vectors only ([`for_vectors`]); node and
//! array-entry walks take any length, and their sub-`W` remainder is one
//! block of scalar register chains, the same body instantiated at `f64`
//! (width 1) ([`for_blocks`]). No block contains a short loop over
//! independent elements, so none compiles to masked loads and stores.
//! The folds keep their accumulators in registers across every response
//! column and store each once. Instantiated at `f64` the whole kernel
//! *is* the reference sequence, so the scalar dispatch level and the
//! vector levels share one definition and cannot drift apart.
//!
//! All functions are `unsafe` only because [`Vf64::load`]/[`Vf64::store`]
//! take raw pointers; every pointer passed stays inside the bounds of
//! the slice it came from. Callers must ensure the instantiated vector
//! type's target features are available (see [`crate::vector::Vf64`]).

use crate::vector::Vf64;
use crate::{StepOperands, StepRows};

/// Emits one `#[target_feature]` entry point per kernel, instantiated
/// at a vector type — invoked once per dispatch tier by the per-arch
/// modules.
macro_rules! target_kernels {
    ($feat:literal, $vec:ty) => {
        /// [`crate::SimdLevel::state_steps`] at this tier's width.
        ///
        /// # Safety
        ///
        /// The tier's target features must be present at runtime.
        #[target_feature(enable = $feat)]
        pub(crate) unsafe fn state_steps(
            ops: &crate::StepOperands<'_>,
            rows: &mut crate::StepRows<'_>,
            n_steps: usize,
            sources: &[f64],
            probes: &mut [f64],
        ) {
            // SAFETY: forwarded contract.
            unsafe { crate::kernels::state_steps::<$vec>(ops, rows, n_steps, sources, probes) }
        }

        /// [`crate::SimdLevel::goertzel`] at this tier's width.
        ///
        /// # Safety
        ///
        /// The tier's target features must be present at runtime.
        #[target_feature(enable = $feat)]
        pub(crate) unsafe fn goertzel(
            samples: &[f64],
            coeff: &[f64],
            s1: &mut [f64],
            s2: &mut [f64],
        ) {
            // SAFETY: forwarded contract.
            unsafe { crate::kernels::goertzel::<$vec>(samples, coeff, s1, s2) }
        }

        /// [`crate::SimdLevel::mul`] at this tier's width.
        ///
        /// # Safety
        ///
        /// The tier's target features must be present at runtime.
        #[target_feature(enable = $feat)]
        pub(crate) unsafe fn mul(x: &[f64], y: &[f64], out: &mut [f64]) {
            // SAFETY: forwarded contract.
            unsafe { crate::kernels::mul::<$vec>(x, y, out) }
        }
    };
}

pub(crate) use target_kernels;

/// One kernel body, run on a block of `LV` vectors of `U::W`
/// consecutive independent elements starting at element `e0`. The
/// elements are lanes for the multi-lane step walk, and nodes or array
/// entries for the serial ones.
trait Block {
    /// # Safety
    ///
    /// `e0 + LV * U::W` must not exceed the element count the block walk
    /// was started with, and `U`'s target features must be present.
    unsafe fn run<U: Vf64, const LV: usize>(&mut self, e0: usize);
}

/// Walks the whole `V` vectors of `n` independent elements: pairs of
/// vectors, then at most one single vector. Returns the element where
/// they end, `n` when `n` is a multiple of `V::W`.
///
/// # Safety
///
/// `body` must accept every block inside `0..n`, and `V`'s target
/// features must be present.
#[inline(always)]
unsafe fn for_vectors<V: Vf64, B: Block>(n: usize, body: &mut B) -> usize {
    let mut e0 = 0;
    while e0 + 2 * V::W <= n {
        // SAFETY: the block ends at `e0 + 2 * V::W <= n`.
        unsafe { body.run::<V, 2>(e0) };
        e0 += 2 * V::W;
    }
    if e0 + V::W <= n {
        // SAFETY: the block ends at `e0 + V::W <= n`.
        unsafe { body.run::<V, 1>(e0) };
        e0 += V::W;
    }
    e0
}

/// Walks `n` independent elements with no masked or ragged tail: the
/// whole vectors ([`for_vectors`]), then the sub-vector remainder as one
/// block of 1–3 scalar register chains (`f64` is the width-1 [`Vf64`]).
/// Every block is straight-line code of compile-time width, so the
/// compiler is never handed a short loop over independent elements that
/// it could fold into masked loads and stores.
///
/// # Safety
///
/// As [`for_vectors`].
#[inline(always)]
unsafe fn for_blocks<V: Vf64, B: Block>(n: usize, body: &mut B) {
    // SAFETY: forwarded contract; each scalar block ends exactly at `n`.
    unsafe {
        let e0 = for_vectors::<V, B>(n, body);
        match n - e0 {
            0 => {}
            1 => body.run::<f64, 1>(e0),
            2 => body.run::<f64, 2>(e0),
            3 => body.run::<f64, 3>(e0),
            _ => unreachable!("vector widths are at most 4"),
        }
    }
}

/// Folds response columns into nodes `i0 .. i0 + NB` of the `LV` lane
/// vectors a lane-major tile covers, keeping `NB x LV` accumulator chains
/// in registers over every column and storing each once. The input
/// weights are read from up to two runs of rows `stride` apart (`parts`,
/// `(first row, row count)` in column order), so the step kernel folds
/// its gathered histories and its staged source rows without copying
/// them together. Per element the sequence is the reference one: zero,
/// then `x = w_j.mul_add(c_ji, x)` in ascending `j`.
///
/// # Safety
///
/// Each part's rows must hold `LV * U::W` readable lanes at their
/// pointers, `cols` must hold one `n_nodes`-long column per part row with
/// `i0 + NB <= n_nodes`, `out` must head `NB` rows `stride` apart of
/// `LV * U::W` writable lanes, and `U`'s target features must be present.
#[inline(always)]
unsafe fn lane_tile<U: Vf64, const LV: usize, const NB: usize>(
    cols: &[f64],
    n_nodes: usize,
    i0: usize,
    parts: [(*const f64, usize); 2],
    stride: usize,
    out: *mut f64,
) {
    let mut acc = [[U::splat(0.0); LV]; NB];
    let mut j = 0;
    for (first, n_rows) in parts {
        for r in 0..n_rows {
            // SAFETY: row `r` of this part holds the tile's lanes, and
            // column `j` holds `n_nodes >= i0 + NB` entries.
            let (w_row, c_row) =
                unsafe { (first.add(r * stride), cols.as_ptr().add(j * n_nodes + i0)) };
            let mut w = [U::splat(0.0); LV];
            for (q, wq) in w.iter_mut().enumerate() {
                // SAFETY: as above.
                *wq = unsafe { U::load(w_row.add(q * U::W)) };
            }
            for (b, row) in acc.iter_mut().enumerate() {
                // SAFETY: as above.
                let c = U::splat(unsafe { *c_row.add(b) });
                for (a, &wq) in row.iter_mut().zip(&w) {
                    *a = wq.fmadd(c, *a);
                }
            }
            j += 1;
        }
    }
    for (b, row) in acc.into_iter().enumerate() {
        for (q, a) in row.into_iter().enumerate() {
            // SAFETY: output row `b < NB`, lanes as the caller provides.
            unsafe { a.store(out.add(b * stride + q * U::W)) };
        }
    }
}

/// Runs [`lane_tile`] over every node of one lane block: tiles of four
/// nodes, then one tile of the 1–3 left over. `out` heads node row 0 of
/// the block.
///
/// # Safety
///
/// As [`lane_tile`], for node rows `0 .. n_nodes`.
#[inline(always)]
unsafe fn lane_fold<U: Vf64, const LV: usize>(
    cols: &[f64],
    n_nodes: usize,
    parts: [(*const f64, usize); 2],
    stride: usize,
    out: *mut f64,
) {
    let mut i0 = 0;
    // SAFETY (every tile): the tile ends at `i0 + NB <= n_nodes`.
    while i0 + 4 <= n_nodes {
        unsafe { lane_tile::<U, LV, 4>(cols, n_nodes, i0, parts, stride, out.add(i0 * stride)) };
        i0 += 4;
    }
    unsafe {
        let out = out.add(i0 * stride);
        match n_nodes - i0 {
            0 => {}
            1 => lane_tile::<U, LV, 1>(cols, n_nodes, i0, parts, stride, out),
            2 => lane_tile::<U, LV, 2>(cols, n_nodes, i0, parts, stride, out),
            _ => lane_tile::<U, LV, 3>(cols, n_nodes, i0, parts, stride, out),
        }
    }
}

/// One trapezoidal companion update: with `vn = sa - sb` and `hist =
/// g.mul_add(v, i)`, returns `(vn, g.mul_add(vn, -hist))` for a
/// capacitor (`CAP = true`) or `(vn, g.mul_add(vn, hist))` for an
/// inductor — the new `(v, i)`.
#[inline(always)]
fn companion<U: Vf64, const CAP: bool>(g: U, sa: U, sb: U, v: U, i: U) -> (U, U) {
    let vn = sa.sub(sb);
    let hist = g.fmadd(v, i);
    let next = if CAP {
        g.fmsub(vn, hist)
    } else {
        g.fmadd(vn, hist)
    };
    (vn, next)
}

/// The fused state-space step loop; see [`crate::SimdLevel::state_steps`].
///
/// Every extent is checked once per call, up front; the steps then run
/// on raw pointers. A group of one lane (`stride == 1`) steps with a
/// node-vectorised fold ([`Steps::serial`]). A wider group must be padded
/// to whole `V` vectors (asserted) and runs lane-major: each block of one
/// or two lane vectors takes all `n_steps` on its own ([`Block::run`] of
/// [`Steps`]), since lanes never mix, so its rows stay in cache across
/// the block of steps.
#[inline(always)]
pub(crate) unsafe fn state_steps<V: Vf64>(
    ops: &StepOperands<'_>,
    rows: &mut StepRows<'_>,
    n_steps: usize,
    sources: &[f64],
    probes: &mut [f64],
) {
    let ops = *ops;
    let stride = rows.stride;
    assert!(
        stride == 1 || (stride > 0 && stride.is_multiple_of(V::W)),
        "stride {stride} is neither 1 nor a whole number of {}-lane vectors",
        V::W
    );
    let (nc, nl) = (ops.cap_g.len(), ops.ind_g.len());
    let n_rows = ops.n_nodes + 1;
    assert_eq!(ops.cap_rows.len(), nc);
    assert_eq!(ops.ind_rows.len(), nl);
    assert_eq!(Some(rows.state.len()), n_rows.checked_mul(stride));
    assert_eq!(Some(rows.cap_v.len()), nc.checked_mul(stride));
    assert_eq!(rows.cap_i.len(), rows.cap_v.len());
    assert_eq!(Some(rows.ind_v.len()), nl.checked_mul(stride));
    assert_eq!(rows.ind_i.len(), rows.ind_v.len());
    assert_eq!(Some(rows.hist.len()), (nc + nl).checked_mul(stride));
    let rows_ok = |rows: &[[u32; 2]]| rows.iter().flatten().all(|&r| (r as usize) < n_rows);
    assert!(rows_ok(ops.cap_rows) && rows_ok(ops.ind_rows));
    assert!(ops.probe_nodes.iter().all(|&r| (r as usize) < n_rows));
    assert!(ops.probe_inds.iter().all(|&r| (r as usize) < nl));
    let Some(step_len) = n_steps.checked_mul(stride).filter(|&len| len > 0) else {
        assert!(sources.is_empty() && probes.is_empty());
        return;
    };
    assert_eq!(sources.len() % step_len, 0);
    let n_src = sources.len() / step_len;
    assert_eq!(
        Some(ops.cols.len()),
        (nc + nl + n_src).checked_mul(ops.n_nodes)
    );
    let n_probes = ops.probe_nodes.len() + ops.probe_inds.len();
    assert_eq!(Some(probes.len()), n_probes.checked_mul(step_len));

    let mut body = Steps {
        ops,
        stride,
        n_steps,
        n_src,
        n_probes,
        sources: sources.as_ptr(),
        state: rows.state.as_mut_ptr(),
        cap_v: rows.cap_v.as_mut_ptr(),
        cap_i: rows.cap_i.as_mut_ptr(),
        ind_v: rows.ind_v.as_mut_ptr(),
        ind_i: rows.ind_i.as_mut_ptr(),
        hist: rows.hist.as_mut_ptr(),
        probes: probes.as_mut_ptr(),
    };
    // SAFETY: forwarded target-feature contract; extents checked above,
    // and a wider `stride` is whole vectors, all of them walked.
    unsafe {
        if stride == 1 {
            body.serial::<V>();
        } else {
            for_vectors::<V, _>(stride, &mut body);
        }
    }
}

/// The operands and row pointers of one [`state_steps`] call, every
/// extent already checked against `stride`, `n_steps`, `n_src` and
/// `n_probes`. Element `k` of lane `l` sits at `[k * stride + l]`.
struct Steps<'a> {
    ops: StepOperands<'a>,
    stride: usize,
    n_steps: usize,
    n_src: usize,
    n_probes: usize,
    sources: *const f64,
    state: *mut f64,
    cap_v: *mut f64,
    cap_i: *mut f64,
    ind_v: *mut f64,
    ind_i: *mut f64,
    hist: *mut f64,
    probes: *mut f64,
}

impl Steps<'_> {
    /// One lane: per step, the history gathers vectorised across elements,
    /// the fold across nodes, then scalar companion updates through the
    /// node-row tables and the probe copies.
    ///
    /// # Safety
    ///
    /// `stride == 1`, and `V`'s target features must be present.
    #[inline(always)]
    unsafe fn serial<V: Vf64>(&mut self) {
        /// `out[k] = g[k].mul_add(v[k], i[k])` across elements.
        struct Gather {
            g: *const f64,
            v: *const f64,
            i: *const f64,
            out: *mut f64,
        }
        impl Block for Gather {
            #[inline(always)]
            unsafe fn run<U: Vf64, const LV: usize>(&mut self, e0: usize) {
                for q in 0..LV {
                    let e = e0 + q * U::W;
                    // SAFETY: the block covers elements of the gathered row.
                    unsafe {
                        U::load(self.g.add(e))
                            .fmadd(U::load(self.v.add(e)), U::load(self.i.add(e)))
                            .store(self.out.add(e))
                    };
                }
            }
        }
        /// One lane's fold across nodes, weights from the gathered
        /// histories then the step's source row.
        struct Nodes<'a> {
            cols: &'a [f64],
            n_nodes: usize,
            weights: [(*const f64, usize); 2],
            xn: *mut f64,
        }
        impl Block for Nodes<'_> {
            #[inline(always)]
            unsafe fn run<U: Vf64, const LV: usize>(&mut self, i0: usize) {
                let mut acc = [U::splat(0.0); LV];
                let mut j = 0;
                for (first, n) in self.weights {
                    for r in 0..n {
                        // SAFETY: `r` is inside this weight run, column `j`
                        // holds `n_nodes` entries and the block covers nodes
                        // `i0 .. i0 + LV * U::W <= n_nodes`.
                        let (wv, col) = unsafe {
                            (
                                U::splat(*first.add(r)),
                                self.cols.as_ptr().add(j * self.n_nodes + i0),
                            )
                        };
                        for (q, a) in acc.iter_mut().enumerate() {
                            // SAFETY: as above.
                            *a = wv.fmadd(unsafe { U::load(col.add(q * U::W)) }, *a);
                        }
                        j += 1;
                    }
                }
                for (q, a) in acc.into_iter().enumerate() {
                    // SAFETY: as above, inside the node rows.
                    unsafe { a.store(self.xn.add(i0 + q * U::W)) };
                }
            }
        }
        let ops = self.ops;
        let (nc, nl) = (ops.cap_g.len(), ops.ind_g.len());
        // SAFETY: every pointer below stays inside the rows whose extents
        // `state_steps` checked, at `stride == 1`.
        unsafe {
            for s in 0..self.n_steps {
                for_blocks::<V, _>(
                    nc,
                    &mut Gather {
                        g: ops.cap_g.as_ptr(),
                        v: self.cap_v,
                        i: self.cap_i,
                        out: self.hist,
                    },
                );
                for_blocks::<V, _>(
                    nl,
                    &mut Gather {
                        g: ops.ind_g.as_ptr(),
                        v: self.ind_v,
                        i: self.ind_i,
                        out: self.hist.add(nc),
                    },
                );
                let src = self.sources.add(s * self.n_src);
                // Row 0 of the node state is ground (always zero).
                for_blocks::<V, _>(
                    ops.n_nodes,
                    &mut Nodes {
                        cols: ops.cols,
                        n_nodes: ops.n_nodes,
                        weights: [(self.hist, nc + nl), (src, self.n_src)],
                        xn: self.state.add(1),
                    },
                );
                let st = self.state;
                serial_updates::<true>(ops.cap_g, ops.cap_rows, st, self.cap_v, self.cap_i);
                serial_updates::<false>(ops.ind_g, ops.ind_rows, st, self.ind_v, self.ind_i);
                let prb = self.probes.add(s * self.n_probes);
                for (p, &r) in ops.probe_nodes.iter().enumerate() {
                    *prb.add(p) = *st.add(r as usize);
                }
                let prb = prb.add(ops.probe_nodes.len());
                for (p, &r) in ops.probe_inds.iter().enumerate() {
                    *prb.add(p) = *self.ind_i.add(r as usize);
                }
            }
        }
    }
}

/// The companion updates of one element class for one lane, reading
/// node-state entries `rows[k]`.
///
/// # Safety
///
/// `v` and `i` must hold `g.len()` entries, and every row in `rows` must
/// be an entry of `state`.
#[inline(always)]
unsafe fn serial_updates<const CAP: bool>(
    g: &[f64],
    rows: &[[u32; 2]],
    state: *const f64,
    v: *mut f64,
    i: *mut f64,
) {
    for (k, (&gk, row)) in g.iter().zip(rows).enumerate() {
        // SAFETY: forwarded from the caller.
        unsafe {
            let (sa, sb) = (*state.add(row[0] as usize), *state.add(row[1] as usize));
            (*v.add(k), *i.add(k)) = companion::<f64, CAP>(gk, sa, sb, *v.add(k), *i.add(k));
        }
    }
}

impl Block for Steps<'_> {
    /// One lane block of a multi-lane group through every step: gathers,
    /// the [`lane_fold`] tiles, companion updates and probe copies, all on
    /// the block's `LV` vectors.
    #[inline(always)]
    unsafe fn run<U: Vf64, const LV: usize>(&mut self, l0: usize) {
        let ops = self.ops;
        let stride = self.stride;
        let nc = ops.cap_g.len();
        let nh = nc + ops.ind_g.len();
        // SAFETY: every row below holds `stride` lanes, the block covers
        // lanes `l0 .. l0 + LV * U::W <= stride`, and every row index was
        // checked by `state_steps`.
        unsafe {
            let at = |p: *mut f64| p.add(l0);
            let (state, hist) = (at(self.state), at(self.hist));
            let (cap_v, cap_i, ind_v, ind_i) = (
                at(self.cap_v),
                at(self.cap_i),
                at(self.ind_v),
                at(self.ind_i),
            );
            for s in 0..self.n_steps {
                lane_gather::<U, LV>(ops.cap_g, cap_v, cap_i, hist, stride);
                lane_gather::<U, LV>(ops.ind_g, ind_v, ind_i, hist.add(nc * stride), stride);
                let src = self.sources.add(s * self.n_src * stride + l0);
                // Row 0 of the node state is ground (always zero).
                lane_fold::<U, LV>(
                    ops.cols,
                    ops.n_nodes,
                    [(hist, nh), (src, self.n_src)],
                    stride,
                    state.add(stride),
                );
                lane_updates::<U, LV, true>(ops.cap_g, ops.cap_rows, state, cap_v, cap_i, stride);
                lane_updates::<U, LV, false>(ops.ind_g, ops.ind_rows, state, ind_v, ind_i, stride);
                let prb = self.probes.add(s * self.n_probes * stride + l0);
                lane_copy::<U, LV>(state, ops.probe_nodes, prb, stride);
                let prb = prb.add(ops.probe_nodes.len() * stride);
                lane_copy::<U, LV>(ind_i, ops.probe_inds, prb, stride);
            }
        }
    }
}

/// `h[k] = g[k].mul_add(v[k], i[k])` for every element `k` of one class on
/// one lane block; each pointer heads that block in row 0, rows `stride`
/// apart.
///
/// # Safety
///
/// Each of the `g.len()` rows must hold the block's `LV * U::W` lanes,
/// and `U`'s target features must be present.
#[inline(always)]
unsafe fn lane_gather<U: Vf64, const LV: usize>(
    g: &[f64],
    v: *const f64,
    i: *const f64,
    h: *mut f64,
    stride: usize,
) {
    for (k, &gk) in g.iter().enumerate() {
        let gv = U::splat(gk);
        for q in 0..LV {
            let o = k * stride + q * U::W;
            // SAFETY: forwarded from the caller.
            unsafe {
                gv.fmadd(U::load(v.add(o)), U::load(i.add(o)))
                    .store(h.add(o))
            };
        }
    }
}

/// The companion updates of one element class on one lane block, reading
/// node-state rows `rows[k]`; pointers as in [`lane_gather`].
///
/// # Safety
///
/// As [`lane_gather`], and every row in `rows` must be a row of `state`.
#[inline(always)]
unsafe fn lane_updates<U: Vf64, const LV: usize, const CAP: bool>(
    g: &[f64],
    rows: &[[u32; 2]],
    state: *const f64,
    v: *mut f64,
    i: *mut f64,
    stride: usize,
) {
    for (k, (&gk, row)) in g.iter().zip(rows).enumerate() {
        let gv = U::splat(gk);
        let (a, b) = (row[0] as usize * stride, row[1] as usize * stride);
        for q in 0..LV {
            let (o, e) = (q * U::W, k * stride + q * U::W);
            // SAFETY: forwarded from the caller.
            unsafe {
                let (vn, next) = companion::<U, CAP>(
                    gv,
                    U::load(state.add(a + o)),
                    U::load(state.add(b + o)),
                    U::load(v.add(e)),
                    U::load(i.add(e)),
                );
                next.store(i.add(e));
                vn.store(v.add(e));
            }
        }
    }
}

/// Copies rows `rows` of `from` into consecutive rows of `to`, one lane
/// block; pointers as in [`lane_gather`].
///
/// # Safety
///
/// As [`lane_gather`], for the rows of `from` named in `rows` and
/// `rows.len()` rows of `to`.
#[inline(always)]
unsafe fn lane_copy<U: Vf64, const LV: usize>(
    from: *const f64,
    rows: &[u32],
    to: *mut f64,
    stride: usize,
) {
    for (p, &r) in rows.iter().enumerate() {
        for q in 0..LV {
            let o = q * U::W;
            // SAFETY: forwarded from the caller.
            unsafe { U::load(from.add(r as usize * stride + o)).store(to.add(p * stride + o)) };
        }
    }
}

/// Goertzel recurrence; see [`crate::SimdLevel::goertzel`]. Quad-sample
/// outer loop over bin-vector blocks, exactly the shape of the historic
/// scalar loop — four samples advance per state load/store so the pass
/// stays memory-lean, and per bin the chain is the single-sample
/// recurrence unrolled.
#[inline(always)]
pub(crate) unsafe fn goertzel<V: Vf64>(
    samples: &[f64],
    coeff: &[f64],
    s1: &mut [f64],
    s2: &mut [f64],
) {
    let nb = coeff.len();
    debug_assert_eq!(s1.len(), nb);
    debug_assert_eq!(s2.len(), nb);
    let mut quads = samples.chunks_exact(4);
    for quad in quads.by_ref() {
        let (x0, x1, x2, x3) = (quad[0], quad[1], quad[2], quad[3]);
        let (v0, v1, v2, v3) = (V::splat(x0), V::splat(x1), V::splat(x2), V::splat(x3));
        let mut j = 0;
        while j + V::W <= nb {
            // SAFETY: `j + V::W <= nb` bounds every pointer.
            unsafe {
                let c = V::load(coeff.as_ptr().add(j));
                let a = V::load(s1.as_ptr().add(j));
                let b = V::load(s2.as_ptr().add(j));
                let t0 = c.fmadd(a, v0.sub(b));
                let t1 = c.fmadd(t0, v1.sub(a));
                let t2 = c.fmadd(t1, v2.sub(t0));
                let t3 = c.fmadd(t2, v3.sub(t1));
                t3.store(s1.as_mut_ptr().add(j));
                t2.store(s2.as_mut_ptr().add(j));
            }
            j += V::W;
        }
        while j < nb {
            let c = coeff[j];
            let (a, b) = (s1[j], s2[j]);
            let t0 = c.mul_add(a, x0 - b);
            let t1 = c.mul_add(t0, x1 - a);
            let t2 = c.mul_add(t1, x2 - t0);
            let t3 = c.mul_add(t2, x3 - t1);
            s1[j] = t3;
            s2[j] = t2;
            j += 1;
        }
    }
    for &xv in quads.remainder() {
        for ((c, a), b) in coeff.iter().zip(s1.iter_mut()).zip(s2.iter_mut()) {
            let s0 = c.mul_add(*a, xv - *b);
            *b = *a;
            *a = s0;
        }
    }
}

/// Elementwise product; see [`crate::SimdLevel::mul`].
#[inline(always)]
pub(crate) unsafe fn mul<V: Vf64>(x: &[f64], y: &[f64], out: &mut [f64]) {
    assert_eq!(x.len(), out.len());
    assert_eq!(y.len(), out.len());
    struct Elems<'a> {
        x: &'a [f64],
        y: &'a [f64],
        out: &'a mut [f64],
    }
    impl Block for Elems<'_> {
        #[inline(always)]
        unsafe fn run<U: Vf64, const LV: usize>(&mut self, e0: usize) {
            for q in 0..LV {
                let e = e0 + q * U::W;
                // SAFETY: the block covers elements `< out.len()`.
                unsafe {
                    U::load(self.x.as_ptr().add(e))
                        .mul(U::load(self.y.as_ptr().add(e)))
                        .store(self.out.as_mut_ptr().add(e))
                };
            }
        }
    }
    // SAFETY: forwarded target-feature contract; extents checked above.
    unsafe { for_blocks::<V, _>(out.len(), &mut Elems { x, y, out }) }
}
