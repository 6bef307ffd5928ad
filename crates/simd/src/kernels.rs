//! The shared kernel bodies, generic over a [`Vf64`] width.
//!
//! Each kernel vectorizes only across *independent* elements (nodes,
//! lanes, bins): a vector of `V::W` elements is advanced with one vector
//! op per scalar op of the reference sequence. Elements are walked in
//! blocks of compile-time width ([`for_blocks`]); the sub-`W` remainder
//! is one block of scalar register chains, the same body instantiated
//! at `f64` (width 1). No block contains a short loop over independent
//! elements, so none compiles to masked loads and stores. The folds keep
//! their accumulators in registers across every response column and
//! store each once. Instantiated at `f64` the whole kernel *is* the
//! reference sequence, so the scalar dispatch level and the vector
//! levels share one definition and cannot drift apart.
//!
//! All functions are `unsafe` only because [`Vf64::load`]/[`Vf64::store`]
//! take raw pointers; every pointer passed stays inside the bounds of
//! the slice it came from. Callers must ensure the instantiated vector
//! type's target features are available (see [`crate::vector::Vf64`]).

use crate::vector::Vf64;

/// Emits one `#[target_feature]` entry point per kernel, instantiated
/// at a vector type — invoked once per dispatch tier by the per-arch
/// modules.
macro_rules! target_kernels {
    ($feat:literal, $vec:ty) => {
        /// [`crate::SimdLevel::fold_cols`] at this tier's width.
        ///
        /// # Safety
        ///
        /// The tier's target features must be present at runtime.
        #[target_feature(enable = $feat)]
        pub(crate) unsafe fn fold_cols(
            cols: &[f64],
            n_nodes: usize,
            inputs: &[f64],
            xn: &mut [f64],
        ) {
            // SAFETY: forwarded contract.
            unsafe { crate::kernels::fold_cols::<$vec>(cols, n_nodes, inputs, xn) }
        }

        /// [`crate::SimdLevel::fold_cols_lanes`] at this tier's width.
        ///
        /// # Safety
        ///
        /// The tier's target features must be present at runtime.
        #[target_feature(enable = $feat)]
        pub(crate) unsafe fn fold_cols_lanes(
            cols: &[f64],
            n_nodes: usize,
            inputs: &[f64],
            lanes: usize,
            xn: &mut [f64],
        ) {
            // SAFETY: forwarded contract.
            unsafe { crate::kernels::fold_cols_lanes::<$vec>(cols, n_nodes, inputs, lanes, xn) }
        }

        /// [`crate::SimdLevel::gather_hist`] at this tier's width.
        ///
        /// # Safety
        ///
        /// The tier's target features must be present at runtime.
        #[target_feature(enable = $feat)]
        pub(crate) unsafe fn gather_hist(
            g: &[f64],
            v: &[f64],
            i: &[f64],
            lanes: usize,
            out: &mut [f64],
        ) {
            // SAFETY: forwarded contract.
            unsafe { crate::kernels::gather_hist::<$vec>(g, v, i, lanes, out) }
        }

        /// [`crate::SimdLevel::cap_updates`] at this tier's width.
        ///
        /// # Safety
        ///
        /// The tier's target features must be present at runtime.
        #[target_feature(enable = $feat)]
        pub(crate) unsafe fn cap_updates(
            g: &[f64],
            rows: &[[u32; 2]],
            state: &[f64],
            lanes: usize,
            v: &mut [f64],
            i: &mut [f64],
        ) {
            // SAFETY: forwarded contract.
            unsafe { crate::kernels::cap_updates::<$vec>(g, rows, state, lanes, v, i) }
        }

        /// [`crate::SimdLevel::ind_updates`] at this tier's width.
        ///
        /// # Safety
        ///
        /// The tier's target features must be present at runtime.
        #[target_feature(enable = $feat)]
        pub(crate) unsafe fn ind_updates(
            g: &[f64],
            rows: &[[u32; 2]],
            state: &[f64],
            lanes: usize,
            v: &mut [f64],
            i: &mut [f64],
        ) {
            // SAFETY: forwarded contract.
            unsafe { crate::kernels::ind_updates::<$vec>(g, rows, state, lanes, v, i) }
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
/// elements are lanes for the lane-major kernels, and nodes or array
/// entries for the serial ones.
trait Block {
    /// # Safety
    ///
    /// `e0 + LV * U::W` must not exceed the element count the block walk
    /// was started with, and `U`'s target features must be present.
    unsafe fn run<U: Vf64, const LV: usize>(&mut self, e0: usize);
}

/// Walks `n` independent elements with no masked or ragged tail: pairs
/// of `V` vectors, then at most one single vector, then the
/// sub-vector remainder as one block of 1–3 scalar register chains
/// (`f64` is the width-1 [`Vf64`]). Every block is straight-line code of
/// compile-time width, so the compiler is never handed a short loop over
/// independent elements that it could fold into masked loads and
/// stores.
///
/// # Safety
///
/// `body` must accept every block inside `0..n`, and `V`'s target
/// features must be present.
#[inline(always)]
unsafe fn for_blocks<V: Vf64, B: Block>(n: usize, body: &mut B) {
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
    // SAFETY: each scalar block ends exactly at `n`.
    unsafe {
        match n - e0 {
            0 => {}
            1 => body.run::<f64, 1>(e0),
            2 => body.run::<f64, 2>(e0),
            3 => body.run::<f64, 3>(e0),
            _ => unreachable!("vector widths are at most 4"),
        }
    }
}

/// Serial response-column fold; see [`crate::SimdLevel::fold_cols`].
/// Blocks run across the node dimension; each block's accumulators stay
/// in registers over every column and are stored once.
#[inline(always)]
pub(crate) unsafe fn fold_cols<V: Vf64>(
    cols: &[f64],
    n_nodes: usize,
    inputs: &[f64],
    xn: &mut [f64],
) {
    assert_eq!(xn.len(), n_nodes);
    assert_eq!(Some(cols.len()), n_nodes.checked_mul(inputs.len()));
    struct Nodes<'a> {
        cols: &'a [f64],
        n_nodes: usize,
        inputs: &'a [f64],
        xn: &'a mut [f64],
    }
    impl Block for Nodes<'_> {
        #[inline(always)]
        unsafe fn run<U: Vf64, const LV: usize>(&mut self, i0: usize) {
            let mut acc = [U::splat(0.0); LV];
            for (j, &w) in self.inputs.iter().enumerate() {
                let wv = U::splat(w);
                // SAFETY: column `j` holds `n_nodes` entries and the block
                // covers nodes `i0 .. i0 + LV * U::W <= n_nodes`.
                let col = unsafe { self.cols.as_ptr().add(j * self.n_nodes + i0) };
                for (q, a) in acc.iter_mut().enumerate() {
                    // SAFETY: as above.
                    *a = wv.fmadd(unsafe { U::load(col.add(q * U::W)) }, *a);
                }
            }
            let out = self.xn.as_mut_ptr();
            for (q, a) in acc.into_iter().enumerate() {
                // SAFETY: as above, within `xn` (length `n_nodes`).
                unsafe { a.store(out.add(i0 + q * U::W)) };
            }
        }
    }
    let mut body = Nodes {
        cols,
        n_nodes,
        inputs,
        xn,
    };
    // SAFETY: forwarded target-feature contract; extents checked above.
    unsafe { for_blocks::<V, _>(n_nodes, &mut body) }
}

/// Lane-major batched fold; see [`crate::SimdLevel::fold_cols_lanes`].
/// Blocks run across the lane dimension; within a block, tiles of up to
/// four nodes keep `4 x LV` independent accumulator chains in registers
/// over every column, loading each column's lane weights once per tile.
#[inline(always)]
pub(crate) unsafe fn fold_cols_lanes<V: Vf64>(
    cols: &[f64],
    n_nodes: usize,
    inputs: &[f64],
    lanes: usize,
    xn: &mut [f64],
) {
    assert!(lanes > 0);
    assert_eq!(Some(xn.len()), n_nodes.checked_mul(lanes));
    assert_eq!(inputs.len() % lanes, 0);
    assert_eq!(
        Some(cols.len()),
        (inputs.len() / lanes).checked_mul(n_nodes)
    );
    struct Lanes<'a> {
        cols: &'a [f64],
        n_nodes: usize,
        inputs: &'a [f64],
        lanes: usize,
        xn: &'a mut [f64],
    }
    impl Lanes<'_> {
        /// Folds nodes `i0 .. i0 + NB` for the block's lanes.
        ///
        /// # Safety
        ///
        /// As [`Block::run`], and `i0 + NB <= n_nodes`.
        #[inline(always)]
        unsafe fn tile<U: Vf64, const LV: usize, const NB: usize>(&mut self, i0: usize, l0: usize) {
            let mut acc = [[U::splat(0.0); LV]; NB];
            let n_inputs = self.inputs.len() / self.lanes;
            for j in 0..n_inputs {
                // SAFETY: input row `j` holds `lanes` weights and the block
                // covers lanes `l0 .. l0 + LV * U::W <= lanes`; column `j`
                // holds `n_nodes` entries and the tile covers nodes
                // `i0 .. i0 + NB <= n_nodes`.
                let w_row = unsafe { self.inputs.as_ptr().add(j * self.lanes + l0) };
                // SAFETY: as above.
                let c_row = unsafe { self.cols.as_ptr().add(j * self.n_nodes + i0) };
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
            }
            let out = self.xn.as_mut_ptr();
            for (b, row) in acc.into_iter().enumerate() {
                for (q, a) in row.into_iter().enumerate() {
                    // SAFETY: node `i0 + b < n_nodes`, lanes as above.
                    unsafe { a.store(out.add((i0 + b) * self.lanes + l0 + q * U::W)) };
                }
            }
        }
    }
    impl Block for Lanes<'_> {
        #[inline(always)]
        unsafe fn run<U: Vf64, const LV: usize>(&mut self, l0: usize) {
            let mut i0 = 0;
            while i0 + 4 <= self.n_nodes {
                // SAFETY: the tile ends at `i0 + 4 <= n_nodes`.
                unsafe { self.tile::<U, LV, 4>(i0, l0) };
                i0 += 4;
            }
            // SAFETY: each tile ends exactly at `n_nodes`.
            unsafe {
                match self.n_nodes - i0 {
                    0 => {}
                    1 => self.tile::<U, LV, 1>(i0, l0),
                    2 => self.tile::<U, LV, 2>(i0, l0),
                    _ => self.tile::<U, LV, 3>(i0, l0),
                }
            }
        }
    }
    let mut body = Lanes {
        cols,
        n_nodes,
        inputs,
        lanes,
        xn,
    };
    // SAFETY: forwarded target-feature contract; extents checked above.
    unsafe { for_blocks::<V, _>(lanes, &mut body) }
}

/// Trapezoidal history gather; see [`crate::SimdLevel::gather_hist`].
#[inline(always)]
pub(crate) unsafe fn gather_hist<V: Vf64>(
    g: &[f64],
    v: &[f64],
    i: &[f64],
    lanes: usize,
    out: &mut [f64],
) {
    assert!(lanes > 0);
    assert_eq!(Some(out.len()), g.len().checked_mul(lanes));
    assert_eq!(v.len(), out.len());
    assert_eq!(i.len(), out.len());
    /// Serial gather (`lanes == 1`): blocks run across the elements.
    struct Elems<'a> {
        g: &'a [f64],
        v: &'a [f64],
        i: &'a [f64],
        out: &'a mut [f64],
    }
    impl Block for Elems<'_> {
        #[inline(always)]
        unsafe fn run<U: Vf64, const LV: usize>(&mut self, e0: usize) {
            for q in 0..LV {
                let e = e0 + q * U::W;
                // SAFETY: the block covers elements `< g.len()`, and every
                // slice is `g.len()` long.
                unsafe {
                    U::load(self.g.as_ptr().add(e))
                        .fmadd(
                            U::load(self.v.as_ptr().add(e)),
                            U::load(self.i.as_ptr().add(e)),
                        )
                        .store(self.out.as_mut_ptr().add(e))
                };
            }
        }
    }
    /// Batched gather: blocks run across the lanes of every element row.
    struct Lanes<'a> {
        g: &'a [f64],
        v: &'a [f64],
        i: &'a [f64],
        lanes: usize,
        out: &'a mut [f64],
    }
    impl Block for Lanes<'_> {
        #[inline(always)]
        unsafe fn run<U: Vf64, const LV: usize>(&mut self, l0: usize) {
            for (k, &gk) in self.g.iter().enumerate() {
                let gv = U::splat(gk);
                for q in 0..LV {
                    let e = k * self.lanes + l0 + q * U::W;
                    // SAFETY: row `k` holds `lanes` entries and the block
                    // covers lanes `< lanes`.
                    unsafe {
                        gv.fmadd(
                            U::load(self.v.as_ptr().add(e)),
                            U::load(self.i.as_ptr().add(e)),
                        )
                        .store(self.out.as_mut_ptr().add(e))
                    };
                }
            }
        }
    }
    // SAFETY: forwarded target-feature contract; extents checked above.
    unsafe {
        if lanes == 1 {
            for_blocks::<V, _>(g.len(), &mut Elems { g, v, i, out });
        } else {
            for_blocks::<V, _>(
                lanes,
                &mut Lanes {
                    g,
                    v,
                    i,
                    lanes,
                    out,
                },
            );
        }
    }
}

/// Companion update shared by capacitors (`CAP = true`, history enters
/// with a minus) and inductors (`CAP = false`, plus); see
/// [`crate::SimdLevel::cap_updates`] / [`crate::SimdLevel::ind_updates`].
/// Blocks run across the lanes of every element row.
#[inline(always)]
unsafe fn elem_updates<V: Vf64, const CAP: bool>(
    g: &[f64],
    rows: &[[u32; 2]],
    state: &[f64],
    lanes: usize,
    v: &mut [f64],
    i: &mut [f64],
) {
    assert!(lanes > 0);
    assert_eq!(rows.len(), g.len());
    assert_eq!(Some(v.len()), g.len().checked_mul(lanes));
    assert_eq!(i.len(), v.len());
    let n_rows = state.len() / lanes;
    assert!(rows.iter().flatten().all(|&r| (r as usize) < n_rows));
    struct Lanes<'a, const CAP: bool> {
        g: &'a [f64],
        rows: &'a [[u32; 2]],
        state: &'a [f64],
        lanes: usize,
        v: &'a mut [f64],
        i: &'a mut [f64],
    }
    impl<const CAP: bool> Block for Lanes<'_, CAP> {
        #[inline(always)]
        unsafe fn run<U: Vf64, const LV: usize>(&mut self, l0: usize) {
            for (k, (&gk, row)) in self.g.iter().zip(self.rows).enumerate() {
                let gv = U::splat(gk);
                let a = row[0] as usize * self.lanes + l0;
                let b = row[1] as usize * self.lanes + l0;
                let base = k * self.lanes + l0;
                for q in 0..LV {
                    let o = q * U::W;
                    // SAFETY: the rows are inside `state` (checked above),
                    // row `k` of `v`/`i` holds `lanes` entries, and the
                    // block covers lanes `< lanes`.
                    unsafe {
                        let sp = self.state.as_ptr();
                        let vn = U::load(sp.add(a + o)).sub(U::load(sp.add(b + o)));
                        let hist = gv.fmadd(
                            U::load(self.v.as_ptr().add(base + o)),
                            U::load(self.i.as_ptr().add(base + o)),
                        );
                        let next = if CAP {
                            gv.fmsub(vn, hist)
                        } else {
                            gv.fmadd(vn, hist)
                        };
                        next.store(self.i.as_mut_ptr().add(base + o));
                        vn.store(self.v.as_mut_ptr().add(base + o));
                    }
                }
            }
        }
    }
    let mut body = Lanes::<CAP> {
        g,
        rows,
        state,
        lanes,
        v,
        i,
    };
    // SAFETY: forwarded target-feature contract; extents checked above.
    unsafe { for_blocks::<V, _>(lanes, &mut body) }
}

/// Capacitor companion update; see [`crate::SimdLevel::cap_updates`].
#[inline(always)]
pub(crate) unsafe fn cap_updates<V: Vf64>(
    g: &[f64],
    rows: &[[u32; 2]],
    state: &[f64],
    lanes: usize,
    v: &mut [f64],
    i: &mut [f64],
) {
    // SAFETY: forwarded contract.
    unsafe { elem_updates::<V, true>(g, rows, state, lanes, v, i) }
}

/// Inductor companion update; see [`crate::SimdLevel::ind_updates`].
#[inline(always)]
pub(crate) unsafe fn ind_updates<V: Vf64>(
    g: &[f64],
    rows: &[[u32; 2]],
    state: &[f64],
    lanes: usize,
    v: &mut [f64],
    i: &mut [f64],
) {
    // SAFETY: forwarded contract.
    unsafe { elem_updates::<V, false>(g, rows, state, lanes, v, i) }
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
