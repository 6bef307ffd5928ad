//! Pins the crate's bit-equality contract against an independent
//! reference: every op's historic scalar sequence is written out below
//! as plain `f64::mul_add` loops, sharing no code with the kernels, and
//! every dispatch level the host supports must reproduce it
//! byte-for-byte. Comparing levels only against `SimdLevel::Scalar`
//! would not do: the scalar level runs the same generic kernel body, so
//! a change to that body would pass trivially.
//!
//! Shapes are swept exhaustively (`lanes` 1..=17, `n_nodes` 1..=20), so
//! every whole-vector block, every sub-vector remainder and every node
//! tile shape runs at every level. Values mix well-scaled doubles with
//! signed zeros and subnormals, which would expose a changed zero
//! initialization or a lost fused rounding.

use emvolt_simd::{supported_levels, SimdLevel};

/// SplitMix64 stream of test doubles.
struct Values(u64);

impl Values {
    fn new(seed: u64) -> Self {
        Values(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// One in eight values is special (a signed zero, a subnormal or
    /// one); the rest are uniform in (-1000, 1000).
    fn next(&mut self) -> f64 {
        let r = self.next_u64();
        match r % 64 {
            0 => 0.0,
            1 => -0.0,
            2 => 1e-310,
            3 => -3e-320,
            4 => 1.0,
            5..=7 => -(((r >> 11) as f64) / (1u64 << 53) as f64) * 1e-3,
            _ => (((r >> 11) as f64) / (1u64 << 53) as f64) * 2000.0 - 1000.0,
        }
    }

    fn vec(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.next()).collect()
    }
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// Runs `op` at every supported level and asserts its output bits equal
/// `reference`.
fn assert_levels_match(
    what: &str,
    reference: &[Vec<f64>],
    op: impl Fn(SimdLevel) -> Vec<Vec<f64>>,
) {
    let want: Vec<Vec<u64>> = reference.iter().map(|r| bits(r)).collect();
    for &lv in supported_levels() {
        let got: Vec<Vec<u64>> = op(lv).iter().map(|r| bits(r)).collect();
        assert_eq!(
            got,
            want,
            "{what}: level {} diverged from the reference",
            lv.as_str()
        );
    }
}

// --- The historic sequences, written out literally ------------------

/// Zero every node, then `x_i = w_j.mul_add(c_ji, x_i)` in ascending `j`.
fn ref_fold_cols(cols: &[f64], n_nodes: usize, inputs: &[f64]) -> Vec<f64> {
    let mut xn = vec![0.0; n_nodes];
    for (j, &w) in inputs.iter().enumerate() {
        for (i, x) in xn.iter_mut().enumerate() {
            *x = w.mul_add(cols[j * n_nodes + i], *x);
        }
    }
    xn
}

/// Per lane exactly [`ref_fold_cols`]: inputs `[n_inputs x lanes]`,
/// result `[n_nodes x lanes]`.
fn ref_fold_cols_lanes(cols: &[f64], n_nodes: usize, inputs: &[f64], lanes: usize) -> Vec<f64> {
    let mut xn = vec![0.0; n_nodes * lanes];
    for j in 0..inputs.len() / lanes {
        for i in 0..n_nodes {
            for l in 0..lanes {
                let x = &mut xn[i * lanes + l];
                *x = inputs[j * lanes + l].mul_add(cols[j * n_nodes + i], *x);
            }
        }
    }
    xn
}

/// `out[k*lanes + l] = g[k].mul_add(v[k*lanes + l], i[k*lanes + l])`.
fn ref_gather_hist(g: &[f64], v: &[f64], i: &[f64], lanes: usize) -> Vec<f64> {
    let mut out = vec![0.0; g.len() * lanes];
    for (k, &gk) in g.iter().enumerate() {
        for l in 0..lanes {
            let e = k * lanes + l;
            out[e] = gk.mul_add(v[e], i[e]);
        }
    }
    out
}

/// The trapezoidal companion update: `vn = s_a - s_b; hist =
/// g.mul_add(v, i); i = g.mul_add(vn, -hist)` for a capacitor,
/// `g.mul_add(vn, hist)` for an inductor; `v = vn`.
fn ref_updates(
    cap: bool,
    g: &[f64],
    rows: &[[u32; 2]],
    state: &[f64],
    lanes: usize,
    v: &mut [f64],
    i: &mut [f64],
) {
    for (k, (&gk, row)) in g.iter().zip(rows).enumerate() {
        for l in 0..lanes {
            let e = k * lanes + l;
            let vn = state[row[0] as usize * lanes + l] - state[row[1] as usize * lanes + l];
            let hist = gk.mul_add(v[e], i[e]);
            i[e] = if cap {
                gk.mul_add(vn, -hist)
            } else {
                gk.mul_add(vn, hist)
            };
            v[e] = vn;
        }
    }
}

/// One sample at a time per bin: `t = c.mul_add(s1, x - s2); s2 = s1;
/// s1 = t`.
fn ref_goertzel(samples: &[f64], coeff: &[f64], s1: &mut [f64], s2: &mut [f64]) {
    for &x in samples {
        for ((c, a), b) in coeff.iter().zip(s1.iter_mut()).zip(s2.iter_mut()) {
            let t = c.mul_add(*a, x - *b);
            *b = *a;
            *a = t;
        }
    }
}

// --- Level sweeps ----------------------------------------------------

#[test]
fn fold_cols_matches_reference() {
    let mut vals = Values::new(1);
    for n_nodes in 1..=20 {
        for n_inputs in 0..=12 {
            let cols = vals.vec(n_nodes * n_inputs);
            let inputs = vals.vec(n_inputs);
            let want = ref_fold_cols(&cols, n_nodes, &inputs);
            assert_levels_match(&format!("fold_cols {n_nodes}x{n_inputs}"), &[want], |lv| {
                let mut xn = vec![f64::NAN; n_nodes];
                lv.fold_cols(&cols, n_nodes, &inputs, &mut xn);
                vec![xn]
            });
        }
    }
}

#[test]
fn fold_cols_lanes_matches_reference() {
    let mut vals = Values::new(2);
    for lanes in 1..=17 {
        for n_nodes in 1..=20 {
            for n_inputs in [0, 1, 5, 11] {
                let cols = vals.vec(n_nodes * n_inputs);
                let inputs = vals.vec(n_inputs * lanes);
                let want = ref_fold_cols_lanes(&cols, n_nodes, &inputs, lanes);
                let what = format!("fold_cols_lanes {n_nodes}x{n_inputs} lanes {lanes}");
                assert_levels_match(&what, &[want], |lv| {
                    let mut xn = vec![f64::NAN; n_nodes * lanes];
                    lv.fold_cols_lanes(&cols, n_nodes, &inputs, lanes, &mut xn);
                    vec![xn]
                });
            }
        }
    }
}

#[test]
fn gather_hist_matches_reference() {
    let mut vals = Values::new(3);
    for lanes in 1..=17 {
        for n in 0..=20 {
            let g = vals.vec(n);
            let v = vals.vec(n * lanes);
            let i = vals.vec(n * lanes);
            let want = ref_gather_hist(&g, &v, &i, lanes);
            assert_levels_match(&format!("gather_hist {n} lanes {lanes}"), &[want], |lv| {
                let mut out = vec![f64::NAN; n * lanes];
                lv.gather_hist(&g, &v, &i, lanes, &mut out);
                vec![out]
            });
        }
    }
}

#[test]
fn companion_updates_match_reference() {
    let mut vals = Values::new(4);
    for lanes in 1..=17 {
        for n in 0..=20 {
            let n_rows = 13;
            let rows: Vec<[u32; 2]> = (0..n)
                .map(|_| {
                    let r = vals.next_u64();
                    [(r % n_rows) as u32, ((r >> 32) % n_rows) as u32]
                })
                .collect();
            let g = vals.vec(n);
            let state = vals.vec(n_rows as usize * lanes);
            let v0 = vals.vec(n * lanes);
            let i0 = vals.vec(n * lanes);
            for cap in [true, false] {
                let (mut v, mut i) = (v0.clone(), i0.clone());
                ref_updates(cap, &g, &rows, &state, lanes, &mut v, &mut i);
                let what = format!("updates cap={cap} {n} lanes {lanes}");
                assert_levels_match(&what, &[v, i], |lv| {
                    let (mut v, mut i) = (v0.clone(), i0.clone());
                    if cap {
                        lv.cap_updates(&g, &rows, &state, lanes, &mut v, &mut i);
                    } else {
                        lv.ind_updates(&g, &rows, &state, lanes, &mut v, &mut i);
                    }
                    vec![v, i]
                });
            }
        }
    }
}

#[test]
fn goertzel_matches_reference() {
    let mut vals = Values::new(5);
    for n_samples in 0..=13 {
        for n_bins in 1..=20 {
            let samples = vals.vec(n_samples);
            let coeff: Vec<f64> = vals.vec(n_bins).iter().map(|c| c * 2e-3).collect();
            let (s1, s2) = (vals.vec(n_bins), vals.vec(n_bins));
            let (mut a, mut b) = (s1.clone(), s2.clone());
            ref_goertzel(&samples, &coeff, &mut a, &mut b);
            let what = format!("goertzel {n_samples} samples {n_bins} bins");
            assert_levels_match(&what, &[a, b], |lv| {
                let (mut a, mut b) = (s1.clone(), s2.clone());
                lv.goertzel(&samples, &coeff, &mut a, &mut b);
                vec![a, b]
            });
        }
    }
}

#[test]
fn mul_matches_reference() {
    let mut vals = Values::new(6);
    for n in 0..=40 {
        let (x, y) = (vals.vec(n), vals.vec(n));
        let want: Vec<f64> = x.iter().zip(&y).map(|(a, b)| a * b).collect();
        assert_levels_match(&format!("mul {n}"), &[want], |lv| {
            let mut out = vec![f64::NAN; n];
            lv.mul(&x, &y, &mut out);
            vec![out]
        });
    }
}
