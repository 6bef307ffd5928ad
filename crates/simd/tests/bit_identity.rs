//! Pins the crate's bit-equality contract against an independent
//! reference: every op's historic scalar sequence is written out below
//! as plain `f64::mul_add` loops, sharing no code with the kernels (the
//! fused transient step kernel against a step loop built from the
//! gather, fold and companion-update references), and
//! every dispatch level the host supports must reproduce it
//! byte-for-byte. Comparing levels only against `SimdLevel::Scalar`
//! would not do: the scalar level runs the same generic kernel body, so
//! a change to that body would pass trivially.
//!
//! Shapes are swept exhaustively (`lanes` 1..=17, `n_nodes` 1..=20,
//! 0, 1, 5 or 11 fold inputs), so every lane-vector block, every node
//! remainder and every node tile shape runs at every level. A group of
//! two or more lanes runs as the transient runs it: padded to whole
//! vectors of the level under test, the pad lanes replaying lane 0, with
//! only the real lanes compared. Values mix well-scaled doubles with
//! signed zeros and subnormals, which would expose a changed zero
//! initialization or a lost fused rounding.

use emvolt_simd::{supported_levels, SimdLevel, StepOperands, StepRows};

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

/// The stride a group of `lanes` runs at on `lv`: one lane as it is, a
/// wider group padded to whole vectors.
fn padded(lanes: usize, lv: SimdLevel) -> usize {
    if lanes == 1 {
        1
    } else {
        lanes.next_multiple_of(lv.vector_f64s())
    }
}

/// Rows of `lanes` values, each padded to `stride` with copies of its
/// lane 0.
fn pad(x: &[f64], lanes: usize, stride: usize) -> Vec<f64> {
    x.chunks_exact(lanes)
        .flat_map(|row| {
            let fill = std::iter::repeat_n(row[0], stride - lanes);
            row.iter().copied().chain(fill)
        })
        .collect()
}

/// The first `lanes` values of each `stride`-wide row.
fn unpad(x: &[f64], lanes: usize, stride: usize) -> Vec<f64> {
    x.chunks_exact(stride)
        .flat_map(|row| &row[..lanes])
        .copied()
        .collect()
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

/// Per lane: zero every node, then `x_i = w_j.mul_add(c_ji, x_i)` in
/// ascending `j`; inputs `[n_inputs x lanes]`, result `[n_nodes x lanes]`.
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

/// The rows of one lane group, `lanes` per row: node state (row 0 is
/// ground), capacitor and inductor voltages and currents.
#[derive(Clone)]
struct Group {
    state: Vec<f64>,
    cap_v: Vec<f64>,
    cap_i: Vec<f64>,
    ind_v: Vec<f64>,
    ind_i: Vec<f64>,
}

/// The historic per-step sequence, op by op: gather both history
/// classes, fold histories then the step's source rows, update
/// capacitors then inductors, then copy the probed node rows and
/// inductor-current rows. Returns the probe rows `[n_steps x n_probes x
/// lanes]`.
fn ref_state_steps(
    ops: &StepOperands<'_>,
    lanes: usize,
    g: &mut Group,
    n_steps: usize,
    sources: &[f64],
) -> Vec<f64> {
    let n_src = if n_steps == 0 {
        0
    } else {
        sources.len() / (n_steps * lanes)
    };
    let mut probes = Vec::new();
    for s in 0..n_steps {
        let mut inputs = ref_gather_hist(ops.cap_g, &g.cap_v, &g.cap_i, lanes);
        inputs.extend(ref_gather_hist(ops.ind_g, &g.ind_v, &g.ind_i, lanes));
        inputs.extend_from_slice(&sources[s * n_src * lanes..(s + 1) * n_src * lanes]);
        let xn = ref_fold_cols_lanes(ops.cols, ops.n_nodes, &inputs, lanes);
        g.state[lanes..].copy_from_slice(&xn);
        let Group {
            state,
            cap_v,
            cap_i,
            ind_v,
            ind_i,
        } = g;
        ref_updates(true, ops.cap_g, ops.cap_rows, state, lanes, cap_v, cap_i);
        ref_updates(false, ops.ind_g, ops.ind_rows, state, lanes, ind_v, ind_i);
        for &r in ops.probe_nodes {
            probes.extend_from_slice(&state[r as usize * lanes..][..lanes]);
        }
        for &r in ops.probe_inds {
            probes.extend_from_slice(&ind_i[r as usize * lanes..][..lanes]);
        }
    }
    probes
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

/// A random state-space step problem with `n_inputs` fold inputs split
/// at random between `nc` capacitors and `nl` inductors between random
/// node rows (ground included) and `n_src` sources, and a probe set
/// mixing node rows (ground too) and inductors.
struct StepProblem {
    cols: Vec<f64>,
    n_nodes: usize,
    cap_g: Vec<f64>,
    ind_g: Vec<f64>,
    cap_rows: Vec<[u32; 2]>,
    ind_rows: Vec<[u32; 2]>,
    probe_nodes: Vec<u32>,
    probe_inds: Vec<u32>,
    group: Group,
    n_src: usize,
}

impl StepProblem {
    fn new(vals: &mut Values, lanes: usize, n_nodes: usize, n_inputs: usize) -> Self {
        let nc = (vals.next_u64() % (n_inputs as u64 + 1)) as usize;
        let nl = (vals.next_u64() % ((n_inputs - nc) as u64 + 1)) as usize;
        let n_src = n_inputs - nc - nl;
        let n_rows = n_nodes as u64 + 1;
        let mut pairs = |n: usize| -> Vec<[u32; 2]> {
            (0..n)
                .map(|_| {
                    let r = vals.next_u64();
                    [(r % n_rows) as u32, ((r >> 32) % n_rows) as u32]
                })
                .collect()
        };
        let (cap_rows, ind_rows) = (pairs(nc), pairs(nl));
        let probe_nodes = vec![0, n_nodes as u32, (vals.next_u64() % n_rows) as u32];
        let probe_inds = (0..nl as u32).rev().step_by(2).collect();
        // Small conductances keep a long run's state finite.
        let mut g = |n: usize| -> Vec<f64> { vals.vec(n).iter().map(|x| x * 1e-4).collect() };
        let (cap_g, ind_g) = (g(nc), g(nl));
        let cols = vals
            .vec((nc + nl + n_src) * n_nodes)
            .iter()
            .map(|x| x * 1e-4)
            .collect();
        let mut state = vals.vec((n_nodes + 1) * lanes);
        state[..lanes].fill(0.0);
        let group = Group {
            state,
            cap_v: vals.vec(nc * lanes),
            cap_i: vals.vec(nc * lanes),
            ind_v: vals.vec(nl * lanes),
            ind_i: vals.vec(nl * lanes),
        };
        StepProblem {
            cols,
            n_nodes,
            cap_g,
            ind_g,
            cap_rows,
            ind_rows,
            probe_nodes,
            probe_inds,
            group,
            n_src,
        }
    }

    fn ops(&self) -> StepOperands<'_> {
        StepOperands {
            cols: &self.cols,
            n_nodes: self.n_nodes,
            cap_g: &self.cap_g,
            ind_g: &self.ind_g,
            cap_rows: &self.cap_rows,
            ind_rows: &self.ind_rows,
            probe_nodes: &self.probe_nodes,
            probe_inds: &self.probe_inds,
        }
    }

    fn n_probes(&self) -> usize {
        self.probe_nodes.len() + self.probe_inds.len()
    }

    /// The reference run: final rows, then the probe rows.
    fn reference(&self, lanes: usize, n_steps: usize, sources: &[f64]) -> Vec<Vec<f64>> {
        let mut g = self.group.clone();
        let probes = ref_state_steps(&self.ops(), lanes, &mut g, n_steps, sources);
        vec![g.state, g.cap_v, g.cap_i, g.ind_v, g.ind_i, probes]
    }

    /// The kernel at `lv`, called once per `block` steps (the last call
    /// takes the rest), each call with its own slices of the staged
    /// sources and the probe rows. The group runs at [`padded`] width and
    /// only its real lanes are returned.
    fn kernel(
        &self,
        lv: SimdLevel,
        lanes: usize,
        n_steps: usize,
        block: usize,
        sources: &[f64],
    ) -> Vec<Vec<f64>> {
        let stride = padded(lanes, lv);
        let pad = |x: &[f64]| pad(x, lanes, stride);
        let mut g = Group {
            state: pad(&self.group.state),
            cap_v: pad(&self.group.cap_v),
            cap_i: pad(&self.group.cap_i),
            ind_v: pad(&self.group.ind_v),
            ind_i: pad(&self.group.ind_i),
        };
        let sources = &pad(sources);
        let mut hist = vec![f64::NAN; (self.cap_g.len() + self.ind_g.len()) * stride];
        let (src_len, probe_len) = (self.n_src * stride, self.n_probes() * stride);
        let mut probes = vec![f64::NAN; n_steps * probe_len];
        let mut done = 0;
        loop {
            let n = block.min(n_steps - done);
            let mut rows = StepRows {
                stride,
                state: &mut g.state,
                cap_v: &mut g.cap_v,
                cap_i: &mut g.cap_i,
                ind_v: &mut g.ind_v,
                ind_i: &mut g.ind_i,
                hist: &mut hist,
            };
            lv.state_steps(
                &self.ops(),
                &mut rows,
                n,
                &sources[done * src_len..(done + n) * src_len],
                &mut probes[done * probe_len..(done + n) * probe_len],
            );
            done += n;
            if done == n_steps {
                break;
            }
        }
        [g.state, g.cap_v, g.cap_i, g.ind_v, g.ind_i, probes]
            .iter()
            .map(|rows| unpad(rows, lanes, stride))
            .collect()
    }
}

/// The transient stages its sources and runs the kernel in blocks of
/// this many steps.
const BLOCK: usize = 64;

/// Every lane count, node count and fold width (no input at all among
/// them), a few steps, one call.
#[test]
fn state_steps_match_reference_step_loop() {
    let mut vals = Values::new(3);
    for lanes in 1..=17 {
        for n_nodes in 1..=20 {
            for n_inputs in [0, 1, 5, 11] {
                let p = StepProblem::new(&mut vals, lanes, n_nodes, n_inputs);
                for n_steps in [0, 1, 3] {
                    let sources = vals.vec(n_steps * p.n_src * lanes);
                    let want = p.reference(lanes, n_steps, &sources);
                    let what = format!(
                        "state_steps {n_nodes} nodes, {n_inputs} inputs, {lanes} lanes, \
                         {n_steps} steps"
                    );
                    assert_levels_match(&what, &want, |lv| {
                        p.kernel(lv, lanes, n_steps, BLOCK, &sources)
                    });
                }
            }
        }
    }
}

/// Long runs on both sides of every block boundary up to `3 * BLOCK +
/// 1` steps, called in blocks as the transient does and in one call:
/// the step count and the split never change a bit.
#[test]
fn state_steps_match_reference_across_block_boundaries() {
    let mut vals = Values::new(4);
    for (lanes, n_nodes) in [(1, 12), (3, 7), (4, 12), (8, 12), (9, 20)] {
        let p = StepProblem::new(&mut vals, lanes, n_nodes, 11);
        let n_max = 3 * BLOCK + 1;
        let sources = vals.vec(n_max * p.n_src * lanes);
        for n_steps in [
            0,
            1,
            2,
            BLOCK - 1,
            BLOCK,
            BLOCK + 1,
            2 * BLOCK + 5,
            3 * BLOCK,
            n_max,
        ] {
            let sources = &sources[..n_steps * p.n_src * lanes];
            let want = p.reference(lanes, n_steps, sources);
            for block in [BLOCK, n_steps.max(1)] {
                let what =
                    format!("state_steps {lanes} lanes, {n_steps} steps in blocks of {block}");
                assert_levels_match(&what, &want, |lv| {
                    p.kernel(lv, lanes, n_steps, block, sources)
                });
            }
        }
    }
}

/// A stride of two or more lanes that is not a whole number of vectors
/// panics at every vector level; the scalar level takes any stride.
#[test]
fn state_steps_refuses_a_misaligned_stride() {
    let mut vals = Values::new(7);
    let p = StepProblem::new(&mut vals, 1, 6, 5);
    let ops = p.ops();
    for &lv in supported_levels() {
        let w = lv.vector_f64s();
        if w == 1 {
            continue;
        }
        for stride in [w + 1, 2 * w - 1] {
            let (nc, nl, n_rows) = (p.cap_g.len(), p.ind_g.len(), p.n_nodes + 1);
            let row = |n: usize| vec![0.0; n * stride];
            let (mut state, mut hist) = (row(n_rows), row(nc + nl));
            let (mut cap_v, mut cap_i) = (row(nc), row(nc));
            let (mut ind_v, mut ind_i) = (row(nl), row(nl));
            let sources = vec![0.0; p.n_src * stride];
            let mut probes = vec![0.0; p.n_probes() * stride];
            let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut rows = StepRows {
                    stride,
                    state: &mut state,
                    cap_v: &mut cap_v,
                    cap_i: &mut cap_i,
                    ind_v: &mut ind_v,
                    ind_i: &mut ind_i,
                    hist: &mut hist,
                };
                lv.state_steps(&ops, &mut rows, 1, &sources, &mut probes);
            }))
            .expect_err("a misaligned stride must panic");
            let msg = refused.downcast_ref::<String>().map_or("", String::as_str);
            assert!(
                msg.contains("neither 1 nor a whole number"),
                "stride {stride} at {}: {msg}",
                lv.as_str()
            );
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
