//! Precomputed state-update ("state-space") transient kernel.
//!
//! The trapezoidal MNA system solved each step is `A x = b(state, t)`
//! where `A` is constant per `(topology, dt)` and `b` is a sparse
//! superposition of one scalar per reactive element and source:
//!
//! * capacitor `c`:  `hist_c * (e_a - e_b)` with `hist_c = g_c v_c + i_c`
//! * inductor `l`:   `hist_l * (e_b - e_a)` with `hist_l = i_l + g_l v_l`
//! * current source: `i(t) * (e_to - e_from)`
//! * voltage source `k`: `V(t) * e_{n_nodes + k}`
//!
//! Because the solve is linear, `x = Σ_j w_j · A⁻¹ u_j` where `u_j` is
//! the unit injection pattern of input `j` and `w_j` its scalar value at
//! this step. The kernel precomputes the node-voltage part of each
//! response column `A⁻¹ u_j` once (via the plan's LU factors, at plan
//! build time), laid out row-major `[n_inputs x n_nodes]` so the per-step
//! work collapses to a fused multiply-accumulate over contiguous rows —
//! SIMD-friendly, no permutation indirection, no forward/backward
//! substitution. Branch currents are never materialized: the transient
//! engine only ever reads node voltages from the solve (inductor
//! currents come from the trapezoidal companion update).
//!
//! The result is mathematically identical to the LU path but sums in a
//! different order, so agreement is to rounding (see the equivalence
//! tests and DESIGN.md §9), not bit-exact. The LU path remains the
//! exact reference and is kept verbatim.

use crate::linalg::LuFactors;
use crate::netlist::Circuit;

/// Selects which per-step solver a [`crate::TransientPlan`] embeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelChoice {
    /// Pick automatically: the state-space kernel for systems small
    /// enough that dense response columns pay off (dimension ≤
    /// [`KernelChoice::AUTO_DIM_LIMIT`]), the LU path otherwise.
    #[default]
    Auto,
    /// Always forward/backward substitution through the LU factors —
    /// the exact reference path.
    Lu,
    /// Always the precomputed state-update kernel.
    StateSpace,
}

impl KernelChoice {
    /// Largest MNA dimension for which [`KernelChoice::Auto`] picks the
    /// state-space kernel. Beyond this the O(dim²) per-input column
    /// build and cache footprint start to erode the per-step win.
    pub const AUTO_DIM_LIMIT: usize = 64;

    /// Whether this choice resolves to the state-space kernel for a
    /// system of `dim` unknowns.
    pub fn picks_state_space(self, dim: usize) -> bool {
        match self {
            KernelChoice::Auto => dim <= Self::AUTO_DIM_LIMIT,
            KernelChoice::Lu => false,
            KernelChoice::StateSpace => true,
        }
    }

    /// Parses a CLI-style name: `auto`, `lu` or `statespace`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "auto" => Some(KernelChoice::Auto),
            "lu" => Some(KernelChoice::Lu),
            "statespace" => Some(KernelChoice::StateSpace),
            _ => None,
        }
    }

    /// The canonical name [`KernelChoice::parse`] accepts.
    pub fn as_str(self) -> &'static str {
        match self {
            KernelChoice::Auto => "auto",
            KernelChoice::Lu => "lu",
            KernelChoice::StateSpace => "statespace",
        }
    }
}

/// The precomputed response columns: node voltages per unit input, flat
/// row-major `[n_inputs x n_nodes]`. Input order is capacitors,
/// inductors, current sources, voltage sources — the same order
/// `StateKernel::fold` consumers fill the input vector in, fixed so
/// the floating-point summation order (and therefore the result) is
/// deterministic.
#[derive(Debug, Clone)]
pub struct StateKernel {
    n_nodes: usize,
    n_inputs: usize,
    cols: Vec<f64>,
}

impl StateKernel {
    /// Solves the unit-injection columns through `lu` (the plan's
    /// transient factorization) and stores their node-voltage parts.
    pub(crate) fn build(circuit: &Circuit, lu: &LuFactors<f64>, n_nodes: usize) -> StateKernel {
        let dim = lu.dim();
        let n_inputs = circuit.capacitors.len()
            + circuit.inductors.len()
            + circuit.isources.len()
            + circuit.vsources.len();
        let row = |node: usize| -> Option<usize> { node.checked_sub(1) };
        let mut cols = Vec::with_capacity(n_inputs * n_nodes);
        let mut e = vec![0.0; dim];
        let mut x = vec![0.0; dim];
        let mut push_col = |e: &mut [f64], x: &mut [f64]| {
            lu.solve_into(e, x);
            cols.extend_from_slice(&x[..n_nodes]);
            e.iter_mut().for_each(|v| *v = 0.0);
        };
        for c in &circuit.capacitors {
            if let Some(a) = row(c.a) {
                e[a] += 1.0;
            }
            if let Some(b) = row(c.b) {
                e[b] -= 1.0;
            }
            push_col(&mut e, &mut x);
        }
        for l in &circuit.inductors {
            if let Some(a) = row(l.a) {
                e[a] -= 1.0;
            }
            if let Some(b) = row(l.b) {
                e[b] += 1.0;
            }
            push_col(&mut e, &mut x);
        }
        for is in &circuit.isources {
            if let Some(rf) = row(is.from) {
                e[rf] -= 1.0;
            }
            if let Some(rt) = row(is.to) {
                e[rt] += 1.0;
            }
            push_col(&mut e, &mut x);
        }
        for k in 0..circuit.vsources.len() {
            e[n_nodes + k] = 1.0;
            push_col(&mut e, &mut x);
        }
        StateKernel {
            n_nodes,
            n_inputs,
            cols,
        }
    }

    /// Number of scalar inputs the kernel folds per step.
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// Accumulates `xn = Σ_j inputs[j] · cols[j]` over the contiguous
    /// response rows. `xn` must hold exactly `n_nodes` elements and
    /// `inputs` exactly `n_inputs`.
    ///
    /// Runs on the runtime-dispatched SIMD level; every level performs
    /// the identical fused (`mul_add`) per-element sequence, so results
    /// are bit-identical across levels (see `emvolt-simd`).
    #[inline]
    pub(crate) fn fold(&self, inputs: &[f64], xn: &mut [f64]) {
        debug_assert_eq!(inputs.len(), self.n_inputs);
        debug_assert_eq!(xn.len(), self.n_nodes);
        emvolt_simd::level().fold_cols(&self.cols, self.n_nodes, inputs, xn);
    }

    /// Lane-major batched fold: `lanes` independent input vectors folded
    /// through the response columns in one pass.
    ///
    /// `inputs` is input-major `[n_inputs x lanes]` (`inputs[j*lanes + l]`
    /// is lane `l`'s weight for column `j`) and `xn` node-major
    /// `[n_nodes x lanes]` (`xn[i*lanes + l]` is lane `l`'s voltage at
    /// node `i`). Each response column entry `c_ji` is broadcast once per
    /// block of lane vectors and FMAed into register-resident
    /// accumulators — the memory traffic of one serial fold amortized
    /// over all lanes. Per lane the operation
    /// sequence (zero, then `x_i = w_j.mul_add(c_ji, x_i)` in `j` order)
    /// is exactly [`StateKernel::fold`]'s, so each lane's result is
    /// bit-identical to a serial fold of that lane alone — at every
    /// dispatched SIMD level.
    #[inline]
    pub(crate) fn fold_lanes(&self, inputs: &[f64], lanes: usize, xn: &mut [f64]) {
        debug_assert!(lanes > 0);
        debug_assert_eq!(inputs.len(), self.n_inputs * lanes);
        debug_assert_eq!(xn.len(), self.n_nodes * lanes);
        emvolt_simd::level().fold_cols_lanes(&self.cols, self.n_nodes, inputs, lanes, xn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choice_parsing_round_trips() {
        for c in [
            KernelChoice::Auto,
            KernelChoice::Lu,
            KernelChoice::StateSpace,
        ] {
            assert_eq!(KernelChoice::parse(c.as_str()), Some(c));
        }
        assert_eq!(KernelChoice::parse("bogus"), None);
    }

    /// Deterministic pseudo-random doubles in (-1, 1) for layout tests.
    fn lcg_doubles(seed: u64, n: usize) -> Vec<f64> {
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

    /// Every lane of `fold_lanes` must reproduce a serial `fold` of that
    /// lane bit-for-bit, for lane counts on both sides of the 8/4 block
    /// widths (exercising full blocks plus every remainder shape).
    #[test]
    fn fold_lanes_is_bit_identical_to_serial_folds() {
        let n_nodes = 7;
        let n_inputs = 5;
        let kernel = StateKernel {
            n_nodes,
            n_inputs,
            cols: lcg_doubles(0xC01, n_inputs * n_nodes),
        };
        for lanes in 1..=13usize {
            let all_inputs = lcg_doubles(0xF00D + lanes as u64, n_inputs * lanes);
            // Lane-major layout: inputs[j*lanes + l].
            let mut batched = vec![0.0; n_nodes * lanes];
            kernel.fold_lanes(&all_inputs, lanes, &mut batched);
            for l in 0..lanes {
                let lane_inputs: Vec<f64> =
                    (0..n_inputs).map(|j| all_inputs[j * lanes + l]).collect();
                let mut serial = vec![0.0; n_nodes];
                kernel.fold(&lane_inputs, &mut serial);
                for i in 0..n_nodes {
                    assert_eq!(
                        serial[i].to_bits(),
                        batched[i * lanes + l].to_bits(),
                        "lane {l} of {lanes} diverged at node {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn auto_respects_the_dimension_limit() {
        assert!(KernelChoice::Auto.picks_state_space(KernelChoice::AUTO_DIM_LIMIT));
        assert!(!KernelChoice::Auto.picks_state_space(KernelChoice::AUTO_DIM_LIMIT + 1));
        assert!(!KernelChoice::Lu.picks_state_space(4));
        assert!(KernelChoice::StateSpace.picks_state_space(4096));
    }
}
