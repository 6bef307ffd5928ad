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
        }
    }

    /// The choice's name, as hashed into run-configuration fingerprints.
    pub fn as_str(self) -> &'static str {
        match self {
            KernelChoice::Auto => "auto",
            KernelChoice::Lu => "lu",
        }
    }
}

/// The precomputed response columns: node voltages per unit input, flat
/// row-major `[n_inputs x n_nodes]`. Input order is capacitors,
/// inductors, current sources, voltage sources — the order the
/// transient's step kernel folds its gathered histories and staged
/// sources in, fixed so the floating-point summation order (and
/// therefore the result) is deterministic.
#[derive(Debug, Clone)]
pub struct StateKernel {
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
        StateKernel { cols }
    }

    /// The response columns, row-major `[n_inputs x n_nodes]`, as the
    /// state-space step kernel folds them.
    pub(crate) fn cols(&self) -> &[f64] {
        &self.cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_respects_the_dimension_limit() {
        assert!(KernelChoice::Auto.picks_state_space(KernelChoice::AUTO_DIM_LIMIT));
        assert!(!KernelChoice::Auto.picks_state_space(KernelChoice::AUTO_DIM_LIMIT + 1));
        assert!(!KernelChoice::Lu.picks_state_space(4));
    }
}
