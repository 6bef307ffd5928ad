//! Netlist construction: nodes, passive elements and independent sources.
//!
//! A [`Circuit`] is a passive linear network — resistors, capacitors,
//! inductors — driven by independent voltage and current sources. This is
//! exactly the class of networks needed to model a power-delivery network
//! (Fig. 1(a) of the paper) and is analysed by the [`crate::ac`] and
//! [`crate::transient`] modules.

use crate::error::{CircuitError, Result};
use crate::stimulus::Stimulus;

/// Handle to a circuit node. Node 0 is always ground.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The ground (reference) node.
    pub const GROUND: NodeId = NodeId(0);

    /// Raw index of the node within the netlist (0 = ground).
    pub fn index(self) -> usize {
        self.0
    }
}

macro_rules! element_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub struct $name(pub(crate) usize);

        impl $name {
            /// Index of this element among elements of the same kind.
            pub fn index(self) -> usize {
                self.0
            }
        }
    };
}

element_id!(
    /// Handle to a resistor.
    ResistorId
);
element_id!(
    /// Handle to a capacitor.
    CapacitorId
);
element_id!(
    /// Handle to an inductor.
    InductorId
);
element_id!(
    /// Handle to an independent voltage source.
    VSourceId
);
element_id!(
    /// Handle to an independent current source.
    ISourceId
);

#[derive(Debug, Clone)]
pub(crate) struct Resistor {
    pub a: usize,
    pub b: usize,
    pub ohms: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct Capacitor {
    pub a: usize,
    pub b: usize,
    pub farads: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct Inductor {
    pub a: usize,
    pub b: usize,
    pub henries: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct VSource {
    /// Positive terminal.
    pub pos: usize,
    /// Negative terminal.
    pub neg: usize,
    pub stimulus: Stimulus,
}

#[derive(Debug, Clone)]
pub(crate) struct ISource {
    /// Current flows out of this node ...
    pub from: usize,
    /// ... and into this node (through the source).
    pub to: usize,
    pub stimulus: Stimulus,
}

/// A linear circuit netlist.
///
/// # Examples
///
/// Build a resistive divider and solve its DC operating point:
///
/// ```
/// use emvolt_circuit::{Circuit, NodeId, Stimulus};
///
/// # fn main() -> Result<(), emvolt_circuit::CircuitError> {
/// let mut c = Circuit::new();
/// let vin = c.node("vin");
/// let mid = c.node("mid");
/// c.voltage_source(vin, NodeId::GROUND, Stimulus::Dc(2.0))?;
/// c.resistor(vin, mid, 1.0)?;
/// c.resistor(mid, NodeId::GROUND, 1.0)?;
/// let op = c.dc_operating_point()?;
/// assert!((op.voltage(mid) - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    pub(crate) node_names: Vec<String>,
    pub(crate) resistors: Vec<Resistor>,
    pub(crate) capacitors: Vec<Capacitor>,
    pub(crate) inductors: Vec<Inductor>,
    pub(crate) vsources: Vec<VSource>,
    pub(crate) isources: Vec<ISource>,
}

impl Circuit {
    /// Creates an empty netlist containing only the ground node.
    pub fn new() -> Self {
        Circuit {
            node_names: vec!["gnd".to_owned()],
            ..Default::default()
        }
    }

    /// Adds a named node and returns its handle.
    pub fn node(&mut self, name: impl Into<String>) -> NodeId {
        self.node_names.push(name.into());
        NodeId(self.node_names.len() - 1)
    }

    /// Number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Name of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to this circuit.
    pub fn node_name(&self, n: NodeId) -> &str {
        &self.node_names[n.0]
    }

    fn check_node(&self, n: NodeId) -> Result<()> {
        if n.0 < self.node_names.len() {
            Ok(())
        } else {
            Err(CircuitError::UnknownNode { node: n.0 })
        }
    }

    fn check_positive(component: &'static str, value: f64) -> Result<()> {
        if value > 0.0 && value.is_finite() {
            Ok(())
        } else {
            Err(CircuitError::NonPositiveValue { component, value })
        }
    }

    /// Adds a resistor between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns an error if `ohms` is not strictly positive or a node is
    /// unknown.
    pub fn resistor(&mut self, a: NodeId, b: NodeId, ohms: f64) -> Result<ResistorId> {
        self.check_node(a)?;
        self.check_node(b)?;
        Self::check_positive("resistor", ohms)?;
        self.resistors.push(Resistor {
            a: a.0,
            b: b.0,
            ohms,
        });
        Ok(ResistorId(self.resistors.len() - 1))
    }

    /// Adds a capacitor between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns an error if `farads` is not strictly positive or a node is
    /// unknown.
    pub fn capacitor(&mut self, a: NodeId, b: NodeId, farads: f64) -> Result<CapacitorId> {
        self.check_node(a)?;
        self.check_node(b)?;
        Self::check_positive("capacitor", farads)?;
        self.capacitors.push(Capacitor {
            a: a.0,
            b: b.0,
            farads,
        });
        Ok(CapacitorId(self.capacitors.len() - 1))
    }

    /// Adds an inductor between `a` and `b`; positive current flows `a -> b`.
    ///
    /// # Errors
    ///
    /// Returns an error if `henries` is not strictly positive or a node is
    /// unknown.
    pub fn inductor(&mut self, a: NodeId, b: NodeId, henries: f64) -> Result<InductorId> {
        self.check_node(a)?;
        self.check_node(b)?;
        Self::check_positive("inductor", henries)?;
        self.inductors.push(Inductor {
            a: a.0,
            b: b.0,
            henries,
        });
        Ok(InductorId(self.inductors.len() - 1))
    }

    /// Adds an independent voltage source with `pos` as the positive
    /// terminal.
    ///
    /// # Errors
    ///
    /// Returns an error if a node is unknown.
    pub fn voltage_source(
        &mut self,
        pos: NodeId,
        neg: NodeId,
        stimulus: Stimulus,
    ) -> Result<VSourceId> {
        self.check_node(pos)?;
        self.check_node(neg)?;
        self.vsources.push(VSource {
            pos: pos.0,
            neg: neg.0,
            stimulus,
        });
        Ok(VSourceId(self.vsources.len() - 1))
    }

    /// Adds an independent current source driving current from `from` to
    /// `to` *through the source* (i.e. it extracts current from `from` and
    /// injects it into `to`).
    ///
    /// A CPU load drawing current from a supply node is therefore
    /// `current_source(vdd, GROUND, load_waveform)`.
    ///
    /// # Errors
    ///
    /// Returns an error if a node is unknown.
    pub fn current_source(
        &mut self,
        from: NodeId,
        to: NodeId,
        stimulus: Stimulus,
    ) -> Result<ISourceId> {
        self.check_node(from)?;
        self.check_node(to)?;
        self.isources.push(ISource {
            from: from.0,
            to: to.0,
            stimulus,
        });
        Ok(ISourceId(self.isources.len() - 1))
    }

    /// Replaces the stimulus of an existing current source — used by sweep
    /// harnesses that re-excite the same network many times.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this circuit.
    pub fn set_current_stimulus(&mut self, id: ISourceId, stimulus: Stimulus) {
        self.isources[id.0].stimulus = stimulus;
    }

    /// Replaces the stimulus of an existing voltage source.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this circuit.
    pub fn set_voltage_stimulus(&mut self, id: VSourceId, stimulus: Stimulus) {
        self.vsources[id.0].stimulus = stimulus;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_are_sequential_and_named() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        assert_eq!(a.index(), 1);
        assert_eq!(b.index(), 2);
        assert_eq!(c.node_name(a), "a");
        assert_eq!(c.node_name(NodeId::GROUND), "gnd");
        assert_eq!(c.node_count(), 3);
    }

    #[test]
    fn rejects_non_positive_values() {
        let mut c = Circuit::new();
        let a = c.node("a");
        assert!(c.resistor(a, NodeId::GROUND, 0.0).is_err());
        assert!(c.capacitor(a, NodeId::GROUND, -1e-9).is_err());
        assert!(c.inductor(a, NodeId::GROUND, f64::NAN).is_err());
    }

    #[test]
    fn rejects_unknown_nodes() {
        let mut c = Circuit::new();
        let bogus = NodeId(42);
        assert_eq!(
            c.resistor(bogus, NodeId::GROUND, 1.0),
            Err(CircuitError::UnknownNode { node: 42 })
        );
    }
}
