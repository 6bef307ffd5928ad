//! The JSONL event schema.
//!
//! One event is one JSON object on one line, with a fixed key order so
//! that identical campaigns serialize to identical bytes:
//!
//! ```json
//! {"k":"span","name":"eval","layer":"core","t":40.0,"fields":{"gen":0,"idx":3,"fitness":-52.1}}
//! ```
//!
//! | key      | type   | meaning                                              |
//! |----------|--------|------------------------------------------------------|
//! | `k`      | string | event kind: `span` / `counter` / `hist`              |
//! | `name`   | string | span name, counter name, or histogram name           |
//! | `layer`  | string | originating subsystem (`circuit`, `dsp`, ...)        |
//! | `t`      | number | simulated campaign seconds (`SimClock`)              |
//! | `wall`   | number | optional wall-clock seconds (injected closure only)  |
//! | `fields` | object | numeric payload, in emission order                   |
//!
//! `counter` events carry `{"value": <total>}`; `hist` events carry
//! `{"count","sum","min","max","p50","p90","p99"}`; `span` fields are
//! span-specific attributes. The vendored `serde` derive cannot express
//! optional keys or this tagged layout, so the impls are hand-written.

use serde::{DeError, Deserialize, Serialize, Value};

/// The subsystem an event originated from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// MNA transient solver (`emvolt-circuit`).
    Circuit,
    /// FFT / spectrum estimation (`emvolt-dsp`).
    Dsp,
    /// EM propagation channel (`emvolt-em`).
    Em,
    /// Voltage domains and the bench protocol (`emvolt-platform`).
    Platform,
    /// Genetic-algorithm engine (`emvolt-ga`).
    Ga,
    /// Campaign orchestration (`emvolt-core`).
    Core,
    /// Command-line / experiment drivers.
    Cli,
}

impl Layer {
    /// Every layer, in schema order.
    pub const ALL: [Layer; 7] = [
        Layer::Circuit,
        Layer::Dsp,
        Layer::Em,
        Layer::Platform,
        Layer::Ga,
        Layer::Core,
        Layer::Cli,
    ];

    /// Wire name used in the `layer` field.
    pub fn as_str(self) -> &'static str {
        match self {
            Layer::Circuit => "circuit",
            Layer::Dsp => "dsp",
            Layer::Em => "em",
            Layer::Platform => "platform",
            Layer::Ga => "ga",
            Layer::Core => "core",
            Layer::Cli => "cli",
        }
    }

    /// Parses a wire name back into a layer.
    pub fn parse(s: &str) -> Option<Layer> {
        Layer::ALL.into_iter().find(|l| l.as_str() == s)
    }
}

impl std::fmt::Display for Layer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Event kind discriminator (the `k` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A point-in-time mark with span-specific attributes.
    Span,
    /// A monotonic counter snapshot.
    Counter,
    /// A value-histogram summary (count + percentiles).
    Hist,
}

impl EventKind {
    /// Every kind, in schema order.
    pub const ALL: [EventKind; 3] = [EventKind::Span, EventKind::Counter, EventKind::Hist];

    /// Wire name used in the `k` field.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Span => "span",
            EventKind::Counter => "counter",
            EventKind::Hist => "hist",
        }
    }

    /// Parses a wire name back into a kind.
    pub fn parse(s: &str) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|k| k.as_str() == s)
    }
}

/// Payload fields a `hist` event must carry, in order.
pub(crate) const HIST_FIELDS: [&str; 7] = ["count", "sum", "min", "max", "p50", "p90", "p99"];

/// One telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Kind discriminator.
    pub kind: EventKind,
    /// Span / counter / histogram name.
    pub name: String,
    /// Originating subsystem.
    pub layer: Layer,
    /// Simulated campaign time, seconds.
    pub t_s: f64,
    /// Optional wall-clock seconds; `None` in deterministic runs.
    pub wall_s: Option<f64>,
    /// Numeric payload, in emission order.
    pub fields: Vec<(String, f64)>,
}

impl Event {
    /// Checks the per-kind schema contract documented in the module docs.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated rule.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("event has an empty name".to_string());
        }
        if !self.t_s.is_finite() || self.t_s < 0.0 {
            return Err(format!("event `{}` has invalid t {}", self.name, self.t_s));
        }
        let has = |key: &str| self.fields.iter().any(|(k, _)| k == key);
        match self.kind {
            EventKind::Span => Ok(()),
            EventKind::Counter => {
                let Some(id) = crate::metrics::CounterId::from_name(&self.name) else {
                    return Err(format!(
                        "counter `{}` is not in the counter registry",
                        self.name
                    ));
                };
                if id.layer() != self.layer {
                    return Err(format!(
                        "counter `{}` belongs to layer `{}`, event says `{}`",
                        self.name,
                        id.layer(),
                        self.layer
                    ));
                }
                if self.fields.len() == 1 && has("value") {
                    Ok(())
                } else {
                    Err(format!(
                        "counter `{}` must carry exactly a `value` field",
                        self.name
                    ))
                }
            }
            EventKind::Hist => {
                for key in HIST_FIELDS {
                    if !has(key) {
                        return Err(format!("hist `{}` is missing field `{key}`", self.name));
                    }
                }
                Ok(())
            }
        }
    }
}

impl Serialize for Event {
    fn to_value(&self) -> Value {
        let mut obj = Vec::with_capacity(6);
        obj.push(("k".to_string(), Value::Str(self.kind.as_str().to_string())));
        obj.push(("name".to_string(), Value::Str(self.name.clone())));
        obj.push((
            "layer".to_string(),
            Value::Str(self.layer.as_str().to_string()),
        ));
        obj.push(("t".to_string(), Value::Num(self.t_s)));
        if let Some(w) = self.wall_s {
            obj.push(("wall".to_string(), Value::Num(w)));
        }
        let fields = self
            .fields
            .iter()
            .map(|(k, v)| (k.clone(), Value::Num(*v)))
            .collect();
        obj.push(("fields".to_string(), Value::Obj(fields)));
        Value::Obj(obj)
    }
}

impl Deserialize for Event {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let kind_str = String::from_value(v.field_value("k")?)?;
        let kind = EventKind::parse(&kind_str)
            .ok_or_else(|| DeError::new(format!("unknown event kind `{kind_str}`")))?;
        let name = String::from_value(v.field_value("name")?)?;
        let layer_str = String::from_value(v.field_value("layer")?)?;
        let layer = Layer::parse(&layer_str)
            .ok_or_else(|| DeError::new(format!("unknown layer `{layer_str}`")))?;
        let t_s = f64::from_value(v.field_value("t")?)?;
        let wall_s = match v.field_value("wall") {
            Ok(w) => Some(f64::from_value(w)?),
            Err(_) => None,
        };
        let fields = match v.field_value("fields")? {
            Value::Obj(entries) => entries
                .iter()
                .map(|(k, fv)| Ok((k.clone(), f64::from_value(fv)?)))
                .collect::<Result<Vec<_>, DeError>>()?,
            other => {
                return Err(DeError::new(format!(
                    "expected object for `fields`, found {}",
                    other.kind()
                )))
            }
        };
        Ok(Event {
            kind,
            name,
            layer,
            t_s,
            wall_s,
            fields,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_span() -> Event {
        Event {
            kind: EventKind::Span,
            name: "eval".to_string(),
            layer: Layer::Core,
            t_s: 40.5,
            wall_s: None,
            fields: vec![("gen".to_string(), 0.0), ("fitness".to_string(), -52.25)],
        }
    }

    #[test]
    fn round_trips_through_vendored_serde_json() {
        for event in [
            sample_span(),
            Event {
                kind: EventKind::Counter,
                name: "lu_factorizations".to_string(),
                layer: Layer::Circuit,
                t_s: 0.0,
                wall_s: Some(1.25),
                fields: vec![("value".to_string(), 3.0)],
            },
        ] {
            let line = serde_json::to_string(&event).unwrap();
            let back: Event = serde_json::from_str(&line).unwrap();
            assert_eq!(back, event);
        }
    }

    #[test]
    fn wall_key_is_omitted_when_absent() {
        let line = serde_json::to_string(&sample_span()).unwrap();
        assert!(
            !line.contains("wall"),
            "deterministic event leaked a wall clock: {line}"
        );
    }

    #[test]
    fn serialization_is_byte_stable() {
        let a = serde_json::to_string(&sample_span()).unwrap();
        let b = serde_json::to_string(&sample_span()).unwrap();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"k\":\"span\",\"name\":\"eval\",\"layer\":\"core\",\"t\":40.5"));
    }

    #[test]
    fn validate_enforces_per_kind_fields() {
        assert!(sample_span().validate().is_ok());
        let bad_counter = Event {
            kind: EventKind::Counter,
            fields: vec![],
            ..sample_span()
        };
        assert!(bad_counter.validate().is_err());
        let bad_hist = Event {
            kind: EventKind::Hist,
            fields: vec![("count".to_string(), 1.0)],
            ..sample_span()
        };
        assert!(bad_hist.validate().unwrap_err().contains("sum"));
    }

    /// Counter events must name a registered counter on its owning layer
    /// — including the batch-lane occupancy counters the lane-major GA
    /// path emits at each generation barrier.
    #[test]
    fn counter_events_are_checked_against_the_registry() {
        use crate::metrics::CounterId;
        for id in [CounterId::BatchLanes, CounterId::BatchLaneOccupancy] {
            let event = Event {
                kind: EventKind::Counter,
                name: id.name().to_string(),
                layer: id.layer(),
                t_s: 1.0,
                wall_s: None,
                fields: vec![("value".to_string(), 8.0)],
            };
            event.validate().unwrap();
            let wrong_layer = Event {
                layer: Layer::Dsp,
                ..event.clone()
            };
            assert!(wrong_layer.validate().unwrap_err().contains("layer"));
        }
        let unregistered = Event {
            kind: EventKind::Counter,
            name: "not_a_counter".to_string(),
            layer: Layer::Core,
            t_s: 0.0,
            wall_s: None,
            fields: vec![("value".to_string(), 1.0)],
        };
        assert!(unregistered.validate().unwrap_err().contains("registry"));
    }

    #[test]
    fn layer_and_kind_parse_inverse_as_str() {
        for layer in Layer::ALL {
            assert_eq!(Layer::parse(layer.as_str()), Some(layer));
        }
        for kind in EventKind::ALL {
            assert_eq!(EventKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(Layer::parse("kernel"), None);
    }
}
