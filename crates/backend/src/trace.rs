//! The JSONL trace format behind [`RecordBackend`] / [`ReplayBackend`].
//!
//! A trace is one header line followed by one line per backend call:
//!
//! ```json
//! {"k":"header","version":1,"backend":"live","costs":{...},"domains":[...]}
//! {"k":"entry","key":"A72|k9c5a…x1|default|b…:…|n3|s00…2a|c41…","ok":true,"obs":{...},...}
//! ```
//!
//! Entries are looked up by [`request_key`] — a pipe-delimited string of
//! every input that determines the observation: domain name, kernel
//! fingerprint and core count, frequency override, band, sample count,
//! seed, and the run-config fingerprint. Serial calls with no seed key as
//! `rig` and are replayed *in recording order* per key, which reproduces
//! the stateful analyzer-RNG sequence.
//!
//! ## Bit-exact floats
//!
//! Replay promises `to_bits()`-level equality with the recorded run, so
//! every line goes through [`emvolt_obs::snap`], the codec the checkpoint
//! shares: all floats are stored as 16-hex-digit `f64::to_bits` strings;
//! only human-auxiliary numbers (sample counts, counter deltas) use JSON
//! numbers.

use crate::fingerprint::{kernel_fingerprint, Fnv};
use crate::request::{BandSpec, CombinedSource, DomainInfo, EmObservation, Load, MeasureRequest};
use emvolt_isa::Isa;
use emvolt_obs::snap::{arr, entries, field, hex, obj, to_line, tuple, unhex, Bits};
use emvolt_obs::{snap, CounterId, Event, HistId};
use emvolt_platform::{EmReading, SessionCosts};
use serde::{DeError, Deserialize, Serialize, Value};

/// Version stamp written to (and required in) the trace header.
pub const TRACE_FORMAT_VERSION: u64 = 1;

/// Lookup key for one `measure`/`measure_serial` call.
///
/// `cfg_fp` is [`run_config_fingerprint`](crate::run_config_fingerprint)
/// of the campaign's pinned [`RunConfig`](emvolt_platform::RunConfig).
pub fn request_key(req: &MeasureRequest<'_>, cfg_fp: u64) -> String {
    let load = match req.load {
        Load::Kernel {
            kernel,
            loaded_cores,
        } => format!("k{}x{loaded_cores}", Bits(kernel_fingerprint(kernel))),
        Load::Idle => "idle".to_string(),
    };
    let freq = match req.freq_hz {
        Some(hz) => Bits(hz.to_bits()).to_string(),
        None => "default".to_string(),
    };
    let band = match req.band {
        BandSpec::Explicit { lo_hz, hi_hz } => {
            format!("b{}:{}", Bits(lo_hz.to_bits()), Bits(hi_hz.to_bits()))
        }
        BandSpec::AroundLoop { halfwidth_hz } => format!("l{}", Bits(halfwidth_hz.to_bits())),
    };
    let seed = match req.seed {
        Some(s) => format!("s{}", Bits(s)),
        None => "rig".to_string(),
    };
    format!(
        "{}|{load}|{freq}|{band}|n{}|{seed}|c{}",
        req.domain,
        req.samples,
        Bits(cfg_fp)
    )
}

/// Lookup key for one `capture_combined` call.
pub fn combined_key(sources: &[CombinedSource<'_>], seed: u64, cfg_fp: u64) -> String {
    let mut h = Fnv::new();
    for src in sources {
        h.write(src.domain.as_bytes());
        h.write(b"|");
        match src.kernel {
            Some(k) => {
                h.write_u64(kernel_fingerprint(k));
                h.write_u64(src.loaded_cores as u64);
            }
            None => h.write(b"idle"),
        }
        h.write(b";");
    }
    format!(
        "combined|{}|s{}|c{}",
        Bits(h.finish()),
        Bits(seed),
        Bits(cfg_fp)
    )
}

fn isa_str(isa: Isa) -> &'static str {
    match isa {
        Isa::ArmV8 => "armv8",
        Isa::X86_64 => "x86_64",
    }
}

fn isa_parse(s: &str) -> Result<Isa, DeError> {
    match s {
        "armv8" => Ok(Isa::ArmV8),
        "x86_64" => Ok(Isa::X86_64),
        other => Err(DeError::new(format!("unknown isa `{other}`"))),
    }
}

fn domain_info_value(d: &DomainInfo) -> Value {
    obj(vec![
        ("name", Value::Str(d.name.clone())),
        ("isa", Value::Str(isa_str(d.isa).to_string())),
        ("max_freq", hex(d.max_frequency_hz)),
        ("freq", hex(d.frequency_hz)),
        ("voltage", hex(d.voltage_v)),
        ("active_cores", Value::Num(d.active_cores as f64)),
        ("resonance", hex(d.expected_resonance_hz)),
    ])
}

fn domain_info_from(v: &Value) -> Result<DomainInfo, DeError> {
    Ok(DomainInfo {
        name: String::from_value(field(v, "name")?)?,
        isa: isa_parse(&String::from_value(field(v, "isa")?)?)?,
        max_frequency_hz: unhex(field(v, "max_freq")?)?,
        frequency_hz: unhex(field(v, "freq")?)?,
        voltage_v: unhex(field(v, "voltage")?)?,
        active_cores: usize::from_value(field(v, "active_cores")?)?,
        expected_resonance_hz: unhex(field(v, "resonance")?)?,
    })
}

/// The trace's first line: who recorded, with what cost model, over
/// which domains.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TraceHeader {
    pub(crate) backend: String,
    pub(crate) costs: SessionCosts,
    pub(crate) domains: Vec<DomainInfo>,
}

impl TraceHeader {
    pub(crate) fn to_line(&self) -> String {
        let c = &self.costs;
        let v = obj(vec![
            ("k", Value::Str("header".to_string())),
            ("version", Value::Num(TRACE_FORMAT_VERSION as f64)),
            ("backend", Value::Str(self.backend.clone())),
            (
                "costs",
                obj(vec![
                    ("upload", hex(c.upload_s)),
                    ("compile", hex(c.compile_s)),
                    ("launch", hex(c.launch_s)),
                    ("sample", hex(c.sample_s)),
                    ("teardown", hex(c.teardown_s)),
                ]),
            ),
            (
                "domains",
                Value::Arr(self.domains.iter().map(domain_info_value).collect()),
            ),
        ]);
        to_line(&v)
    }

    pub(crate) fn from_value(v: &Value) -> Result<Self, DeError> {
        let version = u64::from_value(field(v, "version")?)?;
        if version != TRACE_FORMAT_VERSION {
            return Err(DeError::new(format!(
                "trace format version {version}, this build reads {TRACE_FORMAT_VERSION}"
            )));
        }
        let cv = field(v, "costs")?;
        let costs = SessionCosts {
            upload_s: unhex(field(cv, "upload")?)?,
            compile_s: unhex(field(cv, "compile")?)?,
            launch_s: unhex(field(cv, "launch")?)?,
            sample_s: unhex(field(cv, "sample")?)?,
            teardown_s: unhex(field(cv, "teardown")?)?,
        };
        Ok(TraceHeader {
            backend: String::from_value(field(v, "backend")?)?,
            costs,
            domains: arr(field(v, "domains")?)?
                .iter()
                .map(domain_info_from)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// The payload a recorded call produced.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TracePayload {
    /// A successful band measurement.
    Observation(EmObservation),
    /// A successful combined capture (sweep points).
    Points(Vec<(f64, f64)>),
    /// The call failed; the recorded error message.
    Failed(String),
}

/// One recorded backend call.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TraceEntry {
    pub(crate) key: String,
    pub(crate) payload: TracePayload,
    /// Counter deltas this call charged, in `CounterId::ALL` order.
    pub(crate) counters: Vec<(CounterId, u64)>,
    /// Histogram values this call recorded, in `HistId::ALL` order.
    pub(crate) hists: Vec<(HistId, Vec<f64>)>,
    /// Telemetry events this call emitted, in emission order.
    pub(crate) events: Vec<Event>,
    /// Analyzer occupancy this call added, seconds.
    pub(crate) elapsed_s: f64,
}

fn observation_value(o: &EmObservation) -> Value {
    obj(vec![
        ("metric", hex(o.reading.metric_dbm)),
        ("dominant", hex(o.reading.dominant_hz)),
        ("loop", hex(o.loop_frequency_hz)),
        ("ipc", hex(o.ipc)),
        ("droop", hex(o.max_droop_v)),
        ("p2p", hex(o.peak_to_peak_v)),
        ("band_lo", hex(o.band.0)),
        ("band_hi", hex(o.band.1)),
        ("cached", Value::Bool(o.cached)),
    ])
}

fn observation_from(v: &Value) -> Result<EmObservation, DeError> {
    Ok(EmObservation {
        reading: EmReading {
            metric_dbm: unhex(field(v, "metric")?)?,
            dominant_hz: unhex(field(v, "dominant")?)?,
        },
        loop_frequency_hz: unhex(field(v, "loop")?)?,
        ipc: unhex(field(v, "ipc")?)?,
        max_droop_v: unhex(field(v, "droop")?)?,
        peak_to_peak_v: unhex(field(v, "p2p")?)?,
        band: (unhex(field(v, "band_lo")?)?, unhex(field(v, "band_hi")?)?),
        cached: bool::from_value(field(v, "cached")?)?,
    })
}

impl TraceEntry {
    pub(crate) fn to_line(&self) -> String {
        let mut fields = vec![
            ("k", Value::Str("entry".to_string())),
            ("key", Value::Str(self.key.clone())),
        ];
        match &self.payload {
            TracePayload::Observation(o) => {
                fields.push(("ok", Value::Bool(true)));
                fields.push(("obs", observation_value(o)));
            }
            TracePayload::Points(points) => {
                fields.push(("ok", Value::Bool(true)));
                fields.push((
                    "points",
                    Value::Arr(
                        points
                            .iter()
                            .map(|&(f, a)| Value::Arr(vec![hex(f), hex(a)]))
                            .collect(),
                    ),
                ));
            }
            TracePayload::Failed(err) => {
                fields.push(("ok", Value::Bool(false)));
                fields.push(("err", Value::Str(err.clone())));
            }
        }
        fields.push((
            "counters",
            Value::Obj(
                self.counters
                    .iter()
                    .map(|&(id, n)| (id.name().to_string(), Value::Num(n as f64)))
                    .collect(),
            ),
        ));
        fields.push((
            "hists",
            Value::Obj(
                self.hists
                    .iter()
                    .map(|(id, vs)| {
                        (
                            id.name().to_string(),
                            Value::Arr(vs.iter().map(|&v| hex(v)).collect()),
                        )
                    })
                    .collect(),
            ),
        ));
        fields.push((
            "events",
            Value::Arr(self.events.iter().map(Serialize::to_value).collect()),
        ));
        fields.push(("elapsed", hex(self.elapsed_s)));
        to_line(&obj(fields))
    }

    pub(crate) fn from_value(v: &Value) -> Result<Self, DeError> {
        let payload = if !bool::from_value(field(v, "ok")?)? {
            TracePayload::Failed(String::from_value(field(v, "err")?)?)
        } else if let Ok(points) = field(v, "points") {
            TracePayload::Points(
                arr(points)?
                    .iter()
                    .map(|pair| {
                        let [f, a] = tuple(pair)?;
                        Ok((unhex(f)?, unhex(a)?))
                    })
                    .collect::<Result<_, DeError>>()?,
            )
        } else {
            TracePayload::Observation(observation_from(field(v, "obs")?)?)
        };
        let counters = entries(field(v, "counters")?)?
            .iter()
            .map(|(name, n)| {
                let id = CounterId::from_name(name)
                    .ok_or_else(|| DeError::new(format!("unknown counter `{name}`")))?;
                Ok((id, u64::from_value(n)?))
            })
            .collect::<Result<_, DeError>>()?;
        let hists = entries(field(v, "hists")?)?
            .iter()
            .map(|(name, vs)| {
                let id = HistId::from_name(name)
                    .ok_or_else(|| DeError::new(format!("unknown histogram `{name}`")))?;
                Ok((id, arr(vs)?.iter().map(unhex).collect::<Result<_, _>>()?))
            })
            .collect::<Result<_, DeError>>()?;
        Ok(TraceEntry {
            key: String::from_value(field(v, "key")?)?,
            payload,
            counters,
            hists,
            events: arr(field(v, "events")?)?
                .iter()
                .map(Event::from_value)
                .collect::<Result<_, _>>()?,
            elapsed_s: unhex(field(v, "elapsed")?)?,
        })
    }
}

/// One parsed trace line.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TraceLine {
    Header(TraceHeader),
    Entry(TraceEntry),
}

impl TraceLine {
    pub(crate) fn parse(line: &str) -> Result<Self, DeError> {
        let v = snap::parse_line(line)?;
        match String::from_value(field(&v, "k")?)?.as_str() {
            "header" => Ok(TraceLine::Header(TraceHeader::from_value(&v)?)),
            "entry" => Ok(TraceLine::Entry(TraceEntry::from_value(&v)?)),
            other => Err(DeError::new(format!("unknown trace line kind `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emvolt_obs::{EventKind, Layer};

    fn sample_info() -> DomainInfo {
        DomainInfo {
            name: "A72".to_string(),
            isa: Isa::ArmV8,
            max_frequency_hz: 1.6e9,
            frequency_hz: 1.2e9,
            voltage_v: 0.9,
            active_cores: 4,
            expected_resonance_hz: 1.0675e8,
        }
    }

    fn sample_obs() -> EmObservation {
        EmObservation {
            reading: EmReading {
                metric_dbm: -52.75,
                dominant_hz: 1.07e8,
            },
            loop_frequency_hz: 9.23e7,
            ipc: 1.37,
            max_droop_v: 0.043,
            peak_to_peak_v: 0.081,
            band: (5e7, 2e8),
            cached: false,
        }
    }

    #[test]
    fn header_round_trips() {
        let header = TraceHeader {
            backend: "live".to_string(),
            costs: SessionCosts::default(),
            domains: vec![sample_info()],
        };
        let line = header.to_line();
        match TraceLine::parse(&line).unwrap() {
            TraceLine::Header(back) => assert_eq!(back, header),
            TraceLine::Entry(_) => panic!("parsed header as entry"),
        }
    }

    #[test]
    fn entry_round_trips_with_awkward_floats() {
        // -0.0, a subnormal, an integer beyond 2^53, infinity: all bit
        // patterns the plain JSON number path would destroy.
        let entry = TraceEntry {
            key: "A72|idle|default|b...|n3|s00000000000000aa|c0".to_string(),
            payload: TracePayload::Observation(EmObservation {
                reading: EmReading {
                    metric_dbm: -0.0,
                    dominant_hz: 9007199254740995.0,
                },
                loop_frequency_hz: f64::MIN_POSITIVE / 2.0,
                ipc: f64::NEG_INFINITY,
                ..sample_obs()
            }),
            counters: vec![(CounterId::Measurements, 1), (CounterId::AnalyzerSweeps, 3)],
            hists: vec![(HistId::BandAmplitudeDbm, vec![-52.75, -0.0])],
            events: vec![Event {
                kind: EventKind::Span,
                name: "measure".to_string(),
                layer: Layer::Platform,
                t_s: 12.5,
                wall_s: None,
                fields: vec![("band_dbm".to_string(), -52.75)],
            }],
            elapsed_s: 1.8,
        };
        let line = entry.to_line();
        match TraceLine::parse(&line).unwrap() {
            TraceLine::Entry(back) => {
                assert_eq!(back, entry);
                let (obs, orig) = match (&back.payload, &entry.payload) {
                    (TracePayload::Observation(a), TracePayload::Observation(b)) => (a, b),
                    _ => panic!("payload kind changed"),
                };
                assert_eq!(
                    obs.reading.metric_dbm.to_bits(),
                    orig.reading.metric_dbm.to_bits(),
                    "-0.0 must survive"
                );
            }
            TraceLine::Header(_) => panic!("parsed entry as header"),
        }
    }

    #[test]
    fn failed_and_points_payloads_round_trip() {
        for payload in [
            TracePayload::Failed("frequency 0 outside (0, 1600000000]".to_string()),
            TracePayload::Points(vec![(5e7, -60.25), (1.07e8, -48.5)]),
        ] {
            let entry = TraceEntry {
                key: "combined|abc|s0|c0".to_string(),
                payload,
                counters: vec![],
                hists: vec![],
                events: vec![],
                elapsed_s: 0.0,
            };
            let line = entry.to_line();
            match TraceLine::parse(&line).unwrap() {
                TraceLine::Entry(back) => assert_eq!(back, entry),
                TraceLine::Header(_) => panic!("parsed entry as header"),
            }
        }
    }

    #[test]
    fn request_key_separates_every_input() {
        let kernel = emvolt_isa::kernels::padded_sweep_kernel(Isa::ArmV8, 7);
        let base = MeasureRequest {
            domain: "A72",
            load: Load::Kernel {
                kernel: &kernel,
                loaded_cores: 1,
            },
            freq_hz: None,
            band: BandSpec::Explicit {
                lo_hz: 5e7,
                hi_hz: 2e8,
            },
            samples: 3,
            seed: Some(42),
        };
        let k = request_key(&base, 1);
        assert_ne!(
            k,
            request_key(
                &MeasureRequest {
                    domain: "A53",
                    ..base
                },
                1
            )
        );
        assert_ne!(
            k,
            request_key(
                &MeasureRequest {
                    freq_hz: Some(1.0e9),
                    ..base
                },
                1
            )
        );
        assert_ne!(k, request_key(&MeasureRequest { samples: 4, ..base }, 1));
        assert_ne!(
            k,
            request_key(
                &MeasureRequest {
                    seed: Some(43),
                    ..base
                },
                1
            )
        );
        assert_ne!(k, request_key(&MeasureRequest { seed: None, ..base }, 1));
        assert_ne!(k, request_key(&base, 2));
        assert_eq!(k, request_key(&base.clone(), 1));
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            // Any f64 bit pattern — NaNs, -0.0, subnormals, infinities,
            // integers beyond 2^53 — survives a serialize/parse cycle
            // exactly. NaN breaks struct equality, so the invariant is
            // checked on the re-serialized line instead.
            #[test]
            fn observation_entries_round_trip_any_f64_bits(
                bits in proptest::collection::vec(any::<u64>(), 9),
                cached in any::<bool>(),
                // Counter deltas use plain JSON numbers; the documented
                // contract only covers exactly-representable counts.
                count in 0u64..(1 << 53),
                hist_bits in proptest::collection::vec(any::<u64>(), 0..4),
            ) {
                let f = |i: usize| f64::from_bits(bits[i]);
                let entry = TraceEntry {
                    key: "A72|idle|default|b0:0|n3|rig|c0".to_string(),
                    payload: TracePayload::Observation(EmObservation {
                        reading: EmReading {
                            metric_dbm: f(0),
                            dominant_hz: f(1),
                        },
                        loop_frequency_hz: f(2),
                        ipc: f(3),
                        max_droop_v: f(4),
                        peak_to_peak_v: f(5),
                        band: (f(6), f(7)),
                        cached,
                    }),
                    counters: vec![(CounterId::Measurements, count)],
                    hists: vec![(
                        HistId::BandAmplitudeDbm,
                        hist_bits.iter().map(|&b| f64::from_bits(b)).collect(),
                    )],
                    events: vec![],
                    elapsed_s: f(8),
                };
                let line = entry.to_line();
                let reparsed = match TraceLine::parse(&line) {
                    Ok(TraceLine::Entry(e)) => e,
                    other => panic!("bad parse: {other:?}"),
                };
                prop_assert_eq!(reparsed.to_line(), line);
            }

            #[test]
            fn points_entries_round_trip_any_f64_bits(
                pairs in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..8),
            ) {
                let entry = TraceEntry {
                    key: "combined|0|s0|c0".to_string(),
                    payload: TracePayload::Points(
                        pairs
                            .iter()
                            .map(|&(a, b)| (f64::from_bits(a), f64::from_bits(b)))
                            .collect(),
                    ),
                    counters: vec![],
                    hists: vec![],
                    events: vec![],
                    elapsed_s: 0.25,
                };
                let line = entry.to_line();
                let reparsed = match TraceLine::parse(&line) {
                    Ok(TraceLine::Entry(e)) => e,
                    other => panic!("bad parse: {other:?}"),
                };
                prop_assert_eq!(reparsed.to_line(), line);
            }
        }
    }

    #[test]
    fn combined_key_tracks_sources_and_seed() {
        let kernel = emvolt_isa::kernels::padded_sweep_kernel(Isa::ArmV8, 7);
        let loaded = [CombinedSource {
            domain: "A72",
            kernel: Some(&kernel),
            loaded_cores: 2,
        }];
        let idle = [CombinedSource {
            domain: "A72",
            kernel: None,
            loaded_cores: 2,
        }];
        let k = combined_key(&loaded, 5, 9);
        assert_ne!(k, combined_key(&idle, 5, 9));
        assert_ne!(k, combined_key(&loaded, 6, 9));
        assert_ne!(k, combined_key(&loaded, 5, 10));
        assert_eq!(k, combined_key(&loaded, 5, 9));
    }
}
