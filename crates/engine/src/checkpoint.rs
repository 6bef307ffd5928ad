//! Checkpoint store: versioned JSONL snapshots of a campaign in flight.
//!
//! A checkpoint is four lines, written atomically (temp file + rename):
//!
//! 1. **header** — format version, campaign kind, run-config
//!    fingerprint, and how many batches the snapshot covers. Resume
//!    refuses a checkpoint whose kind or fingerprint does not match the
//!    campaign being resumed, so a snapshot taken against one
//!    chip/config can never silently seed a different run.
//! 2. **state** — the campaign's own snapshot tree ([`Campaign::snapshot`]).
//! 3. **rig** — opaque backend rig state (analyzer RNG, elapsed rig
//!    time, replay cursors) as string pairs.
//! 4. **telemetry** — every counter total, raw histogram value stream
//!    and the simulated clock, so a resumed run's summary and trace
//!    continue exactly where the interrupted run stopped.
//!
//! Every line goes through [`emvolt_obs::snap`], the one codec shared
//! with the backend's record trace: every float crosses the file as the
//! hex form of its IEEE-754 bits, so `-0.0`, NaN payloads and values
//! past 2^53 survive the round trip bit-for-bit.
//!
//! [`Campaign::snapshot`]: crate::Campaign::snapshot

use emvolt_obs::snap::{self, arr, field, hex, hex_u64, obj, tuple, unhex, unhex_u64};
use emvolt_obs::{CounterId, HistId, Telemetry};
use serde::{DeError, Deserialize, Value};
use std::fs;
use std::io::Write;
use std::path::Path;

/// Bumped whenever the line layout changes; resume refuses other versions.
pub const CHECKPOINT_FORMAT_VERSION: u32 = 1;

/// Counter totals, histogram values and simulated time at snapshot time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetrySnapshot {
    /// Non-zero counter totals, in registry order.
    pub counters: Vec<(CounterId, u64)>,
    /// Non-empty histogram value streams, in recording order.
    pub hists: Vec<(HistId, Vec<f64>)>,
    /// Simulated campaign clock, seconds.
    pub sim_t: f64,
}

impl TelemetrySnapshot {
    /// Captures the current totals of `tel`.
    pub fn capture(tel: &Telemetry) -> Self {
        let counters = CounterId::ALL
            .into_iter()
            .filter_map(|id| {
                let n = tel.counter(id);
                (n > 0).then_some((id, n))
            })
            .collect();
        let hists = HistId::ALL
            .into_iter()
            .filter_map(|id| {
                let vs = tel.hist_values(id);
                (!vs.is_empty()).then_some((id, vs))
            })
            .collect();
        TelemetrySnapshot {
            counters,
            hists,
            sim_t: tel.sim_time(),
        }
    }

    /// Replays the snapshot into a fresh handle: counters re-counted,
    /// histogram values re-recorded in order, simulated clock restored.
    pub fn restore_into(&self, tel: &Telemetry) {
        for &(id, n) in &self.counters {
            tel.count(id, n);
        }
        for (id, vs) in &self.hists {
            for &v in vs {
                tel.record_value(*id, v);
            }
        }
        tel.set_sim_time(self.sim_t);
    }

    fn to_value(&self) -> Value {
        let counters = self
            .counters
            .iter()
            .map(|&(id, n)| Value::Arr(vec![Value::Str(id.name().to_string()), hex_u64(n)]))
            .collect();
        let hists = self
            .hists
            .iter()
            .map(|(id, vs)| {
                Value::Arr(vec![
                    Value::Str(id.name().to_string()),
                    Value::Arr(vs.iter().map(|&v| hex(v)).collect()),
                ])
            })
            .collect();
        obj(vec![
            ("k", Value::Str("telemetry".to_string())),
            ("counters", Value::Arr(counters)),
            ("hists", Value::Arr(hists)),
            ("sim_t", hex(self.sim_t)),
        ])
    }

    fn from_value(v: &Value) -> Result<Self, DeError> {
        let mut counters = Vec::new();
        for pair in arr(field(v, "counters")?)? {
            let [name, n] = tuple(pair)?;
            let name = String::from_value(name)?;
            let id = CounterId::from_name(&name)
                .ok_or_else(|| DeError::new(format!("unknown counter `{name}`")))?;
            counters.push((id, unhex_u64(n)?));
        }
        let mut hists = Vec::new();
        for pair in arr(field(v, "hists")?)? {
            let [name, vs] = tuple(pair)?;
            let name = String::from_value(name)?;
            let id = HistId::from_name(&name)
                .ok_or_else(|| DeError::new(format!("unknown histogram `{name}`")))?;
            let vs = arr(vs)?
                .iter()
                .map(unhex)
                .collect::<Result<Vec<f64>, DeError>>()?;
            hists.push((id, vs));
        }
        Ok(TelemetrySnapshot {
            counters,
            hists,
            sim_t: unhex(field(v, "sim_t")?)?,
        })
    }
}

/// One full campaign snapshot, as stored on disk.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Campaign kind tag (`"virus"`, `"sweep"`, `"vmin"`, ...).
    pub campaign: String,
    /// Run-config fingerprint the campaign was started with.
    pub fingerprint: u64,
    /// Batches absorbed when the snapshot was taken.
    pub batches: u64,
    /// Campaign-specific state tree.
    pub state: Value,
    /// Opaque backend rig state pairs.
    pub rig: Vec<(String, String)>,
    /// Telemetry totals at snapshot time.
    pub telemetry: TelemetrySnapshot,
}

impl Checkpoint {
    /// Renders the four JSONL lines.
    pub fn to_lines(&self) -> String {
        let header = obj(vec![
            ("k", Value::Str("checkpoint".to_string())),
            ("version", Value::Num(f64::from(CHECKPOINT_FORMAT_VERSION))),
            ("campaign", Value::Str(self.campaign.clone())),
            ("fingerprint", hex_u64(self.fingerprint)),
            ("batches", hex_u64(self.batches)),
        ]);
        // The state tree dominates the snapshot and this runs on every
        // debounced write, so render it in place instead of cloning it
        // into a wrapper object. Byte-identical to rendering
        // `obj([("k", ...), ("data", state)])`.
        let mut state = String::from("{\"k\":\"state\",\"data\":");
        state.push_str(&serde_json::value_to_string(&self.state));
        state.push('}');
        let rig = obj(vec![
            ("k", Value::Str("rig".to_string())),
            (
                "pairs",
                Value::Arr(
                    self.rig
                        .iter()
                        .map(|(k, v)| {
                            Value::Arr(vec![Value::Str(k.clone()), Value::Str(v.clone())])
                        })
                        .collect(),
                ),
            ),
        ]);
        format!(
            "{}\n{state}\n{}\n{}\n",
            snap::to_line(&header),
            snap::to_line(&rig),
            snap::to_line(&self.telemetry.to_value()),
        )
    }

    /// Parses the four lines written by [`Checkpoint::to_lines`].
    ///
    /// # Errors
    ///
    /// A message naming the offending line on malformed input or a
    /// format-version mismatch.
    pub fn from_lines(text: &str) -> Result<Self, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let mut next = |what: &str| {
            let line = lines.next().ok_or_else(|| format!("missing {what} line"))?;
            let v = snap::parse_line(line)
                .and_then(|v| Ok((String::from_value(field(&v, "k")?)?, v)))
                .map_err(|e| format!("{what} line: {e}"));
            match v? {
                (kind, v) if kind == what => Ok(v),
                (kind, _) => Err(format!("expected {what} line, found `{kind}`")),
            }
        };

        let header = next("checkpoint")?;
        let version = f64::from_value(field(&header, "version").map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        if version != f64::from(CHECKPOINT_FORMAT_VERSION) {
            return Err(format!(
                "checkpoint format version {version} is not the supported version \
                 {CHECKPOINT_FORMAT_VERSION}"
            ));
        }
        let (state, rig, telemetry) = (next("state")?, next("rig")?, next("telemetry")?);
        if lines.next().is_some() {
            return Err("trailing content after telemetry line".to_string());
        }
        let decode = || -> Result<Self, DeError> {
            let rig = arr(field(&rig, "pairs")?)?
                .iter()
                .map(|pair| {
                    let [k, v] = tuple(pair)?;
                    Ok((String::from_value(k)?, String::from_value(v)?))
                })
                .collect::<Result<_, DeError>>()?;
            Ok(Checkpoint {
                campaign: String::from_value(field(&header, "campaign")?)?,
                fingerprint: unhex_u64(field(&header, "fingerprint")?)?,
                batches: unhex_u64(field(&header, "batches")?)?,
                state: field(&state, "data")?.clone(),
                rig,
                telemetry: TelemetrySnapshot::from_value(&telemetry)?,
            })
        };
        decode().map_err(|e| e.to_string())
    }

    /// Writes the snapshot atomically: a sibling temp file is renamed
    /// over `path`, so a killed process mid-write never corrupts the
    /// previous good checkpoint.
    ///
    /// Deliberately no `fsync`: the rename is already atomic against
    /// process death (the kill-and-resume threat model), and a per-batch
    /// sync would tax every checkpointed campaign by milliseconds per
    /// batch — the overhead budget is 3% of the uncheckpointed run. The
    /// cost is that a power loss or kernel crash in the write-back
    /// window can lose the newest snapshot; the cadence means at most a
    /// few batches of work, and the previous renamed snapshot (if
    /// flushed) still resumes.
    ///
    /// # Errors
    ///
    /// A message naming the failing I/O step.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let mut file =
            fs::File::create(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
        file.write_all(self.to_lines().as_bytes())
            .map_err(|e| format!("write {}: {e}", tmp.display()))?;
        drop(file);
        fs::rename(&tmp, path)
            .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), path.display()))
    }

    /// Reads a snapshot written by [`Checkpoint::write`].
    ///
    /// # Errors
    ///
    /// A message naming the I/O or parse failure.
    pub fn read(path: &Path) -> Result<Self, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::from_lines(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            campaign: "virus".to_string(),
            fingerprint: 0xDEAD_BEEF_0BAD_CAFE,
            batches: 7,
            state: obj(vec![
                ("generation", Value::Num(3.0)),
                ("best", hex(-0.0)),
                ("rng", Value::Arr(vec![hex_u64(u64::MAX), hex_u64(1)])),
            ]),
            rig: vec![
                ("rig_rng".to_string(), "0:1:2:3".to_string()),
                ("elapsed".to_string(), "4045000000000000".to_string()),
            ],
            telemetry: TelemetrySnapshot {
                counters: vec![(CounterId::Measurements, 42), (CounterId::Generations, 3)],
                hists: vec![(HistId::FitnessBest, vec![-120.5, f64::NAN, 0.25])],
                sim_t: 1234.5,
            },
        }
    }

    #[test]
    fn lines_round_trip() {
        let cp = sample();
        let back = Checkpoint::from_lines(&cp.to_lines()).unwrap();
        assert_eq!(back.campaign, cp.campaign);
        assert_eq!(back.fingerprint, cp.fingerprint);
        assert_eq!(back.batches, cp.batches);
        assert_eq!(snap::to_line(&back.state), snap::to_line(&cp.state));
        assert_eq!(back.rig, cp.rig);
        assert_eq!(back.telemetry.counters, cp.telemetry.counters);
        assert_eq!(back.telemetry.sim_t.to_bits(), cp.telemetry.sim_t.to_bits());
        let (id, vs) = &back.telemetry.hists[0];
        assert_eq!(*id, HistId::FitnessBest);
        assert_eq!(vs[1].to_bits(), f64::NAN.to_bits());
    }

    #[test]
    fn version_mismatch_refused() {
        let cp = sample();
        let lines = cp.to_lines().replace("\"version\":1", "\"version\":999");
        let err = Checkpoint::from_lines(&lines).unwrap_err();
        assert!(err.contains("version"), "{err}");
    }

    #[test]
    fn truncated_file_refused() {
        let cp = sample();
        let full = cp.to_lines();
        let text = full.lines().take(3).collect::<Vec<_>>().join("\n");
        let err = Checkpoint::from_lines(&text).unwrap_err();
        assert!(err.contains("telemetry"), "{err}");
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;
        use rand::{Rng, SeedableRng};

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            // Any f64 bit pattern in the state tree or telemetry stream
            // — -0.0, NaN payloads, subnormals, integers past 2^53 —
            // and any u64 counter total survives the four-line cycle
            // exactly. NaN breaks value equality, so the invariant is
            // byte equality of the re-rendered lines.
            #[test]
            fn checkpoint_round_trips_any_bit_patterns(
                fingerprint in any::<u64>(),
                batches in any::<u64>(),
                state_bits in proptest::collection::vec(any::<u64>(), 1..6),
                counter_total in any::<u64>(),
                hist_bits in proptest::collection::vec(any::<u64>(), 0..5),
                sim_t_bits in any::<u64>(),
            ) {
                let cp = Checkpoint {
                    campaign: "virus".to_string(),
                    fingerprint,
                    batches,
                    state: obj(vec![(
                        "xs",
                        Value::Arr(
                            state_bits.iter().map(|&b| hex(f64::from_bits(b))).collect(),
                        ),
                    )]),
                    rig: vec![("rig_rng".to_string(), "a:b".to_string())],
                    telemetry: TelemetrySnapshot {
                        counters: vec![(CounterId::Measurements, counter_total)],
                        hists: vec![(
                            HistId::FitnessBest,
                            hist_bits.iter().map(|&b| f64::from_bits(b)).collect(),
                        )],
                        sim_t: f64::from_bits(sim_t_bits),
                    },
                };
                let lines = cp.to_lines();
                let back = Checkpoint::from_lines(&lines).unwrap();
                prop_assert_eq!(back.to_lines(), lines);
                prop_assert_eq!(back.fingerprint, fingerprint);
                prop_assert_eq!(back.batches, batches);
                prop_assert_eq!(
                    back.telemetry.sim_t.to_bits(),
                    cp.telemetry.sim_t.to_bits()
                );
            }

            // A mid-stream RNG serialized through the hex-u64 discipline
            // resumes the exact draw sequence: split one generator's
            // stream at an arbitrary point, round-trip its state words
            // through checkpoint lines, and the restored generator must
            // produce the continuation the original would have.
            #[test]
            fn mid_stream_rng_state_round_trips(
                seed in any::<u64>(),
                drawn in 0usize..200,
            ) {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                for _ in 0..drawn {
                    let _: u64 = rng.gen();
                }
                let words = rng.state();
                let cp = Checkpoint {
                    campaign: "vmin".to_string(),
                    fingerprint: 1,
                    batches: drawn as u64,
                    state: obj(vec![(
                        "rng",
                        Value::Arr(words.iter().map(|&w| hex_u64(w)).collect()),
                    )]),
                    rig: Vec::new(),
                    telemetry: TelemetrySnapshot::default(),
                };
                let back = Checkpoint::from_lines(&cp.to_lines()).unwrap();
                let restored_words: Vec<u64> = arr(field(&back.state, "rng").unwrap())
                    .unwrap()
                    .iter()
                    .map(|v| unhex_u64(v).unwrap())
                    .collect();
                prop_assert_eq!(restored_words.as_slice(), words.as_slice());
                let mut restored = rand::rngs::StdRng::from_state([
                    restored_words[0],
                    restored_words[1],
                    restored_words[2],
                    restored_words[3],
                ]);
                for _ in 0..16 {
                    let a: u64 = rng.gen();
                    let b: u64 = restored.gen();
                    prop_assert_eq!(a, b);
                }
            }
        }
    }
}
