//! End-of-campaign aggregation: counter totals plus histogram
//! percentiles, serialized as one JSON object per campaign and appended
//! to a shared `results/campaign_summaries.jsonl`.

use std::fs::OpenOptions;
use std::io::{self, Write};
use std::path::Path;

use serde::{Serialize, Value};

use crate::metrics::{CounterId, HistId, HistSummary};

/// Final total of one counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterTotal {
    /// Which counter.
    pub id: CounterId,
    /// Its total at summary time.
    pub value: u64,
}

/// Final percentile summary of one histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistTotal {
    /// Which histogram.
    pub id: HistId,
    /// Its stats at summary time.
    pub stats: HistSummary,
}

/// Aggregated view of one campaign, produced by
/// [`crate::Telemetry::summary`].
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSummary {
    /// Campaign label (subcommand or experiment name).
    pub label: String,
    /// Simulated campaign duration, seconds.
    pub sim_seconds: f64,
    /// Non-zero counters, in registry order.
    pub counters: Vec<CounterTotal>,
    /// Non-empty histograms, in registry order.
    pub histograms: Vec<HistTotal>,
}

impl Serialize for CampaignSummary {
    fn to_value(&self) -> Value {
        let counters = self
            .counters
            .iter()
            .map(|c| (c.id.name().to_string(), Value::Num(c.value as f64)))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|h| {
                let stats = h
                    .stats
                    .fields()
                    .iter()
                    .map(|(k, v)| ((*k).to_string(), Value::Num(*v)))
                    .collect();
                (h.id.name().to_string(), Value::Obj(stats))
            })
            .collect();
        Value::Obj(vec![
            ("label".to_string(), Value::Str(self.label.clone())),
            ("sim_seconds".to_string(), Value::Num(self.sim_seconds)),
            ("counters".to_string(), Value::Obj(counters)),
            ("histograms".to_string(), Value::Obj(histograms)),
        ])
    }
}

impl CampaignSummary {
    /// Compact single-line JSON form.
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(self).expect("summary serialization is infallible")
    }

    /// Appends the JSON line to `path`, creating the file if needed.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn append_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        writeln!(file, "{}", self.to_json_line())
    }

    /// Multi-line human-readable rendering for CLI output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "campaign `{}`: {:.1} simulated seconds\n",
            self.label, self.sim_seconds
        ));
        for c in &self.counters {
            out.push_str(&format!(
                "  {:<22} {:>12}  [{}]\n",
                c.id.name(),
                c.value,
                c.id.layer()
            ));
        }
        for h in &self.histograms {
            out.push_str(&format!(
                "  {:<22} n={} min={:.3} p50={:.3} p90={:.3} p99={:.3} max={:.3}  [{}]\n",
                h.id.name(),
                h.stats.count,
                h.stats.min,
                h.stats.p50,
                h.stats.p90,
                h.stats.p99,
                h.stats.max,
                h.id.layer()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CampaignSummary {
        CampaignSummary {
            label: "virus".to_string(),
            sim_seconds: 360.0,
            counters: vec![CounterTotal {
                id: CounterId::SolverSteps,
                value: 12000,
            }],
            histograms: vec![HistTotal {
                id: HistId::EvalSeconds,
                stats: HistSummary::from_values(&[1.0, 2.0]).unwrap(),
            }],
        }
    }

    #[test]
    fn json_line_is_stable_and_parseable() {
        let line = sample().to_json_line();
        assert_eq!(line, sample().to_json_line());
        let value: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(
            value.field_value("label").unwrap(),
            &Value::Str("virus".to_string())
        );
        let counters = value.field_value("counters").unwrap();
        assert_eq!(
            counters.field_value("solver_steps").unwrap(),
            &Value::Num(12000.0)
        );
        let hist = value
            .field_value("histograms")
            .unwrap()
            .field_value("eval_seconds")
            .unwrap();
        assert_eq!(hist.field_value("count").unwrap(), &Value::Num(2.0));
    }

    #[test]
    fn append_accumulates_lines() {
        let dir = std::env::temp_dir().join("emvolt-obs-summary-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("s-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        sample().append_to(&path).unwrap();
        sample().append_to(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn render_mentions_every_metric() {
        let text = sample().render();
        assert!(text.contains("solver_steps"));
        assert!(text.contains("eval_seconds"));
        assert!(text.contains("360.0 simulated seconds"));
    }
}
