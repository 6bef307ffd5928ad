//! Text/CSV output helpers shared by all experiments.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Renders a section header.
pub fn section(title: &str) -> String {
    let bar = "=".repeat(title.len().max(8));
    format!("\n{title}\n{bar}\n")
}

/// Renders an aligned text table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for (i, h) in headers.iter().enumerate() {
        let _ = write!(out, "{:>w$}  ", h, w = widths[i]);
    }
    out.push('\n');
    for (i, _) in headers.iter().enumerate() {
        let _ = write!(out, "{}  ", "-".repeat(widths[i]));
    }
    out.push('\n');
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            let _ = write!(out, "{:>w$}  ", cell, w = widths[i]);
        }
        out.push('\n');
    }
    out
}

/// The output directory for experiment artifacts (`results/`).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("EMVOLT_RESULTS").unwrap_or_else(|_| "results".to_owned());
    PathBuf::from(dir)
}

/// Writes a CSV file under the results directory.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    let mut body = headers.join(",");
    body.push('\n');
    for row in rows {
        body.push_str(&row.join(","));
        body.push('\n');
    }
    fs::write(&path, body)?;
    Ok(path)
}

/// Writes a text report under the results directory.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_report(name: &str, text: &str) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    fs::write(&path, text)?;
    Ok(path)
}

/// Reads a cached artifact if it exists.
pub fn read_cache(rel: &Path) -> Option<String> {
    fs::read_to_string(results_dir().join(rel)).ok()
}

/// Writes a cache artifact.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_cache(rel: &Path, contents: &str) -> std::io::Result<()> {
    let path = results_dir().join(rel);
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, contents)
}

/// Formats hertz as megahertz with two decimals.
pub fn mhz(hz: f64) -> String {
    format!("{:.2}", hz / 1e6)
}

/// Formats volts as millivolts with one decimal.
pub fn mv(v: f64) -> String {
    format!("{:.1}", v * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].contains("longer"));
    }

    #[test]
    fn unit_formatting() {
        assert_eq!(mhz(69e6), "69.00");
        assert_eq!(mv(0.1505), "150.5");
    }

    #[test]
    fn section_has_underline() {
        let s = section("Fig. 7");
        assert!(s.contains("Fig. 7\n======"));
    }
}
