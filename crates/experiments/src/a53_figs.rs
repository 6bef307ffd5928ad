//! Cortex-A53 experiments: Figs. 12, 13, 14 and the multi-domain
//! monitoring demonstration of Fig. 15.

use crate::juno_figs::vmin_ladder;
use crate::output::{mhz, section, table, write_csv};
use crate::viruses::{self, VirusTag};
use crate::Options;
use emvolt_backend::{CombinedSource, LiveBackend, MeasurementBackend};
use emvolt_core::monitor::{detect_signatures, CAPTURE_SEED};
use emvolt_core::{fast_resonance_sweep_on, FastSweepConfig};
use emvolt_obs::Telemetry;
use emvolt_platform::{spec2006_suite, EmBench, JunoBoard, RunConfig, Suite};
use emvolt_vmin::FailureModel;
use std::error::Error;

/// Fig. 12: EM-amplitude-driven GA on the Cortex-A53.
pub fn fig12(opts: &Options) -> Result<String, Box<dyn Error>> {
    let virus = viruses::generate(VirusTag::A53Em, opts)?;
    let headers = ["gen", "best EM (dBm)", "dominant (MHz)"];
    let rows: Vec<Vec<String>> = virus
        .history
        .iter()
        .map(|r| {
            vec![
                r.index.to_string(),
                format!("{:.2}", r.best_fitness),
                mhz(r.dominant_hz),
            ]
        })
        .collect();
    let mut out = section("Fig. 12: EM-driven GA on the Cortex-A53 (quad-core)");
    out.push_str(&table(&headers, &rows));
    out.push_str(&format!(
        "\nconverged dominant frequency: {} MHz (paper: 75 MHz; sweep says 76.5 MHz)\n",
        mhz(virus.dominant_hz)
    ));
    write_csv("fig12_ga_a53.csv", &headers, &rows)?;
    Ok(out)
}

/// Fig. 13: resonance exploration on the A53 across the four power-gating
/// scenarios (C0 .. C0C1C2C3); gating off cores raises the resonance and
/// the EM amplitude.
pub fn fig13(opts: &Options) -> Result<String, Box<dyn Error>> {
    let mut out = section("Fig. 13: loop-frequency sweep on the Cortex-A53 per gating state");
    let mut summary = Vec::new();
    let mut all_rows: Vec<Vec<String>> = Vec::new();
    for active in (1..=4usize).rev() {
        let mut board = JunoBoard::new();
        board.a53.try_power_gate(active)?;
        let mut cfg = FastSweepConfig::for_domain(&board.a53);
        if opts.quick {
            cfg.cpu_freqs_hz
                .retain(|f| ((f / 15.8e6).round() as u64).is_multiple_of(2));
            cfg.samples_per_point = 3;
        }
        let bench = EmBench::new(0x1300 + active as u64);
        let mut live = LiveBackend::single(board.a53.clone(), bench, cfg.run.clone());
        let sweep = fast_resonance_sweep_on(&mut live, board.a53.name(), &cfg)?;
        let label = match active {
            4 => "C0C1C2C3",
            3 => "C0C1C2",
            2 => "C0C1",
            _ => "C0",
        };
        let peak_amp = sweep
            .points
            .iter()
            .map(|p| p.amplitude_dbm)
            .fold(f64::NEG_INFINITY, f64::max);
        summary.push(vec![
            label.to_owned(),
            mhz(sweep.resonance_hz),
            format!("{peak_amp:.1}"),
        ]);
        for p in &sweep.points {
            all_rows.push(vec![
                label.to_owned(),
                mhz(p.loop_freq_hz),
                format!("{:.1}", p.amplitude_dbm),
            ]);
        }
    }
    out.push_str(&table(
        &["scenario", "resonance (MHz)", "peak EM (dBm)"],
        &summary,
    ));
    out.push_str(
        "\npaper: 76.5 MHz with four cores powered rising to 97 MHz with one;\n\
         EM amplitude maximized with the least capacitance (C0).\n",
    );
    write_csv(
        "fig13_sweep_a53.csv",
        &["scenario", "loop_mhz", "em_dbm"],
        &all_rows,
    )?;
    Ok(out)
}

/// Fig. 14: V_MIN on the Cortex-A53 — the EM virus stands ~50 mV above
/// the benchmarks.
pub fn fig14(opts: &Options) -> Result<String, Box<dyn Error>> {
    let board = JunoBoard::new();
    let model = FailureModel::juno_a53();
    let mut workloads: Vec<(String, emvolt_isa::Kernel, Suite)> =
        spec2006_suite(emvolt_isa::Isa::ArmV8)
            .into_iter()
            .map(|w| (w.name, w.kernel, w.suite))
            .collect();
    workloads.push((
        "emVirus".into(),
        viruses::get_or_generate(VirusTag::A53Em, opts)?,
        Suite::Virus,
    ));
    let (txt, rows) = vmin_ladder(&board.a53, &workloads, &model, 4, opts)?;
    let mut out = section("Fig. 14: V_MIN on the Cortex-A53 (quad-core, 950 MHz)");
    out.push_str(&txt);
    let virus_vmin: f64 = rows
        .iter()
        .find(|r| r[0] == "emVirus")
        .and_then(|r| r[2].parse().ok())
        .unwrap_or(0.0);
    let best_bench = rows
        .iter()
        .filter(|r| r[0] != "emVirus")
        .filter_map(|r| r[2].parse::<f64>().ok())
        .fold(f64::NEG_INFINITY, f64::max);
    out.push_str(&format!(
        "\nemVirus Vmin - highest benchmark Vmin: {:.1} mV (paper: ~50 mV)\n",
        (virus_vmin - best_bench) * 1e3
    ));
    write_csv(
        "fig14_vmin_a53.csv",
        &["workload", "first_fail_v", "vmin_v", "droop_mv", "p2p_mv"],
        &rows,
    )?;
    Ok(out)
}

/// Fig. 15: simultaneous monitoring of both Juno voltage domains through
/// one antenna.
pub fn fig15(opts: &Options) -> Result<String, Box<dyn Error>> {
    let board = JunoBoard::new();
    let cfg = RunConfig::fast();
    let v72 = viruses::get_or_generate(VirusTag::A72Em, opts)?;
    let v53 = viruses::get_or_generate(VirusTag::A53Em, opts)?;
    let run72 = board.a72.run(&v72, 2, &cfg)?;
    let run53 = board.a53.run(&v53, 4, &cfg)?;

    let sources = [
        CombinedSource {
            domain: board.a72.name(),
            kernel: Some(&v72),
            loaded_cores: 2,
        },
        CombinedSource {
            domain: board.a53.name(),
            kernel: Some(&v53),
            loaded_cores: 4,
        },
    ];
    let mut backend = LiveBackend::new(
        vec![board.a72.clone(), board.a53.clone()],
        EmBench::new(0x1515),
        cfg,
    );
    let reading = backend.capture_combined(&sources, CAPTURE_SEED, &Telemetry::noop())?;
    let sigs = detect_signatures(&reading, -95.0, 4, 5e6, 15.0);

    let mut out = section("Fig. 15: simultaneous multi-domain monitoring (A72 + A53 viruses)");
    let rows: Vec<Vec<String>> = sigs
        .iter()
        .map(|s| vec![mhz(s.freq_hz), format!("{:.1}", s.level_dbm)])
        .collect();
    out.push_str(&table(&["signature (MHz)", "level (dBm)"], &rows));
    let f72 = emvolt_core::dominant_from_run(&run72);
    let f53 = emvolt_core::dominant_from_run(&run53);
    let sees = |f: f64| sigs.iter().any(|s| (s.freq_hz - f).abs() < 5e6);
    out.push_str(&format!(
        "\nA72 virus signature ({} MHz) visible: {}\n",
        mhz(f72),
        sees(f72)
    ));
    out.push_str(&format!(
        "A53 virus signature ({} MHz) visible: {}\n",
        mhz(f53),
        sees(f53)
    ));
    write_csv("fig15_multidomain.csv", &["freq_mhz", "level_dbm"], &rows)?;
    Ok(out)
}
