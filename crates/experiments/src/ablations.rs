//! Ablation studies of the reproduction's design choices (DESIGN.md §6)
//! and demonstrations of the paper's §10 future-work extensions.

use crate::output::{mhz, section, table, write_csv};
use crate::viruses::{self, VirusTag};
use crate::Options;
use emvolt_backend::LiveBackend;
use emvolt_core::tamper::{compare, fingerprint, PdnFingerprint, TamperVerdict};
use emvolt_core::{
    fast_resonance_sweep_on, generate_em_virus_on, FastSweepConfig, MarginPredictor, VirusGenConfig,
};
use emvolt_cpu::CoreModel;
use emvolt_ga::GaConfig;
use emvolt_isa::kernels::{padded_sweep_kernel, resonant_stress_kernel};
use emvolt_isa::{Isa, Kernel};
use emvolt_platform::{
    a72_pdn, spec2006_suite, DomainError, EmBench, GpuCard, RunConfig, VoltageDomain,
};
use std::error::Error;

fn a72() -> VoltageDomain {
    VoltageDomain::new("A72", CoreModel::cortex_a72(), a72_pdn(), 1.2e9)
}

/// Ablation A — §5.3(b): narrowing the analyzer span around a previously
/// located resonance accelerates the GA (fewer samples needed per
/// individual for the same discrimination) without changing where it
/// converges.
pub fn ablation_band(opts: &Options) -> Result<String, Box<dyn Error>> {
    let domain = a72();
    let (pop, gens) = if opts.quick { (8, 5) } else { (16, 12) };
    let mut rows = Vec::new();
    for (label, band, samples) in [
        ("full 50-200 MHz, 30 samples", (50e6, 200e6), 30usize),
        ("full 50-200 MHz, 5 samples", (50e6, 200e6), 5),
        ("narrowed 59-79 MHz, 5 samples", (59e6, 79e6), 5),
    ] {
        let cfg = VirusGenConfig {
            ga: GaConfig {
                population: pop,
                generations: gens,
                seed: 0xAB1A,
                ..GaConfig::default()
            },
            loaded_cores: 2,
            samples_per_individual: samples,
            band,
            ..VirusGenConfig::default()
        };
        let mut live = LiveBackend::single(domain.clone(), EmBench::new(0xAB1), cfg.run.clone());
        let virus = generate_em_virus_on("ablation", &mut live, domain.name(), &cfg, |_| {})?;
        rows.push(vec![
            label.to_owned(),
            format!("{:.1}", virus.fitness),
            mhz(virus.dominant_hz),
            virus.campaign.display(),
        ]);
    }
    let headers = ["configuration", "final (dBm)", "dominant (MHz)", "campaign"];
    let mut out = section("Ablation A: analyzer-span narrowing (paper §5.3 motivation b)");
    out.push_str(&table(&headers, &rows));
    out.push_str(
        "\nnarrowing the span after a fast sweep keeps convergence on the resonance\n\
         while cutting per-individual measurement time.\n",
    );
    write_csv("ablation_band.csv", &headers, &rows)?;
    Ok(out)
}

/// Ablation B — the paper's 30-sample mean-root-square metric: fewer
/// samples per individual means a noisier fitness.
pub fn ablation_samples(_opts: &Options) -> Result<String, Box<dyn Error>> {
    let domain = a72();
    let run = domain.run(&padded_sweep_kernel(Isa::ArmV8, 17), 2, &RunConfig::fast())?;
    let mut rows = Vec::new();
    for n in [1usize, 5, 30] {
        let mut bench = EmBench::new(0xAB2);
        let readings: Vec<f64> = (0..12).map(|_| bench.measure(&run, n).metric_dbm).collect();
        let mean = readings.iter().sum::<f64>() / readings.len() as f64;
        let var = readings.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / readings.len() as f64;
        rows.push(vec![
            n.to_string(),
            format!("{mean:.2}"),
            format!("{:.3}", var.sqrt()),
        ]);
    }
    let headers = ["samples/individual", "mean metric (dBm)", "std (dB)"];
    let mut out = section("Ablation B: spectrum samples per individual (paper uses 30)");
    out.push_str(&table(&headers, &rows));
    out.push_str("\nmore samples tighten the fitness estimate at 0.6 s per sample.\n");
    write_csv("ablation_samples.csv", &headers, &rows)?;
    Ok(out)
}

/// Ablation C — first-order tank sharpness: a flatter tank makes the
/// resonance peak less prominent in the fast sweep (and, at the extreme,
/// lets off-resonance loop harmonics win the GA's metric).
pub fn ablation_q(opts: &Options) -> Result<String, Box<dyn Error>> {
    let mut rows = Vec::new();
    for (label, r_scale) in [
        ("Q/4", 4.0),
        ("Q/2", 2.0),
        ("baseline (Q~8)", 1.0),
        ("2Q", 0.5),
    ] {
        let mut params = a72_pdn();
        params.r_pkg *= r_scale;
        params.r_die *= r_scale;
        let domain = VoltageDomain::new("A72", CoreModel::cortex_a72(), params, 1.2e9);
        let mut cfg = FastSweepConfig::for_domain(&domain);
        if opts.quick {
            cfg.cpu_freqs_hz = cfg.cpu_freqs_hz.iter().step_by(2).copied().collect();
        }
        let mut live = LiveBackend::single(domain.clone(), EmBench::new(0xAB3), cfg.run.clone());
        let sweep = fast_resonance_sweep_on(&mut live, domain.name(), &cfg)?;
        let mut amps: Vec<f64> = sweep.points.iter().map(|p| p.amplitude_dbm).collect();
        amps.sort_by(f64::total_cmp);
        let peak = amps.last().copied().unwrap_or(f64::NAN);
        let median = amps[amps.len() / 2];
        rows.push(vec![
            label.to_owned(),
            mhz(sweep.resonance_hz),
            format!("{:.1}", peak - median),
        ]);
    }
    let headers = ["tank damping", "sweep peak (MHz)", "prominence (dB)"];
    let mut out = section("Ablation C: first-order tank sharpness");
    out.push_str(&table(&headers, &rows));
    out.push_str(
        "\nthe sharper the tank, the more prominent the resonance in every EM\n\
         measurement — the paper's platforms all show pronounced peaks.\n",
    );
    write_csv("ablation_q.csv", &headers, &rows)?;
    Ok(out)
}

/// Ablation D — interference jitter: without timing noise, perfectly
/// coherent loop harmonics keep full amplitude arbitrarily far from the
/// resonance; with it, coherence is bounded and the resonance dominates.
pub fn ablation_jitter(_opts: &Options) -> Result<String, Box<dyn Error>> {
    let domain = a72();
    // A coherent kernel whose 2nd harmonic sits ~9 MHz below resonance.
    let off_resonant = resonant_stress_kernel(Isa::ArmV8, 12, 20); // ~60 MHz h1
    let on_resonant = resonant_stress_kernel(Isa::ArmV8, 12, 17); // ~70 MHz h1
    let mut rows = Vec::new();
    for (label, interval) in [
        ("no interference", 0.0f64),
        ("1 event/us", 1e-6),
        ("baseline 1/250 ns", 250e-9),
        ("1 event/50 ns", 50e-9),
    ] {
        let mut cfg = RunConfig::fast();
        cfg.sim.interference_interval_s = interval;
        let mut bench = EmBench::new(0xAB4);
        let run_off = domain.run(&off_resonant, 2, &cfg)?;
        let run_on = domain.run(&on_resonant, 2, &cfg)?;
        let r_off = bench.measure(&run_off, 5);
        let r_on = bench.measure(&run_on, 5);
        rows.push(vec![
            label.to_owned(),
            format!("{:.1}", r_on.metric_dbm),
            format!("{:.1}", r_off.metric_dbm),
            format!("{:.1}", r_on.metric_dbm - r_off.metric_dbm),
        ]);
    }
    let headers = [
        "interference rate",
        "on-res kernel (dBm)",
        "off-res kernel (dBm)",
        "advantage (dB)",
    ];
    let mut out = section("Ablation D: interference jitter and harmonic coherence");
    out.push_str(&table(&headers, &rows));
    out.push_str(
        "\ninterference-limited coherence is what keeps the EM landscape peaked at\n\
         the resonance, as on real hardware.\n",
    );
    write_csv("ablation_jitter.csv", &headers, &rows)?;
    Ok(out)
}

/// Extension 1 — §10 (c): voltage-margin prediction from passive EM
/// readings of conventional workloads.
pub fn ext_margin_prediction(opts: &Options) -> Result<String, Box<dyn Error>> {
    let domain = a72();
    let mut bench = EmBench::new(0xE1);
    let suite = spec2006_suite(Isa::ArmV8);
    let stress = resonant_stress_kernel(Isa::ArmV8, 12, 17);
    let mut cal: Vec<(&str, &Kernel)> = suite
        .iter()
        .take(7)
        .map(|w| (w.name.as_str(), &w.kernel))
        .collect();
    cal.push(("stress", &stress));
    let cfg = RunConfig::fast();
    let predictor = MarginPredictor::calibrate(&domain, &mut bench, &cal, 2, 5, &cfg)?;

    // Held-out set: the rest of SPEC plus the cached GA virus.
    let mut rows = Vec::new();
    let virus = viruses::get_or_generate(VirusTag::A72Em, opts)?;
    let mut held: Vec<(String, Kernel)> = suite
        .iter()
        .skip(7)
        .map(|w| (w.name.clone(), w.kernel.clone()))
        .collect();
    held.push(("emVirus".into(), virus));
    for (name, kernel) in &held {
        let run = domain.run(kernel, 2, &cfg)?;
        let reading = bench.measure(&run, 5);
        let predicted = predictor.predict_droop(&reading);
        rows.push(vec![
            name.clone(),
            format!("{:.1}", predicted * 1e3),
            format!("{:.1}", run.max_droop() * 1e3),
            format!("{:.1}", (predicted - run.max_droop()).abs() * 1e3),
        ]);
    }
    let headers = [
        "workload",
        "predicted droop (mV)",
        "actual (mV)",
        "abs err (mV)",
    ];
    let mut out = section("Extension: EM-based voltage-margin prediction (paper §10 c)");
    out.push_str(&format!(
        "calibration fit R^2 = {:.3} over {} workloads\n\n",
        predictor.r_squared(),
        cal.len()
    ));
    out.push_str(&table(&headers, &rows));
    write_csv("ext_margin_prediction.csv", &headers, &rows)?;
    Ok(out)
}

/// Extension 2 — §10: tamper detection via the PDN's EM fingerprint.
pub fn ext_tamper(opts: &Options) -> Result<String, Box<dyn Error>> {
    let golden_domain = a72();
    let sparse = |d: &VoltageDomain| {
        let mut cfg = FastSweepConfig::for_domain(d);
        if opts.quick {
            cfg.cpu_freqs_hz = cfg.cpu_freqs_hz.iter().step_by(2).copied().collect();
        }
        cfg
    };
    let fingerprint_live = |d: &VoltageDomain| -> Result<PdnFingerprint, DomainError> {
        let cfg = sparse(d);
        let mut live = LiveBackend::single(d.clone(), EmBench::new(0xE2), cfg.run.clone());
        fingerprint(&mut live, d.name(), &cfg)
    };
    let golden = fingerprint_live(&golden_domain)?;

    let mut rows = Vec::new();
    let mut check = |label: &str, domain: &VoltageDomain| -> Result<(), Box<dyn Error>> {
        let fp = fingerprint_live(domain)?;
        let verdict = compare(&golden, &fp, 0.05);
        rows.push(vec![
            label.to_owned(),
            mhz(fp.resonance_hz),
            match verdict {
                TamperVerdict::Clean => "clean".to_owned(),
                TamperVerdict::ResonanceShift { shift, .. } => {
                    format!("TAMPERED ({:+.1}% shift)", shift * 100.0)
                }
            },
        ]);
        Ok(())
    };
    check("same board, re-measured", &a72())?;
    let mut less_decap = a72_pdn();
    less_decap.die_capacitance.cluster_farads *= 0.5;
    check(
        "50% shared decap removed",
        &VoltageDomain::new("A72*", CoreModel::cortex_a72(), less_decap, 1.2e9),
    )?;
    let mut implant = a72_pdn();
    implant.die_capacitance.cluster_farads *= 1.6;
    check(
        "parasitic capacitance added",
        &VoltageDomain::new("A72+", CoreModel::cortex_a72(), implant, 1.2e9),
    )?;

    let headers = ["device under test", "resonance (MHz)", "verdict"];
    let mut out = section("Extension: PDN tamper detection via EM fingerprint (paper §10)");
    out.push_str(&format!(
        "golden fingerprint: {} MHz at {:.1} dBm\n\n",
        mhz(golden.resonance_hz),
        golden.peak_dbm
    ));
    out.push_str(&table(&headers, &rows));
    write_csv("ext_tamper.csv", &headers, &rows)?;
    Ok(out)
}

/// Extension 3 — §10 (a): the EM methodology transfers to a GPU PDN.
pub fn ext_gpu(opts: &Options) -> Result<String, Box<dyn Error>> {
    let card = GpuCard::new();
    let mut out = section("Extension: EM methodology on a GPU PDN (paper §10 future work)");
    out.push_str(&format!(
        "GPU card: {} SMs at {:.2} GHz, analytic resonance {:.1} MHz (8 SMs) / {:.1} MHz (1 SM)\n\n",
        card.domain.core_count(),
        card.domain.max_frequency() / 1e9,
        card.domain.pdn_params().first_order_resonance_hz(8) / 1e6,
        card.domain.pdn_params().first_order_resonance_hz(1) / 1e6,
    ));

    // Fast sweep finds the GPU resonance.
    let mut cfg = FastSweepConfig::for_domain(&card.domain);
    if opts.quick {
        cfg.cpu_freqs_hz = cfg.cpu_freqs_hz.iter().step_by(2).copied().collect();
    }
    let name = card.domain.name();
    let mut live = LiveBackend::single(card.domain.clone(), EmBench::new(0xE3), cfg.run.clone());
    let sweep = fast_resonance_sweep_on(&mut live, name, &cfg)?;
    out.push_str(&format!(
        "fast sweep resonance: {} MHz\n",
        mhz(sweep.resonance_hz)
    ));

    // A reduced GA run converges into the same band.
    let (pop, gens) = if opts.quick { (8, 6) } else { (20, 16) };
    let ga_cfg = VirusGenConfig {
        ga: GaConfig {
            population: pop,
            generations: gens,
            seed: 0xE3A,
            ..GaConfig::default()
        },
        loaded_cores: 8,
        samples_per_individual: if opts.quick { 2 } else { 5 },
        ..VirusGenConfig::default()
    };
    let virus = generate_em_virus_on("gpuEm", &mut live, name, &ga_cfg, |_| {})?;
    out.push_str(&format!(
        "GA-evolved GPU virus: {:.1} dBm at {} MHz dominant\n",
        virus.fitness,
        mhz(virus.dominant_hz)
    ));
    let agree = (virus.dominant_hz - sweep.resonance_hz).abs() < 12e6;
    out.push_str(&format!(
        "sweep and GA agree on the GPU resonance band: {agree}\n"
    ));
    write_csv(
        "ext_gpu.csv",
        &["quantity", "mhz"],
        &[
            vec!["fast_sweep".into(), mhz(sweep.resonance_hz)],
            vec!["ga_dominant".into(), mhz(virus.dominant_hz)],
        ],
    )?;
    Ok(out)
}
