//! The V_MIN ladder as a resumable step campaign.
//!
//! The ladder is compute-only — it never touches a measurement backend —
//! but porting it onto the [`Campaign`] state machine makes every rung a
//! checkpointable batch: the anchor run (droop + golden digest), the
//! mid-stream fault-injection RNG and the partial ladder all snapshot to
//! the same versioned JSONL format the measurement campaigns use, and a
//! resumed ladder continues bit-identically at the next untested voltage.
//!
//! Batch 0 is the anchor: the single physical domain run at the starting
//! voltage (charged to the campaign's telemetry handle, including wave
//! traces when a sink is attached) plus the golden reference execution.
//! Every later batch is one voltage rung of `config.trials` trials.

use crate::{gumbel, FailureModel, Outcome, VminConfig, VminResult};
use emvolt_cpu::{FaultModel, FaultPlan, Program};
use emvolt_engine::{
    drive, kernel_fingerprint, run_config_fingerprint, Campaign, DriveOptions, DriveOutcome,
    Fingerprint, NullBackend, StepBatch, StepOutcome,
};
use emvolt_isa::Kernel;
use emvolt_obs::{snap, Telemetry};
use emvolt_platform::{DomainError, DomainRunner, VoltageDomain};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{DeError, Deserialize, Value};

/// Everything the ladder derives from its single physical run.
#[derive(Debug, Clone, Copy)]
struct Anchor {
    droop: f64,
    peak_to_peak: f64,
    golden: u64,
    v_crit: f64,
}

/// One trial of a rung between its draws and its outcome.
enum Trial {
    /// Decided by the margin alone: a pass or a system crash.
    Settled(Outcome),
    /// Inside the SDC band, awaiting its faulted run.
    Faulted { severity: f64 },
}

/// The V_MIN test as a resumable step campaign (compute-only batches).
pub struct VminCampaign {
    domain: VoltageDomain,
    kernel: Kernel,
    program: Program,
    model: FailureModel,
    config: VminConfig,
    telemetry: Telemetry,
    rng: StdRng,
    anchor: Option<Anchor>,
    ladder: Vec<(f64, Vec<Outcome>)>,
    first_failure_v: f64,
    v: f64,
    crashed: bool,
    fingerprint: u64,
}

impl VminCampaign {
    /// Builds a fresh campaign (nothing executed yet).
    pub fn new(
        domain: &VoltageDomain,
        kernel: &Kernel,
        model: &FailureModel,
        config: &VminConfig,
        telemetry: Telemetry,
    ) -> Self {
        let fingerprint = Fingerprint::new()
            .str("vmin")
            .str(domain.name())
            .f64(domain.frequency())
            .f64(domain.voltage())
            .u64(kernel_fingerprint(kernel))
            .u64(run_config_fingerprint(&config.run))
            .f64(model.v_crit)
            .f64(model.f_ref)
            .f64(model.freq_sensitivity)
            .f64(model.sdc_band)
            .f64(model.trial_sigma)
            .f64(config.start_v)
            .f64(config.step_v)
            .f64(config.floor_v)
            .u64(config.trials as u64)
            .u64(config.loaded_cores as u64)
            .u64(config.golden_iterations as u64)
            .u64(config.seed)
            .finish();
        VminCampaign {
            domain: domain.clone(),
            kernel: kernel.clone(),
            program: Program::new(kernel),
            model: *model,
            config: config.clone(),
            telemetry,
            rng: StdRng::seed_from_u64(config.seed),
            anchor: None,
            ladder: Vec::new(),
            first_failure_v: f64::NAN,
            v: config.start_v,
            crashed: false,
            fingerprint,
        }
    }

    /// The anchor batch: one physical run at the starting voltage. The
    /// PDN is linear, so the droop waveform is supply-independent —
    /// simulate once and slide the DC level down the ladder.
    fn absorb_anchor(&mut self) -> Result<(), DomainError> {
        validate(&self.model, &self.config)?;
        let mut dom = self.domain.clone();
        dom.try_set_voltage(self.config.start_v)?;
        let run = DomainRunner::new_with(&dom, self.config.run.clone(), self.telemetry.clone())?
            .run(&self.kernel, self.config.loaded_cores)?;
        self.anchor = Some(Anchor {
            droop: run.max_droop(),
            peak_to_peak: run.peak_to_peak(),
            golden: self
                .program
                .run(self.config.golden_iterations, &[FaultPlan::default()])[0]
                .digest,
            v_crit: self.model.v_crit_at(dom.frequency()),
        });
        Ok(())
    }

    /// One voltage rung: `config.trials` trials at the current voltage.
    ///
    /// Pass 1 takes every trial's draws in trial order — its droop excess,
    /// then, inside the SDC band, its fault plan — consuming the trial RNG
    /// exactly as running the trials one by one would. Pass 2 executes
    /// the SDC-band trials as one lane group, and the outcomes settle in
    /// trial order.
    fn absorb_rung(&mut self) -> Result<(), DomainError> {
        let Some(anchor) = self.anchor else {
            return Err(DomainError::Checkpoint(
                "ladder rung absorbed before the anchor run".to_string(),
            ));
        };
        let v = self.v;
        let iterations = self.config.golden_iterations;
        let mut trials = Vec::with_capacity(self.config.trials);
        let mut plans = Vec::new();
        for _ in 0..self.config.trials {
            let extra = gumbel(&mut self.rng, self.model.trial_sigma);
            let min_die = v - anchor.droop - extra;
            let margin = min_die - anchor.v_crit;
            trials.push(if margin >= 0.0 {
                Trial::Settled(Outcome::Pass)
            } else if -margin > self.model.sdc_band {
                Trial::Settled(Outcome::SystemCrash)
            } else {
                // Inside the SDC band: inject faults whose rate grows as
                // the margin shrinks and compare against the golden run.
                let severity = (-margin / self.model.sdc_band).clamp(0.0, 1.0);
                let fault = FaultModel {
                    per_instr_probability: 1e-4 + severity * 2e-3,
                };
                plans.push(self.program.draw_faults(iterations, fault, &mut self.rng));
                Trial::Faulted { severity }
            });
        }
        let mut faulted = self.program.run(iterations, &plans).into_iter();
        let mut outcomes = Vec::with_capacity(trials.len());
        let mut saw_system_crash = false;
        for trial in trials {
            let outcome = match trial {
                Trial::Settled(outcome) => outcome,
                Trial::Faulted { severity } => {
                    let out = faulted.next().expect("one faulted run per SDC-band trial");
                    if out.digest == anchor.golden {
                        Outcome::Pass
                    } else if severity > 0.6 {
                        Outcome::AppCrash
                    } else {
                        Outcome::Sdc
                    }
                }
            };
            if outcome.is_failure() && self.first_failure_v.is_nan() {
                self.first_failure_v = v;
            }
            saw_system_crash |= outcome == Outcome::SystemCrash;
            outcomes.push(outcome);
        }
        self.ladder.push((v, outcomes));
        if saw_system_crash {
            self.crashed = true;
        } else {
            self.v -= self.config.step_v;
        }
        Ok(())
    }

    /// Finishes a complete campaign into the ladder result.
    ///
    /// # Errors
    ///
    /// [`DomainError::Checkpoint`] if the anchor batch never ran.
    pub fn into_result(self) -> Result<VminResult, DomainError> {
        let Some(anchor) = self.anchor else {
            return Err(DomainError::Checkpoint(
                "campaign finished without an anchor run".to_string(),
            ));
        };
        let vmin_v = if self.first_failure_v.is_nan() {
            self.config.floor_v
        } else {
            self.first_failure_v + self.config.step_v
        };
        Ok(VminResult {
            first_failure_v: self.first_failure_v,
            vmin_v,
            max_droop_v: anchor.droop,
            peak_to_peak_v: anchor.peak_to_peak,
            ladder: self.ladder,
        })
    }
}

/// Rejects a model or ladder that would panic or never end: a NaN field
/// turns the margin NaN and the fault probability with it, and a ladder
/// that does not step down never reaches its floor.
fn validate(model: &FailureModel, config: &VminConfig) -> Result<(), DomainError> {
    let bad = |msg: String| Err(DomainError::InvalidConfig(msg));
    let fields = [
        ("v_crit", model.v_crit),
        ("f_ref", model.f_ref),
        ("freq_sensitivity", model.freq_sensitivity),
        ("sdc_band", model.sdc_band),
        ("trial_sigma", model.trial_sigma),
    ];
    if let Some((name, x)) = fields.iter().find(|(_, x)| !x.is_finite()) {
        return bad(format!("failure model {name} {x} must be finite"));
    }
    if model.sdc_band <= 0.0 {
        return bad(format!("sdc_band {} must be positive", model.sdc_band));
    }
    if model.trial_sigma < 0.0 {
        return bad(format!(
            "trial_sigma {} must not be negative",
            model.trial_sigma
        ));
    }
    for (name, x) in [("step_v", config.step_v), ("floor_v", config.floor_v)] {
        if !(x.is_finite() && x > 0.0) {
            return bad(format!("{name} {x} must be finite and positive"));
        }
    }
    Ok(())
}

fn outcome_char(o: Outcome) -> char {
    match o {
        Outcome::Pass => 'P',
        Outcome::Sdc => 'S',
        Outcome::AppCrash => 'A',
        Outcome::SystemCrash => 'X',
    }
}

fn outcome_from_char(c: char) -> Result<Outcome, DeError> {
    match c {
        'P' => Ok(Outcome::Pass),
        'S' => Ok(Outcome::Sdc),
        'A' => Ok(Outcome::AppCrash),
        'X' => Ok(Outcome::SystemCrash),
        other => Err(DeError::new(format!("unknown outcome code `{other}`"))),
    }
}

impl Campaign for VminCampaign {
    fn kind(&self) -> &'static str {
        "vmin"
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn telemetry(&self) -> Telemetry {
        self.telemetry.clone()
    }

    fn next_batch(&mut self) -> Option<StepBatch> {
        if self.anchor.is_none() {
            return Some(StepBatch::compute());
        }
        if !self.crashed && self.v >= self.config.floor_v - 1e-12 {
            return Some(StepBatch::compute());
        }
        None
    }

    fn absorb(&mut self, _outcomes: &[StepOutcome]) -> Result<(), DomainError> {
        if self.anchor.is_none() {
            self.absorb_anchor()
        } else {
            self.absorb_rung()
        }
    }

    fn snapshot(&self) -> Value {
        snap::obj(vec![
            ("rng", snap::hex_words(self.rng.state())),
            (
                "anchor",
                match &self.anchor {
                    Some(a) => snap::obj(vec![
                        ("droop", snap::hex(a.droop)),
                        ("p2p", snap::hex(a.peak_to_peak)),
                        ("golden", snap::hex_u64(a.golden)),
                        ("v_crit", snap::hex(a.v_crit)),
                    ]),
                    None => Value::Null,
                },
            ),
            (
                "ladder",
                Value::Arr(
                    self.ladder
                        .iter()
                        .map(|(v, outcomes)| {
                            Value::Arr(vec![
                                snap::hex(*v),
                                Value::Str(outcomes.iter().copied().map(outcome_char).collect()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("first_failure_v", snap::hex(self.first_failure_v)),
            ("v", snap::hex(self.v)),
            ("crashed", Value::Bool(self.crashed)),
        ])
    }

    fn restore(&mut self, state: &Value) -> Result<(), DeError> {
        self.rng = StdRng::from_state(snap::unhex_words(snap::field(state, "rng")?)?);
        self.anchor = match snap::field(state, "anchor")? {
            Value::Null => None,
            v => Some(Anchor {
                droop: snap::unhex(snap::field(v, "droop")?)?,
                peak_to_peak: snap::unhex(snap::field(v, "p2p")?)?,
                golden: snap::unhex_u64(snap::field(v, "golden")?)?,
                v_crit: snap::unhex(snap::field(v, "v_crit")?)?,
            }),
        };
        self.ladder = snap::arr(snap::field(state, "ladder")?)?
            .iter()
            .map(|rung| {
                let [v, codes] = snap::tuple(rung)?;
                Ok((
                    snap::unhex(v)?,
                    String::from_value(codes)?
                        .chars()
                        .map(outcome_from_char)
                        .collect::<Result<Vec<_>, _>>()?,
                ))
            })
            .collect::<Result<_, DeError>>()?;
        self.first_failure_v = snap::unhex(snap::field(state, "first_failure_v")?)?;
        self.v = snap::unhex(snap::field(state, "v")?)?;
        self.crashed = bool::from_value(snap::field(state, "crashed")?)?;
        Ok(())
    }
}

/// [`vmin_test_with`](crate::vmin_test_with) with
/// checkpoint/resume/interrupt wiring: drives a [`VminCampaign`] against
/// the engine's [`NullBackend`] (the ladder is compute-only). Returns
/// `None` when the batch limit interrupted the campaign.
///
/// # Errors
///
/// As for [`vmin_test_with`](crate::vmin_test_with), plus
/// [`DomainError::Checkpoint`] from resume verification or a failed
/// checkpoint write.
pub fn vmin_test_resumable(
    domain: &VoltageDomain,
    kernel: &Kernel,
    model: &FailureModel,
    config: &VminConfig,
    telemetry: Telemetry,
    opts: &DriveOptions,
) -> Result<Option<VminResult>, DomainError> {
    let mut campaign = VminCampaign::new(domain, kernel, model, config, telemetry);
    let mut backend = NullBackend;
    match drive(&mut backend, &mut campaign, opts)? {
        DriveOutcome::Complete => campaign.into_result().map(Some),
        DriveOutcome::Interrupted => Ok(None),
    }
}
