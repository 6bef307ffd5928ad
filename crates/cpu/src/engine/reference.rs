//! The window-scanning engine the ready-queue engine replaced, kept as
//! the exactness oracle for its tests.
//!
//! Every cycle it walks the whole window oldest-first, chases each
//! dependency through a completion table that grows by one entry per
//! fetched op, and looks each candidate's unit up in a `BTreeMap`.

use super::{reg_id, Cpu, SimConfig, SimError, SimOutput, NO_PRODUCER, REG_SPACE};
use emvolt_circuit::Trace;
use emvolt_isa::{FuKind, Kernel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

#[derive(Debug, Clone)]
struct DynOp {
    /// Index into the kernel body, or `usize::MAX` for the implicit
    /// back-branch.
    deps: [u64; 2],
    dep_count: u8,
    fu: FuKind,
    latency: u32,
    unpipelined: bool,
    issue_current: f64,
    active_current: f64,
    ends_iteration: bool,
}

/// Runs `kernel` on `cpu` the way the replaced engine did.
pub(super) fn simulate(
    cpu: &Cpu,
    kernel: &Kernel,
    config: &SimConfig,
    mut occupancy: Option<&mut Vec<u32>>,
) -> Result<SimOutput, SimError> {
    if let Some(occ) = occupancy.as_deref_mut() {
        occ.clear();
    }
    if kernel.is_empty() {
        return Err(SimError::EmptyKernel);
    }
    // Pre-flight: every op must have a unit.
    for i in kernel.body() {
        let op = kernel.arch().op(i.op);
        if cpu.model.fu_count(op.fu) == 0 {
            return Err(SimError::MissingFunctionalUnit {
                op: op.name,
                fu: op.fu,
            });
        }
    }
    let branch_op = kernel
        .arch()
        .ops()
        .iter()
        .position(|o| o.class == emvolt_isa::OpClass::Branch);

    // --- Static decode: per-body-slot metadata -----------------------
    struct StaticOp {
        srcs: [usize; 2],
        src_count: u8,
        dst: Option<usize>,
        fu: FuKind,
        latency: u32,
        unpipelined: bool,
        issue_current: f64,
        active_current: f64,
    }
    let scale = cpu.model.current_scale;
    let mut statics: Vec<StaticOp> = kernel
        .body()
        .iter()
        .map(|i| {
            let op = kernel.arch().op(i.op);
            StaticOp {
                srcs: [reg_id(i.srcs[0]), reg_id(i.srcs[1])],
                src_count: op.src_count,
                dst: op.has_dst.then(|| reg_id(i.dst)),
                fu: op.fu,
                latency: op.latency.max(1),
                unpipelined: op.unpipelined,
                issue_current: op.issue_current * scale,
                active_current: op.active_current * scale,
            }
        })
        .collect();
    // Implicit back-branch closing the loop.
    if let Some(bi) = branch_op {
        let op = &kernel.arch().ops()[bi];
        if cpu.model.fu_count(op.fu) > 0 {
            statics.push(StaticOp {
                srcs: [0, 0],
                src_count: 0,
                dst: None,
                fu: op.fu,
                latency: 1,
                unpipelined: false,
                issue_current: op.issue_current * scale,
                active_current: 0.0,
            });
        }
    }
    let slots = statics.len();

    // --- Engine state -------------------------------------------------
    let mut fu_free: std::collections::BTreeMap<FuKind, Vec<u64>> = cpu
        .model
        .fu_counts
        .iter()
        .map(|(&k, &n)| (k, vec![0u64; n as usize]))
        .collect();
    let mut last_writer = [NO_PRODUCER; REG_SPACE];
    let mut completion: Vec<u64> = Vec::new(); // dyn id -> completion cycle
    let mut dyn_current: Vec<f64> = Vec::new();
    let mut cycle: u64 = 0;
    let mut fetched: u64 = 0;
    let mut iterations_done: usize = 0;
    let mut record_start: Option<u64> = None;
    let mut issued_since_start: u64 = 0;
    let mut fu_issues: std::collections::BTreeMap<FuKind, u64> = std::collections::BTreeMap::new();
    let mut iter_start_cycle: Option<u64> = None;
    // With no warm-up the recording window is open from cycle 0.
    if config.warmup_iterations == 0 {
        record_start = Some(0);
        iter_start_cycle = Some(0);
    }
    let mut iters_in_window: usize = 0;

    let duration_cycles = (config.min_duration * cpu.freq_hz).ceil() as u64;
    let duration_cycles = duration_cycles.max(slots as u64 * 4).max(64);

    // On-die charge delivery spreads each event's current draw over a
    // few cycles (pipeline capacitance and grid RC); a short triangular
    // kernel keeps tens-of-MHz content while taming cycle-to-cycle
    // chatter.
    const SPREAD: [f64; 3] = [0.5, 0.3, 0.2];
    let add_current = |dyn_current: &mut Vec<f64>, at: u64, amps: f64| {
        let idx = at as usize;
        if dyn_current.len() <= idx + SPREAD.len() {
            dyn_current.resize(idx + SPREAD.len() + 1, 0.0);
        }
        for (k, w) in SPREAD.iter().enumerate() {
            dyn_current[idx + k] += amps * w;
        }
    };

    // Window of in-flight dynamic ops (size 1-slot lookahead for the
    // in-order engine).
    let window_cap = if cpu.model.out_of_order {
        cpu.model.window.max(cpu.model.issue_width as usize)
    } else {
        cpu.model.issue_width as usize
    };
    let mut window: VecDeque<(u64, DynOp, bool)> = VecDeque::new(); // (id, op, issued)
    let mut jitter_rng = StdRng::seed_from_u64(config.jitter_seed);
    let mut fetch_stall: u32 = 0;
    // Per-cycle probability of an interference event.
    let interference_p = if config.interference_interval_s > 0.0 {
        ((1.0 / cpu.freq_hz) / config.interference_interval_s).clamp(0.0, 1.0)
    } else {
        0.0
    };

    let fetch = |window: &mut VecDeque<(u64, DynOp, bool)>,
                 fetched: &mut u64,
                 last_writer: &mut [u64; REG_SPACE],
                 completion: &mut Vec<u64>| {
        let slot = (*fetched % slots as u64) as usize;
        let s = &statics[slot];
        let mut deps = [NO_PRODUCER; 2];
        let mut dep_count = 0u8;
        for k in 0..s.src_count as usize {
            let p = last_writer[s.srcs[k]];
            if p != NO_PRODUCER {
                deps[dep_count as usize] = p;
                dep_count += 1;
            }
        }
        // In-order scoreboard also interlocks on WAW through
        // last_writer tracking at issue; OoO renames (no WAW dep).
        let d = DynOp {
            deps,
            dep_count,
            fu: s.fu,
            latency: s.latency,
            unpipelined: s.unpipelined,
            issue_current: s.issue_current,
            active_current: s.active_current,
            ends_iteration: slot == slots - 1,
        };
        let id = *fetched;
        if let Some(dst) = s.dst {
            last_writer[dst] = id;
        }
        completion.push(u64::MAX);
        window.push_back((id, d, false));
        *fetched += 1;
    };

    loop {
        if cycle >= config.max_cycles {
            return Err(SimError::CycleLimitExceeded {
                limit: config.max_cycles,
            });
        }
        // Keep the window full (unless an interference stall holds
        // the front end).
        if fetch_stall > 0 {
            fetch_stall -= 1;
        } else {
            if interference_p > 0.0 && jitter_rng.gen_bool(interference_p) {
                let (lo, hi) = config.interference_stall;
                fetch_stall = jitter_rng.gen_range(lo.max(1)..=hi.max(lo.max(1)));
            } else {
                while window.len() < window_cap {
                    fetch(&mut window, &mut fetched, &mut last_writer, &mut completion);
                }
            }
        }

        // Issue.
        let mut issued = 0u32;
        let in_order = !cpu.model.out_of_order;
        for slot_ref in window.iter_mut() {
            if issued >= cpu.model.issue_width {
                break;
            }
            let (id, d, done) = (&slot_ref.0, &slot_ref.1, &mut slot_ref.2);
            if *done {
                continue;
            }
            // Dependency check: all producers completed by now.
            let mut ready = true;
            for k in 0..d.dep_count as usize {
                let c = completion[d.deps[k] as usize];
                if c == u64::MAX || c > cycle {
                    ready = false;
                    break;
                }
            }
            // FU availability.
            let mut fu_slot: Option<usize> = None;
            if ready {
                if let Some(units) = fu_free.get(&d.fu) {
                    fu_slot = units.iter().position(|&free| free <= cycle);
                }
                if fu_slot.is_none() {
                    ready = false;
                }
            }
            if ready {
                let unit = fu_slot.expect("checked above");
                let busy_until = if d.unpipelined {
                    cycle + d.latency as u64
                } else {
                    cycle + 1
                };
                fu_free.get_mut(&d.fu).expect("fu exists")[unit] = busy_until;
                completion[*id as usize] = cycle + d.latency as u64;
                add_current(&mut dyn_current, cycle, d.issue_current);
                for t in 1..d.latency as u64 {
                    add_current(&mut dyn_current, cycle + t, d.active_current);
                }
                *done = true;
                issued += 1;
                if record_start.is_some() {
                    issued_since_start += 1;
                    *fu_issues.entry(d.fu).or_insert(0) += 1;
                }
                if d.ends_iteration {
                    iterations_done += 1;
                    if iterations_done == config.warmup_iterations {
                        record_start = Some(cycle + 1);
                        iter_start_cycle = Some(cycle + 1);
                    } else if record_start.is_some() {
                        iters_in_window += 1;
                    }
                }
            } else if in_order {
                // Stall-on-first-hazard.
                break;
            }
        }

        // Retire front entries so the window admits new work. The
        // in-order engine uses the window purely as an issue buffer
        // (completion is tracked in the scoreboard), while the
        // out-of-order engine retires in order on completion, like a
        // reorder buffer.
        if in_order {
            while window.front().map(|(_, _, done)| *done).unwrap_or(false) {
                window.pop_front();
            }
        } else {
            while window
                .front()
                .map(|(id, _, done)| *done && completion[*id as usize] <= cycle + 1)
                .unwrap_or(false)
            {
                window.pop_front();
            }
        }

        // Absolute-cycle occupancy log; sliced to the recorded window
        // at assembly so entry `k` pairs with current sample `k`.
        if let Some(occ) = occupancy.as_deref_mut() {
            occ.push(issued);
        }

        cycle += 1;

        if let Some(start) = record_start {
            if cycle >= start + duration_cycles && iters_in_window >= 2 {
                // --- Assemble outputs ---------------------------------
                let end = start + duration_cycles;
                let mut samples = Vec::with_capacity(duration_cycles as usize);
                for c in start..end {
                    let dynamic = dyn_current.get(c as usize).copied().unwrap_or(0.0);
                    samples.push(cpu.model.idle_current + dynamic);
                }
                if let Some(occ) = occupancy.as_deref_mut() {
                    occ.drain(..start as usize);
                    occ.truncate(duration_cycles as usize);
                }
                let dt = 1.0 / cpu.freq_hz;
                let window_cycles = (cycle - start) as f64;
                let ipc = issued_since_start as f64 / window_cycles;
                let cycles_per_iteration = if iters_in_window > 0 {
                    (cycle - iter_start_cycle.unwrap_or(start)) as f64 / iters_in_window as f64
                } else {
                    window_cycles
                };
                return Ok(SimOutput {
                    current: Trace::from_samples(dt, samples),
                    ipc,
                    cycles_per_iteration,
                    clock_hz: cpu.freq_hz,
                    fu_issues,
                });
            }
        }
    }
}
