//! Cycle-level timing simulation producing per-cycle current traces.
//!
//! The model is deliberately at the abstraction level the paper's physics
//! needs: what shapes voltage noise is the *cycle-by-cycle current
//! waveform* of the loop — which instructions issue together, where the
//! pipeline stalls on long-latency or unpipelined operations, and how much
//! switching activity each instruction contributes. Caches are always warm
//! (the paper deliberately avoids misses for determinism, §3.3).
//!
//! Simplifications relative to real pipelines, none of which affect the
//! current waveform's spectral content at the fidelity this work needs:
//! only true (RAW) register dependences stall issue (no WAW/WAR
//! interlocks — most cores of this era rename or forward around them),
//! and scratch-memory accesses are treated as independent (distinct
//! 8-byte slots, no store-to-load aliasing stalls).
//!
//! What a cycle costs. Each window entry learns its ready cycle once,
//! when its last producer issues, and waits in a wheel bucket until that
//! cycle, then in its unit kind's ready set: a bitmask over window
//! positions, so set order is age order. Issue takes the oldest op from
//! the union of the ready sets of the kinds that still have a free unit,
//! so a ready op whose kind is busy is never looked at. A cycle therefore
//! costs a pass over the unit kinds plus, per op it issues, its wake-ups
//! and its current spread (during warm-up, one log entry: only the spreads
//! that can reach the recording window are ever added). The window size
//! does not enter. Completions live in a ring of `slots + window`
//! entries, so the engine's state is O(window + kernel) whatever the run
//! length (DESIGN.md §15).

use crate::model::CoreModel;
use emvolt_circuit::Trace;
use emvolt_isa::{FuKind, Kernel, Reg, RegClass};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Configuration of one timing-simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Loop iterations executed before recording starts (pipeline and
    /// current-history settling).
    pub warmup_iterations: usize,
    /// Minimum recorded duration in seconds (determines spectral
    /// resolution downstream).
    pub min_duration: f64,
    /// Hard cap on simulated cycles to guard against pathological
    /// configurations.
    pub max_cycles: u64,
    /// Mean wall-clock interval between front-end interference stalls
    /// (uncore arbitration, DRAM refresh, snoops); `0.0` disables them.
    /// Real loops are never perfectly periodic: these events limit the
    /// coherence time of loop-harmonic spectral lines exactly as on
    /// hardware, so narrowband spikes cannot sit arbitrarily far from the
    /// PDN resonance without losing coherent amplitude.
    pub interference_interval_s: f64,
    /// Stall duration range in cycles when interference strikes.
    pub interference_stall: (u32, u32),
    /// Seed for the (deterministic) interference sequence.
    pub jitter_seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            warmup_iterations: 10,
            min_duration: 4e-6,
            max_cycles: 50_000_000,
            interference_interval_s: 0.0,
            interference_stall: (2, 10),
            jitter_seed: 0x1177,
        }
    }
}

/// Errors from the timing simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The kernel has no instructions.
    EmptyKernel,
    /// An instruction requires a functional unit the core does not have.
    MissingFunctionalUnit {
        /// The mnemonic of the offending instruction.
        op: &'static str,
        /// The unit kind it needs.
        fu: FuKind,
    },
    /// The cycle cap was reached before the requested duration completed.
    CycleLimitExceeded {
        /// The configured cap.
        limit: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::EmptyKernel => write!(f, "kernel has no instructions"),
            SimError::MissingFunctionalUnit { op, fu } => {
                write!(f, "no {fu:?} unit available for `{op}`")
            }
            SimError::CycleLimitExceeded { limit } => {
                write!(f, "cycle limit {limit} exceeded")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Result of a timing simulation.
#[derive(Debug, Clone)]
pub struct SimOutput {
    /// Per-cycle core current in amps; `dt = 1 / f_clk`.
    pub current: Trace,
    /// Average instructions per cycle over the recorded window.
    pub ipc: f64,
    /// Average cycles per loop iteration in steady state.
    pub cycles_per_iteration: f64,
    /// Clock frequency the run used, in Hz.
    pub clock_hz: f64,
    /// Issue counts per functional-unit kind over the recorded window —
    /// where the pipeline's activity (and current) comes from.
    pub fu_issues: std::collections::BTreeMap<FuKind, u64>,
}

impl SimOutput {
    /// Loop period in seconds (`cycles_per_iteration / f_clk`).
    pub fn loop_period(&self) -> f64 {
        self.cycles_per_iteration / self.clock_hz
    }

    /// Fraction of recorded issues that went to `kind`.
    pub fn fu_share(&self, kind: FuKind) -> f64 {
        let total: u64 = self.fu_issues.values().sum();
        if total == 0 {
            return 0.0;
        }
        self.fu_issues.get(&kind).copied().unwrap_or(0) as f64 / total as f64
    }

    /// Loop frequency in Hz (`1 / loop_period`), the quantity swept in
    /// §5.3 of the paper.
    pub fn loop_frequency(&self) -> f64 {
        1.0 / self.loop_period()
    }
}

/// A CPU core clocked at a specific frequency, ready to simulate kernels.
#[derive(Debug, Clone)]
pub struct Cpu {
    model: CoreModel,
    freq_hz: f64,
}

/// Flat register id: GPRs then FPRs.
fn reg_id(r: Reg) -> usize {
    match r.class {
        RegClass::Gpr => r.index as usize,
        RegClass::Fpr => 64 + r.index as usize,
    }
}

const REG_SPACE: usize = 128;
const NO_PRODUCER: u64 = u64::MAX;
/// Completion cycle of an op that has not issued yet.
const NO_COMPLETION: u64 = u64::MAX;
/// End of an intrusive list (waiters of a producer, a wake-wheel bucket).
const NIL: u32 = u32::MAX;

/// On-die charge delivery spreads each event's current draw over a few
/// cycles (pipeline capacitance and grid RC); a short triangular kernel
/// keeps tens-of-MHz content while taming cycle-to-cycle chatter.
const SPREAD: [f64; 3] = [0.5, 0.3, 0.2];

/// Per-body-slot metadata, decoded once per run.
struct StaticOp {
    srcs: [usize; 2],
    src_count: u8,
    dst: Option<usize>,
    /// Index into the dense FU table.
    fu: usize,
    latency: u32,
    unpipelined: bool,
    /// The issue current spread over three cycles.
    issue_spread: [f64; 3],
    /// The active current spread over three cycles.
    active_spread: [f64; 3],
}

/// One in-flight op, stored at window position `id & win_mask`.
#[derive(Debug, Clone, Copy)]
struct Entry {
    id: u64,
    /// Body slot (index into the static decode).
    slot: u32,
    fu: u32,
    /// Producers that have not issued yet.
    pending: u8,
    issued: bool,
    /// Latest completion cycle among the issued producers.
    ready_at: u64,
    /// First waiter edge (`consumer position * 2 + source`) on this op.
    waiters: u32,
    /// Next entry in the same wake-wheel bucket.
    next_wake: u32,
}

const VACANT: Entry = Entry {
    id: 0,
    slot: 0,
    fu: 0,
    pending: 0,
    issued: false,
    ready_at: 0,
    waiters: NIL,
    next_wake: NIL,
};

/// Issue-side state of one run: the window, who waits on whom, which
/// ops are ready, the units and the completion ring.
struct Engine<'a> {
    statics: &'a [StaticOp],
    out_of_order: bool,
    issue_width: usize,
    /// Ops the window holds at most.
    window_cap: u64,
    /// Units of FU kind `k` are `busy_until[fu_first[k]..fu_first[k + 1]]`.
    fu_first: Vec<usize>,
    busy_until: Vec<u64>,
    /// The earliest cycle a unit of each kind is free.
    fu_free_at: Vec<u64>,
    /// Completion cycle of op `id` at `id & ring_mask`. A producer is at
    /// most one body (`slots` ops) older than its consumer, and every op
    /// that reads the ring is at most `window_cap` ops behind the fetch
    /// pointer, so `slots + window_cap` entries never alias a live one.
    completion: Vec<u64>,
    ring_mask: u64,
    entries: Vec<Entry>,
    win_mask: u64,
    /// Oldest op still in the window.
    head: u64,
    /// Next op to fetch, and its body slot.
    fetched: u64,
    next_slot: usize,
    /// Next waiter edge in a producer's list, by edge index.
    edge_next: Vec<u32>,
    /// Age-ordered ready sets: one bitmask over window positions per FU
    /// kind, `words` u64s each.
    ready: Vec<u64>,
    words: usize,
    /// Bit `k` is set while kind `k`'s ready set is not empty.
    ready_kinds: u64,
    /// Ops whose ready cycle is known but not reached, bucketed by that
    /// cycle. An op's ready cycle is at most the longest latency ahead.
    wheel: Vec<u32>,
    wheel_mask: u64,
    /// Scratch: the union of the ready sets of kinds with a free unit.
    candidates: Vec<u64>,
    last_writer: [u64; REG_SPACE],
    current: Current,
}

/// The dynamic current, one cell per cycle from `base` on.
///
/// Until the recording window opens, issued ops are only logged, in a
/// ring that keeps the last `reach + 1` cycles' worth; when it opens, the
/// logged ops whose spread can still reach it are added in issue order.
/// Every recorded cell so sums the same terms in the same order as adding
/// each op at issue would, and the warm-up's cells cost nothing.
struct Current {
    cells: Vec<f64>,
    base: u64,
    recording: bool,
    /// The latest ops issued while closed, as (cycle, body slot) at
    /// `index & (len - 1)`; `logged` counts them.
    log: Vec<(u64, u32)>,
    logged: usize,
    /// The longest latency: an op issued at `c` adds to cells up to
    /// `c + reach + 1`.
    reach: u64,
}

impl Current {
    /// Room for every op of `reach + 1` cycles at `issue_width` a cycle.
    fn new(cycles: usize, issue_width: usize, reach: u64) -> Self {
        Current {
            cells: Vec::with_capacity(cycles + 2 * reach as usize + SPREAD.len()),
            base: 0,
            recording: false,
            log: vec![(0, 0); (issue_width * (reach as usize + 1)).next_power_of_two()],
            logged: 0,
            reach,
        }
    }

    fn issue(&mut self, cycle: u64, s: &StaticOp, slot: u32) {
        if self.recording {
            self.spread(cycle, s);
        } else {
            let mask = self.log.len() - 1;
            self.log[self.logged & mask] = (cycle, slot);
            self.logged += 1;
        }
    }

    /// Opens the window at the end of `cycle`: no cell before `cycle + 1`
    /// is read, so only ops issued from `cycle - reach` on still count,
    /// and the log holds all of them.
    fn open(&mut self, cycle: u64, statics: &[StaticOp]) {
        self.base = cycle.saturating_sub(self.reach);
        self.recording = true;
        let mask = self.log.len() - 1;
        for i in self.logged.saturating_sub(self.log.len())..self.logged {
            let (c, slot) = self.log[i & mask];
            if c >= self.base {
                self.spread(c, &statics[slot as usize]);
            }
        }
    }

    /// Adds the current of `s` issued at `cycle`. Each cell sums its terms
    /// in the order one spread per cycle of activity would add them: the
    /// issue term, then the active terms by ascending cycle. Summing cell
    /// by cell keeps that order without chaining every add through memory.
    fn spread(&mut self, cycle: u64, s: &StaticOp) {
        let latency = s.latency as usize;
        let at = (cycle - self.base) as usize;
        let end = at + latency + SPREAD.len() - 1;
        if self.cells.len() < end {
            self.cells.resize(end, 0.0);
        }
        let cells = &mut self.cells[at..end];
        for (cell, w) in cells.iter_mut().zip(s.issue_spread) {
            *cell += w;
        }
        if latency > 1 {
            // Cell `j` takes `active[j - t]` from every active cycle
            // `t` in `1..latency` with `j - t` in `0..3`.
            let last = latency - 1;
            let active = s.active_spread;
            let edge = |j: usize, cell: &mut f64| {
                for t in j.saturating_sub(2).max(1)..=j.min(last) {
                    *cell += active[j - t];
                }
            };
            let (head, rest) = cells.split_at_mut(3);
            edge(1, &mut head[1]);
            edge(2, &mut head[2]);
            let (middle, tail) = rest.split_at_mut(last.saturating_sub(2));
            for cell in middle {
                *cell = *cell + active[2] + active[1] + active[0];
            }
            for (j, cell) in tail.iter_mut().enumerate() {
                edge(3 + last.saturating_sub(2) + j, cell);
            }
        }
    }

    /// The dynamic current of `cycle` (0 where nothing was added).
    fn at(&self, cycle: u64) -> f64 {
        let index = (cycle - self.base) as usize;
        self.cells.get(index).copied().unwrap_or(0.0)
    }
}

/// The oldest set position of `mask` in ring order from `from`.
fn oldest(mask: &[u64], from: usize) -> Option<usize> {
    let (w0, b0) = (from / 64, from % 64);
    let upper = mask[w0] & (u64::MAX << b0);
    if upper != 0 {
        return Some(w0 * 64 + upper.trailing_zeros() as usize);
    }
    for i in 1..mask.len() {
        let w = (w0 + i) % mask.len();
        if mask[w] != 0 {
            return Some(w * 64 + mask[w].trailing_zeros() as usize);
        }
    }
    let lower = mask[w0] & !(u64::MAX << b0);
    (lower != 0).then(|| w0 * 64 + lower.trailing_zeros() as usize)
}

impl<'a> Engine<'a> {
    /// An empty pipeline for `model` running the body `statics`, sized
    /// to record `cycles` cycles.
    fn new(model: &CoreModel, statics: &'a [StaticOp], cycles: usize) -> Self {
        let window_cap = if model.out_of_order {
            model.window.max(model.issue_width as usize)
        } else {
            model.issue_width as usize
        };
        let window_slots = window_cap.next_power_of_two();
        let words = window_slots.div_ceil(64);
        let ring = (statics.len() + window_cap + 2).next_power_of_two();
        let max_latency = statics.iter().map(|s| s.latency).max().unwrap_or(1) as usize;
        let wheel = (max_latency + 1).next_power_of_two();
        let mut fu_first = vec![0];
        for &n in model.fu_counts.values() {
            fu_first.push(fu_first[fu_first.len() - 1] + n as usize);
        }
        let kinds = model.fu_counts.len();
        Engine {
            statics,
            out_of_order: model.out_of_order,
            issue_width: model.issue_width as usize,
            window_cap: window_cap as u64,
            busy_until: vec![0; fu_first[kinds]],
            fu_free_at: fu_first
                .windows(2)
                .map(|units| if units[0] == units[1] { u64::MAX } else { 0 })
                .collect(),
            fu_first,
            completion: vec![NO_COMPLETION; ring],
            ring_mask: ring as u64 - 1,
            entries: vec![VACANT; window_slots],
            win_mask: window_slots as u64 - 1,
            head: 0,
            fetched: 0,
            next_slot: 0,
            edge_next: vec![NIL; window_slots * 2],
            ready: vec![0; kinds * words],
            words,
            ready_kinds: 0,
            wheel: vec![NIL; wheel],
            wheel_mask: wheel as u64 - 1,
            candidates: vec![0; words],
            last_writer: [NO_PRODUCER; REG_SPACE],
            current: Current::new(cycles, model.issue_width as usize, max_latency as u64),
        }
    }

    /// Fills the window at the start of `cycle`.
    fn fill(&mut self, cycle: u64) {
        while self.fetched - self.head < self.window_cap {
            self.fetch(cycle);
        }
    }

    /// Issues at `cycle`, filling `picked` with the issued ops' body
    /// slots in issue order, then retires.
    fn step(&mut self, cycle: u64, picked: &mut Vec<usize>) {
        picked.clear();
        self.wake(cycle);
        if self.out_of_order {
            self.issue_out_of_order(cycle, picked);
        } else {
            self.issue_in_order(cycle, picked);
        }
        self.retire(cycle);
    }

    fn ready_words(&self, fu: usize) -> &[u64] {
        &self.ready[fu * self.words..(fu + 1) * self.words]
    }

    fn is_ready(&self, pos: usize, fu: usize) -> bool {
        self.ready[fu * self.words + pos / 64] & (1 << (pos % 64)) != 0
    }

    fn set_ready(&mut self, pos: usize, fu: usize) {
        self.ready[fu * self.words + pos / 64] |= 1 << (pos % 64);
        self.ready_kinds |= 1 << fu;
    }

    /// The lowest-index unit of kind `fu` free at `cycle`.
    fn free_unit(&self, fu: usize, cycle: u64) -> Option<usize> {
        let (lo, hi) = (self.fu_first[fu], self.fu_first[fu + 1]);
        self.busy_until[lo..hi]
            .iter()
            .position(|&busy| busy <= cycle)
            .map(|i| lo + i)
    }

    /// Puts the op at `pos`, whose producers have all issued, in its
    /// kind's ready set now or in the wheel at its ready cycle.
    fn schedule(&mut self, pos: usize, cycle: u64) {
        let e = &mut self.entries[pos];
        if e.ready_at <= cycle {
            let fu = e.fu as usize;
            self.set_ready(pos, fu);
        } else {
            let bucket = (e.ready_at & self.wheel_mask) as usize;
            e.next_wake = self.wheel[bucket];
            self.wheel[bucket] = pos as u32;
        }
    }

    /// Moves the ops that become ready at `cycle` into their ready sets.
    fn wake(&mut self, cycle: u64) {
        let bucket = (cycle & self.wheel_mask) as usize;
        let mut pos = std::mem::replace(&mut self.wheel[bucket], NIL) as usize;
        while pos != NIL as usize {
            let e = &self.entries[pos];
            let (fu, next) = (e.fu as usize, e.next_wake as usize);
            self.set_ready(pos, fu);
            pos = next;
        }
    }

    /// Fetches the next op into the window at the start of `cycle`.
    fn fetch(&mut self, cycle: u64) {
        let id = self.fetched;
        let statics = self.statics;
        let slot = self.next_slot;
        self.next_slot = if slot + 1 == statics.len() {
            0
        } else {
            slot + 1
        };
        let s = &statics[slot];
        let pos = (id & self.win_mask) as usize;
        let mut e = Entry {
            id,
            slot: slot as u32,
            fu: s.fu as u32,
            ..VACANT
        };
        for (k, &src) in s.srcs[..s.src_count as usize].iter().enumerate() {
            let p = self.last_writer[src];
            if p == NO_PRODUCER {
                continue;
            }
            match self.completion[(p & self.ring_mask) as usize] {
                NO_COMPLETION => {
                    // An unissued producer is still in the window.
                    let producer = &mut self.entries[(p & self.win_mask) as usize];
                    let edge = pos * 2 + k;
                    self.edge_next[edge] = producer.waiters;
                    producer.waiters = edge as u32;
                    e.pending += 1;
                }
                done => e.ready_at = e.ready_at.max(done),
            }
        }
        if let Some(dst) = s.dst {
            self.last_writer[dst] = id;
        }
        self.completion[(id & self.ring_mask) as usize] = NO_COMPLETION;
        self.entries[pos] = e;
        self.fetched += 1;
        if e.pending == 0 {
            self.schedule(pos, cycle);
        }
    }

    /// Issues the op at `pos` on `unit` at `cycle`: books the unit, adds
    /// its current and wakes its consumers. Returns the op's body slot.
    fn issue(&mut self, pos: usize, unit: usize, cycle: u64) -> usize {
        let e = self.entries[pos];
        let fu = e.fu as usize;
        let statics = self.statics;
        let s = &statics[e.slot as usize];
        let latency = s.latency as u64;
        self.busy_until[unit] = if s.unpipelined {
            cycle + latency
        } else {
            cycle + 1
        };
        let units = &self.busy_until[self.fu_first[fu]..self.fu_first[fu + 1]];
        self.fu_free_at[fu] = units.iter().copied().min().unwrap_or(u64::MAX);
        let done = cycle + latency;
        self.completion[(e.id & self.ring_mask) as usize] = done;
        self.entries[pos].issued = true;
        self.ready[fu * self.words + pos / 64] &= !(1 << (pos % 64));
        if self.ready_words(fu).iter().all(|&w| w == 0) {
            self.ready_kinds &= !(1 << fu);
        }

        self.current.issue(cycle, s, e.slot);

        let mut edge = e.waiters;
        while edge != NIL {
            let consumer = edge as usize / 2;
            edge = self.edge_next[edge as usize];
            let c = &mut self.entries[consumer];
            c.ready_at = c.ready_at.max(done);
            c.pending -= 1;
            if c.pending == 0 {
                self.schedule(consumer, cycle);
            }
        }
        e.slot as usize
    }

    /// Out-of-order issue at `cycle`: oldest ready op first among the
    /// kinds with a free unit, at most `width` ops. Fills `picked` with
    /// the issued ops' body slots, in issue order.
    fn issue_out_of_order(&mut self, cycle: u64, picked: &mut Vec<usize>) {
        self.candidates.fill(0);
        let mut kinds = self.ready_kinds;
        while kinds != 0 {
            let fu = kinds.trailing_zeros() as usize;
            kinds &= kinds - 1;
            if self.fu_free_at[fu] <= cycle {
                let at = fu * self.words;
                for (c, &w) in self.candidates.iter_mut().zip(&self.ready[at..]) {
                    *c |= w;
                }
            }
        }
        let from = (self.head & self.win_mask) as usize;
        while picked.len() < self.issue_width {
            let Some(pos) = oldest(&self.candidates, from) else {
                break;
            };
            let fu = self.entries[pos].fu as usize;
            let unit = self
                .free_unit(fu, cycle)
                .expect("candidate kinds have a free unit");
            picked.push(self.issue(pos, unit, cycle));
            self.candidates[pos / 64] &= !(1 << (pos % 64));
            if self.fu_free_at[fu] > cycle {
                let at = fu * self.words;
                for (c, &w) in self.candidates.iter_mut().zip(&self.ready[at..]) {
                    *c &= !w;
                }
            }
        }
    }

    /// In-order issue at `cycle`: from the oldest op, stopping at the
    /// first one that is not ready or finds no free unit.
    fn issue_in_order(&mut self, cycle: u64, picked: &mut Vec<usize>) {
        for id in self.head..self.fetched {
            if picked.len() >= self.issue_width {
                break;
            }
            let pos = (id & self.win_mask) as usize;
            let fu = self.entries[pos].fu as usize;
            if !self.is_ready(pos, fu) {
                break;
            }
            let Some(unit) = self.free_unit(fu, cycle) else {
                break;
            };
            picked.push(self.issue(pos, unit, cycle));
        }
    }

    /// Retires the window's issued prefix; out of order, an op also waits
    /// for its result, like a reorder buffer.
    fn retire(&mut self, cycle: u64) {
        while self.head < self.fetched {
            let e = &self.entries[(self.head & self.win_mask) as usize];
            let complete = !self.out_of_order
                || self.completion[(self.head & self.ring_mask) as usize] <= cycle + 1;
            if !(e.issued && complete) {
                break;
            }
            self.head += 1;
        }
    }
}

impl Cpu {
    /// Creates a core at `freq_hz`.
    ///
    /// # Panics
    ///
    /// Panics if `freq_hz` is not strictly positive.
    pub fn new(model: CoreModel, freq_hz: f64) -> Self {
        assert!(freq_hz > 0.0, "clock frequency must be positive");
        Cpu { model, freq_hz }
    }

    /// The microarchitecture model.
    pub fn model(&self) -> &CoreModel {
        &self.model
    }

    /// Current clock frequency in Hz.
    pub fn frequency(&self) -> f64 {
        self.freq_hz
    }

    /// Runs the timing simulation of `kernel` looping continuously.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for empty kernels, missing functional units or
    /// cycle-limit exhaustion.
    pub fn simulate(&self, kernel: &Kernel, config: &SimConfig) -> Result<SimOutput, SimError> {
        self.simulate_inner(kernel, config, None)
    }

    /// Like [`Cpu::simulate`], additionally filling `occupancy` with the
    /// number of slots issued on each recorded cycle — index `k` pairs
    /// with sample `k` of the returned current trace. The simulation
    /// itself is bit-identical to [`Cpu::simulate`]; the capture only
    /// stores counts the issue loop already computes (this is the
    /// `cpu.issue_slots` waveform-trace source).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for the same conditions as [`Cpu::simulate`];
    /// on error `occupancy` contents are unspecified.
    pub fn simulate_traced(
        &self,
        kernel: &Kernel,
        config: &SimConfig,
        occupancy: &mut Vec<u32>,
    ) -> Result<SimOutput, SimError> {
        self.simulate_inner(kernel, config, Some(occupancy))
    }

    fn simulate_inner(
        &self,
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
            if self.model.fu_count(op.fu) == 0 {
                return Err(SimError::MissingFunctionalUnit {
                    op: op.name,
                    fu: op.fu,
                });
            }
        }

        // --- Static decode: per-body-slot metadata -----------------------
        // FU kinds are dense indices in the model's kind order.
        let kinds: Vec<FuKind> = self.model.fu_counts.keys().copied().collect();
        let dense = |kind: FuKind| kinds.iter().position(|&k| k == kind);
        let scale = self.model.current_scale;
        let mut statics: Vec<StaticOp> = kernel
            .body()
            .iter()
            .map(|i| {
                let op = kernel.arch().op(i.op);
                StaticOp {
                    srcs: [reg_id(i.srcs[0]), reg_id(i.srcs[1])],
                    src_count: op.src_count,
                    dst: op.has_dst.then(|| reg_id(i.dst)),
                    fu: dense(op.fu).expect("pre-flight checked the unit"),
                    latency: op.latency.max(1),
                    unpipelined: op.unpipelined,
                    issue_spread: SPREAD.map(|w| op.issue_current * scale * w),
                    active_spread: SPREAD.map(|w| op.active_current * scale * w),
                }
            })
            .collect();
        // Implicit back-branch closing the loop.
        let branch = kernel
            .arch()
            .ops()
            .iter()
            .find(|o| o.class == emvolt_isa::OpClass::Branch);
        if let Some(op) = branch {
            if self.model.fu_count(op.fu) > 0 {
                statics.push(StaticOp {
                    srcs: [0, 0],
                    src_count: 0,
                    dst: None,
                    fu: dense(op.fu).expect("the unit count is positive"),
                    latency: 1,
                    unpipelined: false,
                    issue_spread: SPREAD.map(|w| op.issue_current * scale * w),
                    active_spread: [0.0; 3],
                });
            }
        }
        let slots = statics.len();

        let duration_cycles = (config.min_duration * self.freq_hz).ceil() as u64;
        let duration_cycles = duration_cycles.max(slots as u64 * 4).max(64);
        let mut engine = Engine::new(&self.model, &statics, duration_cycles as usize);

        let mut cycle: u64 = 0;
        let mut iterations_done: usize = 0;
        let mut record_start: Option<u64> = None;
        let mut issued_since_start: u64 = 0;
        let mut fu_issues = vec![0u64; kinds.len()];
        let mut iters_in_window: usize = 0;
        let mut picked = Vec::with_capacity(self.model.issue_width as usize);

        // With no warm-up the recording window is open from cycle 0;
        // nothing has issued yet, so the window's cells start at 0.
        if config.warmup_iterations == 0 {
            record_start = Some(0);
            engine.current.open(0, &statics);
        }

        let mut jitter_rng = StdRng::seed_from_u64(config.jitter_seed);
        let mut fetch_stall: u32 = 0;
        // Per-cycle probability of an interference event.
        let interference_p = if config.interference_interval_s > 0.0 {
            ((1.0 / self.freq_hz) / config.interference_interval_s).clamp(0.0, 1.0)
        } else {
            0.0
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
            } else if interference_p > 0.0 && jitter_rng.gen_bool(interference_p) {
                let (lo, hi) = config.interference_stall;
                fetch_stall = jitter_rng.gen_range(lo.max(1)..=hi.max(lo.max(1)));
            } else {
                engine.fill(cycle);
            }

            engine.step(cycle, &mut picked);
            for &slot in &picked {
                if record_start.is_some() {
                    issued_since_start += 1;
                    fu_issues[statics[slot].fu] += 1;
                }
                if slot == slots - 1 {
                    iterations_done += 1;
                    if iterations_done == config.warmup_iterations {
                        record_start = Some(cycle + 1);
                        engine.current.open(cycle, &statics);
                    } else if record_start.is_some() {
                        iters_in_window += 1;
                    }
                }
            }

            // Absolute-cycle occupancy log; sliced to the recorded window
            // at assembly so entry `k` pairs with current sample `k`.
            if let Some(occ) = occupancy.as_deref_mut() {
                occ.push(picked.len() as u32);
            }

            cycle += 1;

            if let Some(start) = record_start {
                if cycle >= start + duration_cycles && iters_in_window >= 2 {
                    // --- Assemble outputs ---------------------------------
                    let end = start + duration_cycles;
                    let samples: Vec<f64> = (start..end)
                        .map(|c| self.model.idle_current + engine.current.at(c))
                        .collect();
                    if let Some(occ) = occupancy.as_deref_mut() {
                        occ.drain(..start as usize);
                        occ.truncate(duration_cycles as usize);
                    }
                    let dt = 1.0 / self.freq_hz;
                    let window_cycles = (cycle - start) as f64;
                    let ipc = issued_since_start as f64 / window_cycles;
                    let cycles_per_iteration = if iters_in_window > 0 {
                        window_cycles / iters_in_window as f64
                    } else {
                        window_cycles
                    };
                    let fu_issues = kinds
                        .iter()
                        .zip(fu_issues)
                        .filter(|&(_, n)| n > 0)
                        .map(|(&kind, n)| (kind, n))
                        .collect();
                    return Ok(SimOutput {
                        current: Trace::from_samples(dt, samples),
                        ipc,
                        cycles_per_iteration,
                        clock_hz: self.freq_hz,
                        fu_issues,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod exactness {
    use super::*;
    use emvolt_isa::{InstructionPool, Isa};
    use proptest::prelude::*;

    /// The four presets at their platform's top clock.
    fn preset(index: usize) -> (CoreModel, f64) {
        match index {
            0 => (CoreModel::cortex_a72(), 1.2e9),
            1 => (CoreModel::cortex_a53(), 950e6),
            2 => (CoreModel::athlon_ii(), 3.1e9),
            _ => (CoreModel::gpu_sm(), 1.3e9),
        }
    }

    /// A random kernel; with `accumulate`, its first op also reads the
    /// register only it writes, so that op's producer is one whole body
    /// back, the longest reach the completion ring must cover.
    fn kernel(isa: Isa, len: usize, seed: u64, accumulate: bool) -> Kernel {
        let pool = InstructionPool::default_for(isa);
        let k = pool.random_kernel(len, &mut StdRng::seed_from_u64(seed));
        if !accumulate {
            return k;
        }
        let mut body = k.body().to_vec();
        let arch = k.arch();
        let Some(first) = body
            .iter()
            .position(|i| arch.op(i.op).has_dst && arch.op(i.op).src_count > 0)
        else {
            return k;
        };
        let acc = body[first].dst;
        body[first].srcs[0] = acc;
        let other = Reg {
            index: (acc.index + 1) % 16,
            ..acc
        };
        for (n, i) in body.iter_mut().enumerate() {
            if n != first && i.dst == acc {
                i.dst = other;
            }
        }
        Kernel::new(arch.clone(), body)
    }

    /// Runs both engines, plain and traced, and checks every output bit
    /// and every occupancy entry agree.
    fn assert_same(cpu: &Cpu, k: &Kernel, cfg: &SimConfig) {
        let (mut occ, mut ref_occ) = (Vec::new(), Vec::new());
        let plain = cpu.simulate(k, cfg);
        let traced = cpu.simulate_traced(k, cfg, &mut occ);
        let reference = reference::simulate(cpu, k, cfg, Some(&mut ref_occ));
        for got in [&plain, &traced] {
            match (got, &reference) {
                (Ok(a), Ok(b)) => {
                    let bits = |o: &SimOutput| -> Vec<u64> {
                        o.current.samples().iter().map(|x| x.to_bits()).collect()
                    };
                    assert_eq!(bits(a), bits(b));
                    assert_eq!(a.current.dt().to_bits(), b.current.dt().to_bits());
                    assert_eq!(a.ipc.to_bits(), b.ipc.to_bits());
                    assert_eq!(
                        a.cycles_per_iteration.to_bits(),
                        b.cycles_per_iteration.to_bits()
                    );
                    assert_eq!(a.clock_hz.to_bits(), b.clock_hz.to_bits());
                    assert_eq!(a.fu_issues, b.fu_issues);
                }
                (a, b) => assert_eq!(a.as_ref().err(), b.as_ref().err()),
            }
        }
        if reference.is_ok() {
            assert_eq!(occ, ref_occ);
        }
    }

    /// With no warm-up the window is open from cycle 0: every preset
    /// records its duration and returns well under a cap a few times that
    /// long, in both engines alike.
    #[test]
    fn warmup_zero_records_from_the_first_cycle() {
        for model in 0..4 {
            let (m, top) = preset(model);
            let cpu = Cpu::new(m, top);
            for isa in [Isa::ArmV8, Isa::X86_64] {
                let k = kernel(isa, 24, model as u64, false);
                let cfg = SimConfig {
                    warmup_iterations: 0,
                    min_duration: 1e-6,
                    max_cycles: 20_000,
                    interference_interval_s: 250e-9,
                    ..SimConfig::default()
                };
                let out = cpu.simulate(&k, &cfg).expect("warmup 0 must record");
                let duration = ((cfg.min_duration * top).ceil() as usize).max(24 * 4);
                assert_eq!(out.current.len(), duration, "preset {model} {isa:?}");
                assert!(out.ipc > 0.0);
                assert_same(&cpu, &k, &cfg);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every preset, both ISAs, short and 1024-long kernels, any
        /// clock from 10% to 100% of the top one, interference on and
        /// off, any warmup, and sometimes a unit kind removed.
        #[test]
        fn engine_matches_the_reference(
            model in 0usize..4,
            x86 in any::<bool>(),
            // One case in ten runs a 1024-long kernel.
            len in (0u32..10, 1usize..=64).prop_map(|(p, n)| if p == 0 { 1024 } else { n }),
            seed in any::<u64>(),
            accumulate in any::<bool>(),
            clock in (0u32..8, 0.1f64..1.0)
                .prop_map(|(p, c)| match p { 0 => 1.0, 1 => 0.1, _ => c }),
            interference in (any::<bool>(), 50e-9f64..1e-6)
                .prop_map(|(on, s)| if on { s } else { 0.0 }),
            jitter_seed in any::<u64>(),
            warmup_iterations in 0usize..=10,
            min_duration in 0.2e-6f64..3e-6,
            // One case in ten removes a unit kind.
            drop_kind in (0u32..10, 0usize..8).prop_map(|(p, n)| (p == 0).then_some(n)),
        ) {
            let (mut m, top) = preset(model);
            if let Some(n) = drop_kind {
                let kind = *m.fu_counts.keys().nth(n).expect("presets have 8 unit kinds");
                m.fu_counts.remove(&kind);
            }
            let cpu = Cpu::new(m, top * clock);
            let isa = if x86 { Isa::X86_64 } else { Isa::ArmV8 };
            let k = kernel(isa, len, seed, accumulate);
            let cfg = SimConfig {
                warmup_iterations,
                min_duration,
                max_cycles: 60_000,
                interference_interval_s: interference,
                jitter_seed,
                ..SimConfig::default()
            };
            assert_same(&cpu, &k, &cfg);
        }

        /// A cap one cycle short of what a run needs fails the same way
        /// in both engines; the exact cap succeeds in both.
        #[test]
        fn cycle_cap_boundary_matches_the_reference(
            model in 0usize..4,
            len in 1usize..=40,
            seed in any::<u64>(),
            interference in any::<bool>(),
        ) {
            let (m, top) = preset(model);
            let cpu = Cpu::new(m, top);
            let k = kernel(Isa::ArmV8, len, seed, false);
            let mut cfg = SimConfig {
                warmup_iterations: 3,
                min_duration: 0.5e-6,
                interference_interval_s: if interference { 250e-9 } else { 0.0 },
                ..SimConfig::default()
            };
            // The smallest cap that succeeds: success is monotone in it.
            let (mut lo, mut hi) = (0u64, 1u64 << 20);
            while lo + 1 < hi {
                let mid = (lo + hi) / 2;
                cfg.max_cycles = mid;
                if cpu.simulate(&k, &cfg).is_ok() {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            cfg.max_cycles = hi - 1;
            prop_assert_eq!(
                reference::simulate(&cpu, &k, &cfg, None).err(),
                Some(SimError::CycleLimitExceeded { limit: hi - 1 })
            );
            assert_same(&cpu, &k, &cfg);
            cfg.max_cycles = hi;
            prop_assert!(reference::simulate(&cpu, &k, &cfg, None).is_ok());
            assert_same(&cpu, &k, &cfg);
        }
    }

    /// The pre-flight errors are unchanged on every preset.
    #[test]
    fn preflight_errors_match_the_reference() {
        let empty = Kernel::new(
            std::sync::Arc::new(emvolt_isa::Architecture::armv8()),
            vec![],
        );
        let sweep = emvolt_isa::kernels::sweep_kernel(Isa::ArmV8);
        for index in 0..4 {
            let (m, top) = preset(index);
            let cpu = Cpu::new(m.clone(), top);
            let cfg = SimConfig::default();
            assert_eq!(
                cpu.simulate(&empty, &cfg).err(),
                Some(SimError::EmptyKernel)
            );
            assert_eq!(
                reference::simulate(&cpu, &empty, &cfg, None).err(),
                Some(SimError::EmptyKernel)
            );
            let mut no_div = m;
            no_div.fu_counts.remove(&FuKind::Div);
            let cpu = Cpu::new(no_div, top);
            let err = cpu.simulate(&sweep, &cfg).err();
            assert!(matches!(
                err,
                Some(SimError::MissingFunctionalUnit {
                    fu: FuKind::Div,
                    ..
                })
            ));
            assert_eq!(err, reference::simulate(&cpu, &sweep, &cfg, None).err());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CoreModel;
    use emvolt_isa::{kernels::sweep_kernel, InstructionPool, Isa};
    use rand::{rngs::StdRng, SeedableRng};

    fn a53() -> Cpu {
        Cpu::new(CoreModel::cortex_a53(), 950e6)
    }

    fn a72() -> Cpu {
        Cpu::new(CoreModel::cortex_a72(), 1.2e9)
    }

    #[test]
    fn traced_simulation_is_bit_identical_and_aligned() {
        let cpu = a53();
        let k = sweep_kernel(Isa::ArmV8);
        let cfg = SimConfig::default();
        let plain = cpu.simulate(&k, &cfg).unwrap();
        let mut occupancy = vec![99u32; 3]; // stale contents must be cleared
        let traced = cpu.simulate_traced(&k, &cfg, &mut occupancy).unwrap();
        assert_eq!(plain.current.samples(), traced.current.samples());
        assert_eq!(plain.ipc, traced.ipc);
        assert_eq!(occupancy.len(), traced.current.len());
        let width = cpu.model().issue_width;
        assert!(occupancy.iter().all(|&n| n <= width));
        // The kernel issues work, so some recorded cycle must be busy.
        assert!(occupancy.iter().any(|&n| n > 0));
        // Occupancy integrates to the issue count implied by the IPC over
        // the same window.
        // (up to issue_width boundary issues land on the cycle before the
        // recorded window opens).
        let total: u64 = occupancy.iter().map(|&n| n as u64).sum();
        let expected = traced.ipc * occupancy.len() as f64;
        assert!(
            (total as f64 - expected).abs() <= width as f64 + 1e-9,
            "sum {total} vs ipc-implied {expected}"
        );
    }

    #[test]
    fn sweep_kernel_takes_about_eight_cycles_on_dual_issue() {
        // 8 independent ADDs dual-issue in 4 cycles; the unpipelined DIV
        // blocks for ~its latency; total near 4 + DIV latency.
        let cpu = a53();
        let k = sweep_kernel(Isa::ArmV8);
        let out = cpu.simulate(&k, &SimConfig::default()).unwrap();
        assert!(
            out.cycles_per_iteration >= 8.0 && out.cycles_per_iteration <= 20.0,
            "cycles/iter {}",
            out.cycles_per_iteration
        );
    }

    #[test]
    fn current_trace_alternates_high_low() {
        let cpu = a53();
        let k = sweep_kernel(Isa::ArmV8);
        let out = cpu.simulate(&k, &SimConfig::default()).unwrap();
        let p2p = out.current.peak_to_peak();
        // With the calibrated per-op currents the high (dual-issue ADD)
        // and low (DIV stall) phases differ by tens of milliamps.
        assert!(p2p > 0.05, "current swing too small: {p2p}");
        assert!(out.current.min() >= cpu.model().idle_current - 1e-12);
    }

    #[test]
    fn ooo_beats_in_order_on_random_code() {
        let pool = InstructionPool::default_for(Isa::ArmV8);
        let mut rng = StdRng::seed_from_u64(5);
        let k = pool.random_kernel(50, &mut rng);
        let out_io = a53().simulate(&k, &SimConfig::default()).unwrap();
        let out_ooo = a72().simulate(&k, &SimConfig::default()).unwrap();
        assert!(
            out_ooo.ipc >= out_io.ipc * 0.95,
            "OoO IPC {} should be at least in-order IPC {}",
            out_ooo.ipc,
            out_io.ipc
        );
    }

    #[test]
    fn ipc_is_bounded_by_width() {
        let pool = InstructionPool::default_for(Isa::ArmV8);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..5 {
            let k = pool.random_kernel(50, &mut rng);
            let out = a72().simulate(&k, &SimConfig::default()).unwrap();
            assert!(out.ipc > 0.0 && out.ipc <= 3.0 + 1e-9, "ipc {}", out.ipc);
        }
    }

    #[test]
    fn loop_frequency_scales_with_clock() {
        let k = sweep_kernel(Isa::ArmV8);
        let cfg = SimConfig::default();
        let f1 = a53().simulate(&k, &cfg).unwrap().loop_frequency();
        let half = Cpu::new(CoreModel::cortex_a53(), 475e6);
        let f2 = half.simulate(&k, &cfg).unwrap().loop_frequency();
        assert!(
            (f1 / f2 - 2.0).abs() < 0.05,
            "halving the clock must halve loop frequency: {f1} vs {f2}"
        );
    }

    #[test]
    fn empty_kernel_is_rejected() {
        let arch = std::sync::Arc::new(emvolt_isa::Architecture::armv8());
        let k = emvolt_isa::Kernel::new(arch, vec![]);
        assert!(matches!(
            a53().simulate(&k, &SimConfig::default()),
            Err(SimError::EmptyKernel)
        ));
    }

    #[test]
    fn deterministic_output() {
        let pool = InstructionPool::default_for(Isa::X86_64);
        let mut rng = StdRng::seed_from_u64(1);
        let k = pool.random_kernel(50, &mut rng);
        let cpu = Cpu::new(CoreModel::athlon_ii(), 3.1e9);
        let a = cpu.simulate(&k, &SimConfig::default()).unwrap();
        let b = cpu.simulate(&k, &SimConfig::default()).unwrap();
        assert_eq!(a.current.samples(), b.current.samples());
        assert_eq!(a.ipc, b.ipc);
    }

    #[test]
    fn missing_fu_is_reported() {
        let mut model = CoreModel::cortex_a53();
        model.fu_counts.remove(&FuKind::Div);
        let cpu = Cpu::new(model, 1e9);
        let k = sweep_kernel(Isa::ArmV8);
        assert!(matches!(
            cpu.simulate(&k, &SimConfig::default()),
            Err(SimError::MissingFunctionalUnit { .. })
        ));
    }
}

#[cfg(test)]
mod hazard_tests {
    use super::*;
    use crate::model::CoreModel;
    use emvolt_isa::{Architecture, Instr, Kernel, Reg};
    use std::sync::Arc;

    fn kernel(instrs: Vec<Instr>) -> Kernel {
        Kernel::new(Arc::new(Architecture::armv8()), instrs)
    }

    fn add(arch: &Architecture, dst: u8, a: u8, b: u8) -> Instr {
        Instr {
            op: arch.op_by_name("add").unwrap(),
            dst: Reg::gpr(dst),
            srcs: [Reg::gpr(a), Reg::gpr(b)],
            mem_slot: 0,
        }
    }

    /// A fully serial RAW chain issues one instruction per cycle even on
    /// a wide out-of-order core.
    #[test]
    fn raw_chain_serializes() {
        let arch = Architecture::armv8();
        let body: Vec<Instr> = (0..8).map(|_| add(&arch, 1, 1, 2)).collect();
        let cpu = Cpu::new(CoreModel::cortex_a72(), 1.2e9);
        let out = cpu.simulate(&kernel(body), &SimConfig::default()).unwrap();
        assert!(
            out.ipc < 1.15,
            "dependent chain should bound IPC near 1, got {}",
            out.ipc
        );
    }

    /// Independent adds dual-issue on the in-order A53 (2 ALUs).
    #[test]
    fn independent_adds_dual_issue_in_order() {
        let arch = Architecture::armv8();
        let body: Vec<Instr> = (0..8u8).map(|k| add(&arch, 1 + (k % 6), 8, 9)).collect();
        let cpu = Cpu::new(CoreModel::cortex_a53(), 950e6);
        let out = cpu.simulate(&kernel(body), &SimConfig::default()).unwrap();
        assert!(out.ipc > 1.5, "expected dual issue, got IPC {}", out.ipc);
    }

    /// Back-to-back divides serialize on the single unpipelined divider.
    #[test]
    fn unpipelined_divider_is_a_structural_hazard() {
        let arch = Architecture::armv8();
        let sdiv = arch.op_by_name("sdiv").unwrap();
        let lat = arch.op(sdiv).latency as f64;
        let body: Vec<Instr> = (0..4u8)
            .map(|k| Instr {
                op: sdiv,
                dst: Reg::gpr(1 + k),
                srcs: [Reg::gpr(8), Reg::gpr(9)],
                mem_slot: 0,
            })
            .collect();
        let cpu = Cpu::new(CoreModel::cortex_a72(), 1.2e9);
        let out = cpu.simulate(&kernel(body), &SimConfig::default()).unwrap();
        // Four divides of `lat` cycles each on one busy-until-done unit.
        assert!(
            out.cycles_per_iteration >= 4.0 * lat - 1.0,
            "cycles/iter {} for 4 divides of {lat} cycles",
            out.cycles_per_iteration
        );
    }

    /// The out-of-order core hides a long-latency op behind independent
    /// work; the in-order core cannot when a dependent op follows it.
    #[test]
    fn ooo_hides_latency_behind_independent_work() {
        let arch = Architecture::armv8();
        let fdiv = arch.op_by_name("fdiv").unwrap();
        let mut body = vec![Instr {
            op: fdiv,
            dst: Reg::fpr(1),
            srcs: [Reg::fpr(2), Reg::fpr(3)],
            mem_slot: 0,
        }];
        // Dependent consumer right behind the divide...
        body.push(Instr {
            op: arch.op_by_name("fadd").unwrap(),
            dst: Reg::fpr(4),
            srcs: [Reg::fpr(1), Reg::fpr(5)],
            mem_slot: 0,
        });
        // ...and plenty of independent integer work.
        for k in 0..12u8 {
            body.push(add(&arch, 1 + (k % 6), 8, 9));
        }
        let k = kernel(body);
        let ooo = Cpu::new(CoreModel::cortex_a72(), 1.2e9)
            .simulate(&k, &SimConfig::default())
            .unwrap();
        let io = Cpu::new(CoreModel::cortex_a53(), 1.2e9)
            .simulate(&k, &SimConfig::default())
            .unwrap();
        assert!(
            ooo.cycles_per_iteration < io.cycles_per_iteration,
            "OoO {} cycles vs in-order {}",
            ooo.cycles_per_iteration,
            io.cycles_per_iteration
        );
    }

    /// FU issue accounting matches the kernel's composition.
    #[test]
    fn fu_issue_shares_reflect_the_kernel() {
        let arch = Architecture::armv8();
        let mut body: Vec<Instr> = (0..6u8).map(|k| add(&arch, 1 + (k % 6), 8, 9)).collect();
        let vmul = arch.op_by_name("fmul.4s").unwrap();
        for k in 0..2u8 {
            body.push(Instr {
                op: vmul,
                dst: Reg::fpr(k),
                srcs: [Reg::fpr(8), Reg::fpr(9)],
                mem_slot: 0,
            });
        }
        let cpu = Cpu::new(CoreModel::cortex_a72(), 1.2e9);
        let out = cpu.simulate(&kernel(body), &SimConfig::default()).unwrap();
        let alu = out.fu_share(FuKind::Alu);
        let simd = out.fu_share(FuKind::SimdUnit);
        // 6 adds : 2 SIMD : 1 branch per iteration.
        assert!((alu - 6.0 / 9.0).abs() < 0.05, "alu share {alu}");
        assert!((simd - 2.0 / 9.0).abs() < 0.05, "simd share {simd}");
        assert!(out.fu_share(FuKind::Div) < 1e-9);
    }
}
