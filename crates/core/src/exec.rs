//! The modelled parallel-execution engine of one replica: a P-SMR /
//! CBASE-style worker pool over the delivered command stream (Marandi et
//! al., *Rethinking State-Machine Replication for Parallelism*).
//!
//! Commands still *apply* strictly in delivery order on every replica —
//! the pool is purely a timing model deciding *when* the queue head is
//! admitted, so replicas stay bit-identical regardless of `workers` and an
//! inaccurate [`Application::classify`](crate::Application::classify) can
//! only skew modelled time, never state.
//!
//! The rules, all pure functions of the clock vector and the window:
//!
//! * **Serial fast path** — with one worker there is one busy clock (also
//!   charged by migration transfers), no classification and no window:
//!   exactly the classic serial executor.
//! * **Barrier** — anything but an access command (creates, deletes, plans,
//!   reverts) waits for every worker to drain.
//! * **Conflict gating** — an access head needs a free worker and waits
//!   out every in-flight command its read/write sets conflict with (CBASE
//!   rule: conflict iff one's writes intersect the other's reads ∪ writes).
//! * **Window-full stall** — the sliding dependency window tracks at most
//!   `window` admitted-but-unfinished commands; a full window holds the
//!   head until the earliest of them finishes.

use std::collections::VecDeque;

use dynastar_amcast::MsgId;
use dynastar_runtime::{SimDuration, SimTime};

use crate::command::AccessSets;

/// The execution engine's knobs: worker count, per-command cost and
/// dependency-window size. With `workers = 1` the schedule is exactly the
/// classic serial executor's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Modelled parallel execution workers per replica. `1` reproduces
    /// the serial executor bit-for-bit (all golden hashes unchanged).
    pub workers: u32,
    /// Modelled CPU time per command execution. A worker is busy for this
    /// long after executing; queued commands wait for a free,
    /// non-conflicting slot. Zero disables the model entirely (commands
    /// execute instantaneously). This is what bounds a partition's
    /// throughput and produces saturation behaviour.
    pub service_time: SimDuration,
    /// Sliding dependency-window capacity: how many admitted-but-
    /// unfinished commands are tracked for conflict decisions. When the
    /// window is full, admission stalls until the earliest in-flight
    /// command finishes (counted as `exec.window_stall`).
    pub window: u32,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig { workers: 1, service_time: SimDuration::ZERO, window: 64 }
    }
}

impl ExecConfig {
    /// The classic serial executor with the given per-command cost.
    pub fn serial(service_time: SimDuration) -> Self {
        ExecConfig { service_time, ..Self::default() }
    }

    /// A pool of `workers` with the given per-command cost.
    pub fn pool(workers: u32, service_time: SimDuration) -> Self {
        ExecConfig { workers: workers.max(1), service_time, ..Self::default() }
    }
}

/// Clamps a busy clock forward to `now` and charges `cost` on top — the
/// single accounting primitive shared by command execution and
/// migration-transfer time, so the two models can't drift apart.
fn advance_busy(clock: &mut SimTime, now: SimTime, cost: SimDuration) {
    if *clock < now {
        *clock = now;
    }
    *clock += cost;
}

/// The earliest-free worker; ties break to the lowest index so assignment
/// is a pure function of the clock vector (replica-deterministic).
fn earliest_free_worker(clocks: &[SimTime]) -> usize {
    let mut best = 0;
    for (i, &c) in clocks.iter().enumerate().skip(1) {
        if c < clocks[best] {
            best = i;
        }
    }
    best
}

/// One admitted-but-unfinished command in the dependency window.
#[derive(Debug, Clone)]
struct WindowEntry {
    /// Its declared read/write sets (from `Application::classify`).
    sets: AccessSets,
    /// When its assigned worker finishes it.
    finish: SimTime,
}

/// Marks the queue head as stalled by the scheduler so the stall is
/// counted once per `(cmd, attempt)` at admission, not once per pump.
#[derive(Debug, Clone, Copy)]
struct PendingStall {
    id: MsgId,
    attempt: u32,
    /// Gate was raised by a read/write conflict with an in-flight command.
    conflicted: bool,
    /// Gate was raised because the dependency window was at capacity.
    window_full: bool,
}

/// What one pool admission did, for the caller's metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Admission {
    /// The worker the command was assigned to.
    pub worker: usize,
    /// How long it keeps that worker busy.
    pub busy: SimDuration,
    /// Other commands were still in flight (it ran in parallel).
    pub overlapped: bool,
    /// Its admission was held back by a read/write conflict.
    pub serialized: bool,
    /// Its admission was held back by a full dependency window.
    pub window_stalled: bool,
}

/// Modelled parallel-execution state: per-worker busy clocks plus the
/// sliding dependency window of admitted, unfinished commands.
///
/// With one worker the window stays empty and `clocks[0]` behaves exactly
/// like a single `busy_until` field.
#[derive(Debug, Clone)]
pub(crate) struct ExecScheduler {
    cfg: ExecConfig,
    /// One modelled busy-until clock per worker.
    clocks: Vec<SimTime>,
    /// Admitted commands whose modelled execution has not finished.
    window: VecDeque<WindowEntry>,
    /// Stall attribution for the current queue head, if any.
    pending: Option<PendingStall>,
}

impl ExecScheduler {
    pub fn new(cfg: ExecConfig) -> Self {
        ExecScheduler {
            cfg,
            clocks: vec![SimTime::ZERO; cfg.workers.max(1) as usize],
            window: VecDeque::new(),
            pending: None,
        }
    }

    /// Number of modelled workers (≥ 1).
    pub fn workers(&self) -> usize {
        self.clocks.len()
    }

    /// When a barrier head (anything but an access command) can be
    /// admitted: once every worker has drained. Worker clocks only ever
    /// grow past window finish times, so max(clocks) covers every
    /// in-flight command.
    pub fn barrier_gate(&self) -> SimTime {
        if self.cfg.workers <= 1 {
            return self.clocks[0];
        }
        self.clocks.iter().copied().max().unwrap_or(SimTime::ZERO)
    }

    /// When the access head `(id, attempt)` can be admitted: a worker must
    /// be free, every conflicting predecessor finished, and the window
    /// must have room. `sets` is only called when the rule needs the
    /// head's read/write sets. A gate in the future raised by a conflict
    /// or a full window is remembered for [`Self::admit`]'s attribution.
    pub fn access_gate(
        &mut self,
        id: MsgId,
        attempt: u32,
        sets: impl FnOnce() -> AccessSets,
        now: SimTime,
    ) -> SimTime {
        if self.cfg.workers <= 1 {
            return self.clocks[0];
        }
        let free = self.clocks.iter().copied().min().unwrap_or(SimTime::ZERO);
        if self.cfg.service_time.is_zero() {
            // Execution itself is free (the window stays empty); only
            // migration-transfer charges occupy the clocks.
            return free;
        }
        self.window.retain(|e| e.finish > now);
        let sets = sets();
        let mut gate = free;
        let mut conflicted = false;
        for e in &self.window {
            if sets.conflicts_with(&e.sets) {
                conflicted = true;
                gate = gate.max(e.finish);
            }
        }
        let mut window_full = false;
        if self.window.len() >= self.cfg.window.max(1) as usize {
            window_full = true;
            if let Some(first_out) = self.window.iter().map(|e| e.finish).min() {
                gate = gate.max(first_out);
            }
        }
        if now < gate && (conflicted || window_full) {
            match &mut self.pending {
                Some(p) if p.id == id && p.attempt == attempt => {
                    p.conflicted |= conflicted;
                    p.window_full |= window_full;
                }
                slot => *slot = Some(PendingStall { id, attempt, conflicted, window_full }),
            }
        }
        gate
    }

    /// Accounts the modelled CPU cost of executing the access command
    /// `(id, attempt)`: assigns it to the earliest-free worker, charges
    /// the service time, and registers its read/write sets in the
    /// dependency window so successors conflict-check against it.
    ///
    /// Only called once [`Self::access_gate`] has passed at `now`. Returns
    /// what the admission did when a worker pool is modelled; the serial
    /// executor and free execution report nothing.
    pub fn admit(
        &mut self,
        id: MsgId,
        attempt: u32,
        sets: impl FnOnce() -> AccessSets,
        now: SimTime,
    ) -> Option<Admission> {
        if self.cfg.service_time.is_zero() {
            return None;
        }
        if self.cfg.workers <= 1 {
            advance_busy(&mut self.clocks[0], now, self.cfg.service_time);
            return None;
        }
        let sets = sets();
        let worker = earliest_free_worker(&self.clocks);
        advance_busy(&mut self.clocks[worker], now, self.cfg.service_time);
        let stall = self.pending.take().filter(|s| s.id == id && s.attempt == attempt);
        let admission = Admission {
            worker,
            busy: self.cfg.service_time,
            overlapped: !self.window.is_empty(),
            serialized: stall.is_some_and(|s| s.conflicted),
            window_stalled: stall.is_some_and(|s| s.window_full),
        };
        self.window.push_back(WindowEntry { sets, finish: self.clocks[worker] });
        Some(admission)
    }

    /// Charges `cost` of non-command work (migration transfer time) to the
    /// earliest-free worker.
    pub fn charge(&mut self, now: SimTime, cost: SimDuration) {
        let w = earliest_free_worker(&self.clocks);
        advance_busy(&mut self.clocks[w], now, cost);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::VarId;

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    fn id(seq: u32) -> MsgId {
        MsgId::new(1, seq)
    }

    fn writes(vars: &[u64]) -> AccessSets {
        AccessSets::write_all(&vars.iter().map(|&v| VarId(v)).collect::<Vec<_>>())
    }

    fn reads(vars: &[u64]) -> AccessSets {
        AccessSets::read_only(&vars.iter().map(|&v| VarId(v)).collect::<Vec<_>>())
    }

    fn pool(workers: u32, window: u32) -> ExecScheduler {
        ExecScheduler::new(ExecConfig {
            workers,
            service_time: SimDuration::from_millis(10),
            window,
        })
    }

    /// Gates, then admits, the access command `seq` at `now`.
    fn run(s: &mut ExecScheduler, seq: u32, sets: AccessSets, now: SimTime) -> Option<Admission> {
        assert!(s.access_gate(id(seq), 0, || sets.clone(), now) <= now, "gate closed at {now}");
        s.admit(id(seq), 0, || sets, now)
    }

    #[test]
    fn barrier_waits_for_every_worker() {
        let mut s = pool(4, 64);
        run(&mut s, 0, writes(&[1]), ms(0));
        run(&mut s, 1, writes(&[2]), ms(3));
        // Two workers busy until 10 and 13; the others are idle, yet a
        // barrier waits for the last in-flight command.
        assert_eq!(s.barrier_gate(), ms(13));
        // An independent access head only needs a free worker.
        assert_eq!(s.access_gate(id(2), 0, || writes(&[3]), ms(3)), ms(0));
    }

    #[test]
    fn conflicting_head_waits_for_its_predecessor() {
        let mut s = pool(4, 64);
        let first = run(&mut s, 0, writes(&[1, 2]), ms(0)).expect("pool admission");
        assert!(!first.overlapped && !first.serialized);
        // A read of a written var conflicts; a disjoint read does not, and
        // two reads of the same var never conflict.
        assert_eq!(s.access_gate(id(1), 0, || reads(&[2]), ms(1)), ms(10));
        assert_eq!(s.access_gate(id(2), 0, || reads(&[3]), ms(1)), ms(0));
        let mut r = pool(4, 64);
        run(&mut r, 0, reads(&[5]), ms(0));
        assert_eq!(r.access_gate(id(1), 0, || reads(&[5]), ms(1)), ms(0));
        // Admitted once the gate opens, the stall is attributed once.
        assert_eq!(s.access_gate(id(1), 0, || reads(&[2]), ms(5)), ms(10));
        let second = run(&mut s, 1, reads(&[2]), ms(10)).expect("pool admission");
        assert!(second.serialized && !second.window_stalled);
        assert_eq!(second.worker, 1, "worker 0 finished at 10 but 1 is lower-clocked");
    }

    #[test]
    fn full_window_stalls_until_the_first_finish() {
        let mut s = pool(4, 2);
        run(&mut s, 0, writes(&[1]), ms(0));
        run(&mut s, 1, writes(&[2]), ms(4));
        // Two free workers, no conflict — but the window tracks only two.
        assert_eq!(s.access_gate(id(2), 0, || writes(&[3]), ms(5)), ms(10));
        let third = run(&mut s, 2, writes(&[3]), ms(10)).expect("pool admission");
        assert!(third.window_stalled && !third.serialized);
        assert!(third.overlapped, "command 1 is still in flight at 10");
    }

    #[test]
    fn one_worker_is_the_serial_executor() {
        let mut s = pool(1, 1);
        let never = || -> AccessSets { panic!("the serial executor never classifies") };
        assert_eq!(s.access_gate(id(0), 0, never, ms(0)), ms(0));
        assert_eq!(s.admit(id(0), 0, never, ms(0)), None);
        // One busy clock: conflicts and the window play no part, and the
        // barrier and access gates agree.
        assert_eq!(s.access_gate(id(1), 0, never, ms(2)), ms(10));
        assert_eq!(s.barrier_gate(), ms(10));
        assert_eq!(s.admit(id(1), 0, never, ms(10)), None);
        // Migration transfers charge the same clock.
        s.charge(ms(15), SimDuration::from_millis(5));
        assert_eq!(s.barrier_gate(), ms(25));
    }
}
