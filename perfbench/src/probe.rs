//! A [`Workload`] wrapper that observes each client's generator.
//!
//! The wrapper records what the program's own metrics do not give
//! exactly: every completion time in the measured window (for the
//! longest stall), exact per-command sim latencies split by read and
//! write commands, the commands attempted, and — in the traced run — the
//! wall time spent inside the generator. It passes the generator's
//! commands and the client's random stream through untouched, so the
//! simulated schedule is the same as without it.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use dynastar_core::{Application, Command, CommandKind, Workload};
use dynastar_runtime::{SimDuration, SimTime};
use rand::rngs::StdRng;

use crate::trace;

/// Shared by every client's [`Probe`] in one cluster.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Set between [`Recorder::open`] and [`Recorder::close`].
    open: bool,
    /// Once set, generators return `None` and clients stop issuing.
    pub stop: bool,
    /// Time each `next_command` call (traced run only).
    pub timing: bool,
    /// Commands issued and not yet completed, across all clients.
    pub outstanding: u64,
    /// `outstanding` when the window opened.
    pub outstanding_at_open: u64,
    /// Commands issued inside the window.
    pub issued: u64,
    /// Completion times inside the window, µs of sim time, in order.
    pub completions: Vec<u64>,
    /// Sim latencies (µs) of read-only commands completed in the window.
    pub lat_read: Vec<u64>,
    /// Sim latencies (µs) of commands that write, completed in the window.
    pub lat_write: Vec<u64>,
    /// Wall ns spent in the wrapped generators while `timing`.
    pub next_ns: u64,
    /// Generator calls timed.
    pub next_calls: u64,
}

impl Recorder {
    /// Starts counting: everything the clients do from now on is in the
    /// measured window.
    pub fn open(&mut self) {
        self.open = true;
        self.outstanding_at_open = self.outstanding;
    }

    /// Stops counting.
    pub fn close(&mut self) {
        self.open = false;
    }

    /// Commands the window had to serve: those in flight when it opened
    /// plus those issued inside it.
    pub fn attempted(&self) -> u64 {
        self.outstanding_at_open + self.issued
    }
}

/// Wraps one client's generator; see the module docs.
pub struct Probe<W> {
    inner: W,
    rec: Rc<RefCell<Recorder>>,
    issued_at: SimTime,
    read_only: bool,
}

impl<W> Probe<W> {
    pub fn new(inner: W, rec: Rc<RefCell<Recorder>>) -> Self {
        Probe { inner, rec, issued_at: SimTime::ZERO, read_only: false }
    }
}

impl<A: Application, W: Workload<A>> Workload<A> for Probe<W> {
    fn next_command(&mut self, now: SimTime, rng: &mut StdRng) -> Option<CommandKind<A>> {
        let (stop, timing) = {
            let r = self.rec.borrow();
            (r.stop, r.timing)
        };
        if stop {
            return None;
        }
        let cmd = if timing {
            let t0 = Instant::now();
            let cmd = trace::span("workloads.next_command", || self.inner.next_command(now, rng));
            let mut r = self.rec.borrow_mut();
            r.next_ns += t0.elapsed().as_nanos() as u64;
            r.next_calls += 1;
            cmd
        } else {
            self.inner.next_command(now, rng)
        };
        let mut r = self.rec.borrow_mut();
        if let Some(kind) = &cmd {
            self.issued_at = now;
            self.read_only = match kind {
                CommandKind::Access { op, vars } => A::classify(op, vars).writes.is_empty(),
                _ => false,
            };
            r.outstanding += 1;
            if r.open {
                r.issued += 1;
            }
        }
        cmd
    }

    fn think_time(&mut self, now: SimTime, rng: &mut StdRng) -> SimDuration {
        self.inner.think_time(now, rng)
    }

    fn on_completed(&mut self, now: SimTime, cmd: &Command<A>, reply: Option<&A::Reply>) {
        self.inner.on_completed(now, cmd, reply);
        let mut r = self.rec.borrow_mut();
        r.outstanding -= 1;
        if r.open {
            r.completions.push(now.as_micros());
            let lat = now.saturating_duration_since(self.issued_at).as_micros();
            if self.read_only {
                r.lat_read.push(lat);
            } else {
                r.lat_write.push(lat);
            }
        }
    }
}
