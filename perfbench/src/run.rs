//! Measuring a run: replicas, the window, the checks and the metrics.
//!
//! Each replica is set up (timed), then its window is advanced in fixed
//! [`SLICE`]s, then the clients are stopped and the cluster drained until
//! the replicas' location views converge, which the correctness checks
//! inspect. The traced run repeats the untraced replicas with the
//! counting allocator and the spans on.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use dynastar_core::metric_names as mn;
use dynastar_core::{Application, Cluster, LocationView};
use dynastar_runtime::{SimDuration, SimTime};
use dynastar_workloads::chirper::Chirper;
use dynastar_workloads::tpcc::Tpcc;

use crate::checks::check_views;
use crate::metrics::{median, quantile, tail_q, Report};
use crate::workloads::{self, build_social, build_tpcc, replica_seed, Built, Kind, Layout};
use crate::{alloc, layers, trace};

/// Sim time advanced per `run_for` call in the window. Slicing does not
/// change the schedule; it bounds how late a cross-check or a per-slice
/// trace record can be taken.
const SLICE: SimDuration = SimDuration::from_millis(100);
/// Longest drain before the views must have converged.
const MAX_DRAIN: SimDuration = SimDuration::from_secs(30);
/// `tpcc` at seed 1 must reproduce the standard config's recorded
/// schedule: events processed and commands completed in the first 10
/// sim-s.
const TPCC_CROSS_CHECK: (SimTime, u64, u64) = (SimTime::from_secs(10), 2_182_032, 27_676);

/// What one or more measured windows produced.
#[derive(Debug, Default)]
struct Window {
    wall_s: f64,
    events: u64,
    allocs: u64,
    alloc_bytes: u64,
    completed: u64,
    /// Counter deltas over the window, by metric name.
    counters: BTreeMap<String, u64>,
    plan_moves: f64,
    plan_edge_cut_sum: f64,
    lat_read: Vec<u64>,
    lat_write: Vec<u64>,
    attempted: u64,
    outstanding_at_end: u64,
    next_ns: u64,
    next_calls: u64,
    /// Longest gap without a completion, per replica (µs).
    stalls: Vec<u64>,
    /// Wall µs per completed command, per replica.
    wall_us_per_cmd: Vec<f64>,
    /// Schedule fingerprint per replica: equal only if the schedule is.
    fingerprints: Vec<u64>,
    /// JSON lines of per-slice records (traced run only).
    slices: String,
}

impl Window {
    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    fn per_cmd(&self, x: f64) -> f64 {
        x / self.completed.max(1) as f64
    }

    fn wall_us_per_cmd(&self) -> f64 {
        self.per_cmd(self.wall_s * 1e6)
    }

    fn latencies(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self.lat_read.iter().chain(&self.lat_write).copied().collect();
        all.sort_unstable();
        all
    }

    fn merge(&mut self, o: Window) {
        self.wall_s += o.wall_s;
        self.events += o.events;
        self.allocs += o.allocs;
        self.alloc_bytes += o.alloc_bytes;
        self.completed += o.completed;
        for (k, v) in o.counters {
            *self.counters.entry(k).or_default() += v;
        }
        self.plan_moves += o.plan_moves;
        self.plan_edge_cut_sum += o.plan_edge_cut_sum;
        self.lat_read.extend(o.lat_read);
        self.lat_write.extend(o.lat_write);
        self.lat_read.sort_unstable();
        self.lat_write.sort_unstable();
        self.attempted += o.attempted;
        self.outstanding_at_end += o.outstanding_at_end;
        self.next_ns += o.next_ns;
        self.next_calls += o.next_calls;
        self.stalls.extend(o.stalls);
        self.wall_us_per_cmd.extend(o.wall_us_per_cmd);
        self.fingerprints.extend(o.fingerprints);
        self.slices.push_str(&o.slices);
    }
}

fn counters<A: Application>(c: &Cluster<A>) -> BTreeMap<String, u64> {
    c.metrics().counters().map(|(n, v)| (n.to_string(), v)).collect()
}

fn series_total<A: Application>(c: &Cluster<A>, name: &str) -> f64 {
    c.metrics().series(name).map(|s| s.total()).unwrap_or(0.0)
}

fn delta(after: &BTreeMap<String, u64>, before: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0)))
        .filter(|(_, d)| *d > 0)
        .collect()
}

/// Longest interval of `[start, end]` without a completion.
fn max_stall(completions: &[u64], start: u64, end: u64) -> u64 {
    let mut stall = 0;
    let mut last = start;
    for &t in completions.iter().chain([&end]) {
        stall = stall.max(t - last);
        last = t;
    }
    stall
}

fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Runs one replica's window in slices, checking `cross` (time, events,
/// completed) when the clock passes it. `replica` tags the slice records.
fn measure<A: Application>(
    b: &mut Built<A>,
    layout: &Layout,
    traced: bool,
    cross: Option<(SimTime, u64, u64)>,
    replica: u64,
    report: &mut Report,
) -> Window {
    let c = &mut b.cluster;
    assert_eq!(c.sim.now(), layout.start(), "warm-up must end where the window starts");
    {
        let mut r = b.rec.borrow_mut();
        r.timing = traced;
        r.open();
    }
    let before = counters(c);
    let (moves0, cut0) = (series_total(c, mn::PLAN_MOVES), series_total(c, mn::PLAN_EDGE_CUT));
    let events0 = c.sim.events_processed();
    let (allocs0, bytes0) = alloc::snapshot();
    let mut w = Window::default();
    let mut prev = before.clone();
    while c.sim.now() < layout.end() {
        let from = c.sim.now();
        let step = SLICE.min(layout.end().saturating_duration_since(from));
        let (e0, (a0, b0)) = (c.sim.events_processed(), alloc::snapshot());
        let t0 = Instant::now();
        trace::span("runtime.run_for", || c.run_for(step));
        let dt = t0.elapsed().as_secs_f64();
        w.wall_s += dt;
        if let Some((at, events, completed)) = cross {
            if from < at && c.sim.now() >= at {
                let got = (c.sim.events_processed(), c.metrics().counter(mn::CMD_COMPLETED));
                report.check(c.sim.now() == at && got == (events, completed), || {
                    format!(
                        "cross-check at {} s: (events, completed) = {got:?}, expected ({events}, {completed})",
                        at.as_secs_f64()
                    )
                });
                report.notes.push(format!("cross-check at t={}s: {got:?} ok", at.as_secs_f64()));
            }
        }
        if traced {
            let now = counters(c);
            let (a1, b1) = alloc::snapshot();
            let mut deltas = String::new();
            for (k, v) in delta(&now, &prev) {
                let sep = if deltas.is_empty() { "" } else { "," };
                let _ = write!(deltas, "{sep}\"{k}\":{v}");
            }
            let _ = writeln!(
                w.slices,
                "{{\"replica\":{replica},\"sim_start_us\":{},\"sim_end_us\":{},\"wall_ns\":{},\
                 \"events\":{},\"allocs\":{},\"alloc_bytes\":{},\"counters\":{{{deltas}}}}}",
                from.as_micros(),
                c.sim.now().as_micros(),
                (dt * 1e9) as u64,
                c.sim.events_processed() - e0,
                a1 - a0,
                b1 - b0,
            );
            prev = now;
        }
    }
    let (allocs1, bytes1) = alloc::snapshot();
    w.events = c.sim.events_processed() - events0;
    w.allocs = allocs1 - allocs0;
    w.alloc_bytes = bytes1 - bytes0;
    w.counters = delta(&counters(c), &before);
    w.plan_moves = series_total(c, mn::PLAN_MOVES) - moves0;
    w.plan_edge_cut_sum = series_total(c, mn::PLAN_EDGE_CUT) - cut0;
    let mut r = b.rec.borrow_mut();
    r.close();
    r.timing = false;
    let completions = std::mem::take(&mut r.completions);
    w.completed = completions.len() as u64;
    w.stalls = vec![max_stall(&completions, layout.start().as_micros(), layout.end().as_micros())];
    w.fingerprints = vec![fnv(completions.iter().copied().chain([w.events]))];
    w.wall_us_per_cmd = vec![w.wall_s * 1e6 / w.completed.max(1) as f64];
    w.attempted = r.attempted();
    w.outstanding_at_end = r.outstanding;
    w.lat_read = std::mem::take(&mut r.lat_read);
    w.lat_write = std::mem::take(&mut r.lat_write);
    w.lat_read.sort_unstable();
    w.lat_write.sort_unstable();
    w.next_ns = r.next_ns;
    w.next_calls = r.next_calls;
    w
}

/// Stops the clients, runs until every command has completed and the
/// replicas' views converge, and checks them.
fn drain_and_check<A: Application>(b: &mut Built<A>, report: &mut Report) {
    b.rec.borrow_mut().stop = true;
    let k = b.cluster.config.partitions as usize;
    let deadline = b.cluster.sim.now() + MAX_DRAIN;
    let verdict = trace::span("checks.drain", || loop {
        b.cluster.run_for(SimDuration::from_millis(500));
        let views = trace::span("checks.location_views", || b.cluster.location_views());
        let verdict = check_views(&views, k);
        let idle = b.rec.borrow().outstanding == 0;
        if (verdict.is_ok() && idle) || b.cluster.sim.now() >= deadline {
            break verdict.and_then(|()| {
                if idle {
                    Ok(())
                } else {
                    Err("commands still outstanding after the drain".to_string())
                }
            });
        }
    });
    if let Err(e) = verdict {
        report.failures.push(format!("view agreement: {e}"));
    }
}

/// Window checks: no failed command, and the workload exercised (or
/// bypassed) the layers it was chosen for.
fn check_window(kind: Kind, w: &Window, crashes: u64, report: &mut Report) {
    let failed = w.counter(mn::CMD_FAILED);
    report.check(failed == 0, || format!("cmd.failed = {failed} in the window"));
    report.check(w.completed > 0, || "no command completed in the window".into());
    let plans = w.counter(mn::PLANS_PUBLISHED);
    let queries = w.counter(mn::ORACLE_QUERIES);
    match kind {
        Kind::Tpcc => report.check(plans == 0 && queries == 0, || {
            format!("tpcc must bypass the oracle: {plans} plans, {queries} queries")
        }),
        Kind::Social => report.check(plans >= 1 && w.plan_moves >= 1.0, || {
            format!("social needs a plan and a migrated key: {plans} plans, {} moves", w.plan_moves)
        }),
        Kind::Churn => {
            let recovered = w.counter(mn::RECOVERY_COMPLETIONS);
            report.check(crashes >= 1 && recovered >= 1, || {
                format!(
                    "churn needs a crash and a recovery: {crashes} crashes, {recovered} recoveries"
                )
            })
        }
    }
}

/// Compares a replica's schedule with earlier runs of the same
/// `(workload, seed, layout)` recorded in `dir`, then records it.
fn check_repeatable(
    kind: Kind,
    seed: u64,
    layout: &Layout,
    w: &Window,
    dir: &Path,
    report: &mut Report,
) {
    let key = format!(
        "build={:016x} {} seed={seed} window={}..{}us",
        build_id(),
        kind.name(),
        layout.start().as_micros(),
        layout.end().as_micros()
    );
    let value =
        format!("events={} completed={} hash={:016x}", w.events, w.completed, w.fingerprints[0]);
    let path = dir.join("fingerprints.txt");
    let known = std::fs::read_to_string(&path).unwrap_or_default();
    let earlier = known.lines().find_map(|l| l.strip_prefix(&format!("{key} ")));
    match earlier {
        Some(v) => {
            report.check(v == value, || format!("{key}: {value}, but an earlier run had {v}"))
        }
        None => {
            let line = format!("{key} {value}\n");
            if let Err(e) = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::OpenOptions::new().create(true).append(true).open(&path))
                .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()))
            {
                report
                    .notes
                    .push(format!("could not record fingerprint in {}: {e}", path.display()));
            }
        }
    }
}

/// Hash of this benchmark executable, so that fingerprints recorded by
/// another build (another program) are never compared.
fn build_id() -> u64 {
    static ID: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *ID.get_or_init(|| {
        let bytes = std::env::current_exe().and_then(std::fs::read).unwrap_or_default();
        fnv(bytes.chunks(8).map(|c| c.iter().fold(0u64, |h, &b| h << 8 | b as u64)))
    })
}

/// One replica's result.
struct Replica {
    setup_s: f64,
    window: Window,
    crashes: u64,
    initial_map: LocationView,
}

/// How much of the per-replica work a pass does.
#[derive(Clone, Copy, PartialEq)]
enum Pass {
    /// Untraced window, validity and drain checks.
    Checked,
    /// Untraced window only: the baseline the traced pass is compared to.
    Baseline,
    /// Traced window, validity and drain checks.
    Traced,
}

fn replica<A: Application>(
    build: impl FnOnce() -> Built<A>,
    kind: Kind,
    layout: &Layout,
    pass: Pass,
    cross: Option<(SimTime, u64, u64)>,
    index: u64,
    report: &mut Report,
) -> Replica {
    let t0 = Instant::now();
    let mut b = build();
    let setup_s = t0.elapsed().as_secs_f64();
    let traced = pass == Pass::Traced;
    let window =
        trace::span("bench.window", || measure(&mut b, layout, traced, cross, index, report));
    if pass != Pass::Baseline {
        check_window(kind, &window, b.crashes_in_window, report);
        drain_and_check(&mut b, report);
    }
    Replica {
        setup_s,
        window,
        crashes: b.crashes_in_window,
        initial_map: std::mem::take(&mut b.initial_map),
    }
}

/// Runs every replica of a run in `pass`, returning the merged window,
/// the per-replica set-up times, the crashes scheduled in the windows
/// and replica 0's initial placement.
fn run_pass(
    kind: Kind,
    seed: u64,
    layout: &Layout,
    pass: Pass,
    out_dir: &Path,
    report: &mut Report,
) -> (Window, Vec<f64>, u64, LocationView) {
    let mut total = Window::default();
    let mut setups = Vec::new();
    let mut crashes = 0;
    let mut initial_map = LocationView::new();
    for i in 0..layout.replicas {
        let s = replica_seed(seed, i);
        let cross = (kind == Kind::Tpcc && s == 1 && TPCC_CROSS_CHECK.0 <= layout.end())
            .then_some(TPCC_CROSS_CHECK);
        let r = match kind {
            Kind::Tpcc | Kind::Churn => {
                let build = || build_tpcc(s, kind == Kind::Churn, layout);
                replica(build, kind, layout, pass, cross, i, report)
            }
            Kind::Social => {
                replica(|| build_social(s, layout), kind, layout, pass, cross, i, report)
            }
        };
        if pass != Pass::Traced {
            check_repeatable(kind, s, layout, &r.window, out_dir, report);
        }
        if i == 0 {
            initial_map = r.initial_map;
        }
        setups.push(r.setup_s);
        crashes += r.crashes;
        total.merge(r.window);
    }
    (total, setups, crashes, initial_map)
}

fn end_to_end(w: &Window, layout: &Layout, setup_s: f64, report: &mut Report) {
    let lat = w.latencies();
    let mut stalls: Vec<f64> = w.stalls.iter().map(|&s| s as f64).collect();
    let errors = w.counter(mn::CMD_FAILED) + w.outstanding_at_end;
    let sim_s = layout.window.as_secs_f64() * layout.replicas as f64;
    report.set("throughput_cps", w.completed as f64 / sim_s);
    report.set("latency_p50_ms", quantile(&lat, 0.5) as f64 / 1e3);
    report.set("latency_p99_ms", quantile(&lat, tail_q(lat.len())) as f64 / 1e3);
    report.set("error_rate", errors as f64 / w.attempted.max(1) as f64);
    report.set("max_stall_ms", median(&mut stalls) / 1e3);
    report.set("wall_us_per_cmd", median(&mut w.wall_us_per_cmd.clone()));
    report.set("peak_rss_mb", alloc::peak_rss_mb().unwrap_or(0.0));
    report.set("setup_s", setup_s);
    report.notes.push(format!(
        "{} commands in {} replica windows; per replica: longest stall {:?} ms, wall {:?} us/cmd",
        w.completed,
        layout.replicas,
        w.stalls.iter().map(|&s| s as f64 / 1e3).collect::<Vec<_>>(),
        w.wall_us_per_cmd.iter().map(|&x| x.round()).collect::<Vec<_>>()
    ));
}

fn per_layer(w: &Window, layout: &Layout, report: &mut Report) {
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let c = |n: &str| w.counter(n) as f64;
    let plans = w.counter(mn::PLANS_PUBLISHED);
    let sim_s = layout.window.as_secs_f64() * layout.replicas as f64;
    report.set("runtime.events_per_cmd", w.per_cmd(w.events as f64));
    report.set("runtime.events_per_wall_s", w.events as f64 / w.wall_s);
    report.set("runtime.allocs_per_event", ratio(w.allocs, w.events));
    report.set("runtime.alloc_bytes_per_cmd", w.per_cmd(w.alloc_bytes as f64));
    report.set("runtime.wall_s_per_sim_s", w.wall_s / sim_s);
    report.set("runtime.net_retransmissions", c(mn::NET_RETRANSMISSIONS));
    report.set("runtime.net_dropped_sends", c(mn::NET_DROPPED_SENDS));
    report.set("paxos.leader_elections", c(mn::LEADER_ELECTIONS));
    report.set("client.retries_per_kcmd", w.per_cmd(1e3 * c(mn::CMD_RETRY)));
    report.set("client.timeouts", c(mn::CMD_TIMEOUT));
    report.set("client.backoffs", c(mn::CMD_RETRY_BACKOFF));
    report.set("oracle.queries_per_cmd", w.per_cmd(c(mn::ORACLE_QUERIES)));
    report.set("oracle.plans", plans as f64);
    report.set("oracle.plan_moves", w.plan_moves);
    let cut = if plans == 0 { 0.0 } else { w.plan_edge_cut_sum / plans as f64 };
    report.set("oracle.plan_edge_cut", cut);
    report.set("oracle.graph_evictions", c(mn::ORACLE_GRAPH_EVICTIONS));
    let (multi, single) = (w.counter(mn::CMD_MULTI), w.counter(mn::CMD_SINGLE));
    report.set("server.multi_partition_frac", ratio(multi, multi + single));
    report.set("server.objects_per_cmd", w.per_cmd(c(mn::OBJECTS_EXCHANGED)));
    report.set("server.migration_keys_staged", c(mn::MIGRATION_KEYS_STAGED));
    report.set("server.migration_chunk_retries", c(mn::MIGRATION_CHUNK_RETRIES));
    report.set("server.migration_reverts", c(mn::MIGRATION_REVERTS));
    report.set("server.migration_deferred", c(mn::MIGRATION_DEFERRED));
    report.set("cluster.recovery_completions", c(mn::RECOVERY_COMPLETIONS));
    report.set("cluster.recovery_snapshot_elements", c(mn::RECOVERY_SNAPSHOT_ELEMENTS));
    report.set("workloads.next_ns", ratio(w.next_ns, w.next_calls));
    let p99 = |xs: &[u64]| quantile(xs, tail_q(xs.len())) as f64 / 1e3;
    report.set("workloads.latency_p99_ms.read", p99(&w.lat_read));
    report.set("workloads.latency_p99_ms.write", p99(&w.lat_write));
}

/// The standalone layer timings; the partitioner runs on the workload's
/// own co-access graph, warm-started from its initial placement.
fn standalone_layers(kind: Kind, seed: u64, initial_map: &LocationView, report: &mut Report) {
    report.set("runtime.raw_events_per_s", layers::raw_events_per_s());
    let (us, msgs) = layers::paxos(20_000);
    report.set("paxos.us_per_decision", us);
    report.set("paxos.msgs_per_decision", msgs);
    report.set("amcast.us_per_delivery.1g", layers::amcast(5_000, 1).0);
    let (us, msgs) = layers::amcast(5_000, 2);
    report.set("amcast.us_per_delivery.2g", us);
    report.set("amcast.msgs_per_delivery.2g", msgs);

    let (tpcc_cost, tpcc_cmds) = layers::tpcc_execute(seed, 20_000);
    let (chirper_cost, chirper_cmds) =
        layers::chirper_execute(workloads::social_graph().0, seed, 4_000);
    for (name, cost) in [
        ("workloads.execute_us.new_order", &tpcc_cost),
        ("workloads.execute_us.payment", &tpcc_cost),
        ("workloads.execute_us.order_status", &tpcc_cost),
        ("workloads.execute_us.delivery", &tpcc_cost),
        ("workloads.execute_us.stock_level", &tpcc_cost),
        ("workloads.execute_us.get_timeline", &chirper_cost),
        ("workloads.execute_us.post", &chirper_cost),
    ] {
        let op = name.rsplit('.').next().unwrap_or_default();
        let v = cost.get(op).copied();
        report.check(v.is_some(), || format!("no {op} operation was generated"));
        report.set(name, v.unwrap_or(0.0));
    }

    let (keys, prev): (Vec<u64>, Vec<u32>) = initial_map.iter().copied().unzip();
    let g = match kind {
        Kind::Social => layers::coaccess_graph::<Chirper>(&keys, &chirper_cmds),
        Kind::Tpcc | Kind::Churn => layers::coaccess_graph::<Tpcc>(&keys, &tpcc_cmds),
    };
    let (full_ms, warm_ms, cut) = layers::partitioner(&g, workloads::PARTITIONS, &prev);
    report.set("partitioner.full_ms", full_ms);
    report.set("partitioner.warm_ms", warm_ms);
    report.set("partitioner.edge_cut_frac", cut);
}

/// Runs one workload and reports on it.
pub fn run(kind: Kind, seed: u64, seconds: u64, traced: bool, out_dir: &Path) -> Report {
    let layout = workloads::layout(kind, seconds);
    let mut report = Report::default();
    report.notes.push(format!(
        "{}: seed {seed}, {} replicas, warm-up {} s, window {} s of sim time each",
        kind.name(),
        layout.replicas,
        layout.warmup.as_secs_f64(),
        layout.window.as_secs_f64()
    ));

    if !traced {
        let (w, mut setups, _, _) =
            run_pass(kind, seed, &layout, Pass::Checked, out_dir, &mut report);
        end_to_end(&w, &layout, median(&mut setups), &mut report);
        report.attempted = w.attempted;
        report.failed = w.counter(mn::CMD_FAILED);
        return report;
    }

    let (plain, _, _, _) = run_pass(kind, seed, &layout, Pass::Baseline, out_dir, &mut report);
    trace::enable(true);
    alloc::arm(true);
    let (w, _, crashes, initial_map) = trace::span("bench.traced_run", || {
        run_pass(kind, seed, &layout, Pass::Traced, out_dir, &mut report)
    });
    alloc::arm(false);
    report.check(w.fingerprints == plain.fingerprints, || {
        format!(
            "traced and untraced windows differ: events {} vs {}, completed {} vs {}",
            w.events, plain.events, w.completed, plain.completed
        )
    });
    per_layer(&w, &layout, &mut report);
    report.set("cluster.crashes", crashes as f64);
    standalone_layers(kind, seed, &initial_map, &mut report);
    trace::enable(false);
    let spans = trace::take();
    report.set("trace.overhead_frac", w.wall_us_per_cmd() / plain.wall_us_per_cmd() - 1.0);
    report.set("trace.spans", spans.len() as f64);
    for (name, count, total, own) in trace::self_times(&spans) {
        report.notes.push(format!(
            "span {name:<32} n={count:<7} total={:>10.3} ms self={:>10.3} ms",
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
    let run_id = format!("{}-{seed}-{}", kind.name(), std::process::id());
    let base = out_dir.join(format!("{}-seed{seed}", kind.name()));
    let written = std::fs::create_dir_all(out_dir)
        .and_then(|()| {
            std::fs::write(base.with_extension("spans.jsonl"), trace::render(&run_id, &spans))
        })
        .and_then(|()| std::fs::write(base.with_extension("slices.jsonl"), &w.slices));
    match written {
        Ok(()) => {
            report.notes.push(format!("trace written to {}.{{spans,slices}}.jsonl", base.display()))
        }
        Err(e) => report.failures.push(format!("writing the trace to {}: {e}", out_dir.display())),
    }
    report.attempted = w.attempted;
    report.failed = w.counter(mn::CMD_FAILED);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};

    /// Runs `kind` untraced and traced at the smoke length, `--seconds 1`,
    /// and checks that every check passes and every metric is reported.
    fn smoke(kind: Kind) -> Vec<String> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/selftest");
        let mut notes = Vec::new();
        for traced in [false, true] {
            let mut r = run(kind, 1, 1, traced, &dir);
            r.finish(traced);
            assert!(r.failures.is_empty(), "{} traced={traced}: {:?}", kind.name(), r.failures);
            let names: Vec<&str> = r.metrics.iter().map(|(n, _)| *n).collect();
            let list = if traced { PER_LAYER } else { END_TO_END };
            assert_eq!(names.len(), list.len());
            assert!(r.attempted > 0);
            notes.extend(r.notes);
        }
        notes
    }

    #[test]
    fn tpcc_smoke_passes_checks_and_cross_check() {
        let notes = smoke(Kind::Tpcc);
        assert!(notes.iter().any(|n| n.starts_with("cross-check at t=10s")), "{notes:?}");
    }

    #[test]
    fn social_smoke_passes_checks() {
        smoke(Kind::Social);
    }

    #[test]
    fn churn_smoke_passes_checks() {
        smoke(Kind::Churn);
    }

    /// Reproduces the program's divergence after a crash wave during
    /// staged migration: partition 2's recovered replica keeps keys the
    /// other two gave away. `churn` stays out of `BENCHMARK.json` until
    /// this passes; run it with `--ignored`.
    #[test]
    #[ignore = "fails: replicas diverge after recovery during staged migration"]
    fn churn_seed_30_replicas_agree_after_recovery() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/selftest");
        let r = run(Kind::Churn, 30, 5, false, &dir);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
    }

    #[test]
    fn stall_covers_both_window_edges() {
        assert_eq!(max_stall(&[], 10, 50), 40);
        assert_eq!(max_stall(&[12, 20, 45], 10, 50), 25);
        assert_eq!(max_stall(&[30], 10, 31), 20);
    }
}
