//! Diagnostic probe for the crash-recovery nemesis (not a paper
//! experiment): runs a seeded randomized fault schedule — crashes,
//! restarts, disconnects, reconnects, at most one faulty replica per
//! group at a time — against a Dynastar cluster and reports the fault,
//! recovery and transport counters. The schedule and the run are fully
//! deterministic: `probe_nemesis [cluster_seed] [nemesis_seed]` prints
//! identical output on every invocation with the same seeds.
use dynastar_bench::scenarios::Load;
use dynastar_core::metric_names as mn;
use dynastar_core::ExecConfig;
use dynastar_runtime::nemesis::{FaultKind, NemesisConfig, NemesisPlan};
use dynastar_runtime::{SimDuration, SimTime};

fn seed_arg(arg: Option<String>) -> u64 {
    match arg {
        None => 7,
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("error: seed {s:?} is not a u64");
            eprintln!("usage: probe_nemesis [cluster_seed] [nemesis_seed]");
            std::process::exit(2);
        }),
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let cluster_seed = seed_arg(args.next());
    let nemesis_seed = seed_arg(args.next());

    // Modelled per-command CPU keeps traffic in flight while the fault
    // schedule runs, so faults land on a busy cluster.
    let (mut cluster, completed) = Load::cluster(cluster_seed, 4, 60, |c| {
        c.exec = ExecConfig::serial(SimDuration::from_millis(200));
    });

    let cfg = NemesisConfig {
        seed: nemesis_seed,
        start: SimTime::from_secs(2),
        end: SimTime::from_secs(45),
        mean_interval: SimDuration::from_secs(6),
        min_downtime: SimDuration::from_millis(400),
        max_downtime: SimDuration::from_secs(3),
        grace: SimDuration::from_secs(3),
        crash_pct: 50,
        ..NemesisConfig::default()
    };
    let plan = NemesisPlan::generate(&cfg, cluster.groups());
    println!(
        "nemesis schedule: seed={} faults={} ({} crash/restart, {} disconnect/reconnect)",
        nemesis_seed,
        plan.events.len(),
        plan.crash_count(),
        plan.disconnect_count(),
    );
    for e in &plan.events {
        let kind = match e.kind {
            FaultKind::Crash => "crash     ",
            FaultKind::Disconnect => "disconnect",
        };
        println!(
            "  {:>7.3}s {} node {:?} (repair at {:>7.3}s)",
            e.at.as_micros() as f64 / 1e6,
            kind,
            e.node,
            e.repair_at.as_micros() as f64 / 1e6,
        );
    }
    plan.apply(&mut cluster.sim);
    cluster.sim.metrics_mut().incr_counter(mn::FAULT_CRASHES, plan.crash_count());
    cluster.sim.metrics_mut().incr_counter(mn::FAULT_RESTARTS, plan.crash_count());
    cluster.sim.metrics_mut().incr_counter(mn::FAULT_DISCONNECTS, plan.disconnect_count());
    cluster.sim.metrics_mut().incr_counter(mn::FAULT_RECONNECTS, plan.disconnect_count());

    for slice in 0..10 {
        cluster.run_for(SimDuration::from_secs(10));
        let m = cluster.metrics();
        println!(
            "t={:>3}s done={:>3} retries={} timeouts={} recoveries={} elections={} retx={} resets={} abandoned={}",
            (slice + 1) * 10,
            *completed.lock().unwrap(),
            m.counter(mn::CMD_RETRY),
            m.counter(mn::CMD_TIMEOUT),
            m.counter(mn::RECOVERY_COMPLETIONS),
            m.counter(mn::LEADER_ELECTIONS),
            m.counter(mn::NET_RETRANSMISSIONS),
            m.counter(mn::NET_STREAM_RESETS),
            m.counter(mn::NET_FRAMES_ABANDONED),
        );
    }

    let m = cluster.metrics();
    println!("\nfault/recovery report");
    println!(
        "  faults injected:    {} crashes, {} disconnects",
        m.counter(mn::FAULT_CRASHES),
        m.counter(mn::FAULT_DISCONNECTS)
    );
    println!(
        "  repairs scheduled:  {} restarts, {} reconnects",
        m.counter(mn::FAULT_RESTARTS),
        m.counter(mn::FAULT_RECONNECTS)
    );
    println!(
        "  recoveries:         {} completed from {} donated snapshots ({} elements)",
        m.counter(mn::RECOVERY_COMPLETIONS),
        m.counter(mn::RECOVERY_SNAPSHOTS),
        m.counter(mn::RECOVERY_SNAPSHOT_ELEMENTS)
    );
    println!("  leader elections:   {}", m.counter(mn::LEADER_ELECTIONS));
    println!(
        "  transport:          {} retransmissions, {} stream resets, {} frames abandoned",
        m.counter(mn::NET_RETRANSMISSIONS),
        m.counter(mn::NET_STREAM_RESETS),
        m.counter(mn::NET_FRAMES_ABANDONED)
    );
    println!("  commands completed: {}", *completed.lock().unwrap());
}
