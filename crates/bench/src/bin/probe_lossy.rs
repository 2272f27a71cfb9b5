//! Diagnostic probe for the lossy-network scenario (not a paper
//! experiment): prints counters every 10 simulated seconds.
//!
//! `probe_lossy [--out FILE]` additionally writes the final counters —
//! including the transport's `dropped_sends` and FIFO reorder-drop
//! tallies — as flat JSON, so lossy-fabric runs are comparable across
//! revisions.
use dynastar_bench::args;
use dynastar_bench::record::{Obj, Record};
use dynastar_bench::scenarios::Load;
use dynastar_core::metric_names as mn;
use dynastar_runtime::{LatencyModel, NetConfig, SimDuration};

fn main() {
    args::run("usage: probe_lossy [--out FILE]", &["out"], &[], |a| {
        run(a.get("out"));
        Ok(())
    })
}

fn run(out: Option<&str>) {
    let net = NetConfig::default()
        .latency(LatencyModel::Uniform {
            min: SimDuration::from_micros(200),
            max: SimDuration::from_micros(900),
        })
        .loss_probability(0.02);
    let (mut cluster, completed) = Load::cluster(5, 3, 40, |c| c.net = net);
    for slice in 0..12 {
        cluster.run_for(SimDuration::from_secs(10));
        let m = cluster.metrics();
        println!(
            "t={:>3}s done={:>3} retries={} timeouts={} oracle_q={} single={} multi={}",
            (slice + 1) * 10,
            *completed.lock().unwrap(),
            m.counter(mn::CMD_RETRY),
            m.counter(mn::CMD_TIMEOUT),
            m.counter(mn::ORACLE_QUERIES),
            m.counter(mn::CMD_SINGLE),
            m.counter(mn::CMD_MULTI),
        );
    }

    if let Some(path) = out {
        // The transport counters make lossy-fabric runs comparable across
        // revisions.
        let m = cluster.metrics();
        let summary = Obj::new()
            .raw("completed", *completed.lock().unwrap())
            .raw("retries", m.counter(mn::CMD_RETRY))
            .raw("timeouts", m.counter(mn::CMD_TIMEOUT))
            .raw("oracle_queries", m.counter(mn::ORACLE_QUERIES))
            .raw("dropped_sends", m.counter(mn::NET_DROPPED_SENDS))
            .raw("fifo_drops", m.counter(mn::NET_FIFO_DROPS))
            .raw("retransmissions", m.counter(mn::NET_RETRANSMISSIONS))
            .raw("frames_abandoned", m.counter(mn::NET_FRAMES_ABANDONED));
        Record { summary, ..Record::default() }.write(path);
    }
}
