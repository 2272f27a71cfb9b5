//! `dynastar` — run DynaStar simulation scenarios from the command line.
//!
//! ```text
//! dynastar chirper  --partitions 4 --mode dynastar --users 2000 --clients 8 --secs 60
//! dynastar tpcc     --partitions 4 --mode ssmr     --clients 8 --secs 60
//! dynastar scenario --name flash_crowd --staged on --secs 30
//! ```
//!
//! Modes: `dynastar` (default), `ssmr` (S-SMR\* with optimized static
//! placement), `dssmr`. All runs are deterministic in `--seed`.

#![forbid(unsafe_code)]

use std::sync::Arc;

use dynastar_bench::args::{self, Args};
use dynastar_bench::scenarios::{self, Params, Policy, SCENARIOS};
use dynastar_bench::setup::{chirper_cluster, tpcc_cluster, ChirperSetup, Placement, TpccSetup};
use dynastar_core::metric_names as mn;
use dynastar_core::{BatchConfig, ClusterConfig, ExecConfig, Mode};
use dynastar_runtime::{Metrics, SimDuration};
use dynastar_workloads::chirper::{ChirperMix, ChirperWorkload};
use dynastar_workloads::tpcc::{self, TpccWorkload};

const USAGE: &str = "\
usage: dynastar <chirper|tpcc|scenario> [flags]

common flags:
  --mode <dynastar|ssmr|dssmr>   replication scheme        [dynastar]
  --partitions <k>               number of partitions      [4]
  --clients <n>                  closed-loop clients       [8]
  --secs <s>                     simulated seconds to run  [60]
  --seed <n>                     master seed               [1]
  --max-batch <n>                commands per ordering batch  [1]
  --batch-delay <ms>             max wait to fill a batch     [0]
  --window <n>                   in-flight consensus instances per
                                 leader (0 = unbounded)       [0]
  --warm-plans <on|off>          oracle warm-start (incremental)
                                 repartitioning               [on]
  --warm-ratio <f>               warm-plan quality gate: accept while the
                                 warm cut stays within f x the last full
                                 multilevel cut               [1.1]
  --exec-workers <n>             modelled parallel execution workers per
                                 replica (conflict-aware P-SMR scheduler;
                                 1 = serial)                  [1]

chirper flags:
  --users <n>                    social graph size         [2000]
  --attach <m>                   Barabási–Albert attachment degree
                                 (follows per user)        [6]
  --posts <pct>                  post percentage (rest timeline) [15]
  --oracle-shards <o>            hash-sliced oracle shard groups
                                 (shard 0 plans; see DESIGN.md §7) [1]
  --cache <on|off>               client location caching; off sends
                                 every command through the oracle  [on]

tpcc flags:
  --warehouses <n>               warehouses (default = partitions)

scenario flags (adversarial robustness suite; always mode dynastar):
  --name <s>                     flash_crowd|diurnal|zipf_ramp|churn|
                                 chained_move|all                        [all]
  --staged <on|off>              chunked rate-limited state migration    [on]
  --users <n>                    social graph size (flash_crowd/churn)   [400]
  --domain <n>                   counters keyspace (diurnal/zipf_ramp/
                                 chained_move)                           [200]
  --waves <n>                    churn crash-restart waves               [2]
  --inflight-cap <n>             staged transfers in flight per
                                 source->destination link (0 = no cap)   [4]
";

/// Every valued flag any subcommand accepts.
const FLAGS: &[&str] = &[
    "mode",
    "partitions",
    "clients",
    "secs",
    "seed",
    "max-batch",
    "batch-delay",
    "window",
    "warm-plans",
    "warm-ratio",
    "exec-workers",
    "users",
    "attach",
    "posts",
    "oracle-shards",
    "cache",
    "warehouses",
    "name",
    "staged",
    "domain",
    "waves",
    "inflight-cap",
];

/// Applies the flags `chirper` and `tpcc` share to `cluster`. The
/// cluster tick is 1 ms, so `--batch-delay` in milliseconds maps 1:1
/// onto delay ticks.
fn apply_common(a: &Args, cluster: &mut ClusterConfig) -> Result<(), String> {
    cluster.seed = a.num_or("seed", 1)?;
    let max_batch: usize = a.num_or("max-batch", 1)?;
    if max_batch == 0 {
        return Err("--max-batch must be at least 1".into());
    }
    cluster.batch = BatchConfig {
        max_batch,
        max_batch_delay_ticks: a.num_or("batch-delay", 0)?,
        window: a.num_or("window", 0)?,
    };
    cluster.warm_plans = a.on_off("warm-plans", true)?;
    cluster.warm_quality_ratio = a.num_or("warm-ratio", 1.1)?;
    if cluster.warm_quality_ratio < 1.0 {
        return Err("--warm-ratio must be >= 1.0".into());
    }
    cluster.exec = ExecConfig::pool(a.num_or("exec-workers", 1)?, cluster.exec.service_time);
    Ok(())
}

fn print_summary(metrics: &Metrics, secs: u64) {
    let done = metrics.counter(mn::CMD_COMPLETED);
    let multi = metrics.counter(mn::CMD_MULTI);
    let single = metrics.counter(mn::CMD_SINGLE);
    println!("commands completed : {done} ({:.0}/s)", done as f64 / secs as f64);
    println!(
        "multi-partition    : {multi} ({:.1}%)",
        100.0 * multi as f64 / (multi + single).max(1) as f64
    );
    println!("objects exchanged  : {}", metrics.counter(mn::OBJECTS_EXCHANGED));
    println!("client retries     : {}", metrics.counter(mn::CMD_RETRY));
    println!("oracle queries     : {}", metrics.counter(mn::ORACLE_QUERIES));
    let plans = metrics.counter(mn::PLANS_PUBLISHED);
    println!("repartitionings    : {plans}");
    if plans > 0 {
        println!("  warm-start plans : {}", metrics.counter(mn::PLANS_WARM));
    }
    let batches = metrics.counter(mn::BATCH_FLUSH_FULL) + metrics.counter(mn::BATCH_FLUSH_DELAY);
    if batches > 0 {
        println!(
            "ordering batches   : {batches} (mean {:.1} cmds/batch)",
            metrics.counter(mn::BATCH_COMMANDS) as f64 / batches as f64
        );
    }
    if let Some(h) = metrics.histogram(mn::CMD_LATENCY) {
        println!(
            "latency            : mean {}  p50 {}  p95 {}  p99 {}",
            h.mean(),
            h.quantile(0.5),
            h.quantile(0.95),
            h.quantile(0.99)
        );
    }
}

fn run_chirper(a: &Args) -> Result<(), String> {
    let mode = a.mode_or("mode", Mode::Dynastar)?;
    let partitions: u32 = a.num_or("partitions", 4)?;
    let clients: usize = a.num_or("clients", 8)?;
    let secs: u64 = a.num_or("secs", 60)?;
    let users: usize = a.num_or("users", 2000)?;
    let posts: u32 = a.num_or("posts", 15)?;
    if posts > 100 {
        return Err("--posts must be <= 100".into());
    }
    let oracle_shards: u32 = a.num_or("oracle-shards", 1)?;
    if oracle_shards == 0 {
        return Err("--oracle-shards must be at least 1".into());
    }

    let mut setup = ChirperSetup::new(partitions, mode);
    setup.users = users;
    setup.follows_per_user = a.num_or("attach", 6)?;
    apply_common(a, &mut setup.cluster)?;
    setup.cluster.oracle_shards = oracle_shards;
    setup.cluster.client_location_cache = a.on_off("cache", true)?;
    let (mut cluster, graph) = chirper_cluster(&setup);
    let mix = ChirperMix { timeline: 100 - posts, post: posts, follow: 0, unfollow: 0 };
    for _ in 0..clients {
        cluster.add_client(ChirperWorkload::new(Arc::clone(&graph), 0.95, mix));
    }
    eprintln!(
        "chirper: {users} users, {partitions} partitions, mode {mode}, {clients} clients, {secs}s..."
    );
    cluster.run_for(SimDuration::from_secs(secs));
    print_summary(cluster.metrics(), secs);
    Ok(())
}

fn run_tpcc(a: &Args) -> Result<(), String> {
    let mode = a.mode_or("mode", Mode::Dynastar)?;
    let partitions: u32 = a.num_or("partitions", 4)?;
    let clients: usize = a.num_or("clients", 8)?;
    let secs: u64 = a.num_or("secs", 60)?;

    let mut setup = TpccSetup::new(partitions, mode);
    setup.scale.warehouses = a.num_or("warehouses", partitions)?;
    apply_common(a, &mut setup.cluster)?;
    if mode == Mode::Dynastar && a.has("warehouses") {
        setup.placement = Placement::Random; // interesting starting point
    }
    let mut cluster = tpcc_cluster(&setup);
    let tracker = tpcc::order_tracker();
    for i in 0..clients {
        let w = (i as u32) % setup.scale.warehouses;
        cluster.add_client(TpccWorkload::new(setup.scale, w, Arc::clone(&tracker)));
    }
    eprintln!(
        "tpcc: {} warehouses, {partitions} partitions, mode {mode}, {clients} clients, {secs}s...",
        setup.scale.warehouses
    );
    cluster.run_for(SimDuration::from_secs(secs));
    print_summary(cluster.metrics(), secs);
    Ok(())
}

fn print_scenario_summary(name: &str, m: &Metrics, policy: Policy, secs: u64) {
    println!("--- {name} ({}) ---", policy.name());
    print_summary(m, secs);
    println!("client errors      : {}", m.counter(mn::CMD_FAILED));
    println!("retry backoffs     : {}", m.counter(mn::CMD_RETRY_BACKOFF));
    if policy == Policy::Staged {
        println!(
            "staged migration   : {} keys, {} chunks ({} retried), {} reverts",
            m.counter(mn::MIGRATION_KEYS_STAGED),
            m.counter(mn::MIGRATION_CHUNKS_SENT),
            m.counter(mn::MIGRATION_CHUNK_RETRIES),
            m.counter(mn::MIGRATION_REVERTS),
        );
        println!(
            "link scheduler     : {} deferred, {} released",
            m.counter(mn::MIGRATION_DEFERRED),
            m.counter(mn::MIGRATION_RELEASED),
        );
    }
}

/// Runs the shared scenario suite with fig9's `--smoke` sizes as
/// defaults, except that the plan interval follows `--secs` (a fifth of
/// the run).
fn run_scenario(a: &Args) -> Result<(), String> {
    let name = a.str_or("name", "all");
    let mut p = Params::new(true);
    p.partitions = a.num_or("partitions", p.partitions)?;
    p.clients = a.num_or("clients", p.clients)?;
    p.secs = a.num_or("secs", p.secs)?;
    p.seed = a.num_or("seed", p.seed)?;
    p.users = a.num_or("users", p.users)?;
    p.domain = a.num_or("domain", p.domain)?;
    p.waves = a.num_or("waves", p.waves)?;
    p.inflight_cap = a.num_or("inflight-cap", p.inflight_cap)?;
    p.plan_interval = SimDuration::from_secs((p.secs / 5).max(1));
    let policy = if a.on_off("staged", true)? { Policy::Staged } else { Policy::Stall };
    let selected: Vec<&str> = match name.as_str() {
        "all" => SCENARIOS.to_vec(),
        one if SCENARIOS.contains(&one) => vec![one],
        other => {
            return Err(format!(
                "unknown scenario {other:?} \
                 (flash_crowd|diurnal|zipf_ramp|churn|chained_move|all)"
            ))
        }
    };
    for s in selected {
        // `chained_move` needs a partition outside the browned-out pair.
        let parts = if s == "chained_move" { p.partitions.max(3) } else { p.partitions };
        eprintln!(
            "scenario {s}: {} partitions, {} clients, {}s, staged={}...",
            parts,
            p.clients,
            p.secs,
            policy == Policy::Staged
        );
        let m = scenarios::run(s, policy, &p);
        print_scenario_summary(s, &m, policy, p.secs);
    }
    Ok(())
}

fn main() {
    let parsed =
        Args::parse(std::env::args().skip(1), FLAGS, &[]).unwrap_or_else(|e| args::fail(USAGE, &e));
    let result = match parsed.command.as_deref() {
        Some("chirper") => run_chirper(&parsed),
        Some("tpcc") => run_tpcc(&parsed),
        Some("scenario") => run_scenario(&parsed),
        Some(other) => Err(format!("unknown command {other:?}")),
        None => Err("missing command".to_string()),
    };
    if let Err(e) = result {
        args::fail(USAGE, &e)
    }
}
