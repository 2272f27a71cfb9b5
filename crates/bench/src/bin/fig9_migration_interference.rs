//! Figure 9 (robustness suite): migration interference under adversarial
//! workloads.
//!
//! Every scenario runs twice in the same process with identical seeds:
//!
//! * **staged** — chunked, rate-limited migration with per-chunk ack
//!   timeouts and exponential backoff, plus client retry backpressure;
//! * **stall** — the classic single-shipment path under the *same*
//!   bandwidth model, so a plan's whole transfer charges the source
//!   replica's CPU/NIC at once (the unthrottled baseline).
//!
//! The interesting number is the foreground-throughput **dip**: how far the
//! worst post-warmup second falls below the run's median. Staged migration
//! should bound the dip; the stall baseline pays it all at once. The five
//! scenarios live in [`dynastar_bench::scenarios`], which `dynastar
//! scenario` runs too.
//!
//! Flags, following `fig7_partitioner_scaling`:
//!
//! * `--smoke`          small sizes / short runs (CI workload);
//! * `--scenario NAME`  run one scenario instead of all five;
//! * `--out FILE`       write the machine-readable JSON run record;
//! * `--gate-errors`    exit 1 if any run saw a client-visible command
//!   error (`cmd.failed` — stale routing must retry, never surface).

use dynastar_bench::args;
use dynastar_bench::record::{Obj, Record};
use dynastar_bench::report::print_table;
use dynastar_bench::scenarios::{self, Params, Policy, SCENARIOS};
use dynastar_bench::setup::run_parallel;
use dynastar_core::metric_names as mn;
use dynastar_runtime::Metrics;

const USAGE: &str = "\
usage: fig9_migration_interference [--smoke] [--scenario NAME] [--out FILE] [--gate-errors]

  --smoke          small sizes / short runs (CI gate workload)
  --scenario NAME  one of flash_crowd|diurnal|zipf_ramp|churn|chained_move (default: all)
  --out FILE       write the machine-readable JSON run record
  --gate-errors    exit 1 if any run surfaced a client-visible command error";

/// One (scenario, policy) run: its metrics and throughput dip.
struct RunResult {
    scenario: &'static str,
    policy: &'static str,
    m: Metrics,
    median_tput: f64,
    worst_tput: f64,
    dip_pct: f64,
}

impl RunResult {
    /// Summarizes a finished run's metrics: the per-second completed
    /// series gives the dip (worst post-warmup second vs the median); the
    /// counters tell the migration story.
    fn new(scenario: &'static str, policy: Policy, m: Metrics, p: &Params) -> Self {
        let series = m.series(mn::CMD_COMPLETED).map(|s| s.rates_per_sec()).unwrap_or_default();
        // Drop the trailing (possibly partial) second and the warmup.
        let end = series.len().saturating_sub(1);
        let window: &[f64] = if end > p.warmup { &series[p.warmup..end] } else { &series[..end] };
        let mut sorted = window.to_vec();
        sorted.sort_by(f64::total_cmp);
        let median = sorted.get(sorted.len() / 2).copied().unwrap_or(0.0);
        let worst = sorted.first().copied().unwrap_or(0.0);
        let dip_pct = if median > 0.0 { (100.0 * (1.0 - worst / median)).max(0.0) } else { 0.0 };
        RunResult {
            scenario,
            policy: policy.name(),
            m,
            median_tput: median,
            worst_tput: worst,
            dip_pct,
        }
    }

    fn errors(&self) -> u64 {
        self.m.counter(mn::CMD_FAILED)
    }

    /// The run's line in the JSON record.
    fn row(&self) -> Obj {
        let c = |name| self.m.counter(name);
        Obj::new()
            .text("scenario", self.scenario)
            .text("policy", self.policy)
            .raw("completed", c(mn::CMD_COMPLETED))
            .raw("errors", c(mn::CMD_FAILED))
            .raw("retries", c(mn::CMD_RETRY))
            .raw("backoffs", c(mn::CMD_RETRY_BACKOFF))
            .raw("plans", c(mn::PLANS_PUBLISHED))
            .raw("keys_staged", c(mn::MIGRATION_KEYS_STAGED))
            .raw("chunks_sent", c(mn::MIGRATION_CHUNKS_SENT))
            .raw("chunk_retries", c(mn::MIGRATION_CHUNK_RETRIES))
            .raw("reverts", c(mn::MIGRATION_REVERTS))
            .raw("deferred", c(mn::MIGRATION_DEFERRED))
            .raw("released", c(mn::MIGRATION_RELEASED))
            .num("median_tput", self.median_tput, 1)
            .num("worst_tput", self.worst_tput, 1)
            .num("dip_pct", self.dip_pct, 1)
    }
}

fn main() {
    args::run(USAGE, &["scenario", "out"], &["smoke", "gate-errors"], |a| {
        let scenarios: Vec<&'static str> = match a.get("scenario") {
            None => SCENARIOS.to_vec(),
            Some(name) => match SCENARIOS.iter().find(|s| **s == name) {
                Some(s) => vec![*s],
                None => return Err(format!("unknown scenario {name:?}")),
            },
        };
        run(&scenarios, a.has("smoke"), a.get("out"), a.has("gate-errors"));
        Ok(())
    })
}

fn run(scenarios: &[&'static str], smoke: bool, out: Option<&str>, gate_errors: bool) {
    let p = Params::new(smoke);
    eprintln!(
        "fig9: {} scenario(s) x {{staged, stall}}, {}s each{}...",
        scenarios.len(),
        p.secs,
        if smoke { " (smoke)" } else { "" }
    );
    let jobs: Vec<(&'static str, Policy)> =
        scenarios.iter().flat_map(|s| [(*s, Policy::Staged), (*s, Policy::Stall)]).collect();
    let results =
        run_parallel(jobs, 0, |(s, pol)| RunResult::new(s, pol, scenarios::run(s, pol, &p), &p));

    println!("\nFigure 9 — migration interference under adversarial scenarios");
    println!("(dip = how far the worst post-warmup second falls below the median)\n");
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            let c = |name| format!("{}", r.m.counter(name));
            vec![
                r.scenario.to_string(),
                r.policy.to_string(),
                c(mn::CMD_COMPLETED),
                format!("{:.0}", r.median_tput),
                format!("{:.0}", r.worst_tput),
                format!("{:.1}", r.dip_pct),
                c(mn::CMD_FAILED),
                c(mn::CMD_RETRY),
                c(mn::MIGRATION_KEYS_STAGED),
                c(mn::MIGRATION_CHUNK_RETRIES),
                c(mn::MIGRATION_REVERTS),
                c(mn::MIGRATION_DEFERRED),
                c(mn::PLANS_PUBLISHED),
            ]
        })
        .collect();
    print_table(
        &[
            "scenario",
            "policy",
            "done",
            "med/s",
            "worst/s",
            "dip%",
            "errors",
            "retries",
            "staged",
            "chunk-rtx",
            "reverts",
            "defer",
            "plans",
        ],
        &rows,
    );
    for s in scenarios {
        let staged = results.iter().find(|r| r.scenario == *s && r.policy == "staged");
        let stall = results.iter().find(|r| r.scenario == *s && r.policy == "stall");
        if let (Some(a), Some(b)) = (staged, stall) {
            println!("{:<12} staged dip {:>5.1}%  vs  stall dip {:>5.1}%", s, a.dip_pct, b.dip_pct);
        }
    }

    let errors: u64 = results.iter().map(RunResult::errors).sum();
    if let Some(path) = out {
        let mut rec = Record::new("runs", results.iter().map(RunResult::row).collect());
        rec.summary = Obj::new().raw("total_errors", errors);
        rec.write(path);
    }
    if gate_errors {
        if errors > 0 {
            eprintln!("migration gate FAILED: {errors} client-visible command error(s)");
            std::process::exit(1);
        }
        println!("migration gate passed: zero client-visible errors");
    }
}
