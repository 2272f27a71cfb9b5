//! Figure 3: TPC-C performance scalability.
//!
//! Peak throughput of DynaStar vs S-SMR\* as partitions grow (1 to 16),
//! with the state growing alongside (one warehouse per partition), exactly
//! as in §6.3. S-SMR\* gets the warehouse-aligned static placement;
//! DynaStar starts aligned too but keeps its dynamic machinery (hints,
//! oracle) running.
//!
//! The paper's shape: both scale with partitions; DynaStar tracks the
//! idealized S-SMR\* closely.
//!
//! Flags:
//!
//! * `--max-parts N` sweeps partitions `[1, 2, 4, 8, 16]` up to `N`
//!   (default 4, the quick default; 16 is the paper scale);
//! * `--smoke` shortens warmup/measure so CI finishes fast;
//! * `--out FILE` writes machine-readable JSON (one line per point).

use std::sync::Arc;

use dynastar_bench::args;
use dynastar_bench::record::{Obj, Record};
use dynastar_bench::report::print_table;
use dynastar_bench::setup::{tpcc_cluster, TpccSetup};
use dynastar_core::metric_names as mn;
use dynastar_core::Mode;
use dynastar_runtime::SimDuration;
use dynastar_workloads::tpcc::{self, TpccWorkload};

const CLIENTS_PER_WAREHOUSE: u32 = 3;

fn peak_tput(partitions: u32, mode: Mode, warmup: u64, measure: u64) -> f64 {
    let setup = TpccSetup::new(partitions, mode);
    let mut cluster = tpcc_cluster(&setup);
    let tracker = tpcc::order_tracker();
    for w in 0..setup.scale.warehouses {
        for _ in 0..CLIENTS_PER_WAREHOUSE {
            cluster.add_client(TpccWorkload::new(setup.scale, w, Arc::clone(&tracker)));
        }
    }
    cluster.run_for(SimDuration::from_secs(warmup));
    cluster.metrics_mut().reset();
    cluster.run_for(SimDuration::from_secs(measure));
    cluster.metrics().counter(mn::CMD_COMPLETED) as f64 / measure as f64
}

const USAGE: &str = "\
usage: fig3_tpcc_scalability [--max-parts N] [--smoke] [--out FILE]

--max-parts N  sweep partitions 1,2,4,8,16 up to N   [4]
--smoke        shortened warmup/measure windows
--out FILE     write machine-readable JSON";

fn main() {
    args::run(USAGE, &["max-parts", "out"], &["smoke"], |a| {
        run(a.num_or("max-parts", 4)?, a.has("smoke"), a.get("out"));
        Ok(())
    })
}

fn run(max_parts: u32, smoke: bool, out: Option<&str>) {
    let (warmup, measure) = if smoke { (1, 2) } else { (3, 6) };
    let sweep: Vec<u32> = [1u32, 2, 4, 8, 16].into_iter().filter(|&k| k <= max_parts).collect();

    println!("Figure 3 — TPC-C scalability (one warehouse per partition, saturating clients)\n");
    // Every (partitions, mode) point is an independent deterministic
    // simulation; fan the whole matrix out across cores and reassemble
    // rows in input order.
    let points: Vec<(u32, Mode)> =
        sweep.iter().flat_map(|&k| [(k, Mode::Dynastar), (k, Mode::SSmr)]).collect();
    let tputs = dynastar_bench::run_parallel(points, 0, |(k, mode)| {
        eprintln!("fig3: running {k} partition(s), {mode:?}...");
        peak_tput(k, mode, warmup, measure)
    });
    let mut rows = Vec::new();
    let mut runs = Vec::new();
    for (i, &k) in sweep.iter().enumerate() {
        let (dynastar, ssmr) = (tputs[2 * i], tputs[2 * i + 1]);
        rows.push(vec![
            format!("{k}"),
            format!("{dynastar:.0}"),
            format!("{ssmr:.0}"),
            format!("{:.2}", dynastar / ssmr.max(1.0)),
        ]);
        runs.push(
            Obj::new()
                .raw("partitions", k)
                .num("dynastar_tps", dynastar, 0)
                .num("ssmr_tps", ssmr, 0),
        );
    }
    print_table(&["partitions", "DynaStar txn/s", "S-SMR* txn/s", "ratio"], &rows);
    println!("\npaper shape: throughput grows with partitions for both; DynaStar ≈ S-SMR*.");
    if let Some(path) = out {
        Record::new("runs", runs).write(path);
    }
}
