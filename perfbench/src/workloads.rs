//! The three workloads: how each deployment is built and laid out in
//! sim time.
//!
//! A run of a workload is a series of *replicas*: independent clusters
//! with the same deployment and different simulation seeds, each set up,
//! warmed up to `warmup` and measured over `[warmup, warmup + window)`.
//! The deployment — social graph, initial placement, fault schedule — is
//! part of the workload's definition and is generated from
//! [`DEPLOY_SEED`]; `--seed` drives the simulation (network delays and
//! every client's command generator). Fixing the deployment keeps
//! seed-to-seed spread down to what the protocol itself does with the
//! inputs, and replicas give a run several independent episodes of the
//! rare events (plans, crashes) whose cost varies most.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use dynastar_core::server::{ExecConfig, ServerConfig};
use dynastar_core::{
    Application, BatchConfig, Cluster, ClusterBuilder, ClusterConfig, LocationView, Mode, VarId,
};
use dynastar_runtime::nemesis::{FaultKind, NemesisPlan};
use dynastar_runtime::{SimDuration, SimTime};
use dynastar_workloads::chirper::{Chirper, ChirperMix, ChirperUser, ChirperWorkload};
use dynastar_workloads::placement;
use dynastar_workloads::scenarios::churn_nemesis;
use dynastar_workloads::socialgraph::SocialGraph;
use dynastar_workloads::tpcc::{self, Tpcc, TpccScale, TpccWorkload};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::probe::{Probe, Recorder};
use crate::trace;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// TPC-C, placement fixed: ordering, borrow/return, Paxos.
    Tpcc,
    /// Chirper 85/15 on DynaStar: oracle, partitioner, migration, posts.
    Social,
    /// TPC-C with repartitioning under crash waves and degraded links.
    Churn,
}

impl Kind {
    pub fn parse(s: &str) -> Result<Kind, String> {
        match s {
            "tpcc" => Ok(Kind::Tpcc),
            "social" => Ok(Kind::Social),
            "churn" => Ok(Kind::Churn),
            _ => Err(format!("unknown workload {s} (tpcc, social or churn)")),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Tpcc => "tpcc",
            Kind::Social => "social",
            Kind::Churn => "churn",
        }
    }
}

/// Seed of every workload's deployment: graph, placement, faults. Seed 1
/// is the `probe_perf` standard config's.
pub const DEPLOY_SEED: u64 = 1;
/// Partitions (and TPC-C warehouses) in every workload.
pub const PARTITIONS: u32 = 4;
/// TPC-C terminals per warehouse (the `probe_perf` standard config).
const TERMINALS: u32 = 6;
/// Chirper users and follows per user (the fig4 2,000-user graph).
const USERS: usize = 2_000;
const FOLLOWS_PER_USER: usize = 6;
/// Chirper clients in `social`.
const SOCIAL_CLIENTS: usize = 6;

/// Sim-time layout of one replica, and how many replicas a run holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Layout {
    pub warmup: SimDuration,
    pub window: SimDuration,
    pub replicas: u64,
}

impl Layout {
    pub fn start(&self) -> SimTime {
        SimTime::ZERO + self.warmup
    }

    pub fn end(&self) -> SimTime {
        self.start() + self.window
    }
}

/// The layout for a run asked to measure for `seconds`. Each workload's
/// window is fixed (it must hold the workload's events); `seconds` buys
/// replicas at a fixed rate, calibrated so a replica's window costs
/// about its share of `seconds` in wall time on a 2-core x86-64 box. The
/// rate is never measured at run time, so the sim-time results depend
/// only on the workload, the seed and `seconds`.
pub fn layout(kind: Kind, seconds: u64) -> Layout {
    let ms = SimDuration::from_millis;
    let (warmup, window, wall_s_per_replica) = match kind {
        // ~0.5 wall-s per sim-s. The window ends at t = 10 s, where seed 1
        // is cross-checked against the recorded standard-config schedule.
        Kind::Tpcc => (ms(1_000), ms(9_000), 5),
        // ~4.5 wall-s per sim-s. Opened early so the cold-cache oracle
        // queries and the first plan with its migration fall inside.
        Kind::Social => (ms(250), ms(1_500), 7),
        // ~0.5 wall-s per sim-s. The plan at ~2 s, the crash wave at 3.5 s
        // and the recoveries after it all fall inside.
        Kind::Churn => (ms(1_000), ms(9_000), 5),
    };
    Layout { warmup, window, replicas: seconds.div_ceil(wall_s_per_replica).max(1) }
}

/// Simulation seed of replica `i` of a run with `seed`; replica 0 runs
/// `seed` itself.
pub fn replica_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_add(i.wrapping_mul(1_000_003))
}

/// A built, warmed-up cluster and what the measurement needs from set-up.
pub struct Built<A: Application> {
    pub cluster: Cluster<A>,
    pub rec: Rc<RefCell<Recorder>>,
    /// Crashes the fault schedule injects inside the window.
    pub crashes_in_window: u64,
    /// The oracle's key→partition map at t = 0.
    pub initial_map: LocationView,
}

fn finish<A: Application>(
    mut cluster: Cluster<A>,
    rec: Rc<RefCell<Recorder>>,
    crashes_in_window: u64,
    layout: &Layout,
) -> Built<A> {
    let oracle = cluster.groups()[PARTITIONS as usize][0];
    let initial_map = cluster.sim.location_view(oracle).unwrap_or_default();
    trace::span("setup.warmup", || cluster.run_for(layout.warmup));
    Built { cluster, rec, crashes_in_window, initial_map }
}

pub fn tpcc_scale() -> TpccScale {
    TpccScale { warehouses: PARTITIONS, customers_per_district: 30, items: 200 }
}

/// Churn's staged-migration policy: fig9's `staged` (1 MiB/s link,
/// 4-variable chunks, 100 ms ack timeout, 6 retries, 4 transfers in
/// flight per link) with 2 KiB variables instead of fig9's 8 KiB. At
/// 8 KiB the first plan's transfer blocks every TPC-C terminal for
/// 2.6–4.6 s, in steps that depend on which keys the plan moves, so the
/// longest stall spread 20–30% from seed to seed; at 2 KiB the longest
/// stall is the crash wave's fail-over, which repeats within 2%.
fn staged_migration() -> ServerConfig {
    ServerConfig {
        staged_migration: true,
        migration_chunk_vars: 4,
        migration_var_bytes: 2 * 1024,
        migration_link_bytes_per_sec: 1024 * 1024,
        migration_chunk_timeout: SimDuration::from_millis(100),
        migration_max_retries: 6,
        migration_max_inflight_per_link: 4,
        ..ServerConfig::default()
    }
}

/// `tpcc` (and, with `churn`, the churn workload): 4 warehouses on 4
/// partitions, 3 replicas, random placement, warm client caches, 6
/// terminals per warehouse — the `probe_perf` standard config, whose
/// schedule seed 1 reproduces. `churn` turns repartitioning on with
/// fig9's staged migration and retry backoff and applies
/// `churn_nemesis` crash waves and degraded links.
pub fn build_tpcc(seed: u64, churn: bool, layout: &Layout) -> Built<Tpcc> {
    let scale = tpcc_scale();
    let mut config = ClusterConfig {
        partitions: PARTITIONS,
        replicas: 3,
        mode: Mode::Dynastar,
        seed,
        repartition_threshold: u64::MAX,
        min_plan_interval: SimDuration::from_secs(40),
        warm_client_caches: true,
        compute_base: SimDuration::from_millis(100),
        exec: ExecConfig::pool(1, SimDuration::from_micros(150)),
        batch: BatchConfig::UNBATCHED,
        ..ClusterConfig::default()
    };
    if churn {
        config.repartition_threshold = 3_000;
        config.min_plan_interval = SimDuration::from_secs(2);
        config.server = staged_migration();
        config.client_retry_backoff = SimDuration::from_millis(2);
    }
    let mut cluster = trace::span("setup.build", || {
        let mut rng = StdRng::seed_from_u64(DEPLOY_SEED ^ 0xBEEF);
        let mut b = ClusterBuilder::new(config);
        for (k, p) in placement::random(tpcc::keys(&scale), PARTITIONS, &mut rng) {
            b.place(k, p);
        }
        b.with_vars(tpcc::rows(&scale));
        b.build()
    });
    let rec = Rc::new(RefCell::new(Recorder::default()));
    let tracker = tpcc::order_tracker();
    for w in 0..scale.warehouses {
        for _ in 0..TERMINALS {
            let terminal = TpccWorkload::new(scale, w, Arc::clone(&tracker));
            cluster.add_client(Probe::new(terminal, Rc::clone(&rec)));
        }
    }
    let mut crashes = 0;
    if churn {
        // One crash wave at 3.5 s, while the first plan's staged
        // migration is in flight, plus degraded links and the base random
        // faults over [1 s, 6 s).
        let faults =
            churn_nemesis(DEPLOY_SEED ^ 0xC0FFEE, SimTime::from_secs(1), SimTime::from_secs(6), 1);
        let plan = NemesisPlan::generate(&faults, cluster.groups());
        plan.apply(&mut cluster.sim);
        crashes = plan
            .events
            .iter()
            .filter(|e| e.kind == FaultKind::Crash && e.at >= layout.start() && e.at < layout.end())
            .count() as u64;
    }
    finish(cluster, rec, crashes, layout)
}

/// The social graph of every `social` replica, and the generator's
/// random stream after it (placement continues from it).
pub fn social_graph() -> (SocialGraph, StdRng) {
    let mut rng = StdRng::seed_from_u64(DEPLOY_SEED ^ 0x5AFE);
    let g = SocialGraph::barabasi_albert(USERS, FOLLOWS_PER_USER, &mut rng);
    (g, rng)
}

/// Chirper rows as the cluster preloads them.
pub fn chirper_rows(g: &SocialGraph) -> Vec<(VarId, Arc<ChirperUser>)> {
    (0..g.users() as u64)
        .map(|u| {
            let user = ChirperUser {
                timeline: Default::default(),
                follows: g.follows_of(u).to_vec(),
                followers: g.followers_of(u).to_vec(),
            };
            (Chirper::var(u), Arc::new(user))
        })
        .collect()
}

/// `social`: Chirper on the 2,000-user Barabási–Albert graph, Zipf θ =
/// 0.95, 85/15 timeline/post, random placement, cold client caches, 6
/// clients, DynaStar mode. The plan interval puts exactly one plan and
/// its migration inside the window.
pub fn build_social(seed: u64, layout: &Layout) -> Built<Chirper> {
    let config = ClusterConfig {
        partitions: PARTITIONS,
        replicas: 3,
        mode: Mode::Dynastar,
        seed,
        repartition_threshold: 4_000,
        min_plan_interval: SimDuration::from_micros(layout.end().as_micros() * 6 / 10),
        warm_client_caches: false,
        compute_base: SimDuration::from_millis(100),
        exec: ExecConfig::pool(1, SimDuration::from_micros(150)),
        batch: BatchConfig::UNBATCHED,
        ..ClusterConfig::default()
    };
    let (mut cluster, graph) = trace::span("setup.build", || {
        let (graph, mut rng) = social_graph();
        let keys = (0..graph.users() as u64).map(Chirper::key);
        let mut b = ClusterBuilder::new(config);
        for (k, p) in placement::random(keys, PARTITIONS, &mut rng) {
            b.place(k, p);
        }
        b.with_vars(chirper_rows(&graph));
        (b.build(), Arc::new(Mutex::new(graph)))
    });
    let rec = Rc::new(RefCell::new(Recorder::default()));
    for _ in 0..SOCIAL_CLIENTS {
        let gen = ChirperWorkload::new(Arc::clone(&graph), 0.95, ChirperMix::MIX);
        cluster.add_client(Probe::new(gen, Rc::clone(&rec)));
    }
    finish(cluster, rec, 0, layout)
}
