//! The adversarial scenario suite behind `fig9_migration_interference`
//! and `dynastar scenario`, plus the counters application and load the
//! fault probes drive.
//!
//! Every scenario runs under a migration [`Policy`]:
//!
//! * `flash_crowd` — a celebrity post yanks the hot spot onto one user;
//! * `diurnal`    — the hot quarter of the keyspace rotates on a period;
//! * `zipf_ramp`  — the skew parameter sharpens mid-run (0.2 → 0.95);
//! * `churn`      — flash crowd plus crash-restart waves and degraded
//!   links timed to overlap the migrations they trigger;
//! * `chained_move` — the hot half of the keyspace rotates once per plan
//!   interval while a mid-run brownout degrades every link between two
//!   partitions, so transfers give up and revert while later plans have
//!   already chained the same keys onward (the plan-history replay path).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use dynastar_core::server::ServerConfig;
use dynastar_core::{
    Application, Cluster, ClusterBuilder, ClusterConfig, Command, CommandKind, ExecConfig, LocKey,
    Mode, PartitionId, VarId, Workload,
};
use dynastar_runtime::nemesis::NemesisPlan;
use dynastar_runtime::{Metrics, SimDuration, SimTime};
use dynastar_workloads::chirper::ChirperMix;
use dynastar_workloads::scenarios::{
    churn_nemesis, flash_crowd, migration_brownout, DiurnalRotation, ScenarioWorkload, ZipfRamp,
};
use rand::rngs::StdRng;
use rand::Rng;

use crate::setup::{chirper_cluster, ChirperSetup};

/// The scenario names, in suite order.
pub const SCENARIOS: [&str; 5] = ["flash_crowd", "diurnal", "zipf_ramp", "churn", "chained_move"];

/// The counters application: one variable per locality key; a command
/// adds its op to every variable it names.
pub struct Counters;

impl Application for Counters {
    type Op = i64;
    type Value = i64;
    type Reply = i64;
    fn locality(var: VarId) -> LocKey {
        LocKey(var.0)
    }
    fn execute(op: &i64, vars: &mut BTreeMap<VarId, Option<i64>>) -> i64 {
        let mut last = 0;
        for v in vars.values_mut() {
            last = v.unwrap_or(0) + op;
            *v = Some(last);
        }
        last
    }
}

/// Counters the fault probes' [`Load`] spreads over.
const LOAD_VARS: u64 = 20;

/// The fault probes' finite closed-loop load: each client issues its
/// quota of increments over [`LOAD_VARS`] counters, 30% of them touching
/// a second counter, and tallies replied commands in a shared count.
pub struct Load {
    remaining: u32,
    completed: Arc<Mutex<u32>>,
}

impl Load {
    /// The fault probes' deployment: DynaStar on 2 partitions holding the
    /// counters round-robin, no repartitioning, warm client caches and a
    /// 3 s client timeout, plus whatever `tweak` changes (network,
    /// execution model); `clients` clients issue `commands` commands each.
    /// Returns the cluster and the shared count of replied commands.
    pub fn cluster(
        seed: u64,
        clients: usize,
        commands: u32,
        tweak: impl FnOnce(&mut ClusterConfig),
    ) -> (Cluster<Counters>, Arc<Mutex<u32>>) {
        let mut config = ClusterConfig {
            partitions: 2,
            replicas: 3,
            mode: Mode::Dynastar,
            seed,
            repartition_threshold: u64::MAX,
            warm_client_caches: true,
            client_timeout: SimDuration::from_secs(3),
            ..ClusterConfig::default()
        };
        tweak(&mut config);
        let mut b = ClusterBuilder::new(config);
        for v in 0..LOAD_VARS {
            b.place(LocKey(v), PartitionId((v % 2) as u32));
            b.with_var(VarId(v), 0);
        }
        let mut cluster = b.build();
        let completed = Arc::new(Mutex::new(0));
        for _ in 0..clients {
            cluster.add_client(Load { remaining: commands, completed: Arc::clone(&completed) });
        }
        (cluster, completed)
    }
}

impl Workload<Counters> for Load {
    fn next_command(&mut self, _now: SimTime, rng: &mut StdRng) -> Option<CommandKind<Counters>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let a = rng.gen_range(0..LOAD_VARS);
        let mut vars = vec![VarId(a)];
        if rng.gen_range(0..100u32) < 30 {
            let b = (a + 1 + rng.gen_range(0..LOAD_VARS - 1)) % LOAD_VARS;
            vars.push(VarId(b));
        }
        Some(CommandKind::Access { op: 1, vars })
    }

    fn on_completed(&mut self, _now: SimTime, _cmd: &Command<Counters>, reply: Option<&i64>) {
        if reply.is_some() {
            *self.completed.lock().unwrap() += 1;
        }
    }
}

/// How a run pays for plan-triggered state migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Chunked + rate-limited + acked, with client retry backpressure.
    Staged,
    /// Single shipment under the same bandwidth model: the whole transfer
    /// charges the source replica at once.
    Stall,
}

impl Policy {
    /// The policy's name in reports.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Staged => "staged",
            Policy::Stall => "stall",
        }
    }

    /// Both policies share the bandwidth model (8 KiB/var over a 1 MiB/s
    /// migration link — 8 ms per variable), so the comparison isolates
    /// *how* the transfer cost is paid, not how large it is: a plan moving
    /// a few hundred keys costs the stall baseline a multi-second outage
    /// paid upfront, while staged migration paces the same bytes.
    /// `inflight_cap` bounds staged transfers in flight per
    /// source→destination link (0 = no cap); the oracle's hot-first move
    /// order decides who goes first and deferred keys are released as
    /// slots free. The stall baseline never stages, so ignores it.
    pub fn server(self, inflight_cap: u32) -> ServerConfig {
        ServerConfig {
            staged_migration: self == Policy::Staged,
            migration_chunk_vars: 4,
            migration_var_bytes: 8 * 1024,
            migration_link_bytes_per_sec: 1024 * 1024,
            migration_chunk_timeout: SimDuration::from_millis(100),
            migration_max_retries: 6,
            migration_max_inflight_per_link: inflight_cap,
            ..ServerConfig::default()
        }
    }

    /// Client retry backoff base: backpressure for staged runs only.
    pub fn client_backoff(self) -> SimDuration {
        match self {
            Policy::Staged => SimDuration::from_millis(2),
            Policy::Stall => SimDuration::ZERO,
        }
    }
}

/// Scenario dimensions.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Partitions (`chained_move` uses at least 3).
    pub partitions: u32,
    /// Social graph size (`flash_crowd`, `churn`).
    pub users: usize,
    /// Counters keyspace (`diurnal`, `zipf_ramp`, `chained_move`).
    pub domain: u64,
    /// Closed-loop clients.
    pub clients: usize,
    /// Simulated seconds per run.
    pub secs: u64,
    /// Seconds excluded from fig9's dip window at the start of each run
    /// (random initial placement; the first repartition is startup, not
    /// interference).
    pub warmup: usize,
    /// Repartitioning threshold of the social scenarios.
    pub chirper_threshold: u64,
    /// Repartitioning threshold of the counters scenarios.
    pub counters_threshold: u64,
    /// Minimum time between plans.
    pub plan_interval: SimDuration,
    /// Crash-restart waves (`churn`).
    pub waves: u32,
    /// Staged transfers in flight per source→destination link.
    pub inflight_cap: u32,
    /// Master seed.
    pub seed: u64,
}

impl Params {
    /// fig9's sizes: full, or small and short with `smoke` (the CI gate
    /// workload and the `dynastar scenario` defaults).
    pub fn new(smoke: bool) -> Self {
        let (inflight_cap, seed) = (4, 9);
        if smoke {
            Params {
                partitions: 2,
                users: 400,
                domain: 200,
                clients: 3,
                secs: 24,
                warmup: 6,
                chirper_threshold: 1_500,
                counters_threshold: 800,
                plan_interval: SimDuration::from_secs(5),
                waves: 2,
                inflight_cap,
                seed,
            }
        } else {
            Params {
                partitions: 4,
                users: 2_000,
                domain: 800,
                clients: 6,
                secs: 120,
                warmup: 15,
                chirper_threshold: 6_000,
                counters_threshold: 3_000,
                plan_interval: SimDuration::from_secs(20),
                waves: 3,
                inflight_cap,
                seed,
            }
        }
    }

    /// The counters scenarios' deployment on `partitions` partitions.
    fn counters_config(
        &self,
        partitions: u32,
        server: ServerConfig,
        policy: Policy,
    ) -> ClusterConfig {
        ClusterConfig {
            partitions,
            replicas: 3,
            mode: Mode::Dynastar,
            seed: self.seed,
            repartition_threshold: self.counters_threshold,
            min_plan_interval: self.plan_interval,
            warm_client_caches: true,
            compute_base: SimDuration::from_millis(50),
            exec: ExecConfig::serial(SimDuration::from_micros(150)),
            server,
            client_retry_backoff: policy.client_backoff(),
            ..ClusterConfig::default()
        }
    }
}

/// Runs one scenario under `policy` for `p.secs` and returns its metrics.
///
/// # Panics
///
/// Panics on a name outside [`SCENARIOS`].
pub fn run(scenario: &str, policy: Policy, p: &Params) -> Metrics {
    match scenario {
        "flash_crowd" => run_chirper(scenario, false, policy, p),
        "diurnal" => run_counters(false, policy, p),
        "zipf_ramp" => run_counters(true, policy, p),
        "churn" => run_chirper(scenario, true, policy, p),
        "chained_move" => run_chained(scenario, policy, p),
        other => panic!("unknown scenario {other}"),
    }
}

/// Flash-crowd and churn scenarios: the social network under a celebrity
/// post, optionally with crash waves + degraded links overlapping the
/// migrations the crowd triggers.
fn run_chirper(scenario: &str, churn: bool, policy: Policy, p: &Params) -> Metrics {
    let mut setup = ChirperSetup::new(p.partitions, Mode::Dynastar);
    setup.users = p.users;
    setup.cluster.seed = p.seed;
    setup.cluster.min_plan_interval = p.plan_interval;
    setup.cluster.repartition_threshold = p.chirper_threshold;
    setup.cluster.server = policy.server(p.inflight_cap);
    setup.cluster.client_retry_backoff = policy.client_backoff();
    let (mut cluster, graph) = chirper_cluster(&setup);
    // The celebrity is an existing unremarkable user (fewest followers at
    // t=0), as in fig6.
    let celebrity = {
        let g = graph.lock().unwrap();
        (0..g.users() as u64).min_by_key(|&u| g.followers_of(u).len()).unwrap_or(0)
    };
    let at = SimTime::from_secs(p.secs / 3);
    for _ in 0..p.clients {
        cluster.add_client(flash_crowd(
            Arc::clone(&graph),
            0.95,
            ChirperMix::MIX,
            celebrity,
            40,
            at,
        ));
    }
    if churn {
        let cfg = churn_nemesis(
            p.seed ^ 0xC0FFEE,
            SimTime::from_secs(p.secs / 4),
            SimTime::from_secs(p.secs * 3 / 4),
            p.waves,
        );
        let plan = NemesisPlan::generate(&cfg, cluster.groups());
        eprintln!(
            "{scenario}: nemesis schedules {} crash(es), {} degraded link(s)",
            plan.crash_count(),
            plan.link_fault_count()
        );
        plan.apply(&mut cluster.sim);
    }
    cluster.run_for(SimDuration::from_secs(p.secs));
    std::mem::take(cluster.metrics_mut())
}

/// Diurnal-rotation and Zipf-ramp scenarios: a counters keyspace whose
/// access pattern drifts under the partitioner's feet. Commands pair each
/// drawn rank with its successor so the co-access graph chases the drift.
fn run_counters(ramp: bool, policy: Policy, p: &Params) -> Metrics {
    let config = p.counters_config(p.partitions, policy.server(p.inflight_cap), policy);
    let mut b = ClusterBuilder::new(config);
    for v in 0..p.domain {
        b.place(LocKey(v), PartitionId((v % p.partitions as u64) as u32));
        b.with_var(VarId(v), 0);
    }
    let mut cluster = b.build();
    let domain = p.domain;
    let make = move |rank: u64, _rng: &mut StdRng| CommandKind::<Counters>::Access {
        op: 1,
        vars: vec![VarId(rank), VarId((rank + 1) % domain)],
    };
    for _ in 0..p.clients {
        if ramp {
            let pattern = ZipfRamp::new(
                domain,
                0.2,
                0.95,
                SimTime::from_secs(p.secs / 6),
                SimTime::from_secs(p.secs * 2 / 3),
            );
            cluster.add_client(ScenarioWorkload::new(pattern, make));
        } else {
            let pattern = DiurnalRotation::new(
                domain,
                0.95,
                SimDuration::from_secs((p.secs / 6).max(1)),
                domain / 4,
            );
            cluster.add_client(ScenarioWorkload::new(pattern, make));
        }
    }
    cluster.run_for(SimDuration::from_secs(p.secs));
    std::mem::take(cluster.metrics_mut())
}

/// Chained-migration scenario: the hot half of a counters keyspace rotates
/// once per plan interval, so consecutive plans keep re-routing the same
/// keys while the previous transfer may still be in flight (a move A→B
/// chained onward to B→C). Mid-run, a [`migration_brownout`] degrades
/// every link between partitions 0 and 1 long enough for chunk retries to
/// exhaust and give up, so their reverts must compose with the chained
/// moves via plan-history replay. Correctness shows up in the error gate:
/// all the routing confusion must surface as retries, never failures.
///
/// Unlike the other counters scenarios, commands touch a *single* key and
/// keys start out in contiguous blocks: single-partition commands never
/// cross the browned-out inter-group mesh, so the foreground keeps
/// running, the hint stream keeps feeding the oracle, and plans keep
/// landing *during* the brownout — which is what pushes transfers into
/// it. Migration pressure comes from vertex-weight imbalance alone: every
/// rotation parks the Zipf head on one contiguous block and the
/// partitioner must spread it again.
fn run_chained(scenario: &str, policy: Policy, p: &Params) -> Metrics {
    // At least three partitions: the brownout only degrades the 0 ↔ 1
    // mesh, so partition 2+ keeps absorbing traffic and the oracle keeps
    // planning, while moves can still chain onward to a healthy partition.
    let partitions = p.partitions.max(3);
    // Shorter retry ladder (~1.5 s at 100 ms timeout × 3 retries) so the
    // 2 s one-way brownout delay below outlasts it and forces give-ups.
    let mut server = policy.server(p.inflight_cap);
    server.migration_max_retries = 3;
    let mut b = ClusterBuilder::new(p.counters_config(partitions, server, policy));
    for v in 0..p.domain {
        b.place(LocKey(v), PartitionId((v * partitions as u64 / p.domain) as u32));
        b.with_var(VarId(v), 0);
    }
    let mut cluster = b.build();
    let make = move |rank: u64, _rng: &mut StdRng| CommandKind::<Counters>::Access {
        op: 1,
        vars: vec![VarId(rank)],
    };
    for _ in 0..p.clients {
        // Rotating by half the domain every plan interval means each plan
        // finds the keys it just placed hot somewhere else again — the
        // chained-move generator.
        let pattern = DiurnalRotation::new(p.domain, 0.95, p.plan_interval, p.domain / 2);
        cluster.add_client(ScenarioWorkload::new(pattern, make));
    }
    // Brown out the partition-0 ↔ partition-1 mesh for half the run with
    // pure delay, zero loss. Partial loss is laundered away by the 3×3
    // chunk/ack fan-out, and total loss stalls the atomic-multicast
    // timestamp exchange (freezing both groups' delivery pipelines). A
    // 2 s one-way delay instead puts a chunk's ack ~4 s behind its send:
    // sources exhaust the shortened retry ladder and revert while the
    // destination — which still receives every chunk, late but never
    // lost — completes staging and submits its `MigrationDone`. The two
    // race in the total order and plan-history replay settles the loser
    // as stale.
    let (ga, gb) = {
        let groups = cluster.groups();
        (groups[0].clone(), groups[1].clone())
    };
    let plan = migration_brownout(
        &ga,
        &gb,
        SimTime::from_secs(p.secs / 4),
        SimTime::from_secs(p.secs * 3 / 4),
        SimDuration::from_secs(2),
        0,
    );
    eprintln!("{scenario}: brownout degrades {} directed link(s)", plan.link_fault_count());
    plan.apply(&mut cluster.sim);
    cluster.run_for(SimDuration::from_secs(p.secs));
    std::mem::take(cluster.metrics_mut())
}
