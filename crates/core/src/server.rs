//! The partition server state machine (paper Algorithm 3, plus the S-SMR
//! and DS-SMR baseline behaviours).
//!
//! A `ServerCore` is driven by two inputs — atomic multicast deliveries
//! ([`ServerCore::on_deliver`]) and direct messages
//! ([`ServerCore::on_direct`]) — and produces [`Effect`]s. Every replica of
//! a partition runs an identical core; effects that would duplicate
//! (replies, variable shipments) carry dedup keys and are dropped by
//! receivers.
//!
//! Commands execute strictly in delivery order: the head of the queue may
//! *wait* (for borrowed variables, for migrating keys, for a create/delete
//! rendezvous) but nothing overtakes it. Atomic multicast's pairwise
//! consistent delivery order across partitions makes this deadlock-free.
//!
//! This module executes commands, lends and returns borrowed variables,
//! applies plans and moves keys the classic way (one shipment per key).
//! When the queue head may start is the [execution engine](crate::exec)'s
//! decision; staged, chunked key transfers are the
//! [migration engine](crate::migration)'s.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use dynastar_amcast::MsgId;
use dynastar_runtime::dedup::{RotatingMap, RotatingSet};
use dynastar_runtime::{CounterId, HistogramId, Metrics, NodeId, SeriesId, SimTime};

use crate::command::{Application, CommandKind, LocKey, Mode, PartitionId, VarId};
pub use crate::exec::ExecConfig;
use crate::exec::ExecScheduler;
use crate::metric_names as mn;
use crate::migration::{
    transfer_time, MigrationTally, MoveOutcome, PlanHistory, Settle, StagedMigrations, VarShipment,
    Vars, PLAN_HISTORY_PER_KEY,
};
use crate::payload::{DedupKey, Destination, Direct, Effect, OracleDest, Payload};

/// Emits protocol-stall diagnostics to stderr when the
/// `DYNASTAR_TRACE_BLOCKED` environment variable is set.
fn trace_blocked(args: std::fmt::Arguments<'_>) {
    // Sampled once per process: this sits on executed-command paths, and
    // `env::var_os` is far too slow to re-check per call.
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    // detlint::allow(D003): opt-in diagnostic gate only — the flag toggles eprintln tracing and never feeds protocol or simulation state
    if *ON.get_or_init(|| std::env::var_os("DYNASTAR_TRACE_BLOCKED").is_some()) {
        eprintln!("{args}");
    }
}

/// Message-id origin space for partition-originated multicasts (hints);
/// clients use their node id as origin, which stays far below this.
pub const PARTITION_ORIGIN_BASE: u64 = 1_000_000_000;

/// Tunables for a partition server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Executed commands per workload-hint batch sent to the oracle
    /// (DynaStar mode only; the baselines collect no hints).
    pub hint_batch: u32,
    /// Whether this replica records server-side metrics. Every replica of
    /// a partition executes every command, so exactly one replica (index
    /// 0) records, or counters would multiply by the replication factor.
    pub record_metrics: bool,
    /// Staged migration: plan-triggered key moves ship their variables in
    /// rate-limited, individually acknowledged chunks instead of one
    /// unbounded shipment. Off by default (classic single-shipment path).
    pub staged_migration: bool,
    /// Variables per staged chunk (≥ 1).
    pub migration_chunk_vars: u32,
    /// Modelled serialized size of one variable, bytes (bandwidth model).
    pub migration_var_bytes: u64,
    /// Modelled migration link bandwidth in bytes/second. `0` means
    /// unconstrained: transfers are free and charge no CPU/NIC time.
    pub migration_link_bytes_per_sec: u64,
    /// Base per-chunk ack timeout; also the starting backoff.
    pub migration_chunk_timeout: dynastar_runtime::SimDuration,
    /// Chunk retransmissions before the source gives up and reverts the
    /// key's move (falling back to the previous plan).
    pub migration_max_retries: u32,
    /// Cluster-wide migration scheduling: max staged key transfers
    /// concurrently in flight per source→destination link. Plans list
    /// moves hottest-first (oracle orders by workload-graph weight), so
    /// the cap ships the traffic-carrying keys immediately and defers the
    /// tail, releasing deferred moves as transfers settle. `0` disables
    /// the cap (every move ships at once, PR 6 behaviour).
    pub migration_max_inflight_per_link: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            hint_batch: 64,
            record_metrics: true,
            staged_migration: false,
            migration_chunk_vars: 8,
            migration_var_bytes: 512,
            migration_link_bytes_per_sec: 0,
            migration_chunk_timeout: dynastar_runtime::SimDuration::from_millis(200),
            migration_max_retries: 5,
            migration_max_inflight_per_link: 0,
        }
    }
}

/// A queued access command: its routing and borrow/exchange progress —
/// everything but the (generic) operation.
#[derive(Debug, Clone)]
struct AccessCmd {
    id: MsgId,
    client: NodeId,
    attempt: u32,
    /// The variables the command declares.
    vars: Vec<VarId>,
    /// Where each variable lives, per the dispatcher's routing.
    expected: Vec<(VarId, PartitionId)>,
    /// The partition that executes a multi-partition command.
    target: PartitionId,
    /// DS-SMR: the target keeps borrowed variables.
    keep: bool,
    /// Multi-partition non-target: we shipped our vars and await return.
    sent_vars: bool,
    /// S-SMR: we broadcast our exchange share.
    sent_exchange: bool,
}

impl AccessCmd {
    /// The distinct partitions the command involves, in id order.
    fn partitions(&self) -> Vec<PartitionId> {
        let mut dests: Vec<PartitionId> = self.expected.iter().map(|&(_, p)| p).collect();
        dests.sort_unstable();
        dests.dedup();
        dests
    }
}

/// A queued create or delete: its key and oracle-rendezvous progress.
#[derive(Debug, Clone, Copy)]
struct KeyCmd {
    id: MsgId,
    client: NodeId,
    key: LocKey,
    /// This partition's rendezvous signal went to the oracle.
    signalled: bool,
}

/// One entry of the in-order execution queue, over the application's
/// operation and value types.
#[derive(Clone)]
enum Queued<Op, V> {
    Access {
        op: Op,
        cmd: AccessCmd,
    },
    Create {
        vars: Vec<(VarId, V)>,
        cmd: KeyCmd,
    },
    Delete(KeyCmd),
    Plan {
        version: u64,
        moves: Vec<(LocKey, PartitionId, PartitionId)>,
    },
    /// Source-side rollback of a gave-up staged migration. Queued (not
    /// applied at delivery) because re-owning the key must serialize with
    /// command execution: a command delivered before the revert must see
    /// the same ownership state on every replica regardless of local pump
    /// timing.
    MigrationRevert {
        version: u64,
        key: LocKey,
    },
}

/// A classic key-migration shipment, as [`Direct::PlanVars`] carries it.
#[derive(Clone)]
struct Shipment<V> {
    version: u64,
    key: LocKey,
    from: PartitionId,
    vars: Vars<V>,
    /// Variables of the key still lent out at the sender; they follow as
    /// supplements.
    pending: Vec<VarId>,
    /// The key's primary shipment, not a supplement.
    primary: bool,
}

/// Shipments collected per source partition.
type ShipmentsBySource<A> = BTreeMap<PartitionId, VarShipment<A>>;

/// Writes one variable back to a store: a value is stored, an absent
/// value removes the variable.
fn store_put<V>(store: &mut BTreeMap<VarId, V>, var: VarId, val: Option<V>) {
    match val {
        Some(val) => {
            store.insert(var, val);
        }
        None => {
            store.remove(&var);
        }
    }
}

/// The partition server protocol core. See the [module docs](self).
pub struct ServerCore<A: Application> {
    partition: PartitionId,
    mode: Mode,
    config: ServerConfig,
    /// Locality keys this partition owns.
    owned: BTreeSet<LocKey>,
    /// Values physically present.
    store: BTreeMap<VarId, A::Value>,
    queue: VecDeque<Queued<A::Op, A::Value>>,
    /// Receiver-side dedup of direct messages (bounded memory).
    seen: RotatingSet<DedupKey>,
    /// Borrowed variables received per (cmd, attempt), per source partition.
    vars_in: BTreeMap<(MsgId, u32), ShipmentsBySource<A>>,
    /// Returns received for (cmd, attempt).
    returns_in: BTreeMap<(MsgId, u32), VarShipment<A>>,
    /// Commands known aborted (stale routing at some partition).
    aborted: RotatingSet<(MsgId, u32)>,
    /// S-SMR exchange shares received.
    ssmr_in: BTreeMap<(MsgId, u32), ShipmentsBySource<A>>,
    /// Create/delete rendezvous signals received from the oracle.
    oracle_signals: dynastar_runtime::FastHashSet<MsgId>,
    /// Current plan version.
    plan_version: u64,
    /// Keys owned whose primary shipment has not arrived: key → old owner.
    awaiting_keys: BTreeMap<LocKey, PartitionId>,
    /// Individual variables still in flight (lent out during migration).
    awaiting_vars: BTreeSet<VarId>,
    /// Where keys this partition used to own have gone.
    outmigrated: BTreeMap<LocKey, PartitionId>,
    /// Variables currently lent to a target: var → (cmd, attempt).
    lent: BTreeMap<VarId, (MsgId, u32)>,
    /// Reply cache: executed commands and their replies (exactly-once
    /// within the rotation window).
    executed: RotatingMap<MsgId, A::Reply>,
    /// Workload-hint accumulators.
    hint_vertices: BTreeMap<LocKey, u64>,
    hint_edges: BTreeMap<(LocKey, LocKey), u64>,
    hint_execs: u32,
    hint_seq: u32,
    /// Key-migration shipments that arrived before the plan they belong
    /// to was processed here.
    planvars_buffer: Vec<Shipment<A::Value>>,
    /// Staged migrations this partition is the source or destination of.
    staged: StagedMigrations<A::Value>,
    /// Bounded per-key log of plan decisions: `MigrationDone` /
    /// `MigrationRevert` settle by replaying the key's history (a revert of
    /// move v composes with a chained move at v+1), stray chunks for
    /// decided migrations are acked and dropped, and duplicates or
    /// below-floor stragglers are ignored (default-deny).
    history: PlanHistory,
    /// The modelled execution engine: per-worker busy clocks and the
    /// sliding dependency window (see [`ExecConfig`]).
    exec: ExecScheduler,
    /// Pre-rendered per-partition metric names (hot path).
    name_executed: String,
    name_multi: String,
    name_objects: String,
    /// Pre-rendered per-worker busy-histogram names.
    name_worker_busy: Vec<String>,
    /// Lazily interned per-worker histogram ids, tagged with the
    /// resolving registry's id (same contract as `mids`).
    worker_busy_ids: Option<(u64, Vec<HistogramId>)>,
    /// Interned metric handles, resolved lazily against the simulation's
    /// registry on first record and tagged with that registry's id so a
    /// core handed a different `Metrics` instance re-interns instead of
    /// indexing into the wrong registry (see [`ServerCore::mids`]).
    mids: Option<(u64, ServerMetricIds)>,
}

/// Dense metric ids for everything the core records per executed command —
/// index-based lookups on the delivery path instead of string-keyed ones.
#[derive(Debug, Clone, Copy)]
struct ServerMetricIds {
    objects_exchanged: CounterId,
    cmd_retry: CounterId,
    cmd_multi: CounterId,
    cmd_single: CounterId,
    migration_chunks_sent: CounterId,
    migration_chunk_retries: CounterId,
    migration_reverts: CounterId,
    migration_keys_staged: CounterId,
    migration_deferred: CounterId,
    migration_released: CounterId,
    exec_parallel: CounterId,
    exec_serialized: CounterId,
    exec_window_stall: CounterId,
    s_cmd_multi: SeriesId,
    s_cmd_single: SeriesId,
    s_executed: SeriesId,
    s_multi: SeriesId,
    s_objects: SeriesId,
}

/// Cloning a core snapshots its full protocol state — every replica of a
/// partition holds identical state at the same log position, so a peer's
/// clone is exactly what a recovering replica must install.
impl<A: Application> Clone for ServerCore<A> {
    fn clone(&self) -> Self {
        ServerCore {
            partition: self.partition,
            mode: self.mode,
            config: self.config.clone(),
            owned: self.owned.clone(),
            store: self.store.clone(),
            queue: self.queue.clone(),
            seen: self.seen.clone(),
            vars_in: self.vars_in.clone(),
            returns_in: self.returns_in.clone(),
            aborted: self.aborted.clone(),
            ssmr_in: self.ssmr_in.clone(),
            oracle_signals: self.oracle_signals.clone(),
            plan_version: self.plan_version,
            awaiting_keys: self.awaiting_keys.clone(),
            awaiting_vars: self.awaiting_vars.clone(),
            outmigrated: self.outmigrated.clone(),
            lent: self.lent.clone(),
            executed: self.executed.clone(),
            hint_vertices: self.hint_vertices.clone(),
            hint_edges: self.hint_edges.clone(),
            hint_execs: self.hint_execs,
            hint_seq: self.hint_seq,
            planvars_buffer: self.planvars_buffer.clone(),
            staged: self.staged.clone(),
            history: self.history.clone(),
            exec: self.exec.clone(),
            name_executed: self.name_executed.clone(),
            name_multi: self.name_multi.clone(),
            name_objects: self.name_objects.clone(),
            name_worker_busy: self.name_worker_busy.clone(),
            worker_busy_ids: self.worker_busy_ids.clone(),
            // Ids carry their registry tag, so a clone installed on
            // another replica of the same simulation can keep them.
            mids: self.mids,
        }
    }
}

impl<A: Application> ServerCore<A> {
    /// Creates the core of one replica of `partition`, executing on the
    /// modelled engine `exec`.
    pub fn new(partition: PartitionId, mode: Mode, config: ServerConfig, exec: ExecConfig) -> Self {
        let exec = ExecScheduler::new(exec);
        ServerCore {
            partition,
            mode,
            config,
            owned: BTreeSet::new(),
            store: BTreeMap::new(),
            queue: VecDeque::new(),
            seen: RotatingSet::new(1 << 16),
            vars_in: BTreeMap::new(),
            returns_in: BTreeMap::new(),
            aborted: RotatingSet::new(1 << 14),
            ssmr_in: BTreeMap::new(),
            oracle_signals: Default::default(),
            plan_version: 0,
            awaiting_keys: BTreeMap::new(),
            awaiting_vars: BTreeSet::new(),
            outmigrated: BTreeMap::new(),
            lent: BTreeMap::new(),
            executed: RotatingMap::new(1 << 15),
            hint_vertices: BTreeMap::new(),
            hint_edges: BTreeMap::new(),
            hint_execs: 0,
            hint_seq: 0,
            planvars_buffer: Vec::new(),
            staged: StagedMigrations::new(partition),
            history: PlanHistory::new(PLAN_HISTORY_PER_KEY),
            name_executed: mn::partition_executed(partition.0),
            name_multi: mn::partition_multi(partition.0),
            name_objects: mn::partition_objects(partition.0),
            name_worker_busy: (0..exec.workers() as u32).map(mn::exec_worker_busy).collect(),
            exec,
            worker_busy_ids: None,
            mids: None,
        }
    }

    /// The interned metric ids, resolving them on first use (and again
    /// whenever a different registry shows up).
    fn mids(&mut self, metrics: &mut Metrics) -> ServerMetricIds {
        if let Some((reg, ids)) = self.mids {
            if reg == metrics.registry_id() {
                return ids;
            }
        }
        let ids = ServerMetricIds {
            objects_exchanged: metrics.counter_id(mn::OBJECTS_EXCHANGED),
            cmd_retry: metrics.counter_id(mn::CMD_RETRY),
            cmd_multi: metrics.counter_id(mn::CMD_MULTI),
            cmd_single: metrics.counter_id(mn::CMD_SINGLE),
            migration_chunks_sent: metrics.counter_id(mn::MIGRATION_CHUNKS_SENT),
            migration_chunk_retries: metrics.counter_id(mn::MIGRATION_CHUNK_RETRIES),
            migration_reverts: metrics.counter_id(mn::MIGRATION_REVERTS),
            migration_keys_staged: metrics.counter_id(mn::MIGRATION_KEYS_STAGED),
            migration_deferred: metrics.counter_id(mn::MIGRATION_DEFERRED),
            migration_released: metrics.counter_id(mn::MIGRATION_RELEASED),
            exec_parallel: metrics.counter_id(mn::EXEC_PARALLEL),
            exec_serialized: metrics.counter_id(mn::EXEC_SERIALIZED),
            exec_window_stall: metrics.counter_id(mn::EXEC_WINDOW_STALL),
            s_cmd_multi: metrics.series_id(mn::CMD_MULTI),
            s_cmd_single: metrics.series_id(mn::CMD_SINGLE),
            s_executed: metrics.series_id(&self.name_executed),
            s_multi: metrics.series_id(&self.name_multi),
            s_objects: metrics.series_id(&self.name_objects),
        };
        self.mids = Some((metrics.registry_id(), ids));
        ids
    }

    /// The interned per-worker busy-histogram id for worker `w`, resolved
    /// lazily against the current registry (same contract as [`Self::mids`]).
    fn worker_hist(&mut self, metrics: &mut Metrics, w: usize) -> HistogramId {
        if let Some((reg, ids)) = &self.worker_busy_ids {
            if *reg == metrics.registry_id() {
                return ids[w];
            }
        }
        let ids: Vec<HistogramId> =
            self.name_worker_busy.iter().map(|n| metrics.histogram_id(n)).collect();
        let id = ids[w];
        self.worker_busy_ids = Some((metrics.registry_id(), ids));
        id
    }

    /// Re-enables or disables metric recording — used after installing a
    /// peer's state clone, which carries the *donor's* recording flag.
    pub fn set_record_metrics(&mut self, on: bool) {
        self.config.record_metrics = on;
    }

    /// Seeds initial state before the simulation starts (avoids issuing
    /// millions of create commands for benchmark datasets).
    pub fn preload(
        &mut self,
        keys: impl IntoIterator<Item = LocKey>,
        vars: impl IntoIterator<Item = (VarId, A::Value)>,
    ) {
        self.owned.extend(keys);
        self.store.extend(vars);
    }

    /// Diagnostic: the keys this partition owns, as `(key, partition)`
    /// pairs in key order. The union across partitions is the cluster's
    /// server-side location map; convergence tests compare it (and every
    /// replica's copy) against the oracle's map.
    pub fn location_view(&self) -> Vec<(u64, u32)> {
        self.owned.iter().map(|k| (k.0, self.partition.0)).collect()
    }

    /// This partition's id.
    pub fn partition(&self) -> PartitionId {
        self.partition
    }

    /// Number of locality keys currently owned.
    pub fn owned_keys(&self) -> usize {
        self.owned.len()
    }

    /// Whether `key` is currently owned here.
    pub fn owns(&self, key: LocKey) -> bool {
        self.owned.contains(&key)
    }

    /// Read access to a stored variable (test/debug aid).
    pub fn value_of(&self, var: VarId) -> Option<&A::Value> {
        self.store.get(&var)
    }

    /// Depth of the execution queue (test/debug aid).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Handles an atomic multicast delivery addressed to this partition.
    pub fn on_deliver(
        &mut self,
        payload: Payload<A>,
        now: SimTime,
        metrics: &mut Metrics,
    ) -> Vec<Effect<A>> {
        let mut eff = Vec::new();
        // A command payload carries its own command kind by construction;
        // a mismatched one is malformed and dropped.
        match payload {
            Payload::Access { cmd, attempt, expected, target, keep } => {
                if let CommandKind::Access { op, vars } = cmd.kind {
                    let (id, client) = (cmd.id, cmd.client);
                    self.queue.push_back(Queued::Access {
                        op,
                        cmd: AccessCmd {
                            id,
                            client,
                            attempt,
                            vars,
                            expected,
                            target,
                            keep,
                            sent_vars: false,
                            sent_exchange: false,
                        },
                    });
                }
            }
            Payload::CreateKey { cmd, dest } => {
                if let (true, CommandKind::CreateKey { key, vars }) =
                    (dest == self.partition, cmd.kind)
                {
                    let (id, client) = (cmd.id, cmd.client);
                    let cmd = KeyCmd { id, client, key, signalled: false };
                    self.queue.push_back(Queued::Create { vars, cmd });
                }
            }
            Payload::DeleteKey { cmd, dest } => {
                if let (true, CommandKind::DeleteKey { key }) = (dest == self.partition, cmd.kind) {
                    let (id, client) = (cmd.id, cmd.client);
                    self.queue.push_back(Queued::Delete(KeyCmd {
                        id,
                        client,
                        key,
                        signalled: false,
                    }));
                }
            }
            Payload::Plan { version, moves } => {
                // Record every move at *delivery* (the plan itself applies
                // later, through the queue): a Done/Revert delivered after
                // this plan but before its pump must already see the chain
                // when it replays the key's history.
                for &(key, from, to) in &moves {
                    self.history.record_move(key, version, from, to);
                }
                self.queue.push_back(Queued::Plan { version, moves });
            }
            Payload::MigrationDone { version, key, from, to } => {
                // Safe to apply at delivery (not queued): at the
                // destination this only converts a head-of-queue *wait*
                // into an execution with the staged values, which are
                // identical on every replica; ownership itself changed at
                // the (queued) plan. Settling replays the key's plan
                // history: a duplicate or below-floor straggler is Stale
                // and a no-op (the staging entry it would create could
                // never resolve).
                let settle = self.history.settle(key, version, from, to, MoveOutcome::Done);
                if from == self.partition {
                    self.staged.finish(&self.config, version, key, now);
                }
                if matches!(settle, Settle::Applied { .. }) && to == self.partition {
                    self.staged.mark_done(version, key, from);
                    self.try_install_staged(version, key, metrics, &mut eff);
                }
            }
            Payload::MigrationRevert { version, key, from, to } => {
                // Settle-by-replay: the revert annuls move v, and the
                // replayed `owner` is wherever the surviving history puts
                // the key — `from` in the simple case, a chained move's
                // destination otherwise. Duplicates and below-floor
                // stragglers are Stale no-ops (a late revert can never
                // flip ownership again, however long it straggles).
                if let Settle::Applied { owner } =
                    self.history.settle(key, version, from, to, MoveOutcome::Reverted)
                {
                    if to == self.partition {
                        // Destination side applies at delivery: during
                        // staging every command touching the key *waits*,
                        // so un-owning here deterministically turns those
                        // waits (and all later-delivered commands) into
                        // client retries on every replica. With a chained
                        // move back into this partition the replayed owner
                        // is us — keep ownership, the data holder ships to
                        // us via its own revert pump.
                        self.staged.cancel(version, key);
                        if owner != self.partition && self.owned.contains(&key) {
                            self.awaiting_keys.remove(&key);
                            self.owned.remove(&key);
                            self.outmigrated.insert(key, owner);
                        }
                    }
                    if from == self.partition {
                        // Source side re-owns (or re-ships) through the
                        // queue: a command delivered before the revert must
                        // resolve against the pre-revert ownership on every
                        // replica, no matter how far its local pump has
                        // progressed.
                        self.queue.push_back(Queued::MigrationRevert { version, key });
                    }
                }
            }
            Payload::Exec { .. } | Payload::Hint { .. } | Payload::Recompute { .. } => {
                // Oracle-only payloads; partitions are never destinations.
            }
        }
        self.pump(now, metrics, &mut eff);
        self.finalize_wakes(now, metrics, &mut eff);
        eff
    }

    /// Called by the hosting actor when the modelled CPU frees up.
    pub fn on_wake(&mut self, now: SimTime, metrics: &mut Metrics) -> Vec<Effect<A>> {
        let mut eff = Vec::new();
        self.pump(now, metrics, &mut eff);
        self.finalize_wakes(now, metrics, &mut eff);
        eff
    }

    /// Handles a direct message.
    pub fn on_direct(
        &mut self,
        msg: Direct<A>,
        now: SimTime,
        metrics: &mut Metrics,
    ) -> Vec<Effect<A>> {
        let mut eff = Vec::new();
        if let Some(key) = msg.dedup_key() {
            if !self.seen.insert(key) {
                return eff;
            }
        }
        match msg {
            Direct::VarsForCmd { cmd, attempt, from, vars } => {
                if self.aborted.contains(&(cmd, attempt)) || self.executed.contains_key(&cmd) {
                    // Command will not execute here (aborted or duplicate):
                    // bounce the variables straight back unchanged.
                    eff.push(Effect::Send {
                        to: Destination::Partition(from),
                        msg: Direct::VarsReturn { cmd, attempt, vars },
                    });
                } else {
                    self.vars_in.entry((cmd, attempt)).or_default().insert(from, vars);
                }
            }
            Direct::VarsReturn { cmd, attempt, vars } => {
                self.returns_in.insert((cmd, attempt), vars);
            }
            Direct::Abort { cmd, attempt, .. } => {
                self.aborted.insert((cmd, attempt));
                self.bounce_vars_in(cmd, attempt, &mut eff);
            }
            Direct::Signal { cmd, from_partition } => {
                if from_partition.is_none() {
                    self.oracle_signals.insert(cmd);
                }
            }
            Direct::PlanVars { version, key, from, vars, pending, primary } => {
                let shipment = Shipment { version, key, from, vars, pending, primary };
                self.on_plan_vars(shipment, metrics, &mut eff);
            }
            Direct::PlanVarsChunk { version, key, from, chunk, total, vars } => {
                // Ack unconditionally — even duplicates and post-settle
                // strays — so a lost ack can never wedge the sender.
                eff.push(Effect::Send {
                    to: Destination::Partition(from),
                    msg: Direct::PlanVarsAck { version, key, chunk },
                });
                // Only buffer chunks for migrations not yet decided, or
                // with a staging entry still present (Done delivered
                // before all chunks arrived). Once decided *and*
                // dismantled the chunk is ack-only: `decided` answers true
                // for below-floor stragglers too (default-deny), so a
                // stray can never resurrect a staging entry — the
                // unconditional ack above is what terminates the sender's
                // retransmit loop.
                if !self.history.decided(version, key) || self.staged.is_staging(version, key) {
                    eff.extend(self.staged.buffer_chunk(version, key, from, chunk, total, vars));
                    // A late chunk may complete a migration whose Done was
                    // already delivered.
                    self.try_install_staged(version, key, metrics, &mut eff);
                }
            }
            Direct::PlanVarsAck { version, key, chunk } => {
                self.staged.on_ack(&self.config, version, key, chunk);
            }
            Direct::SsmrExchange { cmd, attempt, from, vars } => {
                self.ssmr_in.entry((cmd, attempt)).or_default().insert(from, vars);
            }
            Direct::Prophecy { .. }
            | Direct::Reply { .. }
            | Direct::Retry { .. }
            | Direct::Ack { .. } => {
                // Client-addressed; a server never receives these.
            }
        }
        self.pump(now, metrics, &mut eff);
        self.finalize_wakes(now, metrics, &mut eff);
        eff
    }

    /// Sends every variable received for `(cmd, attempt)` back to its
    /// lender: the command will not execute here, and lenders block until
    /// their variables come home.
    fn bounce_vars_in(&mut self, cmd: MsgId, attempt: u32, eff: &mut Vec<Effect<A>>) {
        for (from, vars) in self.vars_in.remove(&(cmd, attempt)).unwrap_or_default() {
            eff.push(Effect::Send {
                to: Destination::Partition(from),
                msg: Direct::VarsReturn { cmd, attempt, vars },
            });
        }
    }

    /// Installs (or forwards) a staged migration's variables once both the
    /// `MigrationDone` has been delivered and every chunk has arrived at
    /// this replica. Any replica may reach this point later than its peers
    /// (chunks travel outside the total order); the installed values are
    /// identical regardless.
    fn try_install_staged(
        &mut self,
        version: u64,
        key: LocKey,
        metrics: &mut Metrics,
        eff: &mut Vec<Effect<A>>,
    ) {
        if !self.staged.ready(version, key) {
            return;
        }
        if !self.owned.contains(&key) && !self.outmigrated.contains_key(&key) {
            // The Done multicast outran the (queued) plan that makes this
            // replica the owner. Keep the staged entry; pump_plan re-runs
            // the install once that plan has been applied. Dropping the
            // vars here would leave the key owned-but-empty forever.
            return;
        }
        let Some((from, vars)) = self.staged.take(version, key) else { return };
        if self.owned.contains(&key) {
            let count = vars.len() as u64;
            for (v, val) in vars {
                store_put(&mut self.store, v, val);
                self.awaiting_vars.remove(&v);
            }
            self.awaiting_keys.remove(&key);
            if self.config.record_metrics {
                let ids = self.mids(metrics);
                metrics.incr(ids.objects_exchanged, count);
            }
        } else if let Some(&next) = self.outmigrated.get(&key) {
            // The key was moved away again before staging completed:
            // forward the state as a classic primary shipment along the
            // migration chain (the next owner awaits exactly this).
            eff.push(Effect::Send {
                to: Destination::Partition(next),
                msg: Direct::PlanVars {
                    version,
                    key,
                    from,
                    vars,
                    pending: Vec::new(),
                    primary: true,
                },
            });
        }
    }

    /// Applies a (primary or supplement) key migration shipment.
    ///
    /// Shipments can arrive while this partition has not yet processed the
    /// plan that makes it the owner (buffer until then), or after a later
    /// plan moved the key away again (forward along the migration chain).
    /// The carried plan version disambiguates the two, which keeps the
    /// forwarding chain loop-free: forwards only follow plans this replica
    /// has already applied.
    fn on_plan_vars(
        &mut self,
        shipment: Shipment<A::Value>,
        metrics: &mut Metrics,
        eff: &mut Vec<Effect<A>>,
    ) {
        let key = shipment.key;
        if !self.owned.contains(&key) && !self.awaiting_keys.contains_key(&key) {
            if shipment.version > self.plan_version {
                // We have not applied the plan that concerns this shipment
                // yet; hold it until pump_plan catches up.
                self.planvars_buffer.push(shipment);
            } else if let Some(&next) = self.outmigrated.get(&key) {
                // The key has already moved on; forward toward its current
                // home. `from` is preserved so the receiver's dedup key
                // still identifies the original shipment.
                let Shipment { version, from, vars, pending, primary, .. } = shipment;
                eff.push(Effect::Send {
                    to: Destination::Partition(next),
                    msg: Direct::PlanVars { version, key, from, vars, pending, primary },
                });
            }
            return;
        }
        let Shipment { vars, pending, primary, .. } = shipment;
        let received = vars.len() as u64;
        for (v, val) in vars {
            store_put(&mut self.store, v, val);
            self.awaiting_vars.remove(&v);
        }
        if primary {
            self.awaiting_keys.remove(&key);
            self.awaiting_vars.extend(pending);
        }
        if self.config.record_metrics {
            let ids = self.mids(metrics);
            metrics.incr(ids.objects_exchanged, received);
        }
    }

    // ------------------------------------------------------------------
    // Queue processing
    // ------------------------------------------------------------------

    /// Processes the queue head for as long as it can make progress. The
    /// head is popped while being worked on and pushed back if it must
    /// wait, keeping borrows of `self` free for the handlers.
    ///
    /// Commands still *apply* strictly in delivery order: the scheduler
    /// only decides when the head is admitted — an access command once a
    /// worker is free and every conflicting in-flight predecessor has
    /// finished, anything else once every worker has drained.
    fn pump(&mut self, now: SimTime, metrics: &mut Metrics, eff: &mut Vec<Effect<A>>) {
        loop {
            let gate = match self.queue.front() {
                None => return,
                Some(Queued::Access { op, cmd }) => {
                    self.exec.access_gate(cmd.id, cmd.attempt, || A::classify(op, &cmd.vars), now)
                }
                Some(_) => self.exec.barrier_gate(),
            };
            if now < gate {
                // The modelled engine cannot admit the head yet: ask the
                // hosting actor to wake us when it can.
                eff.push(Effect::Wake { at: gate });
                return;
            }
            let Some(mut entry) = self.queue.pop_front() else { return };
            let done = match &mut entry {
                Queued::Access { op, cmd } => self.pump_access(op, cmd, now, metrics, eff),
                Queued::Create { vars, cmd } => self.pump_create(vars, cmd, now, metrics, eff),
                Queued::Delete(cmd) => self.pump_delete(cmd, eff),
                Queued::Plan { version, moves } => {
                    self.pump_plan(*version, moves, now, metrics, eff);
                    true
                }
                Queued::MigrationRevert { version, key } => {
                    self.pump_revert(*version, *key, now, metrics, eff);
                    true
                }
            };
            if !done {
                self.queue.push_front(entry);
                return;
            }
        }
    }

    /// Whether every variable this partition must provide is resolvable:
    /// `Err(())` = stale routing, `Ok(false)` = wait, `Ok(true)` = ready.
    fn my_vars_ready(&self, expected: &[(VarId, PartitionId)]) -> Result<bool, ()> {
        for &(v, p) in expected {
            if p != self.partition {
                continue;
            }
            let key = A::locality(v);
            if !self.owned.contains(&key) {
                return Err(()); // routing was stale
            }
            if self.awaiting_keys.contains_key(&key) || self.awaiting_vars.contains(&v) {
                return Ok(false); // migration in flight
            }
        }
        Ok(true)
    }

    /// Collects this partition's (authoritative) values for its expected
    /// variables.
    fn my_var_values(&self, expected: &[(VarId, PartitionId)]) -> VarShipment<A> {
        expected
            .iter()
            .filter(|&&(_, p)| p == self.partition)
            .map(|&(v, _)| (v, self.store.get(&v).cloned()))
            .collect()
    }

    /// Advances the access command at the queue head; `true` once it is
    /// finished here.
    fn pump_access(
        &mut self,
        op: &A::Op,
        cmd: &mut AccessCmd,
        now: SimTime,
        metrics: &mut Metrics,
        eff: &mut Vec<Effect<A>>,
    ) -> bool {
        let (cmd_id, attempt) = (cmd.id, cmd.attempt);
        let dests = cmd.partitions();
        let multi = dests.len() > 1;

        // Duplicate dispatch of an already-executed command: answer from
        // the reply cache, bounce any borrowed vars.
        if let Some(reply) = self.executed.get(&cmd_id) {
            if cmd.target == self.partition {
                eff.push(Effect::Send {
                    to: Destination::Client(cmd.client),
                    msg: Direct::Reply { cmd: cmd_id, attempt, reply: reply.clone() },
                });
                self.bounce_vars_in(cmd_id, attempt, eff);
            }
            return true;
        }

        // Known aborted: nothing to do (vars already bounced on arrival).
        if self.aborted.contains(&(cmd_id, attempt)) {
            self.bounce_vars_in(cmd_id, attempt, eff);
            return true;
        }

        // Staleness check for the variables expected of us.
        match self.my_vars_ready(&cmd.expected) {
            Err(()) => {
                trace_blocked(format_args!(
                    "[{}] t={} cmd={} att={} stale routing: expected={:?}",
                    self.partition, now, cmd_id, attempt, cmd.expected,
                ));
                // Tell the client to retry via the oracle; tell the target
                // to abandon the command.
                eff.push(Effect::Send {
                    to: Destination::Client(cmd.client),
                    msg: Direct::Retry { cmd: cmd_id, attempt },
                });
                if cmd.target != self.partition {
                    eff.push(Effect::Send {
                        to: Destination::Partition(cmd.target),
                        msg: Direct::Abort { cmd: cmd_id, attempt, missing_at: self.partition },
                    });
                } else {
                    // We are the target: lenders that already shipped their
                    // variables block until they come back.
                    self.bounce_vars_in(cmd_id, attempt, eff);
                }
                self.aborted.insert((cmd_id, attempt));
                if self.config.record_metrics {
                    let ids = self.mids(metrics);
                    metrics.incr(ids.cmd_retry, 1);
                }
                return true;
            }
            Ok(false) => {
                trace_blocked(format_args!(
                    "[{}] t={} cmd={} att={} waits for in-flight migration: keys={:?} vars={:?}",
                    self.partition, now, cmd_id, attempt, self.awaiting_keys, self.awaiting_vars
                ));
                return false; // wait for in-flight migration
            }
            Ok(true) => {}
        }

        if !multi {
            // Single-partition fast path (Algorithm 3 Task 1a).
            let (reply, _) = self.execute(op, cmd, BTreeMap::new(), now, metrics);
            self.finish_execution(cmd, reply, false, now, metrics, eff);
            return true;
        }

        if self.mode == Mode::SSmr {
            // S-SMR: exchange shares, then everyone executes.
            if !cmd.sent_exchange {
                cmd.sent_exchange = true;
                let mine = self.my_var_values(&cmd.expected);
                if self.config.record_metrics {
                    let ids = self.mids(metrics);
                    metrics.incr(
                        ids.objects_exchanged,
                        mine.iter().filter(|(_, v)| v.is_some()).count() as u64,
                    );
                }
                for &p in dests.iter().filter(|&&p| p != self.partition) {
                    eff.push(Effect::Send {
                        to: Destination::Partition(p),
                        msg: Direct::SsmrExchange {
                            cmd: cmd_id,
                            attempt,
                            from: self.partition,
                            vars: mine.clone(),
                        },
                    });
                }
            }
            let have = self.ssmr_in.get(&(cmd_id, attempt)).map(|m| m.len()).unwrap_or(0);
            if have + 1 < dests.len() {
                return false; // waiting for other partitions' shares
            }
            // Assemble the full variable map and execute; apply only our
            // own variables, and only the lowest-id partition replies.
            let shares = self.ssmr_in.remove(&(cmd_id, attempt)).unwrap_or_default();
            let (reply, _) =
                self.execute(op, cmd, shares.into_values().flatten().collect(), now, metrics);
            if self.config.record_metrics {
                let ids = self.mids(metrics);
                metrics.record_at(ids.s_multi, now, 1.0);
            }
            if self.partition == dests[0] {
                self.finish_execution(cmd, reply, true, now, metrics, eff);
            } else {
                // Record execution without replying (dedup for retries).
                self.executed.insert(cmd_id, reply);
                if self.config.record_metrics {
                    let ids = self.mids(metrics);
                    metrics.record_at(ids.s_executed, now, 1.0);
                }
            }
            return true;
        }

        // DynaStar / DS-SMR path.
        if cmd.target == self.partition {
            // Target: wait until every other involved partition shipped.
            let have = self.vars_in.get(&(cmd_id, attempt)).map(|m| m.len()).unwrap_or(0);
            if have + 1 < dests.len() {
                trace_blocked(format_args!(
                    "[{}] t={} target cmd={} att={} waits for vars: {have}/{} received",
                    self.partition,
                    now,
                    cmd_id,
                    attempt,
                    dests.len() - 1
                ));
                return false;
            }
            let shipments = self.vars_in.remove(&(cmd_id, attempt)).unwrap_or_default();
            let mut borrowed: BTreeMap<VarId, Option<A::Value>> = BTreeMap::new();
            let mut sources: BTreeMap<VarId, PartitionId> = BTreeMap::new();
            for (from, vars) in shipments {
                for (v, val) in vars {
                    sources.insert(v, from);
                    borrowed.insert(v, val);
                }
            }
            let (reply, vars) = self.execute(op, cmd, borrowed, now, metrics);
            // Borrowed variables: return home (DynaStar) or absorb (DS-SMR).
            let mut by_source: ShipmentsBySource<A> = BTreeMap::new();
            for (v, from) in sources {
                by_source.entry(from).or_default().push((v, vars.get(&v).cloned().flatten()));
            }
            if cmd.keep {
                for (v, val) in by_source.into_values().flatten() {
                    self.owned.insert(A::locality(v));
                    store_put(&mut self.store, v, val);
                }
            } else {
                let mut returned_objects = 0u64;
                for (from, vars) in by_source {
                    returned_objects += vars.iter().filter(|(_, v)| v.is_some()).count() as u64;
                    eff.push(Effect::Send {
                        to: Destination::Partition(from),
                        msg: Direct::VarsReturn { cmd: cmd_id, attempt, vars },
                    });
                }
                if self.config.record_metrics {
                    let ids = self.mids(metrics);
                    metrics.incr(ids.objects_exchanged, returned_objects);
                    metrics.record_at(ids.s_objects, now, returned_objects as f64);
                }
            }
            self.finish_execution(cmd, reply, true, now, metrics, eff);
            return true;
        }

        // Non-target: ship our variables, then (DynaStar) await return.
        if !cmd.sent_vars {
            cmd.sent_vars = true;
            let mine = self.my_var_values(&cmd.expected);
            if self.config.record_metrics {
                let ids = self.mids(metrics);
                let shipped = mine.iter().filter(|(_, v)| v.is_some()).count();
                metrics.incr(ids.objects_exchanged, shipped as u64);
                metrics.record_at(ids.s_objects, now, shipped as f64);
                metrics.record_at(ids.s_multi, now, 1.0);
            }
            // Values leave this partition while borrowed.
            for (v, _) in &mine {
                self.lent.insert(*v, (cmd_id, attempt));
                self.store.remove(v);
            }
            eff.push(Effect::Send {
                to: Destination::Partition(cmd.target),
                msg: Direct::VarsForCmd { cmd: cmd_id, attempt, from: self.partition, vars: mine },
            });
            if cmd.keep {
                // DS-SMR: ownership transfers; nothing comes back.
                for &(v, p) in &cmd.expected {
                    if p == self.partition && self.owned.remove(&A::locality(v)) {
                        self.outmigrated.insert(A::locality(v), cmd.target);
                    }
                }
                // Lent entries are moot: clear them.
                self.lent.retain(|_, &mut (c, a)| !(c == cmd_id && a == attempt));
                return true;
            }
        }
        // DynaStar: block until the variables come home (line 17).
        let Some(returned) = self.returns_in.remove(&(cmd_id, attempt)) else {
            trace_blocked(format_args!(
                "[{}] t={} lender cmd={} att={} waits for return from {}",
                self.partition, now, cmd_id, attempt, cmd.target
            ));
            return false;
        };
        for (v, val) in returned {
            self.lent.remove(&v);
            self.apply_returned_var(v, val, eff);
        }
        true
    }

    /// Stores or forwards one returned variable, depending on whether its
    /// key still lives here.
    fn apply_returned_var(&mut self, v: VarId, val: Option<A::Value>, eff: &mut Vec<Effect<A>>) {
        let key = A::locality(v);
        if self.owned.contains(&key) {
            store_put(&mut self.store, v, val);
        } else if let Some(&next) = self.outmigrated.get(&key) {
            // The key migrated while the variable was lent: forward it as a
            // supplement so the new owner can clear its pending marker.
            eff.push(Effect::Send {
                to: Destination::Partition(next),
                msg: Direct::PlanVars {
                    version: self.plan_version,
                    key,
                    from: self.partition,
                    vars: vec![(v, val)],
                    pending: Vec::new(),
                    primary: false,
                },
            });
        }
    }

    /// Executes the access command at the queue head: adds this
    /// partition's expected variables to `vars` (which already holds any
    /// borrowed or exchanged ones), runs `op`, writes the local variables
    /// back, and accounts the modelled CPU time. Returns the reply and the
    /// variable map as `op` left it.
    fn execute(
        &mut self,
        op: &A::Op,
        cmd: &AccessCmd,
        mut vars: BTreeMap<VarId, Option<A::Value>>,
        now: SimTime,
        metrics: &mut Metrics,
    ) -> (A::Reply, BTreeMap<VarId, Option<A::Value>>) {
        for &(v, p) in &cmd.expected {
            if p == self.partition {
                vars.insert(v, self.store.get(&v).cloned());
            }
        }
        let reply = A::execute(op, &mut vars);
        for &(v, p) in &cmd.expected {
            if p == self.partition {
                store_put(&mut self.store, v, vars.get(&v).cloned().flatten());
            }
        }
        let admission = self.exec.admit(cmd.id, cmd.attempt, || A::classify(op, &cmd.vars), now);
        if let (Some(a), true) = (admission, self.config.record_metrics) {
            let ids = self.mids(metrics);
            if a.overlapped {
                metrics.incr(ids.exec_parallel, 1);
            }
            if a.serialized {
                metrics.incr(ids.exec_serialized, 1);
            }
            if a.window_stalled {
                metrics.incr(ids.exec_window_stall, 1);
            }
            let h = self.worker_hist(metrics, a.worker);
            metrics.observe(h, a.busy);
        }
        (reply, vars)
    }

    /// Reply, reply-cache, metrics and hint bookkeeping after execution.
    fn finish_execution(
        &mut self,
        cmd: &AccessCmd,
        reply: A::Reply,
        multi: bool,
        now: SimTime,
        metrics: &mut Metrics,
        eff: &mut Vec<Effect<A>>,
    ) {
        eff.push(Effect::Send {
            to: Destination::Client(cmd.client),
            msg: Direct::Reply { cmd: cmd.id, attempt: cmd.attempt, reply: reply.clone() },
        });
        self.executed.insert(cmd.id, reply);
        if self.config.record_metrics {
            let ids = self.mids(metrics);
            metrics.record_at(ids.s_executed, now, 1.0);
            if multi {
                metrics.incr(ids.cmd_multi, 1);
                metrics.record_at(ids.s_cmd_multi, now, 1.0);
                metrics.record_at(ids.s_multi, now, 1.0);
            } else {
                metrics.incr(ids.cmd_single, 1);
                metrics.record_at(ids.s_cmd_single, now, 1.0);
            }
        }
        if self.mode.optimizes() {
            self.record_hint(&cmd.vars, eff);
        }
    }

    /// Accumulates workload-graph hints for one executed command over
    /// `vars` and flushes a batch when due (Algorithm 2 Task 4, partition
    /// side). Every batch goes to the planner shard, the one oracle shard
    /// that owns the workload graph.
    fn record_hint(&mut self, vars: &[VarId], eff: &mut Vec<Effect<A>>) {
        let mut keys: Vec<LocKey> = vars.iter().map(|&v| A::locality(v)).collect();
        keys.sort_unstable();
        keys.dedup();
        for &k in &keys {
            *self.hint_vertices.entry(k).or_insert(0) += 1;
        }
        for i in 0..keys.len() {
            for j in (i + 1)..keys.len() {
                *self.hint_edges.entry((keys[i], keys[j])).or_insert(0) += 1;
            }
        }
        self.hint_execs += 1;
        if self.hint_execs < self.config.hint_batch {
            return;
        }
        self.hint_execs = 0;
        if self.hint_vertices.is_empty() && self.hint_edges.is_empty() {
            return;
        }
        // BTreeMap iteration keeps both lists key-sorted.
        let vertices = std::mem::take(&mut self.hint_vertices).into_iter().collect();
        let edges =
            std::mem::take(&mut self.hint_edges).into_iter().map(|((a, b), w)| (a, b, w)).collect();
        let mid = MsgId::new(PARTITION_ORIGIN_BASE + self.partition.0 as u64, self.hint_seq);
        self.hint_seq += 1;
        eff.push(Effect::Multicast {
            mid,
            partitions: Vec::new(),
            oracle: OracleDest::Shard(0),
            payload: Payload::Hint { vertices, edges },
        });
    }

    /// The create/delete rendezvous (Algorithm 3 Task 2): signals the
    /// oracle once, and reports whether the oracle's own signal is in.
    fn rendezvous(&self, cmd: &mut KeyCmd, eff: &mut Vec<Effect<A>>) -> bool {
        if !cmd.signalled {
            cmd.signalled = true;
            eff.push(Effect::Send {
                to: Destination::Oracle,
                msg: Direct::Signal { cmd: cmd.id, from_partition: Some(self.partition) },
            });
        }
        self.oracle_signals.contains(&cmd.id)
    }

    fn pump_create(
        &mut self,
        vars: &[(VarId, A::Value)],
        cmd: &mut KeyCmd,
        now: SimTime,
        metrics: &mut Metrics,
        eff: &mut Vec<Effect<A>>,
    ) -> bool {
        if !self.rendezvous(cmd, eff) {
            return false;
        }
        self.owned.insert(cmd.key);
        for (v, val) in vars {
            self.store.insert(*v, val.clone());
        }
        if self.config.record_metrics {
            let ids = self.mids(metrics);
            metrics.record_at(ids.s_executed, now, 1.0);
        }
        eff.push(Effect::Send {
            to: Destination::Client(cmd.client),
            msg: Direct::Ack { cmd: cmd.id },
        });
        true
    }

    fn pump_delete(&mut self, cmd: &mut KeyCmd, eff: &mut Vec<Effect<A>>) -> bool {
        let key = cmd.key;
        if self.awaiting_keys.contains_key(&key) {
            return false; // migration inbound; wait for the state first
        }
        if !self.owned.contains(&key) {
            // Stale: the key moved away after the oracle routed the delete.
            eff.push(Effect::Send {
                to: Destination::Client(cmd.client),
                msg: Direct::Retry { cmd: cmd.id, attempt: 0 },
            });
            return true;
        }
        if !self.rendezvous(cmd, eff) {
            return false;
        }
        self.owned.remove(&key);
        let dead: Vec<VarId> =
            self.store.keys().copied().filter(|&v| A::locality(v) == key).collect();
        for v in dead {
            self.store.remove(&v);
        }
        eff.push(Effect::Send {
            to: Destination::Client(cmd.client),
            msg: Direct::Ack { cmd: cmd.id },
        });
        true
    }

    fn pump_plan(
        &mut self,
        version: u64,
        moves: &[(LocKey, PartitionId, PartitionId)],
        now: SimTime,
        metrics: &mut Metrics,
        eff: &mut Vec<Effect<A>>,
    ) {
        self.plan_version = version;
        for &(key, from, to) in moves {
            // Outbound: nominally `from == self.partition`, but a revert
            // that already pumped here can have re-owned a key whose next
            // move the oracle planned from the *reverted* destination
            // (`from` is stale). The actual holder must ship it — the
            // nominal source no longer owns the key and skips below, so
            // exactly one partition ships.
            let outbound =
                to != self.partition && (from == self.partition || self.owned.contains(&key));
            if outbound {
                // Chained migration: the key may still be in flight toward
                // us from an earlier plan. We then ship what we have as a
                // supplement and let the in-flight primary be forwarded
                // through us (see on_plan_vars) once it lands.
                let was_awaiting = self.awaiting_keys.remove(&key).is_some();
                if !self.owned.remove(&key) {
                    continue; // already gone (e.g. DS-SMR moved it earlier)
                }
                self.outmigrated.insert(key, to);
                let vars: VarShipment<A> = self
                    .store
                    .iter()
                    .filter(|(&v, _)| A::locality(v) == key)
                    .map(|(&v, val)| (v, Some(val.clone())))
                    .collect();
                for (v, _) in &vars {
                    self.store.remove(v);
                }
                // Stale in-flight markers move with the key.
                self.awaiting_vars.retain(|&v| A::locality(v) != key);
                let pending: Vec<VarId> =
                    self.lent.keys().copied().filter(|&v| A::locality(v) == key).collect();
                if self.config.record_metrics {
                    let ids = self.mids(metrics);
                    metrics.incr(ids.objects_exchanged, vars.len() as u64);
                    metrics.record_at(ids.s_objects, now, vars.len() as f64);
                }
                // Staged path: only for keys fully at rest here — owned
                // outright (not still awaiting an earlier migration) with
                // no variables lent out. Anything else keeps the classic
                // immediate shipment, so no supplement or returned loan
                // can ever land mid-staging.
                if self.config.staged_migration && !was_awaiting && pending.is_empty() {
                    // A replica whose queue lags its peers' can pump the
                    // plan after the move's MigrationDone was delivered
                    // here; a transfer started now would never be
                    // dismantled and would hold its link slot forever.
                    if !self.settled_done(version, key) {
                        self.staged.start(&self.config, version, key, to, vars, now);
                    }
                    continue; // chunks ship from the migration pump
                }
                // Unthrottled path under a configured bandwidth model: the
                // whole transfer charges the link at once — this is the
                // stall baseline staged migration is measured against.
                if self.config.migration_link_bytes_per_sec > 0 {
                    self.exec.charge(now, transfer_time(&self.config, vars.len()));
                }
                // A key still awaiting its own inbound primary is not
                // authoritative here: send only what we hold.
                if !was_awaiting || !vars.is_empty() {
                    eff.push(Effect::Send {
                        to: Destination::Partition(to),
                        msg: Direct::PlanVars {
                            version,
                            key,
                            from: self.partition,
                            vars,
                            pending,
                            primary: !was_awaiting,
                        },
                    });
                }
            } else if to == self.partition && from != self.partition {
                if self.history.reverted(version, key) {
                    // The move was annulled before this plan reached the
                    // queue head. Taking ownership would wedge the key
                    // (the source will never ship); if a later surviving
                    // move re-routes it here, that plan entry takes
                    // ownership when it pumps.
                    continue;
                }
                self.owned.insert(key);
                self.outmigrated.remove(&key);
                self.awaiting_keys.insert(key, from);
            }
        }
        // Staged shipments whose Done outran this plan in the queue can
        // resolve now that the ownership it decides is in place.
        for (v, key) in self.staged.done_moves() {
            self.try_install_staged(v, key, metrics, eff);
        }
        // Re-process shipments that arrived before this plan.
        let (ready, later): (Vec<_>, Vec<_>) = std::mem::take(&mut self.planvars_buffer)
            .into_iter()
            .partition(|s| s.version <= version);
        self.planvars_buffer = later;
        for shipment in ready {
            self.on_plan_vars(shipment, metrics, eff);
        }
    }

    /// Whether the move `(version, key)` is already decided Done: decided
    /// in the plan history, with no source-side revert of it queued (a
    /// decided revert always queues one behind its plan).
    fn settled_done(&self, version: u64, key: LocKey) -> bool {
        self.history.decided(version, key)
            && !self.queue.iter().any(|q| {
                matches!(q, Queued::MigrationRevert { version: v, key: k } if *v == version && *k == key)
            })
    }

    /// Queue-ordered source-side resolution of a gave-up staged migration.
    /// Replaying the key's plan history decides where it now belongs: with
    /// no surviving later move the key comes home (re-own + reinstall the
    /// retained chunk data); with a chained move past the reverted one the
    /// cluster has already agreed the key lives at the chain's end — this
    /// partition holds the only authoritative copy, so it ships the
    /// retained state there as the primary shipment the owner awaits.
    fn pump_revert(
        &mut self,
        version: u64,
        key: LocKey,
        now: SimTime,
        metrics: &mut Metrics,
        eff: &mut Vec<Effect<A>>,
    ) {
        let Some((to, vars)) = self.staged.finish(&self.config, version, key, now) else {
            return; // already dismantled (e.g. by a racing Done)
        };
        match self.history.resolved_owner_versioned(key) {
            Some((owner, owner_version)) if owner != self.partition => {
                if self.outmigrated.get(&key) == Some(&to) {
                    self.outmigrated.insert(key, owner);
                }
                if !self.owned.contains(&key) {
                    // Carry the version of the move that made `owner` the
                    // owner, so its plan-version buffering resolves the
                    // shipment against the right plan.
                    eff.push(Effect::Send {
                        to: Destination::Partition(owner),
                        msg: Direct::PlanVars {
                            version: owner_version,
                            key,
                            from: self.partition,
                            vars,
                            pending: Vec::new(),
                            primary: true,
                        },
                    });
                }
            }
            _ => {
                // Replay says the key belongs here (owner is us, or no
                // non-reverted move survives): classic rollback.
                if self.outmigrated.get(&key) == Some(&to) && !self.owned.contains(&key) {
                    self.outmigrated.remove(&key);
                    self.owned.insert(key);
                    for (v, val) in vars {
                        store_put(&mut self.store, v, val);
                    }
                }
            }
        }
        if self.config.record_metrics {
            let ids = self.mids(metrics);
            metrics.incr(ids.migration_reverts, 1);
        }
    }

    /// Runs the migration pump and collapses this batch's `Wake` requests
    /// into the single earliest one. The hosting actor keeps one timer
    /// slot for wake-ups, so a later `Wake` would supersede an earlier
    /// one — the merged minimum must always include the migration pump's
    /// next deadline or a retransmit could be lost. A batch with neither
    /// wakes nor migration work leaves any previously armed timer intact.
    fn finalize_wakes(&mut self, now: SimTime, metrics: &mut Metrics, eff: &mut Vec<Effect<A>>) {
        let mut min_wake = self.staged.pump(&self.config, &mut self.exec, now, eff);
        self.record_migration_tally(metrics);
        eff.retain(|e| match e {
            Effect::Wake { at } => {
                min_wake = Some(min_wake.map_or(*at, |cur| cur.min(*at)));
                false
            }
            _ => true,
        });
        if let Some(at) = min_wake {
            eff.push(Effect::Wake { at });
        }
    }

    /// Records the staged-migration events counted since the last call.
    fn record_migration_tally(&mut self, metrics: &mut Metrics) {
        let t = self.staged.take_tally();
        if !self.config.record_metrics || t == MigrationTally::default() {
            return;
        }
        let ids = self.mids(metrics);
        metrics.incr(ids.migration_keys_staged, t.keys_staged);
        metrics.incr(ids.migration_deferred, t.deferred);
        metrics.incr(ids.migration_released, t.released);
        metrics.incr(ids.migration_chunks_sent, t.chunks_sent);
        metrics.incr(ids.migration_chunk_retries, t.chunk_retries);
    }
}

impl<A: Application> std::fmt::Debug for ServerCore<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerCore")
            .field("partition", &self.partition)
            .field("mode", &self.mode)
            .field("owned_keys", &self.owned.len())
            .field("stored_vars", &self.store.len())
            .field("queue", &self.queue.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{AccessSets, Command};
    use dynastar_runtime::{NodeId, SimDuration};

    struct App;
    impl Application for App {
        type Op = i64; // op >= 0: add to every declared var; op < 0: pure read
        type Value = i64;
        type Reply = Vec<(VarId, i64)>;
        fn locality(var: VarId) -> LocKey {
            LocKey(var.0 / 10)
        }
        fn classify(op: &i64, vars: &[VarId]) -> AccessSets {
            if *op < 0 {
                AccessSets::read_only(vars)
            } else {
                AccessSets::write_all(vars)
            }
        }
        fn execute(op: &i64, vars: &mut BTreeMap<VarId, Option<i64>>) -> Self::Reply {
            if *op < 0 {
                return vars.iter().map(|(&v, val)| (v, val.unwrap_or(0))).collect();
            }
            vars.iter_mut()
                .map(|(&v, val)| {
                    let next = val.unwrap_or(0) + op;
                    *val = Some(next);
                    (v, next)
                })
                .collect()
        }
    }

    fn server(p: u32, keys: &[u64], vars: &[(u64, i64)]) -> ServerCore<App> {
        let mut s = ServerCore::new(
            PartitionId(p),
            Mode::Dynastar,
            ServerConfig::default(),
            ExecConfig::default(),
        );
        s.preload(keys.iter().map(|&k| LocKey(k)), vars.iter().map(|&(v, x)| (VarId(v), x)));
        s
    }

    fn access_payload(seq: u32, vars: &[(u64, u32)], target: u32, attempt: u32) -> Payload<App> {
        let expected: Vec<(VarId, PartitionId)> =
            vars.iter().map(|&(v, p)| (VarId(v), PartitionId(p))).collect();
        Payload::Access {
            cmd: Command {
                id: MsgId::new(42, seq),
                client: NodeId::from_raw(99),
                kind: CommandKind::Access {
                    op: 1,
                    vars: vars.iter().map(|&(v, _)| VarId(v)).collect(),
                },
            },
            attempt,
            expected,
            target: PartitionId(target),
            keep: false,
        }
    }

    fn now() -> SimTime {
        SimTime::from_millis(5)
    }

    /// Extracts the Reply effect, if any.
    fn reply_of(eff: &[Effect<App>]) -> Option<Vec<(VarId, i64)>> {
        eff.iter().find_map(|e| match e {
            Effect::Send { msg: Direct::Reply { reply, .. }, .. } => Some(reply.clone()),
            _ => None,
        })
    }

    #[test]
    fn single_partition_access_executes_immediately() {
        let mut s = server(0, &[0], &[(0, 10)]);
        let mut m = Metrics::new();
        let eff = s.on_deliver(access_payload(0, &[(0, 0)], 0, 0), now(), &mut m);
        assert_eq!(reply_of(&eff), Some(vec![(VarId(0), 11)]));
        assert_eq!(s.value_of(VarId(0)), Some(&11));
        assert_eq!(m.counter(mn::CMD_SINGLE), 1);
    }

    #[test]
    fn hint_batch_goes_to_planner_shard() {
        let config = ServerConfig { hint_batch: 3, ..ServerConfig::default() };
        let mut s =
            ServerCore::<App>::new(PartitionId(2), Mode::Dynastar, config, ExecConfig::default());
        s.preload(
            [LocKey(0), LocKey(1), LocKey(2)],
            [(VarId(0), 0), (VarId(10), 0), (VarId(20), 0)],
        );
        let mut m = Metrics::new();
        let multicasts = |eff: &[Effect<App>]| {
            eff.iter().filter(|e| matches!(e, Effect::Multicast { .. })).count()
        };
        for (seq, vars) in [[(0, 2), (10, 2)], [(0, 2), (10, 2)]].iter().enumerate() {
            let eff = s.on_deliver(access_payload(seq as u32, vars, 2, 0), now(), &mut m);
            assert!(reply_of(&eff).is_some());
            assert_eq!(multicasts(&eff), 0, "no hint before the batch fills");
        }
        let eff = s.on_deliver(access_payload(2, &[(20, 2)], 2, 0), now(), &mut m);
        assert_eq!(multicasts(&eff), 1, "one hint multicast per batch");
        let (mid, partitions, oracle, vertices, edges) = eff
            .iter()
            .find_map(|e| match e {
                Effect::Multicast {
                    mid,
                    partitions,
                    oracle,
                    payload: Payload::Hint { vertices, edges },
                } => Some((*mid, partitions, *oracle, vertices, edges)),
                _ => None,
            })
            .expect("the multicast is a hint batch");
        assert_eq!(mid, MsgId::new(PARTITION_ORIGIN_BASE + 2, 0));
        assert!(partitions.is_empty());
        assert_eq!(oracle, OracleDest::Shard(0));
        assert_eq!(*vertices, vec![(LocKey(0), 2), (LocKey(1), 2), (LocKey(2), 1)]);
        assert_eq!(*edges, vec![(LocKey(0), LocKey(1), 2)]);
    }

    #[test]
    fn borrow_execute_return_roundtrip() {
        // Partition 0 is target and owns var 0; partition 1 lends var 10.
        let mut target = server(0, &[0], &[(0, 100)]);
        let mut lender = server(1, &[1], &[(10, 200)]);
        let mut m = Metrics::new();
        let payload = access_payload(0, &[(0, 0), (10, 1)], 0, 0);

        // Target delivers first: it must wait for the lender's vars.
        let eff_t = target.on_deliver(payload.clone(), now(), &mut m);
        assert!(reply_of(&eff_t).is_none());
        assert_eq!(target.queue_len(), 1);

        // Lender delivers: ships its vars and blocks awaiting return.
        let eff_l = lender.on_deliver(payload, now(), &mut m);
        let ship = eff_l
            .iter()
            .find_map(|e| match e {
                Effect::Send {
                    to: Destination::Partition(p),
                    msg: m2 @ Direct::VarsForCmd { .. },
                } => Some((*p, m2.clone())),
                _ => None,
            })
            .expect("lender ships vars");
        assert_eq!(ship.0, PartitionId(0));
        assert_eq!(lender.value_of(VarId(10)), None, "value left the lender");
        assert_eq!(lender.queue_len(), 1, "lender blocks until return");

        // Target receives the vars → executes → replies and returns.
        let eff_t = target.on_direct(ship.1, now(), &mut m);
        assert_eq!(reply_of(&eff_t), Some(vec![(VarId(0), 101), (VarId(10), 201)]));
        let ret = eff_t
            .iter()
            .find_map(|e| match e {
                Effect::Send {
                    to: Destination::Partition(p),
                    msg: m2 @ Direct::VarsReturn { .. },
                } => Some((*p, m2.clone())),
                _ => None,
            })
            .expect("vars returned");
        assert_eq!(ret.0, PartitionId(1));
        assert_eq!(target.value_of(VarId(10)), None, "borrowed value not kept");

        // Lender stores the updated value and unblocks.
        let _ = lender.on_direct(ret.1, now(), &mut m);
        assert_eq!(lender.value_of(VarId(10)), Some(&201));
        assert_eq!(lender.queue_len(), 0);
    }

    #[test]
    fn stale_routing_at_non_target_aborts_and_retries() {
        // Partition 1 no longer owns key 1 (expected var 10): Retry+Abort.
        let mut s = server(1, &[], &[]);
        let mut m = Metrics::new();
        let eff = s.on_deliver(access_payload(0, &[(0, 0), (10, 1)], 0, 0), now(), &mut m);
        assert!(eff.iter().any(|e| matches!(
            e,
            Effect::Send { to: Destination::Client(_), msg: Direct::Retry { .. } }
        )));
        assert!(eff.iter().any(|e| matches!(
            e,
            Effect::Send { to: Destination::Partition(PartitionId(0)), msg: Direct::Abort { .. } }
        )));
        assert_eq!(s.queue_len(), 0, "stale command must not block the queue");
    }

    #[test]
    fn stale_routing_at_target_bounces_received_vars() {
        // Target does not own its expected key; a lender already shipped.
        let mut s = server(0, &[], &[]);
        let mut m = Metrics::new();
        let _ = s.on_direct(
            Direct::VarsForCmd {
                cmd: MsgId::new(42, 0),
                attempt: 0,
                from: PartitionId(1),
                vars: vec![(VarId(10), Some(5))],
            },
            now(),
            &mut m,
        );
        let eff = s.on_deliver(access_payload(0, &[(0, 0), (10, 1)], 0, 0), now(), &mut m);
        let bounced = eff.iter().any(|e| {
            matches!(
                e,
                Effect::Send {
                    to: Destination::Partition(PartitionId(1)),
                    msg: Direct::VarsReturn { .. }
                }
            )
        });
        assert!(bounced, "lender's vars must bounce back on target-side abort");
    }

    #[test]
    fn duplicate_dispatch_answers_from_reply_cache() {
        let mut s = server(0, &[0], &[(0, 0)]);
        let mut m = Metrics::new();
        let eff1 = s.on_deliver(access_payload(3, &[(0, 0)], 0, 0), now(), &mut m);
        assert_eq!(reply_of(&eff1), Some(vec![(VarId(0), 1)]));
        // Same command id re-dispatched (attempt 1): no re-execution.
        let eff2 = s.on_deliver(access_payload(3, &[(0, 0)], 0, 1), now(), &mut m);
        assert_eq!(reply_of(&eff2), Some(vec![(VarId(0), 1)]), "cached reply");
        assert_eq!(s.value_of(VarId(0)), Some(&1), "no double execution");
    }

    #[test]
    fn plan_migrates_key_out_and_in() {
        let mut from = server(0, &[0], &[(0, 7), (1, 8)]);
        let mut to = server(1, &[], &[]);
        let mut m = Metrics::new();
        let plan =
            Payload::Plan { version: 1, moves: vec![(LocKey(0), PartitionId(0), PartitionId(1))] };
        let eff = from.on_deliver(plan.clone(), now(), &mut m);
        assert!(!from.owns(LocKey(0)));
        assert_eq!(from.value_of(VarId(0)), None);
        let ship = eff
            .iter()
            .find_map(|e| match e {
                Effect::Send { msg: m2 @ Direct::PlanVars { .. }, .. } => Some(m2.clone()),
                _ => None,
            })
            .expect("primary shipment");
        let _ = to.on_deliver(plan, now(), &mut m);
        assert!(to.owns(LocKey(0)));
        let _ = to.on_direct(ship, now(), &mut m);
        assert_eq!(to.value_of(VarId(0)), Some(&7));
        assert_eq!(to.value_of(VarId(1)), Some(&8));
    }

    #[test]
    fn early_planvars_is_buffered_until_plan_applies() {
        let mut to = server(1, &[], &[]);
        let mut m = Metrics::new();
        // Shipment for plan v1 arrives before the plan itself.
        let _ = to.on_direct(
            Direct::PlanVars {
                version: 1,
                key: LocKey(0),
                from: PartitionId(0),
                vars: vec![(VarId(0), Some(7))],
                pending: vec![],
                primary: true,
            },
            now(),
            &mut m,
        );
        assert_eq!(to.value_of(VarId(0)), None, "must not apply before ownership");
        let _ = to.on_deliver(
            Payload::Plan { version: 1, moves: vec![(LocKey(0), PartitionId(0), PartitionId(1))] },
            now(),
            &mut m,
        );
        assert_eq!(to.value_of(VarId(0)), Some(&7), "buffered shipment applied");
        assert!(to.owns(LocKey(0)));
    }

    #[test]
    fn command_waits_for_inflight_migration() {
        let mut s = server(1, &[], &[]);
        let mut m = Metrics::new();
        // Plan makes us owner of key 0; data still in flight.
        let _ = s.on_deliver(
            Payload::Plan { version: 1, moves: vec![(LocKey(0), PartitionId(0), PartitionId(1))] },
            now(),
            &mut m,
        );
        let eff = s.on_deliver(access_payload(0, &[(0, 1)], 1, 0), now(), &mut m);
        assert!(reply_of(&eff).is_none(), "must wait for PlanVars");
        assert_eq!(s.queue_len(), 1);
        // Data arrives → the queued command executes.
        let eff = s.on_direct(
            Direct::PlanVars {
                version: 1,
                key: LocKey(0),
                from: PartitionId(0),
                vars: vec![(VarId(0), Some(5))],
                pending: vec![],
                primary: true,
            },
            now(),
            &mut m,
        );
        assert_eq!(reply_of(&eff), Some(vec![(VarId(0), 6)]));
        assert_eq!(s.queue_len(), 0);
    }

    #[test]
    fn create_waits_for_oracle_signal() {
        let mut s = server(0, &[], &[]);
        let mut m = Metrics::new();
        let cmd = Command::<App> {
            id: MsgId::new(5, 0),
            client: NodeId::from_raw(9),
            kind: CommandKind::CreateKey { key: LocKey(4), vars: vec![(VarId(40), 1)] },
        };
        let eff = s.on_deliver(
            Payload::CreateKey { cmd: cmd.clone(), dest: PartitionId(0) },
            now(),
            &mut m,
        );
        // Signals the oracle, but does not install yet.
        assert!(eff.iter().any(|e| matches!(
            e,
            Effect::Send { to: Destination::Oracle, msg: Direct::Signal { .. } }
        )));
        assert!(!s.owns(LocKey(4)));
        // Oracle's signal arrives → install + ack.
        let eff = s.on_direct(Direct::Signal { cmd: cmd.id, from_partition: None }, now(), &mut m);
        assert!(s.owns(LocKey(4)));
        assert_eq!(s.value_of(VarId(40)), Some(&1));
        assert!(eff.iter().any(|e| matches!(
            e,
            Effect::Send { to: Destination::Client(_), msg: Direct::Ack { .. } }
        )));
    }

    #[test]
    fn dssmr_keep_transfers_ownership() {
        let mut lender = ServerCore::<App>::new(
            PartitionId(1),
            Mode::DsSmr,
            ServerConfig::default(),
            ExecConfig::default(),
        );
        lender.preload([LocKey(1)], [(VarId(10), 50)]);
        let mut target = ServerCore::<App>::new(
            PartitionId(0),
            Mode::DsSmr,
            ServerConfig::default(),
            ExecConfig::default(),
        );
        target.preload([LocKey(0)], [(VarId(0), 1)]);
        let mut m = Metrics::new();
        let payload = Payload::Access {
            cmd: Command {
                id: MsgId::new(8, 0),
                client: NodeId::from_raw(9),
                kind: CommandKind::Access { op: 1, vars: vec![VarId(0), VarId(10)] },
            },
            attempt: 0,
            expected: vec![(VarId(0), PartitionId(0)), (VarId(10), PartitionId(1))],
            target: PartitionId(0),
            keep: true,
        };
        let eff_l = lender.on_deliver(payload.clone(), now(), &mut m);
        assert_eq!(lender.queue_len(), 0, "keep-mode lender does not block");
        assert!(!lender.owns(LocKey(1)), "ownership transferred away");
        let ship = eff_l
            .iter()
            .find_map(|e| match e {
                Effect::Send { msg: m2 @ Direct::VarsForCmd { .. }, .. } => Some(m2.clone()),
                _ => None,
            })
            .expect("vars shipped");
        let _ = target.on_deliver(payload, now(), &mut m);
        let eff_t = target.on_direct(ship, now(), &mut m);
        assert!(reply_of(&eff_t).is_some());
        assert!(target.owns(LocKey(1)), "target keeps the key");
        assert_eq!(target.value_of(VarId(10)), Some(&51));
    }

    #[test]
    fn ssmr_exchange_and_execute_everywhere() {
        let mk = |p: u32, keys: &[u64], vars: &[(u64, i64)]| {
            let mut s = ServerCore::<App>::new(
                PartitionId(p),
                Mode::SSmr,
                ServerConfig::default(),
                ExecConfig::default(),
            );
            s.preload(keys.iter().map(|&k| LocKey(k)), vars.iter().map(|&(v, x)| (VarId(v), x)));
            s
        };
        let mut a = mk(0, &[0], &[(0, 1)]);
        let mut b = mk(1, &[1], &[(10, 2)]);
        let mut m = Metrics::new();
        let payload = access_payload(0, &[(0, 0), (10, 1)], 0, 0);
        let eff_a = a.on_deliver(payload.clone(), now(), &mut m);
        let eff_b = b.on_deliver(payload, now(), &mut m);
        let ex_a = eff_a
            .iter()
            .find_map(|e| match e {
                Effect::Send { msg: m2 @ Direct::SsmrExchange { .. }, .. } => Some(m2.clone()),
                _ => None,
            })
            .expect("a exchanges");
        let ex_b = eff_b
            .iter()
            .find_map(|e| match e {
                Effect::Send { msg: m2 @ Direct::SsmrExchange { .. }, .. } => Some(m2.clone()),
                _ => None,
            })
            .expect("b exchanges");
        // Feed each the other's share: both execute; only partition 0
        // (lowest id) replies.
        let eff_a = a.on_direct(ex_b, now(), &mut m);
        let eff_b = b.on_direct(ex_a, now(), &mut m);
        assert!(reply_of(&eff_a).is_some(), "lowest-id partition replies");
        assert!(reply_of(&eff_b).is_none());
        // Each kept only its own variable's update.
        assert_eq!(a.value_of(VarId(0)), Some(&2));
        assert_eq!(a.value_of(VarId(10)), None);
        assert_eq!(b.value_of(VarId(10)), Some(&3));
    }

    // ---- staged migration -------------------------------------------------

    fn staged_config(max_retries: u32) -> ServerConfig {
        ServerConfig {
            staged_migration: true,
            migration_chunk_vars: 1,
            migration_chunk_timeout: SimDuration::from_millis(200),
            migration_max_retries: max_retries,
            record_metrics: true,
            ..ServerConfig::default()
        }
    }

    fn staged_server(
        p: u32,
        keys: &[u64],
        vars: &[(u64, i64)],
        cfg: ServerConfig,
    ) -> ServerCore<App> {
        staged_server_on(p, keys, vars, cfg, ExecConfig::default())
    }

    fn staged_server_on(
        p: u32,
        keys: &[u64],
        vars: &[(u64, i64)],
        cfg: ServerConfig,
        exec: ExecConfig,
    ) -> ServerCore<App> {
        let mut s = ServerCore::new(PartitionId(p), Mode::Dynastar, cfg, exec);
        s.preload(keys.iter().map(|&k| LocKey(k)), vars.iter().map(|&(v, x)| (VarId(v), x)));
        s
    }

    fn chunk_of(eff: &[Effect<App>]) -> Option<Direct<App>> {
        eff.iter().find_map(|e| match e {
            Effect::Send { msg: m2 @ Direct::PlanVarsChunk { .. }, .. } => Some(m2.clone()),
            _ => None,
        })
    }

    fn ack_of(eff: &[Effect<App>]) -> Option<Direct<App>> {
        eff.iter().find_map(|e| match e {
            Effect::Send { msg: m2 @ Direct::PlanVarsAck { .. }, .. } => Some(m2.clone()),
            _ => None,
        })
    }

    fn done_of(eff: &[Effect<App>]) -> Option<Payload<App>> {
        eff.iter().find_map(|e| match e {
            Effect::Multicast { payload: p @ Payload::MigrationDone { .. }, .. } => Some(p.clone()),
            _ => None,
        })
    }

    fn revert_of(eff: &[Effect<App>]) -> Option<Payload<App>> {
        eff.iter().find_map(|e| match e {
            Effect::Multicast { payload: p @ Payload::MigrationRevert { .. }, .. } => {
                Some(p.clone())
            }
            _ => None,
        })
    }

    const PLAN_V1: u64 = 1;

    fn move_plan() -> Payload<App> {
        Payload::Plan { version: PLAN_V1, moves: vec![(LocKey(0), PartitionId(0), PartitionId(1))] }
    }

    #[test]
    fn staged_migration_chunked_roundtrip_installs_at_done() {
        let mut src = staged_server(0, &[0], &[(0, 7), (1, 8), (2, 9)], staged_config(5));
        let mut dst = staged_server(1, &[], &[], staged_config(5));
        let mut m = Metrics::new();

        let eff = src.on_deliver(move_plan(), now(), &mut m);
        assert!(!src.owns(LocKey(0)));
        assert_eq!(src.value_of(VarId(0)), None, "staged vars leave the source store");
        let mut chunk = chunk_of(&eff).expect("first chunk ships from the migration pump");
        let _ = dst.on_deliver(move_plan(), now(), &mut m);
        assert!(dst.owns(LocKey(0)));

        // A command for the moving key queues behind the staged transfer.
        let eff = dst.on_deliver(access_payload(0, &[(0, 1)], 1, 0), now(), &mut m);
        assert!(reply_of(&eff).is_none());
        assert_eq!(dst.queue_len(), 1);

        // One chunk in flight at a time: ack each to release the next.
        let mut done = None;
        for round in 0..3 {
            let eff_d = dst.on_direct(chunk.clone(), now(), &mut m);
            let ack = ack_of(&eff_d).expect("destination acks every chunk");
            if let Some(d) = done_of(&eff_d) {
                done = Some(d);
            }
            let eff_s = src.on_direct(ack, now(), &mut m);
            match chunk_of(&eff_s) {
                Some(next) => chunk = next,
                None => assert_eq!(round, 2, "a next chunk ships until all three are acked"),
            }
        }
        let done = done.expect("destination requests commit once chunks are complete");

        // Nothing installs before the totally-ordered Done delivery.
        assert_eq!(dst.value_of(VarId(0)), None);
        let eff = dst.on_deliver(done.clone(), now(), &mut m);
        // The install lands and the queued command executes on top of it in
        // the same delivery: 7 + 1.
        assert_eq!(reply_of(&eff), Some(vec![(VarId(0), 8)]));
        assert_eq!(dst.value_of(VarId(0)), Some(&8));
        assert_eq!(dst.value_of(VarId(1)), Some(&8));
        assert_eq!(dst.value_of(VarId(2)), Some(&9));
        assert_eq!(dst.queue_len(), 0);

        // The source dismantles its outbox: no further pump activity.
        let _ = src.on_deliver(done, now(), &mut m);
        let eff = src.on_wake(SimTime::from_secs(10), &mut m);
        assert!(chunk_of(&eff).is_none() && revert_of(&eff).is_none());
        assert_eq!(m.counter(mn::MIGRATION_KEYS_STAGED), 1);
        assert!(m.counter(mn::MIGRATION_CHUNKS_SENT) >= 3);
    }

    #[test]
    fn staged_migration_retransmits_unacked_chunk() {
        let mut src = staged_server(0, &[0], &[(0, 7), (1, 8)], staged_config(5));
        let mut m = Metrics::new();
        let eff = src.on_deliver(move_plan(), now(), &mut m);
        assert!(chunk_of(&eff).is_some());

        // No ack by the deadline (now + 200 ms backoff): retransmit.
        let eff = src.on_wake(now() + SimDuration::from_millis(300), &mut m);
        assert!(chunk_of(&eff).is_some(), "timed-out chunk is resent");
        assert_eq!(m.counter(mn::MIGRATION_CHUNK_RETRIES), 1);

        // The ack lands late: accepted, and the next chunk ships.
        let eff = src.on_direct(
            Direct::PlanVarsAck { version: PLAN_V1, key: LocKey(0), chunk: 0 },
            now() + SimDuration::from_millis(400),
            &mut m,
        );
        let next = chunk_of(&eff).expect("next chunk after late ack");
        let Direct::PlanVarsChunk { chunk, total, .. } = next else { unreachable!() };
        assert_eq!((chunk, total), (1, 2));
    }

    #[test]
    fn staged_migration_reverts_after_exhausted_retries() {
        let mut src = staged_server(0, &[0], &[(0, 7)], staged_config(1));
        let mut dst = staged_server(1, &[], &[], staged_config(1));
        let mut m = Metrics::new();
        let eff = src.on_deliver(move_plan(), now(), &mut m);
        let chunk = chunk_of(&eff).expect("chunk ships");
        let _ = dst.on_deliver(move_plan(), now(), &mut m);
        // The chunk reaches the destination, but every ack is "lost".
        let _ = dst.on_direct(chunk, now(), &mut m);

        // First deadline miss: one retry (max_retries = 1).
        let t1 = now() + SimDuration::from_millis(300);
        let eff = src.on_wake(t1, &mut m);
        assert!(chunk_of(&eff).is_some());
        assert!(revert_of(&eff).is_none());
        // Second miss: retries exhausted → give up and request the revert.
        let t2 = t1 + SimDuration::from_secs(2);
        let eff = src.on_wake(t2, &mut m);
        let revert = revert_of(&eff).expect("revert multicast after giving up");

        // Totally-ordered revert delivery restores the source...
        let _ = src.on_deliver(revert.clone(), t2, &mut m);
        assert!(src.owns(LocKey(0)), "source reclaims the key");
        assert_eq!(src.value_of(VarId(0)), Some(&7), "retained chunk data reinstalled");
        assert_eq!(m.counter(mn::MIGRATION_REVERTS), 1);

        // ...and un-owns the destination, so queued commands turn into
        // stale-routing retries instead of waiting forever.
        let _ = dst.on_deliver(revert, t2, &mut m);
        assert!(!dst.owns(LocKey(0)));
        let eff = dst.on_deliver(access_payload(0, &[(0, 1)], 1, 0), t2, &mut m);
        assert!(eff.iter().any(|e| matches!(
            e,
            Effect::Send { to: Destination::Client(_), msg: Direct::Retry { .. } }
        )));

        // A Done for the same migration arriving after the revert settled
        // must not resurrect it at the destination.
        let done = Payload::MigrationDone {
            version: PLAN_V1,
            key: LocKey(0),
            from: PartitionId(0),
            to: PartitionId(1),
        };
        let _ = dst.on_deliver(done, t2, &mut m);
        assert_eq!(dst.value_of(VarId(0)), None);
    }

    #[test]
    fn staged_migration_of_empty_key_still_commits() {
        let mut src = staged_server(0, &[0], &[], staged_config(5));
        let mut dst = staged_server(1, &[], &[], staged_config(5));
        let mut m = Metrics::new();
        let eff = src.on_deliver(move_plan(), now(), &mut m);
        let chunk = chunk_of(&eff).expect("an empty chunk still ships");
        let Direct::PlanVarsChunk { total, ref vars, .. } = chunk else { unreachable!() };
        assert_eq!((total, vars.len()), (1, 0));
        let _ = dst.on_deliver(move_plan(), now(), &mut m);
        let eff_d = dst.on_direct(chunk, now(), &mut m);
        assert!(ack_of(&eff_d).is_some());
        let done = done_of(&eff_d).expect("empty transfer reaches total and commits");
        let _ = dst.on_deliver(done, now(), &mut m);
        // The destination is authoritative: commands execute (creating the
        // variable on first write).
        let eff = dst.on_deliver(access_payload(0, &[(0, 1)], 1, 0), now(), &mut m);
        assert_eq!(reply_of(&eff), Some(vec![(VarId(0), 1)]));
    }

    #[test]
    fn duplicate_chunks_are_reacked_but_not_restaged() {
        let mut dst = staged_server(1, &[], &[], staged_config(5));
        let mut m = Metrics::new();
        let _ = dst.on_deliver(move_plan(), now(), &mut m);
        let chunk = Direct::PlanVarsChunk {
            version: PLAN_V1,
            key: LocKey(0),
            from: PartitionId(0),
            chunk: 0,
            total: 2,
            vars: vec![(VarId(0), Some(7))],
        };
        let eff1 = dst.on_direct(chunk.clone(), now(), &mut m);
        assert!(ack_of(&eff1).is_some());
        assert!(done_of(&eff1).is_none(), "1 of 2 chunks is not complete");
        // A retransmitted duplicate is acked again (the first ack may have
        // been lost) without double-counting toward completion.
        let eff2 = dst.on_direct(chunk, now(), &mut m);
        assert!(ack_of(&eff2).is_some());
        assert!(done_of(&eff2).is_none());
    }

    #[test]
    fn done_outrunning_queued_plan_retains_staged_vars() {
        // Regression: a busy destination CPU leaves the plan sitting in
        // the command queue while the (later-ordered) Done applies at
        // delivery. The staged vars must survive until the plan pump
        // makes this replica the owner — dropping them would leave the
        // key owned-but-empty, with every command for it waiting forever.
        let exec = ExecConfig::serial(SimDuration::from_millis(10));
        let mut dst = staged_server_on(1, &[1], &[(10, 0)], staged_config(5), exec);
        let mut m = Metrics::new();
        let t0 = now();
        // An unrelated command occupies the modelled CPU...
        let eff = dst.on_deliver(access_payload(0, &[(10, 1)], 1, 0), t0, &mut m);
        assert!(reply_of(&eff).is_some());
        // ...so the move plan delivered next stays queued, unpumped.
        let _ = dst.on_deliver(move_plan(), t0, &mut m);
        assert!(!dst.owns(LocKey(0)));
        // The staged transfer still completes around it: chunks travel
        // outside the total order, and the Done applies at delivery.
        let chunk = Direct::PlanVarsChunk {
            version: PLAN_V1,
            key: LocKey(0),
            from: PartitionId(0),
            chunk: 0,
            total: 1,
            vars: vec![(VarId(0), Some(7))],
        };
        let _ = dst.on_direct(chunk, t0, &mut m);
        let done = Payload::MigrationDone {
            version: PLAN_V1,
            key: LocKey(0),
            from: PartitionId(0),
            to: PartitionId(1),
        };
        let _ = dst.on_deliver(done, t0, &mut m);
        // Nothing installs while the plan is still queued.
        assert_eq!(dst.value_of(VarId(0)), None);
        // The CPU frees up: the plan pumps and the retained staging
        // entry resolves in the same wake.
        let _ = dst.on_wake(t0 + SimDuration::from_millis(10), &mut m);
        assert!(dst.owns(LocKey(0)));
        assert_eq!(dst.value_of(VarId(0)), Some(&7), "staged vars install once the plan lands");
        // The key is fully authoritative: commands execute immediately.
        let eff = dst.on_deliver(
            access_payload(1, &[(0, 1)], 1, 0),
            t0 + SimDuration::from_millis(20),
            &mut m,
        );
        assert_eq!(reply_of(&eff), Some(vec![(VarId(0), 8)]));
    }

    #[test]
    fn done_outrunning_queued_plan_starts_no_source_transfer() {
        // Source-side twin of the test above: a busy source CPU leaves the
        // plan queued while the Done — completed by a faster peer
        // replica's transfer — applies at delivery. A transfer started
        // when the plan finally pumps would never be dismantled, and would
        // hold its link slot forever.
        let exec = ExecConfig::serial(SimDuration::from_millis(10));
        let cfg = ServerConfig { migration_max_inflight_per_link: 1, ..staged_config(5) };
        let mut src = staged_server_on(0, &[0, 1, 2], &[(0, 7), (10, 8), (20, 0)], cfg, exec);
        let mut m = Metrics::new();
        let t0 = now();
        let t1 = t0 + SimDuration::from_millis(10);
        // An unrelated command occupies the modelled CPU...
        let eff = src.on_deliver(access_payload(0, &[(20, 0)], 0, 0), t0, &mut m);
        assert!(reply_of(&eff).is_some());
        // ...so the move plan delivered next stays queued, and its Done
        // is delivered before it pumps.
        let _ = src.on_deliver(move_plan(), t0, &mut m);
        let done = Payload::MigrationDone {
            version: PLAN_V1,
            key: LocKey(0),
            from: PartitionId(0),
            to: PartitionId(1),
        };
        let _ = src.on_deliver(done, t0, &mut m);
        assert!(src.owns(LocKey(0)), "the plan has not pumped yet");
        // The CPU frees up and the plan pumps: the key leaves, but no
        // transfer starts.
        let eff = src.on_wake(t1, &mut m);
        assert!(!src.owns(LocKey(0)));
        assert_eq!(src.value_of(VarId(0)), None);
        assert!(chunk_of(&eff).is_none(), "a settled move ships no chunk");
        // The link's only in-flight slot is free: the next move ships at
        // once instead of being deferred.
        let plan2 =
            Payload::Plan { version: 2, moves: vec![(LocKey(1), PartitionId(0), PartitionId(1))] };
        let eff = src.on_deliver(plan2, t1, &mut m);
        let Some(Direct::PlanVarsChunk { key, .. }) = chunk_of(&eff) else {
            panic!("the next move must ship its first chunk")
        };
        assert_eq!(key, LocKey(1));
        assert_eq!(m.counter(mn::MIGRATION_DEFERRED), 0);
        // Nothing is left to retransmit or give up on for the settled move.
        let eff = src.on_wake(SimTime::from_secs(30), &mut m);
        assert!(eff.iter().all(|e| !matches!(
            e,
            Effect::Send { msg: Direct::PlanVarsChunk { key: LocKey(0), .. }, .. }
        )));
    }

    /// Runs one full staged migration of key 0 between `src` and `dst` at
    /// `version` (plan → chunk → ack → totally-ordered Done on both).
    fn migrate_key0(
        version: u64,
        src: &mut ServerCore<App>,
        dst: &mut ServerCore<App>,
        m: &mut Metrics,
    ) {
        let plan =
            Payload::Plan { version, moves: vec![(LocKey(0), src.partition(), dst.partition())] };
        let eff = src.on_deliver(plan.clone(), now(), m);
        let chunk = chunk_of(&eff).expect("chunk ships");
        let _ = dst.on_deliver(plan, now(), m);
        let eff_d = dst.on_direct(chunk, now(), m);
        let ack = ack_of(&eff_d).expect("destination acks");
        let done = done_of(&eff_d).expect("single-chunk transfer completes");
        let _ = src.on_direct(ack, now(), m);
        let _ = src.on_deliver(done.clone(), now(), m);
        let _ = dst.on_deliver(done, now(), m);
    }

    #[test]
    fn straggling_revert_never_flips_ownership_however_late() {
        // Regression for the bounded-memory amnesia bug: the old
        // first-decision-wins set forgot a migration's Done once enough
        // later decisions rotated it out, so a duplicate MigrationRevert
        // straggling in long after (a give-up retransmission that lost
        // its race) was mistaken for a fresh decision and flipped
        // ownership back. The plan history's monotone floor answers
        // default-deny for any version at or below it, no matter how
        // many records have been folded away since.
        let mut a = staged_server(0, &[0], &[(0, 7)], staged_config(5));
        let mut b = staged_server(1, &[], &[], staged_config(5));
        let mut m = Metrics::new();

        // v1 moves key 0 from partition 0 to partition 1 and commits.
        migrate_key0(1, &mut a, &mut b, &mut m);
        assert!(!a.owns(LocKey(0)) && b.owns(LocKey(0)));

        // Bounce the key back and forth through far more committed
        // decisions than the per-key history retains verbatim.
        for v in 2..=24u64 {
            if v % 2 == 0 {
                migrate_key0(v, &mut b, &mut a, &mut m);
            } else {
                migrate_key0(v, &mut a, &mut b, &mut m);
            }
        }
        assert!(a.owns(LocKey(0)) && !b.owns(LocKey(0)), "v24 parked the key at partition 0");
        assert_eq!(a.value_of(VarId(0)), Some(&7), "value survives the round trips");

        // The straggler: a duplicate revert of the long-settled v1.
        let revert = Payload::MigrationRevert {
            version: 1,
            key: LocKey(0),
            from: PartitionId(0),
            to: PartitionId(1),
        };
        let _ = a.on_deliver(revert.clone(), now(), &mut m);
        let _ = b.on_deliver(revert, now(), &mut m);
        assert!(a.owns(LocKey(0)) && !b.owns(LocKey(0)), "stale revert must not flip ownership");
        assert_eq!(a.value_of(VarId(0)), Some(&7));
        assert_eq!(m.counter(mn::MIGRATION_REVERTS), 0, "no revert was ever applied");
    }

    #[test]
    fn done_outrunning_every_chunk_still_installs_and_acks_strays() {
        // A MigrationDone (submitted by a faster peer replica of the
        // destination group) can be delivered before any chunk reaches
        // this replica over the direct channel. The staging entry must
        // wait for the late chunk, install on its arrival, and from then
        // on treat retransmitted duplicates as ack-only strays — the ack
        // is what terminates the sender's retransmit loop, and a stray
        // must never resurrect a dismantled staging entry.
        let mut src = staged_server(0, &[0], &[(0, 7)], staged_config(5));
        let mut dst = staged_server(1, &[], &[], staged_config(5));
        let mut m = Metrics::new();

        let eff = src.on_deliver(move_plan(), now(), &mut m);
        let chunk = chunk_of(&eff).expect("chunk ships");
        let _ = dst.on_deliver(move_plan(), now(), &mut m);

        // The Done lands first; nothing can install yet.
        let done = Payload::MigrationDone {
            version: PLAN_V1,
            key: LocKey(0),
            from: PartitionId(0),
            to: PartitionId(1),
        };
        let _ = dst.on_deliver(done.clone(), now(), &mut m);
        assert_eq!(dst.value_of(VarId(0)), None, "no chunk, nothing to install");

        // The source's Done delivery dismantles its outbox even though no
        // ack ever arrived: the retransmit ladder must fall silent.
        let _ = src.on_deliver(done, now(), &mut m);
        let eff = src.on_wake(now() + SimDuration::from_secs(30), &mut m);
        assert!(
            chunk_of(&eff).is_none() && revert_of(&eff).is_none(),
            "no retransmission or give-up after the Done settled"
        );

        // The chunk finally arrives: acked, and the staged value installs.
        let eff = dst.on_direct(chunk.clone(), now(), &mut m);
        assert!(ack_of(&eff).is_some());
        assert_eq!(dst.value_of(VarId(0)), Some(&7), "late chunk completes the install");

        // A retransmitted duplicate is now a stray: ack it (the sender
        // may still be waiting) but change nothing.
        let eff = dst.on_direct(chunk, now(), &mut m);
        assert!(ack_of(&eff).is_some(), "strays are re-acked to stop the sender");
        assert!(done_of(&eff).is_none(), "a stray must not re-request the commit");
        assert_eq!(dst.value_of(VarId(0)), Some(&7));

        // The stray's ack reaching a dismantled outbox is a no-op.
        let eff = src.on_direct(
            Direct::PlanVarsAck { version: PLAN_V1, key: LocKey(0), chunk: 0 },
            now(),
            &mut m,
        );
        assert!(chunk_of(&eff).is_none());
    }

    /// Drives one `ServerCore` through a fixed delivered sequence of mixed
    /// read/write commands, processing `Wake` effects at their due times.
    /// Returns `(replies in emission order, final store)` — the two things
    /// the worker-pool width must never change.
    type MixedOutcome = (Vec<(u32, Vec<(VarId, i64)>)>, Vec<(u64, i64)>);

    fn run_mixed_stream(workers: u32) -> MixedOutcome {
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeSet;

        const VARS: u64 = 40;
        const CMDS: u32 = 400;

        let mut s = ServerCore::new(
            PartitionId(0),
            Mode::Dynastar,
            ServerConfig::default(),
            ExecConfig::pool(workers, SimDuration::from_micros(100)),
        );
        s.preload((0..4).map(LocKey), (0..VARS).map(|v| (VarId(v), 0i64)));
        let mut m = Metrics::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xD15C);
        let mut wakes: BTreeSet<SimTime> = BTreeSet::new();
        let mut replies: Vec<(u32, Vec<(VarId, i64)>)> = Vec::new();

        fn collect(
            eff: Vec<Effect<App>>,
            wakes: &mut BTreeSet<SimTime>,
            replies: &mut Vec<(u32, Vec<(VarId, i64)>)>,
        ) {
            for e in eff {
                match e {
                    Effect::Wake { at } => {
                        wakes.insert(at);
                    }
                    Effect::Send { msg: Direct::Reply { cmd, reply, .. }, .. } => {
                        replies.push((cmd.seq, reply));
                    }
                    _ => {}
                }
            }
        }

        for seq in 0..CMDS {
            // Deliveries outpace the 100 us service time, so the queue
            // stays deep enough for wide pools to matter.
            let now = SimTime::from_micros(u64::from(seq) * 37);
            while let Some(&at) = wakes.iter().next() {
                if at > now {
                    break;
                }
                wakes.remove(&at);
                collect(s.on_wake(at, &mut m), &mut wakes, &mut replies);
            }
            // ~30% reads; writes add a small random amount. Var sets of
            // 1-3 random vars give a mix of conflicting and independent
            // commands.
            let op: i64 = if rng.gen_range(0..100) < 30 { -1 } else { rng.gen_range(1..5) };
            let n = rng.gen_range(1..=3usize);
            let mut vars: Vec<VarId> = Vec::new();
            while vars.len() < n {
                let v = VarId(rng.gen_range(0..VARS));
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
            let expected: Vec<(VarId, PartitionId)> =
                vars.iter().map(|&v| (v, PartitionId(0))).collect();
            let payload = Payload::Access {
                cmd: Command {
                    id: MsgId::new(42, seq),
                    client: NodeId::from_raw(99),
                    kind: CommandKind::Access { op, vars },
                },
                attempt: 0,
                expected,
                target: PartitionId(0),
                keep: false,
            };
            collect(s.on_deliver(payload, now, &mut m), &mut wakes, &mut replies);
        }
        while let Some(&at) = wakes.iter().next() {
            wakes.remove(&at);
            collect(s.on_wake(at, &mut m), &mut wakes, &mut replies);
        }
        let store: Vec<(u64, i64)> =
            (0..VARS).map(|v| (v, *s.value_of(VarId(v)).expect("var present"))).collect();
        assert_eq!(replies.len(), CMDS as usize, "every delivered command must reply");
        if workers > 1 {
            assert!(
                m.counter(mn::EXEC_PARALLEL) > 0,
                "wide pools must actually overlap some commands"
            );
        }
        (replies, store)
    }

    /// The tentpole invariant: the worker pool is a *timing* model layered
    /// on a FIFO execution queue, so pool width must change neither one
    /// reply nor one stored value — only completion times. A seeded random
    /// stream of mixed reads/writes over overlapping var sets must come
    /// out bit-identical at every width.
    #[test]
    fn parallel_scheduler_preserves_replies_and_state_at_any_width() {
        let serial = run_mixed_stream(1);
        for workers in [2, 4, 8] {
            let wide = run_mixed_stream(workers);
            assert_eq!(
                serial.0, wide.0,
                "replies diverged between serial and {workers}-worker execution"
            );
            assert_eq!(
                serial.1, wide.1,
                "final state diverged between serial and {workers}-worker execution"
            );
        }
    }
}
