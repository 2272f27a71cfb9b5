//! Key migration between partitions: the per-key plan history that
//! settles every move, and the staged transfer engine that ships a key's
//! variables in rate-limited, acknowledged chunks.
//!
//! # Plan history
//!
//! PR 6 settled `(version, key)` migration outcomes first-decision-wins in a
//! bounded [`RotatingSet`](dynastar_runtime::dedup::RotatingSet): whichever of
//! `MigrationDone` / `MigrationRevert` was delivered first won, and a revert
//! restored the key's *previous* location unconditionally. That is wrong the
//! moment plans chain: if plan v moves a key A→B and plan v+1 re-routes it
//! B→C while the v-transfer is still in flight, a give-up revert of v must
//! *not* put the key back at A — the cluster has already agreed (in total
//! order) that it belongs at C. The rotating set also *forgot* old decisions
//! under churn, so a late duplicate revert could re-settle as "first" and
//! silently flip ownership.
//!
//! [`PlanHistory`] replaces both uses. Per key it keeps a bounded,
//! version-ordered log of move records `(version, from, to, outcome)` plus a
//! monotone *floor*: the highest version folded out of the log. Settling a
//! decision marks the record and **replays** the whole history to compute the
//! current owner:
//!
//! * start from the base location (the destination of the last folded move,
//!   if any),
//! * walk records in version order: a `Reverted` move is skipped (annulled),
//!   any other move sets the location to its destination.
//!
//! The final location is the destination of the last non-reverted move — so
//! a revert of v with a chained move at v+1 leaves the owner at v+1's
//! destination, and a revert of the *last* move falls back to where the key
//! stood before it.
//!
//! Duplicates and stragglers are **default-deny**: a decision at or below the
//! floor, or for an already-decided record, returns [`Settle::Stale`] and
//! changes nothing. This is the opposite polarity of the rotating set (which
//! treated unknown as first) and is what makes the bound safe: forgetting a
//! decided move can only cause a late duplicate to be *ignored*, never
//! replayed.
//!
//! All state lives in `BTreeMap`s / `VecDeque`s and every operation is a pure
//! function of delivery order, so replicas driving this from the same total
//! order stay byte-identical.
//!
//! # Staged transfers
//!
//! `StagedMigrations` is the source and destination side of a staged
//! move. The source splits the key's variables into chunks and ships one
//! at a time over a modelled link, retransmitting on a missed ack deadline
//! with exponential backoff and multicasting a `MigrationRevert` once
//! retries run out. A per-link cap keeps at most N transfers in flight to
//! each destination; plans list moves hottest-first, so the cap ships the
//! traffic-carrying keys at once and parks the tail. The destination acks
//! every chunk, buffers them, and multicasts a `MigrationDone` once all
//! have arrived; the partition server installs the buffer when that Done
//! is delivered in total order.
use std::collections::{BTreeMap, VecDeque};

use dynastar_amcast::MsgId;
use dynastar_runtime::{SimDuration, SimTime};

use crate::command::{Application, LocKey, PartitionId, VarId};
use crate::exec::ExecScheduler;
use crate::payload::{Destination, Direct, Effect, OracleDest, Payload};
use crate::server::ServerConfig;

/// Live records kept per key before the oldest fold into the floor. Decided
/// records fold eagerly, so the cap only bites when a key has this many
/// *undecided* chained moves — far beyond any real plan cadence.
pub const PLAN_HISTORY_PER_KEY: usize = 16;

/// Outcome of one planned move of one key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveOutcome {
    /// Plan delivered, transfer not yet decided.
    Pending,
    /// `MigrationDone` delivered in total order.
    Done,
    /// `MigrationRevert` delivered in total order (source gave up).
    Reverted,
}

/// One planned move of one key, as recorded at plan delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveRecord {
    /// Plan version that scheduled the move.
    pub version: u64,
    /// Partition the key was leaving.
    pub from: PartitionId,
    /// Partition the key was moving to.
    pub to: PartitionId,
    /// Current outcome.
    pub outcome: MoveOutcome,
}

/// Result of [`PlanHistory::settle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Settle {
    /// First decision for this `(version, key)`; `owner` is the replayed
    /// current owner of the key after applying it.
    Applied { owner: PartitionId },
    /// Duplicate, or below the compaction floor — ignored.
    Stale,
}

/// Bounded per-key history of plan decisions.
#[derive(Debug, Clone, Default)]
struct KeyHistory {
    /// Highest move version folded out of `records`. Decisions at or below
    /// the floor are stale by definition.
    floor: u64,
    /// Owner implied by the folded prefix (destination of the last folded
    /// non-reverted move), if any move was ever folded.
    base: Option<PartitionId>,
    /// Version-ordered live records (floor-exclusive).
    records: VecDeque<MoveRecord>,
}

impl KeyHistory {
    /// Replay: base location, then every non-reverted move in version order.
    fn replay(&self) -> Option<PartitionId> {
        self.replay_versioned().map(|(loc, _)| loc)
    }

    /// Replay, also yielding the version of the move that set the final
    /// location (the floor for the folded base).
    fn replay_versioned(&self) -> Option<(PartitionId, u64)> {
        let mut loc = self.base.map(|b| (b, self.floor));
        for r in &self.records {
            if r.outcome != MoveOutcome::Reverted {
                loc = Some((r.to, r.version));
            }
        }
        loc
    }

    /// Fold fully-decided records off the front into `floor`/`base`, and
    /// enforce the per-key cap by folding oldest records even if pending
    /// (a pending move folded out counts as applied — same polarity as
    /// replay, and its eventual decision will land below the floor and be
    /// dropped as stale).
    fn compact(&mut self, cap: usize) {
        while let Some(front) = self.records.front() {
            let decided = front.outcome != MoveOutcome::Pending;
            if !decided && self.records.len() <= cap {
                break;
            }
            let Some(r) = self.records.pop_front() else { break };
            self.floor = self.floor.max(r.version);
            if r.outcome != MoveOutcome::Reverted {
                self.base = Some(r.to);
            }
        }
    }
}

/// Bounded per-key log of plan decisions with settle-by-replay.
///
/// One instance lives in each [`ServerCore`](crate::server::ServerCore) and
/// [`OracleCore`](crate::oracle::OracleCore); both are driven purely from
/// totally-ordered deliveries, so all replicas hold identical histories.
#[derive(Debug, Clone)]
pub struct PlanHistory {
    keys: BTreeMap<LocKey, KeyHistory>,
    /// Max live records per key before oldest are folded into the floor.
    cap: usize,
}

impl PlanHistory {
    pub fn new(cap: usize) -> Self {
        Self { keys: BTreeMap::new(), cap: cap.max(1) }
    }

    /// Record a planned move at plan delivery. Idempotent per
    /// `(version, key)`; out-of-order versions are ignored (plans are
    /// delivered in total order, so versions only grow).
    pub fn record_move(&mut self, key: LocKey, version: u64, from: PartitionId, to: PartitionId) {
        let h = self.keys.entry(key).or_default();
        if version <= h.floor {
            return;
        }
        if let Some(back) = h.records.back() {
            if version <= back.version {
                return;
            }
        }
        h.records.push_back(MoveRecord { version, from, to, outcome: MoveOutcome::Pending });
        h.compact(self.cap);
    }

    /// Settle a `MigrationDone` / `MigrationRevert` decision and replay the
    /// key's history. If the record is missing but the version is above the
    /// floor (possible only if the record was capped out — deliveries are
    /// totally ordered so the plan always precedes its decision), the record
    /// is recreated from the message's own `(from, to)`, which every
    /// decision payload carries.
    pub fn settle(
        &mut self,
        key: LocKey,
        version: u64,
        from: PartitionId,
        to: PartitionId,
        outcome: MoveOutcome,
    ) -> Settle {
        debug_assert!(outcome != MoveOutcome::Pending, "settle with a decision");
        let cap = self.cap;
        let h = self.keys.entry(key).or_default();
        if version <= h.floor {
            return Settle::Stale;
        }
        match h.records.iter_mut().find(|r| r.version == version) {
            Some(r) => {
                if r.outcome != MoveOutcome::Pending {
                    return Settle::Stale;
                }
                r.outcome = outcome;
            }
            None => {
                let idx = h.records.partition_point(|r| r.version < version);
                h.records.insert(idx, MoveRecord { version, from, to, outcome });
            }
        }
        h.compact(cap);
        let owner = h.replay();
        match owner {
            Some(owner) => Settle::Applied { owner },
            // Every path that reaches here inserted at least a base.
            None => {
                Settle::Applied { owner: if outcome == MoveOutcome::Reverted { from } else { to } }
            }
        }
    }

    /// Has `(version, key)` been decided (done or reverted)? Versions at or
    /// below the floor count as decided — default-deny for stragglers.
    pub fn decided(&self, version: u64, key: LocKey) -> bool {
        match self.keys.get(&key) {
            None => false,
            Some(h) => {
                version <= h.floor
                    || h.records
                        .iter()
                        .any(|r| r.version == version && r.outcome != MoveOutcome::Pending)
            }
        }
    }

    /// Current owner of `key` implied by replaying its history, if the key
    /// has any history at all.
    pub fn resolved_owner(&self, key: LocKey) -> Option<PartitionId> {
        self.keys.get(&key).and_then(KeyHistory::replay)
    }

    /// [`Self::resolved_owner`] plus the version of the move that made it
    /// owner — the version a primary shipment to that owner must carry so
    /// the receiver's plan-version buffering resolves it correctly.
    pub fn resolved_owner_versioned(&self, key: LocKey) -> Option<(PartitionId, u64)> {
        self.keys.get(&key).and_then(KeyHistory::replay_versioned)
    }

    /// Was this specific move decided `Reverted`? Below-floor versions
    /// answer `false` — the outcome is forgotten, and callers use this only
    /// to skip taking ownership for a freshly delivered (hence above-floor)
    /// plan move.
    pub fn reverted(&self, version: u64, key: LocKey) -> bool {
        self.keys.get(&key).is_some_and(|h| {
            h.records.iter().any(|r| r.version == version && r.outcome == MoveOutcome::Reverted)
        })
    }

    /// Number of keys with live history (for tests / introspection).
    pub fn tracked_keys(&self) -> usize {
        self.keys.len()
    }
}

/// Variables shipped between partitions: `(var, value-or-absent)` pairs.
pub(crate) type Vars<V> = Vec<(VarId, Option<V>)>;
/// [`Vars`] of an application's values.
pub(crate) type VarShipment<A> = Vars<<A as Application>::Value>;

/// Origin space for migration-control multicasts ([`Payload::MigrationDone`]
/// / [`Payload::MigrationRevert`]): every replica at either end of a
/// migration derives the same id from `(key, version)`, so the multicast
/// layer delivers one copy. Disjoint from client origins (node ids),
/// partition hint origins
/// ([`PARTITION_ORIGIN_BASE`](crate::server::PARTITION_ORIGIN_BASE)) and the
/// oracle's plan origin (`u64::MAX - 1`).
const MIGRATION_ORIGIN_BASE: u64 = 1 << 62;
/// Derivation tag of [`Payload::MigrationDone`] ids.
const TAG_MIGRATION_DONE: u32 = 400;
/// Derivation tag of [`Payload::MigrationRevert`] ids.
const TAG_MIGRATION_REVERT: u32 = 401;

/// The shared id of a migration-control multicast for `(key, version)`.
fn migration_mid(key: LocKey, version: u64, tag: u32) -> MsgId {
    MsgId { origin: MIGRATION_ORIGIN_BASE | key.0, seq: version as u32, tag }
}

/// Modelled wire time of shipping `vars` variables over the migration link.
pub(crate) fn transfer_time(cfg: &ServerConfig, vars: usize) -> SimDuration {
    if cfg.migration_link_bytes_per_sec == 0 {
        return SimDuration::ZERO;
    }
    let bytes = (vars as u64).saturating_mul(cfg.migration_var_bytes);
    SimDuration::from_micros(bytes.saturating_mul(1_000_000) / cfg.migration_link_bytes_per_sec)
}

/// Source-side state of one staged key migration (`(version, key)` keyed).
/// All chunk data is retained until the migration settles, so a revert can
/// reinstall the key and a retransmit can resend any chunk.
#[derive(Clone)]
struct OutboxEntry<V> {
    /// Destination partition.
    to: PartitionId,
    /// The key's variables, pre-split into chunks.
    chunks: Vec<Vars<V>>,
    /// Per-chunk ack state.
    acked: Vec<bool>,
    /// Index of the chunk currently awaiting its ack, if any.
    in_flight: Option<usize>,
    /// Consecutive timeouts of the in-flight chunk.
    attempts: u32,
    /// Current (exponentially growing, capped) retransmit backoff.
    backoff: SimDuration,
    /// When the in-flight chunk times out.
    deadline: SimTime,
    /// Rate limit: the next chunk may not ship before this.
    next_ship_at: SimTime,
    /// Retries exhausted; a revert has been requested.
    gave_up: bool,
    /// Waiting for a per-link in-flight slot; the pump skips the entry
    /// until a freed slot promotes it.
    deferred: bool,
}

impl<V> OutboxEntry<V> {
    /// Whether the entry holds one of its link's in-flight slots.
    fn holds_slot(&self) -> bool {
        !self.deferred && !self.gave_up
    }
}

/// Destination-side buffer of one staged key migration. Chunks accumulate
/// here (idempotently — retransmits overwrite with identical data) and are
/// installed only once the matching [`Payload::MigrationDone`] has been
/// delivered in total order.
#[derive(Clone)]
struct StagedKey<V> {
    /// The old owner.
    from: PartitionId,
    /// Total chunk count, learned from the first chunk to arrive (a
    /// `MigrationDone` can be delivered before any chunk reaches this
    /// particular replica).
    total: Option<u32>,
    /// Received chunks by index.
    chunks: BTreeMap<u32, Vars<V>>,
    /// The `MigrationDone` for this migration has been delivered.
    done: bool,
    /// This replica already submitted the `MigrationDone` multicast.
    done_requested: bool,
}

impl<V> StagedKey<V> {
    fn new(from: PartitionId) -> Self {
        StagedKey { from, total: None, chunks: BTreeMap::new(), done: false, done_requested: false }
    }
}

/// Counts of staged-migration events since the partition server last
/// recorded them into its metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct MigrationTally {
    pub keys_staged: u64,
    pub deferred: u64,
    pub released: u64,
    pub chunks_sent: u64,
    pub chunk_retries: u64,
}

/// The staged-migration engine of one partition replica: outbound
/// transfers with their per-link scheduling, and inbound chunk buffers.
/// `V` is the application's value type.
#[derive(Clone)]
pub(crate) struct StagedMigrations<V> {
    /// The partition this replica belongs to.
    me: PartitionId,
    /// Staged migrations this partition is the source of.
    outbox: BTreeMap<(u64, LocKey), OutboxEntry<V>>,
    /// Staged migrations this partition is the destination of.
    staging: BTreeMap<(u64, LocKey), StagedKey<V>>,
    /// Per-destination count of transfers holding an in-flight slot (only
    /// maintained when `migration_max_inflight_per_link > 0`).
    link_active: BTreeMap<PartitionId, u32>,
    /// Deferred outbox entries per destination, in plan (hottest-first)
    /// order, promoted as slots free up.
    link_waiting: BTreeMap<PartitionId, VecDeque<(u64, LocKey)>>,
    /// Events not yet recorded into metrics.
    tally: MigrationTally,
}

impl<V: Clone> StagedMigrations<V> {
    pub fn new(me: PartitionId) -> Self {
        StagedMigrations {
            me,
            outbox: BTreeMap::new(),
            staging: BTreeMap::new(),
            link_active: BTreeMap::new(),
            link_waiting: BTreeMap::new(),
            tally: MigrationTally::default(),
        }
    }

    /// Takes the events counted since the last call.
    pub fn take_tally(&mut self) -> MigrationTally {
        std::mem::take(&mut self.tally)
    }

    // ---- source side ---------------------------------------------------

    /// Starts the staged transfer of `key`'s variables to `to` for plan
    /// `version`. When the link to `to` is at its in-flight cap the
    /// transfer parks in FIFO (plan, hence hottest-first) order until a
    /// slot frees up.
    pub fn start(
        &mut self,
        cfg: &ServerConfig,
        version: u64,
        key: LocKey,
        to: PartitionId,
        vars: Vars<V>,
        now: SimTime,
    ) {
        let per = cfg.migration_chunk_vars.max(1) as usize;
        let mut chunks: Vec<Vars<V>> = vars.chunks(per).map(|c| c.to_vec()).collect();
        if chunks.is_empty() {
            // Keyless-data moves still stage one empty chunk so the
            // destination reaches `total` and commits.
            chunks.push(Vec::new());
        }
        let n = chunks.len();
        let cap = cfg.migration_max_inflight_per_link;
        let deferred = cap > 0 && self.link_active.get(&to).copied().unwrap_or(0) >= cap;
        if deferred {
            self.link_waiting.entry(to).or_default().push_back((version, key));
        } else if cap > 0 {
            *self.link_active.entry(to).or_insert(0) += 1;
        }
        self.outbox.insert(
            (version, key),
            OutboxEntry {
                to,
                chunks,
                acked: vec![false; n],
                in_flight: None,
                attempts: 0,
                backoff: cfg.migration_chunk_timeout,
                deadline: SimTime::ZERO,
                next_ship_at: now,
                gave_up: false,
                deferred,
            },
        );
        self.tally.keys_staged += 1;
        self.tally.deferred += u64::from(deferred);
    }

    /// Dismantles the source side of a settled transfer, freeing its link
    /// slot. Returns the destination and the retained variables, if this
    /// replica had the transfer.
    pub fn finish(
        &mut self,
        cfg: &ServerConfig,
        version: u64,
        key: LocKey,
        now: SimTime,
    ) -> Option<(PartitionId, Vars<V>)> {
        let e = self.outbox.remove(&(version, key))?;
        if e.holds_slot() {
            self.release_link_slot(cfg, e.to, now);
        }
        Some((e.to, e.chunks.into_iter().flatten().collect()))
    }

    /// Records the destination's ack of one chunk.
    pub fn on_ack(&mut self, cfg: &ServerConfig, version: u64, key: LocKey, chunk: u32) {
        if let Some(e) = self.outbox.get_mut(&(version, key)) {
            let i = chunk as usize;
            if i < e.acked.len() && !e.acked[i] {
                e.acked[i] = true;
                if e.in_flight == Some(i) {
                    e.in_flight = None;
                    e.attempts = 0;
                    e.backoff = cfg.migration_chunk_timeout;
                }
            }
        }
    }

    /// Frees one in-flight slot on the link to `to` and promotes waiting
    /// deferred transfers (oldest = hottest first) into free slots.
    /// Returns whether any transfer was promoted. No-op when the per-link
    /// cap is disabled.
    fn release_link_slot(&mut self, cfg: &ServerConfig, to: PartitionId, now: SimTime) -> bool {
        let cap = cfg.migration_max_inflight_per_link;
        if cap == 0 {
            return false;
        }
        if let Some(n) = self.link_active.get_mut(&to) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                self.link_active.remove(&to);
            }
        }
        let mut promoted = false;
        while self.link_active.get(&to).copied().unwrap_or(0) < cap {
            let Some(k) = self.link_waiting.get_mut(&to).and_then(VecDeque::pop_front) else {
                self.link_waiting.remove(&to);
                break;
            };
            match self.outbox.get_mut(&k) {
                Some(e) if e.deferred && !e.gave_up => {
                    e.deferred = false;
                    e.next_ship_at = now;
                    *self.link_active.entry(to).or_insert(0) += 1;
                    promoted = true;
                    self.tally.released += 1;
                }
                // Stale waiter (entry dismantled meanwhile): keep popping.
                _ => {}
            }
        }
        promoted
    }

    /// Drives every outbound transfer: ships the next chunk when the rate
    /// limiter allows, retransmits timed-out chunks with exponential
    /// backoff, and requests a revert once retries are exhausted.
    /// Serialization/NIC time of every shipment charges `exec`'s workers.
    /// Give-ups free their link slot, and any transfer promoted into it
    /// ships in a follow-up pass. Returns the earliest future instant at
    /// which the pump needs to run again (always `> now`: past-due work
    /// was just handled).
    pub fn pump<A: Application<Value = V>>(
        &mut self,
        cfg: &ServerConfig,
        exec: &mut ExecScheduler,
        now: SimTime,
        eff: &mut Vec<Effect<A>>,
    ) -> Option<SimTime> {
        if self.outbox.is_empty() {
            return None;
        }
        let mut next_due: Option<SimTime> = None;
        loop {
            let freed = self.pump_pass(cfg, exec, now, eff, &mut next_due);
            let mut promoted = false;
            for to in freed {
                promoted |= self.release_link_slot(cfg, to, now);
            }
            if !promoted {
                break;
            }
            // A promoted transfer has `next_ship_at = now`: re-run the
            // pass so its first chunk ships in this same batch.
        }
        next_due
    }

    /// One pass over the outbox; returns the destinations whose link slot
    /// was freed by a give-up in this pass.
    fn pump_pass<A: Application<Value = V>>(
        &mut self,
        cfg: &ServerConfig,
        exec: &mut ExecScheduler,
        now: SimTime,
        eff: &mut Vec<Effect<A>>,
        next_due: &mut Option<SimTime>,
    ) -> Vec<PartitionId> {
        let me = self.me;
        let backoff_cap = cfg.migration_chunk_timeout.saturating_mul(64);
        let due = |slot: &mut Option<SimTime>, at: SimTime| {
            *slot = Some(slot.map_or(at, |cur| cur.min(at)));
        };
        let mut ship_chunk = |version: u64, key: LocKey, e: &mut OutboxEntry<V>, i: usize| {
            let transfer = transfer_time(cfg, e.chunks[i].len());
            e.deadline = now + transfer + e.backoff;
            exec.charge(now, transfer);
            eff.push(Effect::Send {
                to: Destination::Partition(e.to),
                msg: Direct::PlanVarsChunk {
                    version,
                    key,
                    from: me,
                    chunk: i as u32,
                    total: e.chunks.len() as u32,
                    vars: e.chunks[i].clone(),
                },
            });
            self.tally.chunks_sent += 1;
            transfer
        };
        let mut reverts: Vec<(u64, LocKey, PartitionId)> = Vec::new();
        for (&(version, key), e) in self.outbox.iter_mut() {
            if !e.holds_slot() {
                continue;
            }
            if let Some(i) = e.in_flight {
                if now < e.deadline {
                    due(next_due, e.deadline);
                    continue;
                }
                // Ack deadline missed: retry with backoff, or give up.
                e.attempts += 1;
                if e.attempts > cfg.migration_max_retries {
                    e.gave_up = true;
                    reverts.push((version, key, e.to));
                    continue;
                }
                e.backoff = e.backoff.saturating_mul(2).min(backoff_cap);
                ship_chunk(version, key, e, i);
                self.tally.chunk_retries += 1;
                due(next_due, e.deadline);
                continue;
            }
            let Some(i) = e.acked.iter().position(|&a| !a) else {
                continue; // all chunks acked; awaiting the MigrationDone
            };
            if now < e.next_ship_at {
                due(next_due, e.next_ship_at);
                continue;
            }
            e.in_flight = Some(i);
            e.next_ship_at = now + ship_chunk(version, key, e, i);
            due(next_due, e.deadline);
        }
        let mut freed = Vec::with_capacity(reverts.len());
        for (version, key, to) in reverts {
            freed.push(to);
            eff.push(Effect::Multicast {
                mid: migration_mid(key, version, TAG_MIGRATION_REVERT),
                partitions: vec![me, to],
                oracle: OracleDest::All,
                payload: Payload::MigrationRevert { version, key, from: me, to },
            });
        }
        freed
    }

    // ---- destination side ------------------------------------------------

    /// Whether a buffer for the move exists.
    pub fn is_staging(&self, version: u64, key: LocKey) -> bool {
        self.staging.contains_key(&(version, key))
    }

    /// Buffers one inbound chunk (idempotently: a retransmit overwrites
    /// identical data). Returns the `MigrationDone` multicast the first
    /// time this replica holds every chunk of the move.
    pub fn buffer_chunk<A: Application<Value = V>>(
        &mut self,
        version: u64,
        key: LocKey,
        from: PartitionId,
        chunk: u32,
        total: u32,
        vars: Vars<V>,
    ) -> Option<Effect<A>> {
        let e = self.staging.entry((version, key)).or_insert_with(|| StagedKey::new(from));
        if e.total.is_none() {
            e.total = Some(total);
        }
        e.chunks.insert(chunk, vars);
        if e.chunks.len() as u32 >= total && !e.done_requested {
            e.done_requested = true;
            return Some(Effect::Multicast {
                mid: migration_mid(key, version, TAG_MIGRATION_DONE),
                partitions: vec![from, self.me],
                // Every shard's map replica settles the move.
                oracle: OracleDest::All,
                payload: Payload::MigrationDone { version, key, from, to: self.me },
            });
        }
        None
    }

    /// Marks the move's `MigrationDone` as delivered at the destination.
    pub fn mark_done(&mut self, version: u64, key: LocKey, from: PartitionId) {
        let e = self
            .staging
            .entry((version, key))
            .or_insert_with(|| StagedKey { done_requested: true, ..StagedKey::new(from) });
        e.done = true;
    }

    /// Drops the destination buffer of a reverted move.
    pub fn cancel(&mut self, version: u64, key: LocKey) {
        self.staging.remove(&(version, key));
    }

    /// Whether the move's Done has been delivered and every chunk arrived.
    pub fn ready(&self, version: u64, key: LocKey) -> bool {
        self.staging
            .get(&(version, key))
            .is_some_and(|e| e.done && e.total.is_some_and(|t| e.chunks.len() as u32 >= t))
    }

    /// Removes a buffer, returning the old owner and every buffered
    /// variable in chunk order.
    pub fn take(&mut self, version: u64, key: LocKey) -> Option<(PartitionId, Vars<V>)> {
        let e = self.staging.remove(&(version, key))?;
        Some((e.from, e.chunks.into_values().flatten().collect()))
    }

    /// Moves whose Done has been delivered, in `(version, key)` order.
    pub fn done_moves(&self) -> Vec<(u64, LocKey)> {
        self.staging.iter().filter(|(_, e)| e.done).map(|(&k, _)| k).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const K: LocKey = LocKey(7);
    const A: PartitionId = PartitionId(0);
    const B: PartitionId = PartitionId(1);
    const C: PartitionId = PartitionId(2);

    #[test]
    fn done_settles_at_destination() {
        let mut h = PlanHistory::new(64);
        h.record_move(K, 1, A, B);
        assert_eq!(h.settle(K, 1, A, B, MoveOutcome::Done), Settle::Applied { owner: B });
        assert_eq!(h.resolved_owner(K), Some(B));
        assert!(h.decided(1, K));
    }

    #[test]
    fn revert_of_sole_move_restores_source() {
        let mut h = PlanHistory::new(64);
        h.record_move(K, 1, A, B);
        assert_eq!(h.settle(K, 1, A, B, MoveOutcome::Reverted), Settle::Applied { owner: A });
        // With no surviving move the history cannot name the key's home —
        // settle's fallback (the revert's own `from`) supplied it above,
        // and callers of resolved_owner treat None as "stays put".
        assert_eq!(h.resolved_owner(K), None);
    }

    #[test]
    fn revert_composes_with_chained_move() {
        // Plan 1: A→B in flight; plan 2 re-routes B→C; then the v1 transfer
        // gives up. The revert must NOT bounce the key back to A: replay
        // skips the annulled v1 move and keeps v2's destination.
        let mut h = PlanHistory::new(64);
        h.record_move(K, 1, A, B);
        h.record_move(K, 2, B, C);
        assert_eq!(h.settle(K, 1, A, B, MoveOutcome::Reverted), Settle::Applied { owner: C });
        assert_eq!(h.settle(K, 2, B, C, MoveOutcome::Done), Settle::Applied { owner: C });
        assert_eq!(h.resolved_owner(K), Some(C));
    }

    #[test]
    fn revert_of_chained_move_falls_back() {
        // v1 done, v2 reverted → key stands where v1 put it.
        let mut h = PlanHistory::new(64);
        h.record_move(K, 1, A, B);
        h.record_move(K, 2, B, C);
        assert_eq!(h.settle(K, 2, B, C, MoveOutcome::Reverted), Settle::Applied { owner: B });
        assert_eq!(h.settle(K, 1, A, B, MoveOutcome::Done), Settle::Applied { owner: B });
    }

    #[test]
    fn duplicate_decisions_are_stale() {
        let mut h = PlanHistory::new(64);
        h.record_move(K, 1, A, B);
        assert_eq!(h.settle(K, 1, A, B, MoveOutcome::Done), Settle::Applied { owner: B });
        assert_eq!(h.settle(K, 1, A, B, MoveOutcome::Reverted), Settle::Stale);
        assert_eq!(h.settle(K, 1, A, B, MoveOutcome::Done), Settle::Stale);
        assert_eq!(h.resolved_owner(K), Some(B));
    }

    #[test]
    fn late_duplicate_below_floor_is_stale_even_after_churn() {
        // Regression for the RotatingSet amnesia bug: after the bounded log
        // folds a decision out, a late duplicate revert must stay ignored —
        // never re-apply as "first".
        let mut h = PlanHistory::new(4);
        let mut at = A;
        for v in 1..=64u64 {
            let to = if at == A { B } else { A };
            h.record_move(K, v, at, to);
            assert!(matches!(h.settle(K, v, at, to, MoveOutcome::Done), Settle::Applied { .. }));
            at = to;
        }
        let owner = h.resolved_owner(K).unwrap();
        // Version 1 is long folded out; the duplicate revert is dropped.
        assert_eq!(h.settle(K, 1, A, B, MoveOutcome::Reverted), Settle::Stale);
        assert_eq!(h.resolved_owner(K), Some(owner));
        assert!(h.decided(1, K), "below-floor counts as decided (default-deny)");
    }

    #[test]
    fn missing_record_recreated_from_message() {
        // Decision for a version we never recorded (capped out) but above
        // the floor: recreate from the payload's own from/to.
        let mut h = PlanHistory::new(64);
        assert_eq!(h.settle(K, 3, B, C, MoveOutcome::Done), Settle::Applied { owner: C });
        assert_eq!(h.resolved_owner(K), Some(C));
    }

    #[test]
    fn pending_cap_raises_floor() {
        let mut h = PlanHistory::new(2);
        h.record_move(K, 1, A, B);
        h.record_move(K, 2, B, C);
        h.record_move(K, 3, C, A); // folds v1 out even though pending
        assert!(h.decided(1, K), "folded pending move is below the floor");
        assert_eq!(h.settle(K, 1, A, B, MoveOutcome::Reverted), Settle::Stale);
        assert_eq!(h.settle(K, 3, C, A, MoveOutcome::Done), Settle::Applied { owner: A });
    }

    #[test]
    fn replay_is_order_independent_of_decision_arrival() {
        // Decisions for v1 and v2 can be delivered in either order (they
        // come from different source partitions); replay must converge.
        let mk = || {
            let mut h = PlanHistory::new(64);
            h.record_move(K, 1, A, B);
            h.record_move(K, 2, B, C);
            h
        };
        let mut h1 = mk();
        h1.settle(K, 1, A, B, MoveOutcome::Reverted);
        h1.settle(K, 2, B, C, MoveOutcome::Done);
        let mut h2 = mk();
        h2.settle(K, 2, B, C, MoveOutcome::Done);
        h2.settle(K, 1, A, B, MoveOutcome::Reverted);
        assert_eq!(h1.resolved_owner(K), h2.resolved_owner(K));
        assert_eq!(h1.resolved_owner(K), Some(C));
    }

    // ---- staged transfers ------------------------------------------------

    struct App;
    impl Application for App {
        type Op = ();
        type Value = i64;
        type Reply = ();
        fn locality(var: VarId) -> LocKey {
            LocKey(var.0)
        }
        fn execute(_: &(), _: &mut BTreeMap<VarId, Option<i64>>) {}
    }

    fn capped(cap: u32) -> ServerConfig {
        ServerConfig {
            staged_migration: true,
            migration_max_inflight_per_link: cap,
            migration_max_retries: 0,
            ..ServerConfig::default()
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// Starts a one-variable transfer of each key, in order, from A to B.
    fn start_all(cfg: &ServerConfig, keys: &[u64]) -> StagedMigrations<i64> {
        let mut m = StagedMigrations::new(A);
        for &k in keys {
            m.start(cfg, 1, LocKey(k), B, vec![(VarId(k), Some(k as i64))], t(0));
        }
        m
    }

    /// Keys whose chunks one pump at `now` ships.
    fn shipped(m: &mut StagedMigrations<i64>, cfg: &ServerConfig, now: SimTime) -> Vec<u64> {
        let mut exec = ExecScheduler::new(crate::exec::ExecConfig::default());
        let mut eff: Vec<Effect<App>> = Vec::new();
        m.pump(cfg, &mut exec, now, &mut eff);
        eff.iter()
            .filter_map(|e| match e {
                Effect::Send { msg: Direct::PlanVarsChunk { key, .. }, .. } => Some(key.0),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn link_cap_defers_transfers_past_the_cap() {
        let cfg = capped(2);
        let mut m = start_all(&cfg, &[1, 2, 3]);
        let tally = m.take_tally();
        assert_eq!((tally.keys_staged, tally.deferred), (3, 1));
        assert_eq!(shipped(&mut m, &cfg, t(0)), vec![1, 2], "the third transfer waits");
        // Acks alone free no slot: the transfer holds it until settled.
        m.on_ack(&cfg, 1, LocKey(1), 0);
        assert_eq!(shipped(&mut m, &cfg, t(1)), Vec::<u64>::new());
        // Settling one transfer promotes the waiter into its slot.
        assert_eq!(m.finish(&cfg, 1, LocKey(1), t(2)), Some((B, vec![(VarId(1), Some(1))])));
        assert_eq!(m.take_tally().released, 1);
        assert_eq!(shipped(&mut m, &cfg, t(2)), vec![3]);
        // Without a cap nothing waits.
        let free = capped(0);
        let mut m = start_all(&free, &[1, 2, 3]);
        assert_eq!(m.take_tally().deferred, 0);
        assert_eq!(shipped(&mut m, &free, t(0)), vec![1, 2, 3]);
    }

    #[test]
    fn freed_slots_promote_in_plan_order() {
        // Plans list moves hottest-first, which need not be key order.
        let cfg = capped(1);
        let mut m = start_all(&cfg, &[5, 9, 3]);
        assert_eq!(shipped(&mut m, &cfg, t(0)), vec![5]);
        m.finish(&cfg, 1, LocKey(5), t(1));
        assert_eq!(shipped(&mut m, &cfg, t(1)), vec![9], "the hotter waiter goes first");
        // A give-up frees its slot too, and the promoted transfer ships in
        // the same pump that multicasts the revert.
        let deadline = cfg.migration_chunk_timeout;
        let mut exec = ExecScheduler::new(crate::exec::ExecConfig::default());
        let mut eff: Vec<Effect<App>> = Vec::new();
        m.pump(&cfg, &mut exec, t(1) + deadline, &mut eff);
        assert!(eff.iter().any(|e| matches!(
            e,
            Effect::Multicast { payload: Payload::MigrationRevert { key: LocKey(9), .. }, .. }
        )));
        assert!(eff.iter().any(|e| matches!(
            e,
            Effect::Send { msg: Direct::PlanVarsChunk { key: LocKey(3), .. }, .. }
        )));
    }
}
