//! Standalone timings of single layers, driven through their public
//! functions with no cluster around them. Each returns plain numbers;
//! `run` names them.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dynastar_amcast::{GroupId, McastMember, McastWire, MemberId, MsgId, Topology};
use dynastar_core::{Application, CommandKind, VarId, Workload};
use dynastar_partitioner::{partition, partition_from, Graph, GraphBuilder, PartitionConfig};
use dynastar_paxos::{GroupConfig, PaxosMsg, PaxosReplica};
use dynastar_runtime::prelude::*;
use dynastar_workloads::chirper::{Chirper, ChirperMix, ChirperOp, ChirperUser, ChirperWorkload};
use dynastar_workloads::socialgraph::SocialGraph;
use dynastar_workloads::tpcc::{self, Tpcc, TpccOp, TpccReply, TpccWorkload};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::metrics::median;
use crate::trace;
use crate::workloads::{chirper_rows, tpcc_scale};

/// Median wall seconds of `reps` calls of `f`.
fn median_secs<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut xs: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut xs)
}

struct Echo {
    peer: Option<NodeId>,
}

impl Actor<u64> for Echo {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        if let Some(peer) = self.peer {
            for _ in 0..100 {
                ctx.send(peer, u64::MAX);
            }
        }
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, msg: u64) {
        ctx.send(from, msg - 1);
    }
}

/// Events per wall second of the bare simulation kernel: two trivial
/// actors bouncing 100 messages under the default network model.
pub fn raw_events_per_s() -> f64 {
    trace::span("runtime.raw_echo", || {
        let mut rates: Vec<f64> = (0..3)
            .map(|_| {
                let mut sim = Simulation::new(SimConfig::default().seed(1));
                let a = sim.add_node("echo", Echo { peer: None });
                sim.add_node("starter", Echo { peer: Some(a) });
                let t0 = Instant::now();
                sim.run_until(SimTime::from_secs(4));
                sim.events_processed() as f64 / t0.elapsed().as_secs_f64()
            })
            .collect();
        median(&mut rates)
    })
}

/// `(µs per decision, messages per decision)` of a 3-replica Multi-Paxos
/// group deciding `n` commands proposed at the leader, message by message.
pub fn paxos(n: u64) -> (f64, f64) {
    let run = || {
        let cfg = GroupConfig::new(3);
        let mut replicas: Vec<PaxosReplica<u64>> =
            (0..3).map(|i| PaxosReplica::new(i, cfg.clone())).collect();
        let mut queue: VecDeque<(usize, usize, PaxosMsg<u64>)> = VecDeque::new();
        let (mut decided, mut msgs) = (0u64, 0u64);
        for v in 0..n {
            let out = replicas[0].propose(v);
            decided += out.decided.len() as u64;
            queue.extend(out.outgoing.into_iter().map(|(to, m)| (0, to, m)));
            while let Some((from, to, m)) = queue.pop_front() {
                msgs += 1;
                let out = replicas[to].on_message(from, m);
                if to == 0 {
                    decided += out.decided.len() as u64;
                }
                queue.extend(out.outgoing.into_iter().map(|(t, m)| (to, t, m)));
            }
        }
        assert_eq!(decided, n, "paxos leader must decide every proposal");
        msgs
    };
    trace::span("paxos.propose_loop", || {
        let msgs = run();
        let secs = median_secs(3, run);
        (secs * 1e6 / n as f64, msgs as f64 / n as f64)
    })
}

/// `(µs per delivery, messages per delivery)` of `n` atomic multicasts
/// from one member to `groups` groups of 3 replicas each, delivered at
/// every member.
pub fn amcast(n: u32, groups: u32) -> (f64, f64) {
    let run = || {
        let topo = Topology::uniform(groups as usize, 3);
        let mut members: BTreeMap<MemberId, McastMember<u64>> = topo
            .groups()
            .flat_map(|g| topo.members_of(g).collect::<Vec<_>>())
            .map(|m| (m, McastMember::new(m, topo.clone())))
            .collect();
        let mut queue: VecDeque<(MemberId, McastWire<u64>)> = VecDeque::new();
        let sender = MemberId::new(GroupId(0), 0);
        let dests: Vec<GroupId> = (0..groups).map(GroupId).collect();
        let mut msgs = 0u64;
        for i in 0..n {
            let member = members.get_mut(&sender).expect("sender is a member");
            queue.extend(member.submit(MsgId::new(1, i), dests.clone(), i as u64).outgoing);
            while let Some((to, wire)) = queue.pop_front() {
                msgs += 1;
                let member = members.get_mut(&to).expect("wire addressed to a member");
                queue.extend(member.on_message(wire).outgoing);
            }
        }
        for m in members.values() {
            assert_eq!(m.delivered_count(), n as u64, "every member must deliver every multicast");
        }
        msgs
    };
    let name = if groups == 1 { "amcast.submit_loop.1g" } else { "amcast.submit_loop.2g" };
    trace::span(name, || {
        let msgs = run();
        let secs = median_secs(3, run);
        (secs * 1e6 / n as f64, msgs as f64 / n as f64)
    })
}

/// The co-access graph the oracle would build from `commands`: one vertex
/// per key of `keys` (sorted) weighted 1 + accesses, and a clique over
/// each command's distinct keys.
pub fn coaccess_graph<A: Application>(keys: &[u64], commands: &[Vec<VarId>]) -> Graph {
    let index: BTreeMap<u64, u32> = keys.iter().enumerate().map(|(i, &k)| (k, i as u32)).collect();
    let mut vw = vec![1u64; keys.len()];
    let mut edges: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    for vars in commands {
        let mut ks: Vec<u32> =
            vars.iter().filter_map(|&v| index.get(&A::locality(v).0).copied()).collect();
        ks.sort_unstable();
        ks.dedup();
        for (i, &a) in ks.iter().enumerate() {
            vw[a as usize] += 1;
            for &b in &ks[i + 1..] {
                *edges.entry((a, b)).or_insert(0) += 1;
            }
        }
    }
    let mut b = GraphBuilder::new();
    if !keys.is_empty() {
        b.add_vertex(keys.len() as u32 - 1);
    }
    for (i, &w) in vw.iter().enumerate() {
        b.set_vertex_weight(i as u32, w);
    }
    for (&(x, y), &w) in &edges {
        b.add_edge(x, y, w);
    }
    b.build()
}

/// `(full ms, warm ms, edge-cut fraction)`: a full multilevel run and a
/// warm start from `prev` (the initial placement), k = `k`, with the
/// oracle's balance factor.
pub fn partitioner(g: &Graph, k: u32, prev: &[u32]) -> (f64, f64, f64) {
    let cfg = PartitionConfig::default().balance_factor(1.2);
    let full = trace::span("partitioner.partition", || partition(g, k, &cfg));
    let full_s = median_secs(3, || trace::span("partitioner.partition", || partition(g, k, &cfg)));
    let warm_s = median_secs(3, || {
        trace::span("partitioner.partition_from", || partition_from(g, k, prev, &cfg))
    });
    let total = g.total_edge_weight();
    let cut = if total == 0 { 0.0 } else { full.edge_cut(g) as f64 / total as f64 };
    (full_s * 1e3, warm_s * 1e3, cut)
}

/// Per-operation execution cost: mean µs of `A::execute` by op name.
pub type ExecCost = BTreeMap<&'static str, f64>;

/// Executes `n` generated operations against `rows`, timing each
/// `A::execute` call alone. `next` yields `(op name, op, vars)`; `observe`
/// sees each reply (TPC-C feeds new orders back to its generator). Returns
/// the costs and every command's declared variables.
fn execute<A: Application>(
    rows: &mut BTreeMap<VarId, A::Value>,
    n: usize,
    mut next: impl FnMut() -> (&'static str, A::Op, Vec<VarId>),
    mut observe: impl FnMut(&A::Op, &A::Reply),
) -> (ExecCost, Vec<Vec<VarId>>) {
    let mut sums: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    let mut declared = Vec::with_capacity(n);
    for _ in 0..n {
        let (name, op, vars) = next();
        let mut state: BTreeMap<VarId, Option<A::Value>> =
            vars.iter().map(|v| (*v, rows.get(v).cloned())).collect();
        let t0 = Instant::now();
        let reply = black_box(A::execute(&op, &mut state));
        let dt = t0.elapsed().as_secs_f64() * 1e6;
        let e = sums.entry(name).or_default();
        e.0 += dt;
        e.1 += 1;
        for (v, val) in state {
            match val {
                Some(val) => rows.insert(v, val),
                None => rows.remove(&v),
            };
        }
        observe(&op, &reply);
        declared.push(vars);
    }
    (sums.into_iter().map(|(k, (t, c))| (k, t / c as f64)).collect(), declared)
}

fn tpcc_op_name(op: &TpccOp) -> &'static str {
    match op {
        TpccOp::NewOrder { .. } => "new_order",
        TpccOp::Payment { .. } => "payment",
        TpccOp::OrderStatus { .. } => "order_status",
        TpccOp::Delivery { .. } => "delivery",
        TpccOp::StockLevel { .. } => "stock_level",
    }
}

fn chirper_op_name(op: &ChirperOp) -> &'static str {
    match op {
        ChirperOp::GetTimeline { .. } => "get_timeline",
        ChirperOp::Post { .. } => "post",
        ChirperOp::Follow { .. } => "follow",
        ChirperOp::Unfollow { .. } => "unfollow",
    }
}

fn access<A: Application>(kind: Option<CommandKind<A>>) -> (A::Op, Vec<VarId>) {
    match kind {
        Some(CommandKind::Access { op, vars }) => (op, vars),
        _ => panic!("benchmark generators issue only access commands"),
    }
}

/// `Tpcc::execute` on `n` ops of the standard mix, generated round-robin
/// by one terminal per warehouse, against freshly loaded rows.
pub fn tpcc_execute(seed: u64, n: usize) -> (ExecCost, Vec<Vec<VarId>>) {
    let scale = tpcc_scale();
    let mut rows: BTreeMap<VarId, _> = tpcc::rows(&scale).into_iter().collect();
    let tracker = tpcc::order_tracker();
    let mut terminals: Vec<TpccWorkload> =
        (0..scale.warehouses).map(|w| TpccWorkload::new(scale, w, Arc::clone(&tracker))).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut i = 0;
    let next = || {
        let n = terminals.len();
        let t = &mut terminals[i % n];
        i += 1;
        let (op, vars) = access(t.next_command(SimTime::ZERO, &mut rng));
        (tpcc_op_name(&op), op, vars)
    };
    let observe = |op: &TpccOp, reply: &TpccReply| {
        if let (TpccOp::NewOrder { w, d, c, .. }, TpccReply::OrderPlaced { order_id, .. }) =
            (op, reply)
        {
            tracker
                .lock()
                .expect("tracker")
                .entry((*w, *d))
                .or_default()
                .push_back((*order_id, *c));
        }
    };
    trace::span("workloads.tpcc_execute", || execute::<Tpcc>(&mut rows, n, next, observe))
}

/// `Chirper::execute` on `n` ops of the 85/15 mix (Zipf θ = 0.95) over
/// `graph`, against rows built from it as the cluster preloads them.
pub fn chirper_execute(graph: SocialGraph, seed: u64, n: usize) -> (ExecCost, Vec<Vec<VarId>>) {
    let mut rows: BTreeMap<VarId, Arc<ChirperUser>> = chirper_rows(&graph).into_iter().collect();
    let mut gen = ChirperWorkload::new(Arc::new(Mutex::new(graph)), 0.95, ChirperMix::MIX);
    let mut rng = StdRng::seed_from_u64(seed);
    let next = || {
        let (op, vars) = access(gen.next_command(SimTime::ZERO, &mut rng));
        (chirper_op_name(&op), op, vars)
    };
    trace::span("workloads.chirper_execute", || execute::<Chirper>(&mut rows, n, next, |_, _| ()))
}
