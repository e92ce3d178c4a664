//! Stage accounting of the three-stage hierarchical group construct
//! (paper §III-A), asserted from obs events alone: the per-stage event
//! counts scale with the number of participating *nodes*, never with the
//! number of processes per node.

use obs::Event;
use pmix::{GroupDirectives, PmixUniverse, ProcId};
use simnet::SimTestbed;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn spawn_procs(uni: &Arc<PmixUniverse>, nspace: &str, n: u32) -> Vec<ProcId> {
    let spec = uni.testbed().cluster.clone();
    (0..n)
        .map(|rank| {
            let node = spec.node_of_slot(rank % spec.total_slots());
            let ep = uni.fabric().register(node);
            let proc = ProcId::new(nspace, rank);
            uni.register_proc(proc.clone(), &ep);
            proc
        })
        .collect()
}

fn construct_on_all(uni: &Arc<PmixUniverse>, procs: &[ProcId], name: &str) {
    let members = procs.to_vec();
    let handles: Vec<_> = procs
        .iter()
        .map(|p| {
            let uni = uni.clone();
            let p = p.clone();
            let members = members.clone();
            let name = name.to_string();
            std::thread::spawn(move || {
                let c = uni.client_for(&p).unwrap();
                let g = c
                    .group_construct(&name, &members, &GroupDirectives::for_mpi())
                    .unwrap();
                g.pgcid().unwrap()
            })
        })
        .collect();
    let pgcids: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(pgcids.iter().all(|p| *p == pgcids[0]));
    // A server releases its clients before it counts the fan-out, so wait
    // for every participating server's `group.fanout` event: it is the
    // last thing a server records for the op, after every stage counter.
    let registry = uni.registry();
    let servers: HashSet<_> = procs.iter().map(|p| registry.locate(p).unwrap().node).collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while stage_events(uni, name, "group.fanout") < servers.len() {
        assert!(Instant::now() < deadline, "a server never finished the fan-out of '{name}'");
        std::thread::yield_now();
    }
}

/// Events of one stage of one construct op, filtered by op name and kind.
fn stage_events(uni: &Arc<PmixUniverse>, op: &str, stage: &str) -> usize {
    uni.fabric()
        .obs()
        .events_named(stage)
        .iter()
        .filter(|e: &&Event| {
            e.attr("op").and_then(|v| v.as_str()) == Some(op)
                && e.attr("kind").and_then(|v| v.as_str()) == Some("group_construct")
        })
        .count()
}

/// Stage event counts (fanin, xchg, fanout) for one construct op.
fn stage_counts(uni: &Arc<PmixUniverse>, op: &str) -> (usize, usize, usize) {
    let count = |stage| stage_events(uni, op, stage);
    (count("group.fanin"), count("group.xchg"), count("group.fanout"))
}

/// Run one 4-process construct on a (nodes, ppn) testbed and return the
/// observed (fanin, xchg, fanout) stage counts.
fn run_topology(nodes: u32, ppn: u32) -> (usize, usize, usize) {
    assert_eq!(nodes * ppn, 4, "all topologies use the same np");
    let uni = PmixUniverse::new(SimTestbed::tiny(nodes, ppn));
    let procs = spawn_procs(&uni, "job", 4);
    construct_on_all(&uni, &procs, "stages");
    stage_counts(&uni, "stages")
}

#[test]
fn stage_counts_scale_with_nodes_not_ppn() {
    // S participating servers: fan-in once per server, all-to-all exchange
    // S*(S-1) messages total, fan-out once per server. Same np=4 in every
    // case — only the node count moves the numbers.
    for (nodes, ppn) in [(4, 1), (2, 2), (1, 4)] {
        let s = nodes as usize;
        let (fanin, xchg, fanout) = run_topology(nodes, ppn);
        assert_eq!(fanin, s, "fanin events for nodes={nodes} ppn={ppn}");
        assert_eq!(xchg, s * (s - 1), "xchg events for nodes={nodes} ppn={ppn}");
        assert_eq!(fanout, s, "fanout events for nodes={nodes} ppn={ppn}");
    }
}

#[test]
fn stage_spans_chain_causally_on_every_server() {
    // One 4-process construct over 2 nodes: every participating server must
    // emit the three stage spans chained fanin → xchg → fanout with
    // strictly increasing logical start times, fan-in linking each local
    // client's operation span and the exchange linking at least one remote
    // contribution.
    let uni = PmixUniverse::new(SimTestbed::tiny(2, 2));
    let procs = spawn_procs(&uni, "job", 4);
    construct_on_all(&uni, &procs, "spans");
    let spans = uni.fabric().obs().spans_snapshot();
    for node in 0..2u64 {
        let process = format!("server:{node}");
        let find = |name: &str| {
            spans
                .iter()
                .find(|s| s.process == process && s.name == name && s.key.contains("spans"))
                .unwrap_or_else(|| panic!("missing {name} span on {process}"))
        };
        let fanin = find("group.fanin");
        let xchg = find("group.xchg");
        let fanout = find("group.fanout");
        assert!(
            fanin.start_clock < xchg.start_clock && xchg.start_clock < fanout.start_clock,
            "stage start clocks must increase on {process}: {} {} {}",
            fanin.start_clock,
            xchg.start_clock,
            fanout.start_clock
        );
        assert_eq!(xchg.parent, Some(fanin.id), "xchg is a child of fanin");
        assert_eq!(fanout.parent, Some(xchg.id), "fanout is a child of xchg");
        assert_eq!(fanin.links.len(), 2, "fanin links both local client spans");
        assert!(!xchg.links.is_empty(), "xchg links remote contributions");
        assert_eq!(fanout.work, 4, "fanout work counts installed members");
    }
    // Each client emitted an operation span plus a `.done` completion span
    // that links its server's fan-out context (the release edge).
    let fanout_ids: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "group.fanout")
        .map(|s| s.id)
        .collect();
    for p in &procs {
        let process = p.to_string();
        let op = spans
            .iter()
            .find(|s| s.process == process && s.name == "pmix.group_construct")
            .unwrap_or_else(|| panic!("missing construct span for {process}"));
        let done = spans
            .iter()
            .find(|s| s.process == process && s.name == "pmix.group_construct.done")
            .unwrap_or_else(|| panic!("missing done span for {process}"));
        assert_eq!(done.parent, Some(op.id));
        assert!(
            done.links.iter().any(|l| fanout_ids.contains(&l.span)),
            "{process} done span links a fanout context"
        );
        assert_eq!(done.trace, op.trace, "completion stays in the client's trace");
    }
}

#[test]
fn stage_counters_match_events() {
    // The cheap counters agree with the event stream (here: one construct
    // plus whatever fences the scenario does — none — on 2 nodes).
    let uni = PmixUniverse::new(SimTestbed::tiny(2, 2));
    let procs = spawn_procs(&uni, "job", 4);
    construct_on_all(&uni, &procs, "agree");
    let obs = uni.fabric().obs();
    assert_eq!(obs.sum_counters("pmix", "stage_fanin"), 2);
    assert_eq!(obs.sum_counters("pmix", "stage_xchg"), 2);
    assert_eq!(obs.sum_counters("pmix", "stage_fanout"), 2);
    // The single pool miss fetched one whole PGCID block from the RM; the
    // accounting stays exact (allocated == RM id-space consumption), it is
    // just batched now.
    assert_eq!(obs.sum_counters("pmix", "pgcid_allocated"), pmix::DEFAULT_PGCID_BLOCK);
    // The first construct on a fresh universe cannot hit the pool.
    assert_eq!(obs.sum_counters("pmix", "pgcid_pool_hits"), 0);
    // Every construct completion is visible on every participating server.
    assert_eq!(obs.sum_counters("pmix", "group_construct_completed"), 2);
}

#[test]
fn stage_counters_sum_correctly_across_shards() {
    // Stage counters are scoped per ops shard (`server:{n}/s{k}`): for every
    // participating server, the shard-sum must equal that server's stage
    // *event* count exactly. This is the anti-double-count guard for the
    // sharding refactor — a stage accounted on two shards (or on the wrong
    // server's shards) breaks the equality.
    let uni = PmixUniverse::new(SimTestbed::tiny(2, 2));
    let procs = spawn_procs(&uni, "job", 4);
    construct_on_all(&uni, &procs, "sharded");
    let obs = uni.fabric().obs();
    for node in 0..2u32 {
        let process = format!("server:{node}");
        for stage in ["group.fanin", "group.xchg", "group.fanout"] {
            let events = obs
                .events_named(stage)
                .iter()
                .filter(|e: &&Event| e.process == process)
                .count() as u64;
            let counter = match stage {
                "group.fanin" => "stage_fanin",
                "group.xchg" => "stage_xchg",
                _ => "stage_fanout",
            };
            let shard_sum: u64 = (0..pmix::SERVER_SHARDS)
                .map(|k| obs.counter_value(&format!("server:{node}/s{k}"), "pmix", counter))
                .sum();
            assert_eq!(
                shard_sum, events,
                "per-shard {counter} sum must match {stage} events on {process}"
            );
        }
        // Completions likewise: one construct completed once per server,
        // accounted on exactly one shard of that server.
        let completed: u64 = (0..pmix::SERVER_SHARDS)
            .map(|k| {
                obs.counter_value(
                    &format!("server:{node}/s{k}"),
                    "pmix",
                    "group_construct_completed",
                )
            })
            .sum();
        assert_eq!(completed, 1, "exactly one completion on {process}");
    }
}
