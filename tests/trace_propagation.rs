//! Causal-trace propagation through the full stack: contexts piggybacked
//! on simnet messages must stitch the per-process span DAGs into one
//! cross-process trace, and fault injection must land on the span that
//! was live when the fault fired.
//!
//! These are the end-to-end counterparts of the per-crate span unit tests
//! (`core/src/pml/tests.rs`, `pmix/tests/group_stages.rs`): everything here
//! goes through `Launcher::spawn`, so launch fan-out, PMIx, CID management
//! and the PML all contribute to the same registry.

use chaos::{ChaosWorld, FaultClass, FaultPlan, FaultRule, RuleScope, SeqWindow};
use mpi_sessions_repro::mpi::{Comm, ErrHandler, Info, Session, ThreadLevel};
use mpi_sessions_repro::obs;
use mpi_sessions_repro::pmix::ProcId;
use mpi_sessions_repro::prrte::{JobSpec, Launcher};
use mpi_sessions_repro::simnet::SimTestbed;
use std::time::Duration;

/// One sessions-mode job: init, world comm, a little point-to-point
/// traffic (forces the extended-header handshake), teardown.
fn run_sessions_job(launcher: &Launcher, np: u32) {
    launcher
        .spawn(JobSpec::new(np), |ctx| {
            let s = Session::init(&ctx, ThreadLevel::Single, ErrHandler::Return, &Info::null())
                .unwrap();
            let g = s.group_from_pset("mpi://world").unwrap();
            let c = Comm::create_from_group(&g, "trace-prop").unwrap();
            if ctx.rank() == 0 {
                c.send(1, 7, b"hello").unwrap();
                c.send(1, 7, b"again").unwrap();
            } else if ctx.rank() == 1 {
                c.recv(0, 7).unwrap();
                c.recv(0, 7).unwrap();
            }
            c.free().unwrap();
            s.finalize().unwrap();
        })
        .join()
        .unwrap();
}

/// The exCID handshake must produce exactly one cross-process causal link
/// per sender/receiver pair: the receiver-side `pml.handshake_recv` span
/// links the sender's `pml.handshake` span (whose context rode on the
/// extended headers), and both end up in the same trace.
#[test]
fn handshake_context_links_sender_to_receiver_across_processes() {
    let launcher = Launcher::new(SimTestbed::tiny(1, 2));
    run_sessions_job(&launcher, 2);

    let spans = launcher.universe().fabric().obs().spans_snapshot();
    let handshakes: Vec<_> = spans.iter().filter(|s| s.name == "pml.handshake").collect();
    let recvs: Vec<_> = spans.iter().filter(|s| s.name == "pml.handshake_recv").collect();
    assert!(!recvs.is_empty(), "no handshake_recv spans recorded");
    for r in recvs {
        assert_eq!(r.links.len(), 1, "one causal link per handshake receiver");
        let hs = handshakes
            .iter()
            .find(|h| h.id == r.links[0].span)
            .expect("link resolves to a sender handshake span");
        assert_ne!(hs.process, r.process, "link must cross processes");
        assert_eq!(hs.trace, r.trace, "context propagation joins the traces");
    }
}

/// Launch fan-out: every `rank.main` span is parented under the
/// launcher's `launch` span, so the whole job forms a single trace rooted
/// at the launcher even though ranks run on their own threads.
#[test]
fn rank_spans_are_children_of_the_launch_span() {
    let launcher = Launcher::new(SimTestbed::tiny(1, 2));
    run_sessions_job(&launcher, 2);

    let spans = launcher.universe().fabric().obs().spans_snapshot();
    let launch = spans
        .iter()
        .find(|s| s.name == "launch" && s.process == "launcher")
        .expect("launch span");
    let ranks: Vec<_> = spans.iter().filter(|s| s.name == "rank.main").collect();
    assert_eq!(ranks.len(), 2);
    for r in &ranks {
        assert_eq!(r.parent, Some(launch.id), "rank.main parents under launch");
        assert_eq!(r.trace, launch.trace);
    }
}

/// The analyzed report orders the three group-construct stages by
/// canonical logical time on every server, and its `stages` table carries
/// nonzero exclusive cost for each of them — the property the fig4
/// critical-path claim rests on.
#[test]
fn analyzed_group_stages_have_increasing_logical_times() {
    let launcher = Launcher::new(SimTestbed::tiny(2, 2));
    run_sessions_job(&launcher, 4);

    let registry = launcher.universe().fabric().obs();
    let report = obs::analyze::analyze(&registry.spans_snapshot(), registry.spans_dropped());
    let spans = report.as_object().unwrap()["spans"].as_array().unwrap();
    // Stage spans of the same collective op share (process, key); several
    // ops run per server (fences and constructs), so match on both.
    let start_of = |process: &str, key: &str, name: &str| -> Option<u64> {
        spans.iter().map(|s| s.as_object().unwrap()).find_map(|s| {
            (s["process"].as_str() == Some(process)
                && s["key"].as_str() == Some(key)
                && s["name"].as_str() == Some(name))
            .then(|| s["logical_start"].as_u64().unwrap())
        })
    };
    let mut chains_seen = 0;
    for sp in spans.iter().map(|s| s.as_object().unwrap()) {
        if sp["name"].as_str() != Some("group.fanin") {
            continue;
        }
        chains_seen += 1;
        let process = sp["process"].as_str().unwrap();
        let key = sp["key"].as_str().unwrap();
        let fanin = sp["logical_start"].as_u64().unwrap();
        let xchg = start_of(process, key, "group.xchg").expect("xchg span for same op");
        let fanout = start_of(process, key, "group.fanout").expect("fanout span for same op");
        assert!(
            fanin < xchg && xchg < fanout,
            "{process} {key}: {fanin} < {xchg} < {fanout}"
        );
    }
    assert!(chains_seen >= 2, "both node servers ran stage chains");

    let stages = report.as_object().unwrap()["stages"].as_object().unwrap();
    for stage in ["group.fanin", "group.xchg", "group.fanout"] {
        let s = stages.get(stage).expect("stage summarized").as_object().unwrap();
        assert!(s["exclusive"].as_u64().unwrap() > 0, "{stage} has nonzero exclusive");
    }
}

/// A chaos kill fired mid-fence annotates the fence span that was live on
/// the injecting thread: the `fault:kill(rel=…)` label must appear on a
/// `pmix.fence` span and surface in the analyzer's `fault_spans` table.
#[test]
fn kill_mid_fence_annotates_the_interrupted_fence_span() {
    let mut scope = RuleScope::pair_within(1, 3);
    scope.dst_in = Some((2, 3)); // only the node0→node1 server direction
    let plan = FaultPlan::new(
        4242,
        vec![FaultRule::new(FaultClass::Kill, scope, SeqWindow::exactly(0)).with_kill_rel(6)],
    );
    let world = ChaosWorld::new(SimTestbed::tiny(2, 2), plan);
    world
        .launcher()
        .spawn_named("trace-kill", JobSpec::new(4), |ctx| {
            let ns = ctx.proc().nspace().to_owned();
            let all: Vec<ProcId> =
                (0..ctx.size()).map(|r| ProcId::new(ns.as_str(), r)).collect();
            // The fence's inter-server contribution pulls the trigger; the
            // outcome (error or completion) is the chaos suite's concern —
            // here only the span annotation matters.
            let _ = ctx.pmix().fence_timeout(&all, false, Duration::from_secs(5));
        })
        .join()
        .unwrap();

    let registry = world.universe().fabric().obs();
    let spans = registry.spans_snapshot();
    let annotated: Vec<_> = spans
        .iter()
        .filter(|s| s.faults.iter().any(|f| f.starts_with("fault:kill(")))
        .collect();
    assert!(!annotated.is_empty(), "kill fault annotated no span");
    assert!(
        annotated.iter().any(|s| s.name == "pmix.fence"),
        "kill fault must land on the interrupted pmix.fence span, got: {:?}",
        annotated.iter().map(|s| &s.name).collect::<Vec<_>>()
    );

    // And the offline report surfaces it for fault attribution.
    let report = obs::analyze::analyze(&spans, registry.spans_dropped());
    let fault_spans = report.as_object().unwrap()["fault_spans"].as_array().unwrap();
    assert!(
        fault_spans.iter().any(|e| {
            let e = e.as_object().unwrap();
            e["span"].as_str().unwrap().contains("pmix.fence")
                && e["faults"]
                    .as_array()
                    .unwrap()
                    .iter()
                    .any(|f| f.as_str().unwrap().starts_with("fault:kill("))
        }),
        "analyzer fault_spans must attribute the kill to a fence span"
    );
}
