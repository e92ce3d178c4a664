//! Unit tests of the namespace/pset registry.

use super::*;

fn entry(ns: &str, rank: Rank, node: u32, ep: u64) -> ProcEntry {
    ProcEntry {
        proc: ProcId::new(ns, rank),
        node: NodeId(node),
        endpoint: EndpointId(ep),
    }
}

#[test]
fn namespace_registration_and_lookup() {
    let reg = NamespaceRegistry::new();
    reg.register_namespace("job", vec![entry("job", 1, 0, 11), entry("job", 0, 0, 10)]);
    let info = reg.namespace("job").unwrap();
    assert_eq!(info.size(), 2);
    // entries are rank-sorted regardless of registration order
    assert_eq!(info.procs()[0].proc.rank(), 0);
    assert_eq!(info.proc(1).unwrap().endpoint, EndpointId(11));
    assert!(info.proc(2).is_none());
}

#[test]
fn locate_finds_process() {
    let reg = NamespaceRegistry::new();
    reg.register_namespace("job", vec![entry("job", 0, 3, 42)]);
    let e = reg.locate(&ProcId::new("job", 0)).unwrap();
    assert_eq!(e.node, NodeId(3));
    assert!(reg.locate(&ProcId::new("job", 9)).is_err());
    assert!(reg.locate(&ProcId::new("nope", 0)).is_err());
}

#[test]
fn local_peers_filters_by_node() {
    let reg = NamespaceRegistry::new();
    reg.register_namespace(
        "job",
        vec![entry("job", 0, 0, 1), entry("job", 1, 1, 2), entry("job", 2, 0, 3)],
    );
    let info = reg.namespace("job").unwrap();
    assert_eq!(info.local_peers(NodeId(0)), vec![0, 2]);
    assert_eq!(info.local_peers(NodeId(1)), vec![1]);
}

#[test]
fn pset_define_query_undefine() {
    let reg = NamespaceRegistry::new();
    assert_eq!(reg.num_psets(), 0);
    reg.define_pset("app://ocean", vec![ProcId::new("j", 0)]);
    reg.define_pset("app://atmo", vec![ProcId::new("j", 1)]);
    assert_eq!(reg.num_psets(), 2);
    assert_eq!(reg.pset_names(), vec!["app://atmo", "app://ocean"]);
    assert_eq!(reg.pset_members("app://ocean").unwrap().len(), 1);
    reg.undefine_pset("app://ocean");
    assert!(reg.pset_members("app://ocean").is_err());
}

#[test]
fn lead_server_is_lowest_node() {
    let reg = NamespaceRegistry::new();
    reg.register_server(NodeId(2), EndpointId(22));
    reg.register_server(NodeId(0), EndpointId(20));
    assert_eq!(reg.lead_server(), Some(EndpointId(20)));
    assert_eq!(reg.server_of(NodeId(2)), Some(EndpointId(22)));
    assert_eq!(reg.servers().len(), 2);
}

#[test]
fn deregister_namespace_removes_it() {
    let reg = NamespaceRegistry::new();
    reg.register_namespace("job", vec![entry("job", 0, 0, 1)]);
    reg.deregister_namespace("job");
    assert!(reg.namespace("job").is_err());
}

#[test]
fn racing_define_if_absent_defines_exactly_once() {
    use std::sync::Barrier;
    use std::sync::Mutex as StdMutex;
    for round in 0..200 {
        let reg = NamespaceRegistry::new();
        let defined: Arc<StdMutex<Vec<u64>>> = Arc::default();
        let d = defined.clone();
        reg.add_pset_listener(Box::new(move |c| {
            if c.kind == PsetChangeKind::Defined {
                d.lock().unwrap().push(c.epoch);
            }
        }));
        let gate = Arc::new(Barrier::new(2));
        let wins: usize = (0..2u32)
            .map(|rank| {
                let (reg, gate) = (reg.clone(), gate.clone());
                std::thread::spawn(move || {
                    gate.wait();
                    reg.define_pset_if_absent("survivors://j", vec![ProcId::new("j", rank)])
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|t| usize::from(t.join().unwrap()))
            .sum();
        assert_eq!(wins, 1, "round {round}: exactly one caller defines");
        assert_eq!(*defined.lock().unwrap(), vec![1], "round {round}: one Defined change");
        assert_eq!(reg.pset_members("survivors://j").unwrap().len(), 1);
    }
    // A deleted pset counts as absent.
    let reg = NamespaceRegistry::new();
    assert!(reg.define_pset_if_absent("p", vec![]));
    reg.undefine_pset("p");
    assert!(reg.define_pset_if_absent("p", vec![]));
    assert!(!reg.define_pset_if_absent("p", vec![]));
}

#[test]
fn pset_epochs_are_monotonic_across_psets() {
    let reg = NamespaceRegistry::new();
    reg.define_pset("a", vec![ProcId::new("j", 0)]);
    reg.define_pset("b", vec![ProcId::new("j", 1)]);
    let (ea, _) = reg.pset_members_versioned("a").unwrap();
    let (eb, _) = reg.pset_members_versioned("b").unwrap();
    assert!(eb > ea);
    let em = reg
        .update_pset_membership("a", vec![ProcId::new("j", 0), ProcId::new("j", 2)], None)
        .unwrap();
    assert!(em > eb);
    assert_eq!(reg.pset_epoch(), em);
}

#[test]
fn membership_is_copy_on_write() {
    let reg = NamespaceRegistry::new();
    reg.define_pset("a", vec![ProcId::new("j", 0)]);
    let (_, old) = reg.pset_members_versioned("a").unwrap();
    reg.update_pset_membership("a", vec![], None).unwrap();
    // the old handle still sees epoch-1 membership
    assert_eq!(old.len(), 1);
    let (_, new) = reg.pset_members_versioned("a").unwrap();
    assert!(new.is_empty());
}

#[test]
fn remove_from_psets_shrinks_every_containing_pset() {
    let reg = NamespaceRegistry::new();
    let p = ProcId::new("j", 1);
    reg.define_pset("a", vec![ProcId::new("j", 0), p.clone()]);
    reg.define_pset("b", vec![p.clone()]);
    reg.define_pset("c", vec![ProcId::new("j", 2)]);
    let affected = reg.remove_from_psets(&p, None);
    assert_eq!(affected, vec!["a", "b"]);
    assert_eq!(reg.pset_members("a").unwrap().len(), 1);
    assert!(reg.pset_members("b").unwrap().is_empty());
    assert_eq!(reg.pset_members("c").unwrap().len(), 1);
}

#[test]
fn listeners_observe_changes_in_epoch_order() {
    use std::sync::Mutex as StdMutex;
    let reg = NamespaceRegistry::new();
    let seen: Arc<StdMutex<Vec<(String, u64, PsetChangeKind)>>> = Arc::default();
    let s = seen.clone();
    reg.add_pset_listener(Box::new(move |c| {
        s.lock().unwrap().push((c.name.clone(), c.epoch, c.kind));
    }));
    reg.define_pset("a", vec![]);
    reg.update_pset_membership("a", vec![ProcId::new("j", 0)], None).unwrap();
    reg.undefine_pset("a");
    reg.undefine_pset("a"); // idempotent: no second Deleted event
    let seen = seen.lock().unwrap();
    assert_eq!(
        seen.iter().map(|(_, e, k)| (*e, *k)).collect::<Vec<_>>(),
        vec![
            (1, PsetChangeKind::Defined),
            (2, PsetChangeKind::Membership),
            (3, PsetChangeKind::Deleted),
        ]
    );
}

#[test]
fn replay_covers_live_and_tombstoned_psets() {
    let reg = NamespaceRegistry::new();
    reg.define_pset("a", vec![ProcId::new("j", 0)]);
    reg.define_pset("b", vec![]);
    reg.undefine_pset("b");
    reg.with_pset_replay(|changes| {
        assert_eq!(changes.len(), 2);
        assert_eq!(changes[0].name, "a");
        assert_eq!(changes[0].kind, PsetChangeKind::Defined);
        assert_eq!(changes[1].name, "b");
        assert_eq!(changes[1].kind, PsetChangeKind::Deleted);
        assert_eq!(changes[1].epoch, 3);
    });
}

#[test]
fn late_subscriber_after_10k_churn_epochs_replays_only_current_state() {
    let reg = NamespaceRegistry::new();
    let member = vec![ProcId::new("j", 0)];
    reg.define_pset("keep://a", member.clone());
    reg.define_pset("keep://b", member.clone());
    // 10k epochs of define+undefine churn. GC keeps reaping behind the
    // (unpinned) watermark, so the table never accumulates history.
    for i in 0..10_000u64 {
        let name = format!("churn://{i}");
        reg.define_pset(&name, member.clone());
        reg.undefine_pset(&name);
    }
    assert_eq!(reg.pset_epoch(), 2 + 2 * 10_000);
    assert!(reg.num_tombstones() <= GC_TOMBSTONE_THRESHOLD);
    // A subscriber arriving now must see the *current* table exactly
    // once — two live Defined plus at most the retained tombstones —
    // never one event per historical deletion.
    reg.with_pset_replay(|changes| {
        let mut names = std::collections::HashSet::new();
        for c in changes {
            assert!(names.insert(c.name.clone()), "{} replayed twice", c.name);
        }
        let defined: Vec<&str> = changes
            .iter()
            .filter(|c| c.kind == PsetChangeKind::Defined)
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(defined, vec!["keep://a", "keep://b"]);
        let deleted = changes.iter().filter(|c| c.kind == PsetChangeKind::Deleted).count();
        assert_eq!(deleted, reg.num_tombstones());
        assert_eq!(changes.len(), 2 + deleted);
        assert!(changes.len() <= 2 + GC_TOMBSTONE_THRESHOLD, "replay is not a history dump");
        // Replay arrives in strict epoch order with live entries at
        // their defining epoch, not a renumbered one.
        assert!(changes.windows(2).all(|w| w[0].epoch < w[1].epoch));
        assert_eq!(changes[0].epoch, 1);
        assert_eq!(changes[0].members, Arc::new(member.clone()));
    });
}

#[test]
fn snapshot_is_self_consistent() {
    let reg = NamespaceRegistry::new();
    reg.define_pset("a", vec![ProcId::new("j", 0)]);
    let snap = reg.pset_snapshot();
    reg.undefine_pset("a");
    // the snapshot still resolves the name it reported
    for name in snap.names() {
        assert!(snap.members(&name).is_some());
    }
    assert_eq!(snap.len(), 1);
}

#[test]
fn gc_reaps_tombstones_below_watermark() {
    let reg = NamespaceRegistry::new();
    reg.define_pset("a", vec![]);
    reg.undefine_pset("a");
    reg.define_pset("b", vec![]);
    reg.undefine_pset("b");
    assert_eq!(reg.num_tombstones(), 2);
    // No pins: watermark is u64::MAX, everything is reapable.
    assert_eq!(reg.gc_tombstones(), 2);
    assert_eq!(reg.num_tombstones(), 0);
    // Reaped tombstones no longer appear in replay.
    reg.with_pset_replay(|changes| assert!(changes.is_empty()));
}

#[test]
fn epoch_pin_holds_tombstones_alive() {
    let reg = NamespaceRegistry::new();
    reg.define_pset("old", vec![]);
    reg.undefine_pset("old"); // epoch 2
    let pin = reg.pin_current_epoch(); // pins epoch 2
    assert_eq!(pin.epoch(), 2);
    reg.define_pset("new", vec![]);
    reg.undefine_pset("new"); // epoch 4
    // Watermark = 2: the epoch-2 tombstone ("old") is at the watermark
    // (not strictly below), so nothing is reapable.
    assert_eq!(reg.gc_watermark(), 2);
    assert_eq!(reg.gc_tombstones(), 0);
    assert_eq!(reg.num_tombstones(), 2);
    drop(pin);
    assert_eq!(reg.gc_watermark(), u64::MAX);
    assert_eq!(reg.gc_tombstones(), 2);
}

#[test]
fn pin_drop_releases_only_its_own_count() {
    let reg = NamespaceRegistry::new();
    reg.define_pset("a", vec![]);
    let p1 = reg.pin_current_epoch();
    let p2 = reg.pin_current_epoch();
    assert_eq!(reg.gc_watermark(), 1);
    drop(p1);
    // Second pin on the same epoch still holds the watermark.
    assert_eq!(reg.gc_watermark(), 1);
    drop(p2);
    assert_eq!(reg.gc_watermark(), u64::MAX);
}

#[test]
fn auto_gc_fires_past_threshold() {
    let reg = NamespaceRegistry::new();
    for i in 0..=GC_TOMBSTONE_THRESHOLD {
        let name = format!("p{i}");
        reg.define_pset(&name, vec![]);
        reg.undefine_pset(&name);
    }
    // The (threshold+1)-th deletion crossed the threshold and reaped
    // everything (no pins), so the table is tombstone-free again.
    assert_eq!(reg.num_tombstones(), 0);
    assert_eq!(reg.num_psets(), 0);
}

#[test]
fn disabling_gc_blocks_all_reaping() {
    let reg = NamespaceRegistry::new();
    reg.set_gc_enabled(false);
    assert!(!reg.gc_enabled());
    for i in 0..=GC_TOMBSTONE_THRESHOLD {
        let name = format!("p{i}");
        reg.define_pset(&name, vec![]);
        reg.undefine_pset(&name);
    }
    // Neither the auto trigger nor an explicit call may reap.
    assert_eq!(reg.num_tombstones(), GC_TOMBSTONE_THRESHOLD + 1);
    assert_eq!(reg.gc_tombstones(), 0);
    reg.set_gc_enabled(true);
    assert_eq!(reg.gc_tombstones(), GC_TOMBSTONE_THRESHOLD + 1);
}

#[test]
fn gauges_track_live_and_tombstone_counts() {
    let obs = Arc::new(obs::Registry::new());
    let reg = NamespaceRegistry::new();
    reg.attach_obs(&obs);
    reg.define_pset("a", vec![]);
    reg.define_pset("b", vec![]);
    assert_eq!(obs.gauge_value("registry", "pmix", "psets_live"), 2);
    reg.undefine_pset("a");
    assert_eq!(obs.gauge_value("registry", "pmix", "psets_live"), 1);
    assert_eq!(obs.gauge_value("registry", "pmix", "psets_tombstoned"), 1);
    reg.gc_tombstones();
    assert_eq!(obs.gauge_value("registry", "pmix", "psets_tombstoned"), 0);
    assert_eq!(obs.sum_counters("pmix", "psets_gced"), 1);
    // High-water marks survive the drain.
    assert_eq!(obs.sum_gauge_high_water("pmix", "psets_live"), 2);
    assert_eq!(obs.sum_gauge_high_water("pmix", "psets_tombstoned"), 1);
}

#[test]
fn deregister_proc_removes_one_rank() {
    let reg = NamespaceRegistry::new();
    reg.register_namespace("job", vec![entry("job", 0, 0, 1), entry("job", 1, 0, 2)]);
    reg.deregister_proc(&ProcId::new("job", 1));
    let info = reg.namespace("job").unwrap();
    assert_eq!(info.size(), 1);
    assert!(info.proc(1).is_none());
}
