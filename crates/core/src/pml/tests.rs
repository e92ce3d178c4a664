//! Unit tests of the engine: two `Pml`s over a raw zero-cost fabric.

use super::*;
use crate::cid::ExCid;
use simnet::{Fabric, NodeId};

/// Two PML engines wired over a raw zero-cost fabric.
fn pair() -> (Arc<Pml>, Arc<Pml>) {
    let fabric = Fabric::new(simnet::CostModel::zero());
    let a = Pml::new(Arc::new(fabric.register(NodeId(0))));
    let b = Pml::new(Arc::new(fabric.register(NodeId(0))));
    (a, b)
}

/// The route addresses of a two-process communicator over `a` and `b`.
fn addrs(a: &Arc<Pml>, b: &Arc<Pml>) -> Vec<PeerAddr> {
    vec![PeerAddr::Known(a.endpoint.id()), PeerAddr::Known(b.endpoint.id())]
}

/// Incarnation 0 of `excid`, as `register_comm` takes it.
fn inc0(excid: Option<ExCid>) -> Option<(ExCid, u16)> {
    excid.map(|e| (e, 0))
}

fn wire(a: &Arc<Pml>, b: &Arc<Pml>, cid_a: u16, cid_b: u16, excid: Option<ExCid>) {
    a.register_comm(cid_a, 0, addrs(a, b), inc0(excid));
    b.register_comm(cid_b, 1, addrs(a, b), inc0(excid));
}

fn parked(pml: &Arc<Pml>) -> usize {
    pml.state.lock().parked.values().map(Vec::len).sum()
}

fn pump(pml: &Arc<Pml>) {
    for _ in 0..50 {
        pml.progress(Some(Duration::from_millis(1)));
    }
}

#[test]
fn eager_send_recv_fixed_cid() {
    let (a, b) = pair();
    wire(&a, &b, 5, 5, None); // consensus-style: same cid both sides
    let req = b.irecv(5, Some(0), Some(9)).unwrap();
    let sreq = a.isend(5, 1, 9, Bytes::from_static(b"hello")).unwrap();
    assert!(sreq.is_done(), "eager send completes immediately");
    pump(&b);
    let st = req.status_snapshot().expect("matched");
    assert_eq!(st.source, 0);
    assert_eq!(st.tag, 9);
    assert_eq!(st.len, 5);
    assert_eq!(a.stats().eager_sent, 1);
    assert_eq!(a.stats().ext_sent, 0);
}

#[test]
fn excid_first_message_parks_until_comm_registered() {
    let fabric = Fabric::new(simnet::CostModel::zero());
    let a = Pml::new(Arc::new(fabric.register(NodeId(0))));
    let b = Pml::new(Arc::new(fabric.register(NodeId(0))));
    let excid = Some(ExCid::from_pgcid(777));
    // Only A registers; B hasn't created the communicator yet.
    a.register_comm(3, 0, addrs(&a, &b), inc0(excid));
    a.isend(3, 1, 1, Bytes::from_static(b"early")).unwrap();
    // B receives the EXT message for an unknown exCID: it must park.
    pump(&b);
    assert_eq!(parked(&b), 1);
    // Late registration drains the parked message into matching.
    b.register_comm(9, 1, addrs(&a, &b), inc0(excid));
    assert_eq!(parked(&b), 0);
    let req = b.irecv(9, Some(0), Some(1)).unwrap();
    pump(&b);
    assert!(req.is_done(), "parked message matched after registration");
}

#[test]
fn cid_ack_switches_sender_to_compact() {
    let (a, b) = pair();
    let excid = Some(ExCid::from_pgcid(42));
    wire(&a, &b, 2, 7, excid); // different local cids, as sessions allow
    assert!(!a.peer_switched(2, 1));
    a.isend(2, 1, 0, Bytes::from_static(b"x")).unwrap();
    pump(&b); // B matches (unexpected), sends CidAck
    pump(&a); // A absorbs the ack
    assert!(a.peer_switched(2, 1), "ack must switch the peer mode");
    assert_eq!(b.stats().acks_sent, 1);
    // Subsequent sends are compact and carry B's local cid (7).
    a.isend(2, 1, 0, Bytes::from_static(b"y")).unwrap();
    assert_eq!(a.stats().ext_sent, 1);
    assert_eq!(a.stats().eager_sent, 1);
    // And B, having learned A's cid from the EXT header, never EXTs back.
    assert!(b.peer_switched(7, 0));
}

#[test]
fn handshake_spans_link_exactly_once_across_processes() {
    let (a, b) = pair();
    let excid = Some(ExCid::from_pgcid(42));
    wire(&a, &b, 2, 7, excid);
    a.isend(2, 1, 0, Bytes::from_static(b"x")).unwrap();
    a.isend(2, 1, 0, Bytes::from_static(b"y")).unwrap(); // ext fallback
    pump(&b); // B matches, emits handshake_recv, sends CidAck
    pump(&a); // A absorbs the ack, closing its handshake span
    let spans = a.endpoint.obs().spans_snapshot();
    let hs = spans
        .iter()
        .find(|s| s.name == "pml.handshake")
        .expect("sender handshake span");
    assert_eq!(hs.work, 2, "one unit per extended send");
    let recv = spans
        .iter()
        .find(|s| s.name == "pml.handshake_recv")
        .expect("receiver handshake span");
    assert_eq!(recv.links.len(), 1, "first ext send linked exactly once");
    assert_eq!(recv.links[0].span, hs.id);
    assert_eq!(recv.trace, hs.trace, "receiver joins the sender's trace");
    let total_links: usize = spans.iter().map(|s| s.links.len()).sum();
    assert_eq!(total_links, 1, "the handshake is the only cross-process link");
}

/// Drive the full handshake for comm (cid_a, cid_b): one send, B acks,
/// A absorbs.
fn complete_handshake(a: &Arc<Pml>, b: &Arc<Pml>, cid_a: u16) {
    a.isend(cid_a, 1, 0, Bytes::from_static(b"hs")).unwrap();
    pump(b);
    pump(a);
    assert!(a.peer_switched(cid_a, 1));
}

#[test]
fn second_comm_from_cached_peer_skips_handshake() {
    let (a, b) = pair();
    wire(&a, &b, 10, 20, Some(ExCid::from_pgcid(100)));
    complete_handshake(&a, &b, 10);
    // Both sides now hold the peer endpoint in the handshake cache.
    assert!(a.cached_peer(b.endpoint.id()));
    assert!(b.cached_peer(a.endpoint.id()));
    // A second communicator over the same endpoints: registration
    // pushes CidAdverts both ways, so after absorbing them both sides
    // are in compact mode without a single extended-header send.
    wire(&a, &b, 11, 21, Some(ExCid::from_pgcid(101)));
    pump(&a);
    pump(&b);
    assert!(a.peer_switched(11, 1), "advert switched A without any send");
    assert!(b.peer_switched(21, 0), "advert switched B without any send");
    let obs = a.endpoint.obs();
    assert_eq!(obs.sum_counters("pml", "adverts_sent"), 2, "one advert each way");
    assert_eq!(obs.sum_counters("pml", "advert_hits"), 2, "both absorbed");
    // Traffic on the second comm is compact from the first message.
    let req = b.irecv(21, Some(0), Some(3)).unwrap();
    a.isend(11, 1, 3, Bytes::from_static(b"fast")).unwrap();
    pump(&b);
    assert!(req.is_done());
    assert_eq!(obs.sum_counters("pml", "ext_sent"), 1, "only comm 1's handshake");
    assert_eq!(obs.sum_counters("pml", "acks_sent"), 1, "no ack on comm 2");
    // Exactly one handshake span/event per side across BOTH comms.
    assert_eq!(obs.events_named("pml.handshake").len(), 2);
    let spans = obs.spans_snapshot();
    assert_eq!(spans.iter().filter(|s| s.name == "pml.handshake").count(), 1);
    assert_eq!(spans.iter().filter(|s| s.name == "pml.handshake_recv").count(), 1);
}

#[test]
fn retired_peer_invalidation_forces_fresh_handshake() {
    // A peer that *retires* (graceful drain) never fails a send, so the
    // automatic failed-send eviction does not fire; the rebuild path
    // calls invalidate_peer explicitly. A communicator registered after
    // the invalidation must NOT trust the cache: no advert goes out, and
    // the extended-header handshake runs again from scratch.
    let (a, b) = pair();
    wire(&a, &b, 10, 20, Some(ExCid::from_pgcid(100)));
    complete_handshake(&a, &b, 10);
    assert!(a.cached_peer(b.endpoint.id()));
    // B retires; both sides' rebuilds drop the departed pairing (a
    // rejoined incarnation starts with a fresh cache anyway).
    assert!(a.invalidate_peer(b.endpoint.id()), "entry was cached");
    assert!(!a.invalidate_peer(b.endpoint.id()), "second call is a no-op");
    assert!(b.invalidate_peer(a.endpoint.id()));
    assert!(!a.cached_peer(b.endpoint.id()));
    let obs = a.endpoint.obs();
    assert_eq!(obs.sum_counters("pml", "cache_invalidated"), 2);
    // A later communicator reaching the same endpoint pair starts from
    // AwaitAck and re-runs the extended-header handshake rather than
    // riding a stale CidAdvert.
    let adverts_before = obs.sum_counters("pml", "adverts_sent");
    wire(&a, &b, 11, 21, Some(ExCid::from_pgcid(101)));
    pump(&a);
    pump(&b);
    assert_eq!(
        obs.sum_counters("pml", "adverts_sent"),
        adverts_before,
        "no advert may ride an invalidated cache entry"
    );
    assert!(!a.peer_switched(11, 1), "A still awaits a real handshake");
    let ext_before = a.stats().ext_sent;
    let handshakes_before = obs.sum_counters("pml", "handshakes");
    a.isend(11, 1, 0, Bytes::from_static(b"again")).unwrap();
    assert_eq!(a.stats().ext_sent, ext_before + 1, "extended header re-sent");
    pump(&b);
    pump(&a);
    assert!(a.peer_switched(11, 1), "fresh handshake completed");
    assert!(
        obs.sum_counters("pml", "handshakes") > handshakes_before,
        "a full handshake ran again after invalidation"
    );
}

#[test]
fn cache_eviction_bounds_entries_and_keys_rehandshakes_by_generation() {
    let fabric = Fabric::new(simnet::CostModel::zero());
    let a = Pml::new(Arc::new(fabric.register(NodeId(0))));
    let b = Pml::new(Arc::new(fabric.register(NodeId(0))));
    let c = Pml::new(Arc::new(fabric.register(NodeId(0))));
    a.set_handshake_cache_cap(1);
    b.set_handshake_cache_cap(1);
    let reg = |x: &Arc<Pml>, y: &Arc<Pml>, cx: u16, cy: u16, pgcid: u64| {
        x.register_comm(cx, 0, addrs(x, y), Some((ExCid::from_pgcid(pgcid), 0)));
        y.register_comm(cy, 1, addrs(x, y), Some((ExCid::from_pgcid(pgcid), 0)));
    };
    // Comm 1: A↔B, full handshake; both caches hold one entry.
    reg(&a, &b, 10, 20, 100);
    complete_handshake(&a, &b, 10);
    assert_eq!(a.handshake_cache_len(), 1);
    a.unregister_comm(10);
    b.unregister_comm(20);
    // A↔C and B↔C handshakes evict the A↔B pairing on both sides
    // (cap = 1, LRU).
    reg(&a, &c, 11, 30, 101);
    complete_handshake(&a, &c, 11);
    reg(&b, &c, 12, 31, 103);
    complete_handshake(&b, &c, 12);
    assert!(!a.cached_peer(b.endpoint.id()), "B evicted from A's cache");
    assert!(!b.cached_peer(a.endpoint.id()), "A evicted from B's cache");
    assert_eq!(a.handshake_cache_len(), 1, "cache stays at its cap");
    let obs = a.endpoint.obs();
    assert!(obs.sum_counters("pml", "cache_evicted") >= 2);
    assert_eq!(
        obs.gauge_value(&a.endpoint.id().to_string(), "pml", "cache_entries"),
        1
    );
    // Comm 3 reuses PGCID 100 (a recycled identifier): with the cache
    // entry gone, a *fresh* extended-header handshake must run...
    reg(&a, &b, 13, 23, 100);
    assert!(!a.peer_switched(13, 1), "no advert may ride an evicted entry");
    a.isend(13, 1, 0, Bytes::from_static(b"again")).unwrap();
    pump(&b);
    pump(&a);
    assert!(a.peer_switched(13, 1));
    // ...and the repeated (pgcid, derivation, peer) key is legal
    // precisely because the cache generation moved between the two
    // events — the uniqueness invariant keys on it.
    let my = a.endpoint.id().to_string();
    let keys: Vec<(u64, u64, u64, u64)> = obs
        .events_named("pml.handshake")
        .iter()
        .filter(|e| e.process == my)
        .map(|e| {
            let g = |k: &str| {
                e.attrs
                    .iter()
                    .find(|(n, _)| *n == k)
                    .and_then(|(_, v)| v.as_u64())
                    .unwrap()
            };
            (g("pgcid"), g("derivation"), g("peer"), g("cache_gen"))
        })
        .collect();
    let dup_without_gen = keys
        .iter()
        .filter(|(p, d, r, _)| (*p, *d, *r) == (100, 0, 1))
        .count();
    assert_eq!(dup_without_gen, 2, "PGCID reuse re-handshakes the same peer");
    let mut with_gen = keys.clone();
    with_gen.sort_unstable();
    with_gen.dedup();
    assert_eq!(with_gen.len(), keys.len(), "generation disambiguates every handshake");
}

#[test]
fn advert_racing_registration_parks_then_applies() {
    let (a, b) = pair();
    wire(&a, &b, 10, 20, Some(ExCid::from_pgcid(100)));
    complete_handshake(&a, &b, 10);
    // Only A registers the second comm; its advert reaches B before B
    // knows the exCID and must park.
    let e2 = Some((ExCid::from_pgcid(101), 0));
    a.register_comm(11, 0, addrs(&a, &b), e2);
    pump(&b);
    assert_eq!(parked(&b), 1, "advert parked");
    // Late registration drains the parked advert into the route.
    b.register_comm(21, 1, addrs(&a, &b), e2);
    assert_eq!(parked(&b), 0);
    assert!(b.peer_switched(21, 0), "parked advert applied on registration");
    // A recycles the exCID (free is local) while B still holds the old
    // incarnation: A's advert names incarnation 1, which is ahead of
    // B's registered route, so it parks instead of being swallowed by
    // a route whose peer is already Known...
    let e2_again = Some((ExCid::from_pgcid(101), 1));
    a.unregister_comm(11);
    a.register_comm(12, 0, addrs(&a, &b), e2_again);
    pump(&b);
    assert_eq!(parked(&b), 1, "advert for the next incarnation parked");
    // ...and is applied when B registers that incarnation, teaching B
    // A's *new* local CID.
    b.unregister_comm(21);
    b.register_comm(22, 1, addrs(&a, &b), e2_again);
    assert_eq!(parked(&b), 0);
    assert!(b.peer_switched(22, 0));
    assert_eq!(b.state.lock().routes[&22].peers[0].mode, SendCid::Known(12));
}

/// The head of a match-protocol frame from rank 1 (tag 0, seq 0), as
/// `handle_bytes` sees it; the payload goes in beside it as the body.
fn match_head(
    kind: MsgKind,
    ctx: u16,
    ext: Option<ExtHeader>,
    rts: Option<RtsInfo>,
) -> Vec<u8> {
    let mut head = Vec::new();
    MatchHeader { kind, flags: 0, ctx, src: 1, tag: 0, seq: 0 }.encode(&mut head);
    if let Some(e) = ext {
        e.encode(&mut head);
    }
    if let Some(r) = rts {
        r.encode(&mut head);
    }
    head
}

/// The head of an extended-header eager frame from rank 1.
fn ext_frame(excid: ExCid, incarnation: u16, sender_cid: u16) -> Bytes {
    let ext = ExtHeader { excid, sender_cid };
    Bytes::from(match_head(MsgKind::EagerExt, incarnation, Some(ext), None))
}

/// The body the hand-fed frames carry.
const BODY: Bytes = Bytes::from_static(b"payload");

#[test]
fn every_way_of_learning_the_peer_cid_is_the_same_transition() {
    struct Case {
        via: &'static str,
        /// Completes a handshake: counter, event, cache entry.
        handshake: bool,
        advert_hit: bool,
        /// The peer's CID arrived in its extended header: we owe the ACK.
        acks: u64,
        acked_back: bool,
    }
    let cases = [
        Case { via: "ack", handshake: true, advert_hit: false, acks: 0, acked_back: false },
        Case { via: "ext", handshake: true, advert_hit: false, acks: 1, acked_back: true },
        Case { via: "advert", handshake: false, advert_hit: true, acks: 0, acked_back: true },
    ];
    for case in cases {
        let (a, b) = pair();
        let excid = ExCid::from_pgcid(42);
        a.register_comm(2, 0, addrs(&a, &b), Some((excid, 0)));
        // One extended send opens A's sender-side handshake span.
        a.isend(2, 1, 0, Bytes::from_static(b"x")).unwrap();
        let info = CidInfo { excid, cid: 7, rank: 1, incarnation: 0 };
        let frame = match case.via {
            "ack" => Bytes::from(info.encode(MsgKind::CidAck)),
            "advert" => Bytes::from(info.encode(MsgKind::CidAdvert)),
            _ => ext_frame(excid, 0, 7),
        };
        let obs = a.endpoint.obs();
        let me = a.endpoint.id().to_string();
        let counter = |name| obs.counter_value(&me, "pml", name);
        for delivery in 0..2 {
            // The second delivery finds the peer Known: a no-op.
            // (A body on an ACK or advert is not the codec's business.)
            a.handle_bytes(b.endpoint.id(), frame.clone(), BODY, None);
            let st = a.state.lock();
            let peer = &st.routes[&2].peers[1];
            assert_eq!(peer.mode, SendCid::Known(7), "{} #{delivery}", case.via);
            assert!(peer.handshake.is_none(), "{}: handshake span closed", case.via);
            assert_eq!(peer.acked_back, case.acked_back, "{}", case.via);
        }
        let spans = obs.spans_snapshot();
        let hs: Vec<_> = spans.iter().filter(|s| s.name == "pml.handshake").collect();
        assert_eq!(hs.len(), 1, "{}: exactly one sender-side span, ended", case.via);
        assert_eq!(hs[0].work, 1);
        assert_eq!(a.cached_peer(b.endpoint.id()), case.handshake, "{}", case.via);
        assert_eq!(counter("handshakes"), case.handshake as u64, "{}", case.via);
        assert_eq!(counter("advert_hits"), case.advert_hit as u64, "{}", case.via);
        assert_eq!(counter("acks_sent"), case.acks, "{}", case.via);
        assert_eq!(counter("stale_incarnation"), 0);
        let events = obs.events_named("pml.handshake");
        assert_eq!(events.len(), case.handshake as usize, "{}", case.via);
        for e in &events {
            assert_eq!(e.attr("via").and_then(|v| v.as_str()), Some(case.via));
            assert_eq!(e.attr("cache_gen").and_then(|v| v.as_u64()), Some(0));
        }
    }
}

#[test]
fn stale_incarnation_frames_are_dropped_and_counted_ahead_ones_parked() {
    let (a, b) = pair();
    let excid = ExCid::from_pgcid(42);
    a.register_comm(2, 0, addrs(&a, &b), Some((excid, 3)));
    let from_b = |frame: Bytes| a.handle_bytes(b.endpoint.id(), frame, BODY, None);
    let info = |incarnation| CidInfo { excid, cid: 7, rank: 1, incarnation };
    let stale = || {
        a.endpoint.obs().counter_value(&a.endpoint.id().to_string(), "pml", "stale_incarnation")
    };
    // Behind the registered route: the communicator they belong to is
    // gone here. Nothing is learned, nothing is queued.
    from_b(Bytes::from(info(2).encode(MsgKind::CidAck)));
    from_b(Bytes::from(info(2).encode(MsgKind::CidAdvert)));
    from_b(ext_frame(excid, 2, 7));
    assert_eq!(stale(), 3);
    assert!(!a.peer_switched(2, 1), "a stale ACK or advert must not teach a CID");
    assert_eq!(a.unexpected_count(2), 0, "a stale message must not be matchable");
    assert_eq!(parked(&a), 0);
    // Ahead of it: B already runs the next incarnation. Parked, in
    // arrival order, until that incarnation registers here.
    from_b(Bytes::from(info(4).encode(MsgKind::CidAdvert)));
    from_b(ext_frame(excid, 4, 7));
    assert_eq!(parked(&a), 2);
    assert!(!a.peer_switched(2, 1));
    a.unregister_comm(2);
    a.register_comm(5, 0, addrs(&a, &b), Some((excid, 4)));
    assert_eq!(parked(&a), 0);
    assert!(a.peer_switched(5, 1), "parked advert applied");
    assert_eq!(a.unexpected_count(5), 1, "parked message delivered");
    assert_eq!(a.stats().acks_sent, 0, "the advert came first: no ACK owed");
    assert_eq!(stale(), 3);
    // The counter wraps; "behind" is a signed distance, not `<`.
    a.unregister_comm(5);
    a.register_comm(5, 0, addrs(&a, &b), Some((excid, 0)));
    from_b(ext_frame(excid, u16::MAX, 7));
    assert_eq!(stale(), 4, "65535 is one behind 0");
    // No route at all (freed, never re-registered): a message or advert
    // may be ahead of a registration still to come and waits; an ACK
    // answers a frame the freed route sent and can only be late.
    a.unregister_comm(5);
    from_b(Bytes::from(info(0).encode(MsgKind::CidAck)));
    assert_eq!((stale(), parked(&a)), (5, 0), "a route-less ACK is dropped, not parked");
    from_b(Bytes::from(info(0).encode(MsgKind::CidAdvert)));
    from_b(ext_frame(excid, 0, 7));
    assert_eq!((stale(), parked(&a)), (5, 2));
}

#[test]
fn failed_advert_send_invalidates_cache() {
    let fabric = Fabric::new(simnet::CostModel::zero());
    let a = Pml::new(Arc::new(fabric.register(NodeId(0))));
    let b = Pml::new(Arc::new(fabric.register(NodeId(0))));
    wire(&a, &b, 10, 20, Some(ExCid::from_pgcid(100)));
    complete_handshake(&a, &b, 10);
    assert!(a.cached_peer(b.endpoint.id()));
    // B dies between the two communicators (a chaos kill): the advert
    // send fails and the stale cache entry is dropped.
    fabric.kill(b.endpoint.id());
    a.register_comm(11, 0, addrs(&a, &b), Some((ExCid::from_pgcid(101), 0)));
    assert!(!a.cached_peer(b.endpoint.id()), "dead peer evicted from cache");
    assert_eq!(a.endpoint.obs().counter_value(&a.endpoint.id().to_string(), "pml", "adverts_sent"), 0);
}

#[test]
fn rendezvous_protocol_full_cycle() {
    let (a, b) = pair();
    wire(&a, &b, 4, 4, None);
    a.set_eager_limit(64);
    let big = Bytes::from(vec![0x7fu8; 1000]);
    let sreq = a.isend(4, 1, 2, big.clone()).unwrap();
    assert!(!sreq.is_done(), "rendezvous send must await CTS");
    assert_eq!(a.stats().rts_sent, 1);
    let rreq = b.irecv(4, Some(0), Some(2)).unwrap();
    // Drive both sides: B matches RTS -> CTS -> A sends data -> B done.
    for _ in 0..20 {
        a.progress(Some(Duration::from_millis(1)));
        b.progress(Some(Duration::from_millis(1)));
        if rreq.is_done() && sreq.is_done() {
            break;
        }
    }
    assert!(sreq.is_done());
    assert!(rreq.is_done());
    assert_eq!(rreq.status_snapshot().unwrap().len, 1000);
}

/// Claim `req`'s payload the way a user does and check that it *is* the
/// buffer given to `isend`: equal bytes at the same address.
fn assert_same_buffer(pml: &Arc<Pml>, req: Arc<ReqInner>, sent: &Bytes, path: &str) {
    assert!(req.is_done(), "{path}: receive not complete");
    let (got, status) = crate::request::Request::new(req, pml.clone()).wait_data().unwrap();
    assert_eq!(status.len, sent.len(), "{path}");
    assert_eq!(got, *sent, "{path}");
    assert_eq!(got.as_ptr(), sent.as_ptr(), "{path}: the payload was copied in flight");
}

fn big() -> Bytes {
    Bytes::from((0..1000u32).map(|i| i as u8).collect::<Vec<u8>>())
}

#[test]
fn eager_payload_reaches_a_posted_receive_by_handle() {
    let (a, b) = pair();
    wire(&a, &b, 5, 5, None);
    let sent = big();
    let req = b.irecv(5, Some(0), Some(9)).unwrap();
    a.isend(5, 1, 9, sent.clone()).unwrap();
    pump(&b);
    assert_same_buffer(&b, req, &sent, "eager, receive posted first");
}

#[test]
fn eager_payload_crosses_the_unexpected_queue_by_handle() {
    let (a, b) = pair();
    wire(&a, &b, 5, 5, None);
    let sent = big();
    a.isend(5, 1, 9, sent.clone()).unwrap();
    pump(&b);
    assert_eq!(b.unexpected_count(5), 1);
    let req = b.irecv(5, None, None).unwrap();
    assert_same_buffer(&b, req, &sent, "eager, message arrived first");
}

#[test]
fn rendezvous_payload_crosses_rts_cts_by_handle() {
    let (a, b) = pair();
    wire(&a, &b, 4, 4, None);
    a.set_eager_limit(64);
    let sent = big();
    let sreq = a.isend(4, 1, 2, sent.clone()).unwrap();
    let rreq = b.irecv(4, Some(0), Some(2)).unwrap();
    for _ in 0..20 {
        a.progress(Some(Duration::from_millis(1)));
        b.progress(Some(Duration::from_millis(1)));
    }
    assert!(sreq.is_done());
    assert_eq!(a.stats().rts_sent, 1, "above the eager limit");
    assert_same_buffer(&b, rreq, &sent, "rendezvous");
}

#[test]
fn extended_header_first_message_is_parked_and_delivered_by_handle() {
    let (a, b) = pair();
    let excid = Some(ExCid::from_pgcid(777));
    // Only A registers: the extended-header frame parks at B, is replayed
    // into the unexpected queue on registration, then matched.
    a.register_comm(3, 0, addrs(&a, &b), inc0(excid));
    let sent = big();
    a.isend(3, 1, 1, sent.clone()).unwrap();
    assert_eq!(a.stats().ext_sent, 1);
    pump(&b);
    assert_eq!(parked(&b), 1);
    b.register_comm(9, 1, addrs(&a, &b), inc0(excid));
    let req = b.irecv(9, Some(0), Some(1)).unwrap();
    assert_same_buffer(&b, req, &sent, "extended header via the parked table");
}

#[test]
fn a_send_flushed_from_the_lazy_resolve_queue_keeps_its_buffer() {
    let uni = pmix::PmixUniverse::new(simnet::SimTestbed::tiny(1, 2));
    let procs: Vec<pmix::ProcId> = (0..2).map(|r| pmix::ProcId::new("job", r)).collect();
    let pmls: Vec<Arc<Pml>> = procs
        .iter()
        .map(|p| {
            let ep = uni.fabric().register(NodeId(0));
            uni.register_proc(p.clone(), &ep);
            Pml::new(Arc::new(ep))
        })
        .collect();
    let (a, b) = (&pmls[0], &pmls[1]);
    a.install_resolver(pmix::PeerResolver::new(&uni.client_for(&procs[0]).unwrap()));
    // A knows B only by name; B's card is not published yet, so the send
    // queues behind the resolution it starts.
    let lazy = vec![PeerAddr::Known(a.endpoint.id()), PeerAddr::Unresolved(procs[1].clone())];
    a.register_comm(5, 0, lazy, None);
    b.register_comm(5, 1, addrs(a, b), None);
    let sent = big();
    let sreq = a.isend(5, 1, 0, sent.clone()).unwrap();
    assert_eq!(a.resolving_count(), 1);
    assert!(!sreq.is_done(), "parked behind the resolution");
    let card = uni.client_for(&procs[1]).unwrap();
    card.put(pmix::value::keys::ENDPOINT, pmix::PmixValue::U64(b.endpoint.id().0));
    card.commit();
    for _ in 0..200 {
        if a.resolve_status(&procs[1]) == ResolveStatus::Resolved {
            break;
        }
        a.progress(Some(Duration::from_millis(1)));
    }
    assert!(sreq.is_done(), "flushed once the endpoint resolved");
    let req = b.irecv(5, Some(0), Some(0)).unwrap();
    pump(b);
    assert_same_buffer(b, req, &sent, "lazy-resolve queue");
}

#[test]
fn a_head_of_the_wrong_length_is_dropped_whole() {
    let (a, b) = pair();
    let excid = ExCid::from_pgcid(42);
    a.register_comm(2, 0, addrs(&a, &b), Some((excid, 0)));
    a.register_comm(6, 0, addrs(&a, &b), None);
    let from_b = |head: Vec<u8>| a.handle_bytes(b.endpoint.id(), Bytes::from(head), BODY, None);
    let longer = |mut head: Vec<u8>| {
        head.push(0);
        head
    };
    let ext = Some(ExtHeader { excid, sender_cid: 7 });
    let rts = Some(RtsInfo { size: 7, send_req: 0 });
    // A match, ext or RTS head with one byte after its last field — what
    // the old single-segment framing would have read as payload.
    from_b(longer(match_head(MsgKind::Eager, 6, None, None)));
    from_b(longer(match_head(MsgKind::EagerExt, 0, ext, None)));
    from_b(longer(match_head(MsgKind::Rts, 6, None, rts)));
    from_b(longer(match_head(MsgKind::RtsExt, 0, ext, rts)));
    assert_eq!(a.stats().handled, 4, "each malformed frame is still counted");
    assert_eq!((a.unexpected_count(2), a.unexpected_count(6), parked(&a)), (0, 0, 0));
    assert!(!a.peer_switched(2, 1), "a dropped ext frame teaches no CID");
    assert_eq!(a.stats().acks_sent, 0);
    // The same heads at their exact length are delivered.
    from_b(match_head(MsgKind::Eager, 6, None, None));
    from_b(match_head(MsgKind::EagerExt, 0, ext, None));
    from_b(match_head(MsgKind::Rts, 6, None, rts));
    assert_eq!((a.unexpected_count(2), a.unexpected_count(6)), (1, 2));
    // An RdvData head is kind + request id, 9 bytes: anything else leaves
    // the receive it names pending and its table entry in place.
    let eager = a.irecv(6, Some(1), Some(0)).unwrap();
    assert!(eager.is_done());
    let rdv = a.irecv(6, Some(1), Some(0)).unwrap(); // matches the RTS → recv_req 0
    let head = RdvData(0).encode();
    from_b(head[..8].to_vec());
    from_b(longer(head.clone()));
    assert!(!rdv.is_done(), "a malformed RdvData head must not complete the receive");
    assert_eq!(a.state.lock().rdv.recvs.len(), 1);
    from_b(head);
    assert!(rdv.is_done());
    assert_eq!(a.stats().handled, 10);
}

#[test]
fn unknown_fixed_ctx_parks_until_registration() {
    let (a, b) = pair();
    a.register_comm(6, 0, addrs(&a, &b), None);
    a.isend(6, 1, 0, Bytes::from_static(b"racy")).unwrap();
    pump(&b);
    assert_eq!(parked(&b), 1);
    b.register_comm(6, 1, addrs(&a, &b), None);
    let req = b.irecv(6, None, None).unwrap();
    pump(&b);
    assert!(req.is_done());
}

#[test]
fn unregister_then_reset_clears_state() {
    let (a, b) = pair();
    wire(&a, &b, 1, 1, None);
    assert!(a.state.lock().routes.contains_key(&1));
    a.unregister_comm(1);
    assert!(!a.state.lock().routes.contains_key(&1));
    b.reset();
    assert!(b.state.lock().routes.is_empty());
    assert!(b.irecv(1, None, None).is_err(), "reset engine rejects old cids");
}

#[test]
fn send_on_unknown_comm_errors() {
    let (a, _b) = pair();
    assert!(a.isend(99, 0, 0, Bytes::new()).is_err());
    assert!(a.irecv(99, None, None).is_err());
}

#[test]
fn send_to_out_of_range_rank_errors() {
    let (a, b) = pair();
    wire(&a, &b, 1, 1, None);
    assert!(a.isend(1, 5, 0, Bytes::new()).is_err());
}
