//! Point-to-point semantics: eager & rendezvous protocols, wildcards,
//! ordering, the exCID first-message handshake, and failure surfacing.

mod common;

use common::run;
use mpi_sessions::{Comm, ErrHandler, Info, Session, ThreadLevel, ANY_SOURCE, ANY_TAG};

fn world_comm(ctx: &prrte::ProcCtx, tag: &str) -> (Session, Comm) {
    let s = Session::init(ctx, ThreadLevel::Single, ErrHandler::Return, &Info::null()).unwrap();
    let g = s.group_from_pset("mpi://world").unwrap();
    let c = Comm::create_from_group(&g, tag).unwrap();
    (s, c)
}

#[test]
fn eager_roundtrip_small_message() {
    run(1, 2, 2, |ctx| {
        let (s, c) = world_comm(&ctx, "eager");
        if ctx.rank() == 0 {
            c.send(1, 7, b"ping").unwrap();
            let (data, st) = c.recv(1, 8).unwrap();
            assert_eq!(data, b"pong");
            assert_eq!(st.source, 1);
            assert_eq!(st.tag, 8);
        } else {
            let (data, _) = c.recv(0, 7).unwrap();
            assert_eq!(data, b"ping");
            c.send(0, 8, b"pong").unwrap();
        }
        c.free().unwrap();
        s.finalize().unwrap();
    });
}

#[test]
fn rendezvous_large_message() {
    run(1, 2, 2, |ctx| {
        let (s, c) = world_comm(&ctx, "rdv");
        let big: Vec<u8> = (0..200_000).map(|i| (i % 251) as u8).collect();
        if ctx.rank() == 0 {
            c.send(1, 0, &big).unwrap();
        } else {
            // Post the receive late so the RTS waits in the unexpected queue.
            std::thread::sleep(std::time::Duration::from_millis(50));
            let (data, st) = c.recv(0, 0).unwrap();
            assert_eq!(st.len, big.len());
            assert_eq!(data, big);
        }
        c.free().unwrap();
        s.finalize().unwrap();
    });
}

#[test]
fn rendezvous_with_preposted_receive() {
    run(1, 2, 2, |ctx| {
        let (s, c) = world_comm(&ctx, "rdv-pre");
        let big = vec![0x5au8; 150_000];
        if ctx.rank() == 1 {
            let req = c.irecv(0, 3).unwrap();
            let (data, _) = req.wait_data().unwrap();
            assert_eq!(data.len(), big.len());
        } else {
            std::thread::sleep(std::time::Duration::from_millis(50));
            c.send(1, 3, &big).unwrap();
        }
        c.free().unwrap();
        s.finalize().unwrap();
    });
}

#[test]
fn message_ordering_per_pair_is_fifo() {
    run(1, 2, 2, |ctx| {
        let (s, c) = world_comm(&ctx, "fifo");
        if ctx.rank() == 0 {
            for i in 0..100u32 {
                c.send_t(1, 1, &[i]).unwrap();
            }
        } else {
            for i in 0..100u32 {
                let (v, _) = c.recv_t::<u32>(0, 1).unwrap();
                assert_eq!(v[0], i, "messages reordered");
            }
        }
        c.free().unwrap();
        s.finalize().unwrap();
    });
}

#[test]
fn wildcard_source_and_tag() {
    let got = run(1, 3, 3, |ctx| {
        let (s, c) = world_comm(&ctx, "wild");
        let res = if ctx.rank() == 0 {
            let mut seen = Vec::new();
            for _ in 0..2 {
                let (v, st) = c.recv_t::<u32>(ANY_SOURCE, ANY_TAG).unwrap();
                seen.push((st.source, st.tag, v[0]));
            }
            seen.sort();
            seen
        } else {
            c.send_t(0, 40 + ctx.rank() as i32, &[ctx.rank() * 100]).unwrap();
            Vec::new()
        };
        c.free().unwrap();
        s.finalize().unwrap();
        res
    });
    assert_eq!(got[0], vec![(1, 41, 100), (2, 42, 200)]);
}

#[test]
fn unexpected_messages_queue_until_matched() {
    run(1, 2, 2, |ctx| {
        let (s, c) = world_comm(&ctx, "unexp");
        if ctx.rank() == 0 {
            for i in 0..5u32 {
                c.send_t(1, i as i32, &[i]).unwrap();
            }
            // Sync so the peer inspects its queue after everything arrived.
            c.send(1, 100, b"done").unwrap();
        } else {
            let _ = c.recv(0, 100).unwrap();
            // Everything else should be queued as unexpected by now.
            assert!(c.unexpected_queued() >= 4, "queue={}", c.unexpected_queued());
            // Match them out of order.
            for tag in (0..5).rev() {
                let (v, _) = c.recv_t::<u32>(0, tag).unwrap();
                assert_eq!(v[0], tag as u32);
            }
            assert_eq!(c.unexpected_queued(), 0);
        }
        c.free().unwrap();
        s.finalize().unwrap();
    });
}

#[test]
fn excid_handshake_switches_to_compact_header() {
    // Paper §III-B4: the first messages carry the extended header; after
    // the receiver's ACK is processed, sends use the compact header.
    let stats = run(1, 2, 2, |ctx| {
        let (s, c) = world_comm(&ctx, "hs");
        let pml = mpi_sessions::instance::MpiProcess::obtain(&ctx).pml().clone();
        let before = pml.stats();
        if ctx.rank() == 0 {
            assert!(!pml.peer_switched(c.local_cid(), 1));
            c.send(1, 0, b"first").unwrap(); // extended
            let _ = c.recv(1, 0).unwrap(); // peer's reply arrives w/ our ACK absorbed
            // Give the ACK time to come back, then progress it in.
            std::thread::sleep(std::time::Duration::from_millis(50));
            pml.progress(None);
            assert!(pml.peer_switched(c.local_cid(), 1), "ACK should have switched the peer");
            c.send(1, 0, b"second").unwrap(); // compact
        } else {
            let _ = c.recv(0, 0).unwrap();
            c.send(0, 0, b"reply").unwrap();
            let _ = c.recv(0, 0).unwrap();
        }
        let after = pml.stats();
        c.free().unwrap();
        s.finalize().unwrap();
        (before, after)
    });
    let (b0, a0) = stats[0];
    // Rank 0 sent one extended and at least one compact message.
    assert!(a0.ext_sent > b0.ext_sent, "no extended sends recorded");
    assert!(a0.eager_sent > b0.eager_sent, "no compact sends recorded");
    // Rank 1 replied to an extended message => it sent exactly one ACK.
    let (b1, a1) = stats[1];
    assert_eq!(a1.acks_sent - b1.acks_sent, 1);
}

#[test]
fn reverse_direction_learns_cid_from_ext_header() {
    // The receiver of an extended header stores the sender's local CID, so
    // its own first send back can already use the compact header.
    run(1, 2, 2, |ctx| {
        let (s, c) = world_comm(&ctx, "rev");
        let pml = mpi_sessions::instance::MpiProcess::obtain(&ctx).pml().clone();
        if ctx.rank() == 0 {
            c.send(1, 0, b"open").unwrap();
            let _ = c.recv(1, 0).unwrap();
        } else {
            let _ = c.recv(0, 0).unwrap();
            // We learned rank 0's CID from the extended header: no EXT send.
            let before = pml.stats().ext_sent;
            assert!(pml.peer_switched(c.local_cid(), 0));
            c.send(0, 0, b"back").unwrap();
            assert_eq!(pml.stats().ext_sent, before, "reverse send used EXT header");
        }
        c.free().unwrap();
        s.finalize().unwrap();
    });
}

#[test]
fn isend_irecv_waitall() {
    run(1, 4, 4, |ctx| {
        let (s, c) = world_comm(&ctx, "nb");
        let me = ctx.rank();
        let n = c.size();
        let mut reqs = Vec::new();
        let payload = vec![me as u8; 64];
        for r in 0..n {
            if r != me {
                reqs.push(c.isend(r, 9, &payload).unwrap());
            }
        }
        let mut recvs = Vec::new();
        for r in 0..n {
            if r != me {
                recvs.push((r, c.irecv(r as i32, 9).unwrap()));
            }
        }
        for (r, req) in recvs {
            let (data, _) = req.wait_data().unwrap();
            assert_eq!(data, vec![r as u8; 64]);
        }
        mpi_sessions::Request::wait_all(reqs).unwrap();
        c.free().unwrap();
        s.finalize().unwrap();
    });
}

#[test]
fn typed_transfer_roundtrips_f64() {
    run(1, 2, 2, |ctx| {
        let (s, c) = world_comm(&ctx, "typed");
        if ctx.rank() == 0 {
            c.send_t(1, 2, &[1.5f64, -2.25, 1e300]).unwrap();
        } else {
            let (v, st) = c.recv_t::<f64>(0, 2).unwrap();
            assert_eq!(v, vec![1.5, -2.25, 1e300]);
            assert_eq!(st.count::<f64>(), Some(3));
        }
        c.free().unwrap();
        s.finalize().unwrap();
    });
}

#[test]
fn sendrecv_exchanges_concurrently() {
    run(1, 2, 2, |ctx| {
        let (s, c) = world_comm(&ctx, "sr");
        let me = ctx.rank();
        let other = 1 - me;
        let mine = vec![me as u8; 32];
        let (theirs, st) = c.sendrecv(other, 5, &mine, other as i32, 5).unwrap();
        assert_eq!(theirs, vec![other as u8; 32]);
        assert_eq!(st.source, other as i32);
        c.free().unwrap();
        s.finalize().unwrap();
    });
}

#[test]
fn self_send_works() {
    run(1, 1, 1, |ctx| {
        let (s, c) = world_comm(&ctx, "self");
        let req = c.irecv(0, 1).unwrap();
        c.send(0, 1, b"loopback").unwrap();
        let (data, _) = req.wait_data().unwrap();
        assert_eq!(&data[..], b"loopback");
        c.free().unwrap();
        s.finalize().unwrap();
    });
}

#[test]
fn invalid_rank_and_tag_are_rejected() {
    run(1, 1, 1, |ctx| {
        let (s, c) = world_comm(&ctx, "bad");
        assert_eq!(c.send(5, 0, b"x").unwrap_err().class, mpi_sessions::ErrClass::Rank);
        assert_eq!(c.send(0, -3, b"x").unwrap_err().class, mpi_sessions::ErrClass::Tag);
        assert_eq!(c.irecv(-5, 0).unwrap_err().class, mpi_sessions::ErrClass::Rank);
        assert_eq!(c.irecv(0, -9).unwrap_err().class, mpi_sessions::ErrClass::Tag);
        c.free().unwrap();
        s.finalize().unwrap();
    });
}

#[test]
fn send_to_dead_peer_fails_with_proc_failed() {
    let launcher = prrte::Launcher::new(simnet::SimTestbed::tiny(1, 2));
    let handle = launcher.spawn(prrte::JobSpec::new(2), |ctx| {
        let (s, c) = world_comm(&ctx, "dead");
        if ctx.rank() == 0 {
            // Wait until the runtime killed rank 1.
            let mut notifier = s.failure_notifier().unwrap();
            let victim = notifier
                .next_timeout(std::time::Duration::from_secs(10))
                .expect("failure event");
            assert_eq!(victim.rank(), 1);
            let err = c.send(1, 0, b"to the void").unwrap_err();
            assert_eq!(err.class, mpi_sessions::ErrClass::ProcFailed);
            // The session itself remains usable for local work.
            assert!(s.pset_names().is_ok());
        } else {
            std::thread::sleep(std::time::Duration::from_secs(2));
        }
        drop(c);
        s.finalize().ok();
        ctx.rank()
    });
    std::thread::sleep(std::time::Duration::from_millis(400));
    handle.kill_rank(1);
    handle.join().unwrap();
}

/// `dup` → 100 two-way messages → `free`, fifty times over on the same
/// recycled derived exCID. `free` is local, so one rank can already be one
/// incarnation of the exCID ahead of its peer; every payload names its
/// (incarnation, index), so traffic crossing between incarnations fails
/// the equality — or, when a frame is swallowed by the wrong route, a
/// bounded wait fails typed `Timeout`. Never a hang.
///
/// Free-running, that skew is a race. With `pin_skew` it is forced: rank 1
/// holds each incarnation until a token on the parent communicator — sent
/// by rank 0 *behind* its first frame of the next incarnation, so handled
/// after it (per-pair FIFO) — proves that frame already reached rank 1
/// while the old route was still registered.
fn recycled_excid_loop(pin_skew: bool) {
    const TOKEN: i32 = 9;
    run(1, 2, 2, move |ctx| {
        let (s, parent) = world_comm(&ctx, "recycled");
        let budget = std::time::Duration::from_secs(2);
        let peer = 1 - ctx.rank();
        for incarnation in 0..50u32 {
            let c = parent.dup().unwrap();
            for i in 0..100u32 {
                let mut rreq = c.irecv(peer as i32, 0).unwrap();
                let mut sreq = c
                    .isend(peer, 0, &mpi_sessions::datatype::to_bytes(&[incarnation, i]))
                    .unwrap();
                if pin_skew && ctx.rank() == 0 && i == 0 && incarnation > 0 {
                    parent.send(1, TOKEN, b"").unwrap();
                }
                let (data, _) = rreq.wait_data_timeout(budget).unwrap();
                let got: Vec<u32> = mpi_sessions::datatype::from_bytes(&data).unwrap();
                assert_eq!(got, [incarnation, i], "payload crossed between incarnations");
                sreq.wait_timeout(budget).unwrap();
            }
            if pin_skew && ctx.rank() == 1 && incarnation < 49 {
                parent.irecv(0, TOKEN).unwrap().wait_data_timeout(budget).unwrap();
            }
            c.free().unwrap();
        }
        // Every dup after the first really did ride the recycled subfield.
        let recycled = ctx.universe().fabric().obs().counter_value(
            &ctx.proc().to_string(),
            "cid",
            "subfields_recycled",
        );
        assert_eq!(recycled, 49);
        parent.free().unwrap();
        s.finalize().unwrap();
    });
}

#[test]
fn recycled_derived_excid_never_crosses_incarnations() {
    recycled_excid_loop(false);
}

#[test]
fn recycled_derived_excid_with_one_rank_pinned_an_incarnation_ahead() {
    recycled_excid_loop(true);
}
