//! Ablation A1 (paper §IV-C2 discussion): how CID-space fragmentation
//! degrades the consensus algorithm while the exCID generator is immune.
//!
//! The benchmark skews one rank's communicator table by `frag` burned
//! slots, then measures (a) consensus rounds + time per dup, (b) exCID
//! derivation time per dup, and (c) exCID dup+free *churn* time, at each
//! fragmentation level. The churn column exercises the recycling path:
//! every free returns its subfield to the parent pool and the next dup
//! resumes it, so sustained churn neither consumes fresh derivations nor
//! slows down as the table fragments.
//!
//! Usage: `abl_cid_fragmentation [--np 4] [--frags 0,4,16,64] [--iters 8]`

use apps::run::Job;
use bench_harness::{cli_opt, dump_json, parse_list};
use mpi_sessions::{Comm, ErrHandler, Info, Session, ThreadLevel};
use serde::Serialize;
use simnet::SimTestbed;
use std::time::Instant;

#[derive(Serialize)]
struct Row {
    frag: u32,
    consensus_rounds: u32,
    consensus_us: f64,
    excid_derive_us: f64,
    excid_churn_us: f64,
    subfields_recycled: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let np: u32 = cli_opt(&args, "--np").and_then(|v| v.parse().ok()).unwrap_or(4);
    let frags = parse_list(&cli_opt(&args, "--frags").unwrap_or_else(|| "0,4,16,64".into()));
    let iters: usize = cli_opt(&args, "--iters").and_then(|v| v.parse().ok()).unwrap_or(8);

    println!("# Ablation A1: consensus CID under fragmentation vs exCID derivation");
    println!(
        "{:>8} {:>18} {:>16} {:>18} {:>16} {:>10}",
        "frag", "consensus rounds", "consensus us", "excid derive us", "excid churn us", "recycled"
    );
    let mut rows = Vec::new();
    for &frag in &frags {
        let run = Job::new(SimTestbed::tiny(1, np)).run(np, move |ctx| {
            let world = mpi_sessions::world::init(&ctx).expect("init");
            let session =
                Session::init(&ctx, ThreadLevel::Single, ErrHandler::Return, &Info::null())
                    .expect("session");
            // Fragment: rank (np-1) burns `frag` local CIDs.
            let mut burners = Vec::new();
            if ctx.rank() == ctx.size() - 1 {
                let g = session.group_from_pset("mpi://self").expect("self pset");
                for i in 0..frag {
                    burners.push(Comm::create_from_group(&g, &format!("burn{i}")).unwrap());
                }
            }
            let rounds = world.comm().probe_consensus_rounds().expect("probe");

            // Consensus dup timing.
            let t0 = Instant::now();
            let mut dups = Vec::new();
            for _ in 0..iters {
                dups.push(world.comm().dup_consensus().expect("dup"));
            }
            let consensus_us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;
            for d in dups {
                d.free().expect("free");
            }

            // exCID derivation dup timing (immune to fragmentation:
            // no agreement traffic at all).
            let g = session.group_from_pset("mpi://world").expect("world pset");
            let parent = Comm::create_from_group(&g, "abl-parent").expect("parent");
            let t0 = Instant::now();
            let mut dups = Vec::new();
            for _ in 0..iters {
                dups.push(parent.dup().expect("derive"));
            }
            let excid_us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;
            for d in dups {
                d.free().expect("free");
            }

            // Dup+free churn: after the first cycle every dup resumes
            // a recycled subfield; fragmentation of the local table
            // cannot slow this down either (lowest-free CID claim is
            // the only table-dependent step, same as a fresh derive).
            let t0 = Instant::now();
            for _ in 0..iters {
                parent.dup().expect("churn dup").free().expect("churn free");
            }
            let churn_us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;
            parent.free().expect("free");
            for b in burners {
                b.free().expect("free");
            }
            session.finalize().expect("fini");
            world.finalize().expect("fini");
            (rounds, consensus_us, excid_us, churn_us)
        });
        let (rounds, cons, exc, churn) =
            run.ranks.iter().fold((0, 0.0f64, 0.0f64, 0.0f64), |acc, v| {
                (acc.0.max(v.0), acc.1.max(v.1), acc.2.max(v.2), acc.3.max(v.3))
            });
        // The churn loop's derivations after the first must all be served
        // from the freed list: at least (iters - 1) recycles per rank.
        let recycled = run.registry().sum_counters("cid", "subfields_recycled");
        assert!(
            recycled >= (np as u64) * (iters as u64 - 1),
            "churn must recycle freed subfields ({recycled} recycled)"
        );
        println!(
            "{:>8} {:>18} {:>16.2} {:>18.2} {:>16.2} {:>10}",
            frag, rounds, cons, exc, churn, recycled
        );
        rows.push(Row {
            frag,
            consensus_rounds: rounds,
            consensus_us: cons,
            excid_derive_us: exc,
            excid_churn_us: churn,
            subfields_recycled: recycled,
        });
    }
    println!("\n# Shape: consensus rounds (and time) grow with fragmentation;");
    println!("# exCID derivation is flat — it never searches the CID space —");
    println!("# and dup+free churn recycles subfields instead of consuming them.");
    dump_json("abl_cid_fragmentation", &rows);
}
