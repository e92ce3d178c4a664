//! Checkpoint-free recovery: a fault-aware allreduce workload that
//! survives injected kills (DESIGN.md §15).
//!
//! The loop each rank runs is the user-facing composition of the whole
//! fault layer: `Session::track_faults` publishes the survivors pset,
//! `Session::watch_faults` delivers each death exactly once (replayed to
//! late subscribers), and an `ElasticComm` over the survivors pset keeps
//! the compute communicator: `next_rebuild` rebuilds it at the pruned
//! epoch and answers with a typed `Rebuild` verdict the loop branches on
//! — no string matching, no registry polling, no checkpoint files.
//!
//! The collective itself is a ring allreduce built on `irecv` +
//! [`mpi_sessions::Request::wait_data_timeout`], so **every blocking
//! point has a bounded, typed exit**: a dead neighbor surfaces as
//! `ProcTerminated` (fast — the wait's dead-peer check fires well before
//! the budget), a neighbor stalled behind a dead rank surfaces as
//! `Timeout`. Either verdict routes the rank into a rebuild; a rank that
//! the survivors pset no longer lists exits as [`RankOutcome::Removed`].
//!
//! Because ranks observe a fault at different points in the step
//! schedule (one fails mid-ring, its neighbor only next step), the loop
//! re-synchronizes after every repair with a **step agreement**: a ring
//! MIN over each survivor's next step. Survivors resume from the last
//! globally consistent step and recompute anything past it — that
//! recomputation *is* the checkpoint-free restart.

use crate::InitMode;
use mpi_sessions::{Comm, ElasticComm, ErrClass, ErrHandler, Rebuild, Session, ThreadLevel};
use prrte::ProcCtx;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Knobs of the recovery workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecoverConfig {
    /// Allreduce steps each rank must complete.
    pub steps: u32,
    /// Per-wait budget inside one ring step (typed `Timeout` after this).
    pub step_wait: Duration,
    /// Budget for one rebuild (waiting for the pset change plus fan-in
    /// retries); exceeding it panics — the drill is wedged.
    pub repair_budget: Duration,
    /// How each rank's session initializes; `Wpm` opens an eager session
    /// like `Sessions` (the drill is built on the session's fault pset).
    pub init: InitMode,
}

impl RecoverConfig {
    /// The drill used by tests and the `fig_recover` harness.
    pub fn small() -> Self {
        RecoverConfig {
            steps: 8,
            step_wait: Duration::from_secs(5),
            repair_budget: Duration::from_secs(30),
            init: InitMode::Sessions,
        }
    }
}

/// What one rank's recovery loop accomplished.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecoverReport {
    /// Steps completed (== `RecoverConfig::steps` for a survivor).
    pub steps_done: u32,
    /// Successful communicator repairs (fault episodes survived).
    pub repairs: u32,
    /// Rebuild fan-ins retried: a member died inside one and the rebuild
    /// re-entered at the newer epoch (`session.rebuild_reentered`), or one
    /// timed out and was retried at its epoch (`session.rebuild_retries`).
    pub stale_retries: u32,
    /// Deaths delivered by the fault watcher while stepping.
    pub faults_seen: u32,
    /// Ring timeouts / dead-peer verdicts that triggered a repair pass.
    pub step_faults: u32,
    /// Communicator size when the final step ran.
    pub final_size: u32,
    /// Per-step allreduce results (each member contributes 1, so a
    /// step's sum is the communicator size at that step).
    pub sums: Vec<u32>,
}

/// Terminal state of one rank.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum RankOutcome {
    /// Ran every step to completion (possibly across repairs).
    Survivor(RecoverReport),
    /// Evicted from the survivors pset (it was killed): exited the loop
    /// cleanly after `steps_done` completed steps.
    Removed {
        /// Steps completed before the eviction was observed.
        steps_done: u32,
    },
}

impl RankOutcome {
    /// The report, if this rank survived.
    pub fn survivor(&self) -> Option<&RecoverReport> {
        match self {
            RankOutcome::Survivor(r) => Some(r),
            RankOutcome::Removed { .. } => None,
        }
    }
}

/// One full-ring fold over `comm`: every rank contributes `contrib`,
/// passes partial carries `size - 1` hops, and returns
/// `fold(contrib_0, .., contrib_{n-1})`. Built entirely on bounded
/// waits so a fault anywhere in the ring surfaces typed within
/// `wait` per hop instead of parking.
fn ring_fold(
    comm: &Comm,
    tag_base: i32,
    contrib: u32,
    fold: fn(u32, u32) -> u32,
    wait: Duration,
) -> mpi_sessions::Result<u32> {
    let n = comm.size();
    let me = comm.rank();
    let mut acc = contrib;
    if n == 1 {
        return Ok(acc);
    }
    let right = (me + 1) % n;
    let left = (me + n - 1) % n;
    let mut carry = contrib;
    for hop in 0..(n - 1) {
        let tag = tag_base + hop as i32;
        let mut rreq = comm.irecv(left as i32, tag)?;
        let mut sreq = comm.isend(right, tag, &carry.to_le_bytes())?;
        let (bytes, _) = rreq.wait_data_timeout(wait)?;
        sreq.wait_timeout(wait)?;
        let got = u32::from_le_bytes(bytes[..4].try_into().expect("4-byte carry"));
        acc = fold(acc, got);
        carry = got;
    }
    Ok(acc)
}

/// Tag block for step `step`'s ring (each hop gets its own tag; blocks
/// are disjoint across steps, and comm isolation by CID makes reuse
/// across repair generations safe).
fn step_tag(step: u32) -> i32 {
    0x5000 + (step as i32) * 0x10
}

/// Tag block for the post-repair step-agreement ring.
const AGREE_TAG: i32 = 0x4000;

/// The per-rank recovery loop: ring-allreduce `cfg.steps` times over the
/// widest available communicator, repairing through every observed fault.
pub fn run_rank(ctx: &ProcCtx, cfg: &RecoverConfig) -> RankOutcome {
    run_rank_with_progress(ctx, cfg, |_| {})
}

/// [`run_rank`] with a progress callback: `on_step(next_step)` fires
/// after every completed step (drivers use it to pace fault injection
/// between steps and to timestamp settle latency).
pub fn run_rank_with_progress(
    ctx: &ProcCtx,
    cfg: &RecoverConfig,
    on_step: impl Fn(u32),
) -> RankOutcome {
    let info = cfg.init.session_info();
    let session =
        Session::init(ctx, ThreadLevel::Single, ErrHandler::Return, &info).expect("session init");
    let pset = session.track_faults().expect("track_faults");
    let mut faults = session.watch_faults().expect("watch_faults");
    let mut elastic =
        ElasticComm::establish(&session, &pset, cfg.repair_budget).expect("initial comm");

    let mut report = RecoverReport {
        steps_done: 0,
        repairs: 0,
        stale_retries: 0,
        faults_seen: 0,
        step_faults: 0,
        final_size: 0,
        sums: Vec::new(),
    };
    let mut step = 0u32;
    let mut dirty = false;
    while step < cfg.steps {
        // Exactly-once fault intake: the death of a current member forces a
        // rebuild before the next collective. A death an earlier rebuild
        // already excluded needs none: its prune event is consumed.
        let comm = elastic.comm().expect("a member holds a comm");
        while let Some(dead) = faults.try_next() {
            report.faults_seen += 1;
            dirty |= comm.group().rank_of(&dead).is_some();
        }
        if dirty {
            match elastic.next_rebuild(cfg.repair_budget) {
                Ok(Rebuild::Rebuilt { .. }) => report.repairs += 1,
                Ok(Rebuild::Retired { .. } | Rebuild::Deleted { .. }) => {
                    return RankOutcome::Removed { steps_done: step }
                }
                Err(e) => panic!("unrecoverable rebuild error: {e}"),
            }
            let comm = elastic.comm().expect("a rebuild leaves a comm");
            // Survivors reached this repair from different points in the
            // step schedule (one failed mid-ring, its neighbor only on
            // the following step): agree on MIN(next step) and recompute
            // from there — the checkpoint-free restart.
            match ring_fold(comm, AGREE_TAG, step, u32::min, cfg.step_wait) {
                Ok(agreed) => {
                    step = agreed;
                    report.sums.truncate(step as usize);
                    dirty = false;
                }
                // A second fault landed during the agreement itself:
                // stay dirty and rebuild again.
                Err(e)
                    if matches!(
                        e.class,
                        ErrClass::ProcFailed | ErrClass::ProcTerminated | ErrClass::Timeout
                    ) => {}
                Err(e) => panic!("unrecoverable agreement error: {e}"),
            }
            continue;
        }
        match ring_fold(comm, step_tag(step), 1, |a, b| a + b, cfg.step_wait) {
            Ok(sum) => {
                debug_assert_eq!(sum, comm.size(), "each member contributes exactly 1");
                report.sums.push(sum);
                step += 1;
                report.steps_done = step;
                on_step(step);
            }
            Err(e)
                if matches!(
                    e.class,
                    ErrClass::ProcFailed | ErrClass::ProcTerminated | ErrClass::Timeout
                ) =>
            {
                report.step_faults += 1;
                dirty = true;
            }
            Err(e) => panic!("unrecoverable step error: {e}"),
        }
    }
    report.final_size = elastic.comm().expect("a member holds a comm").size();
    let (obs, me) = (ctx.universe().fabric().obs(), ctx.proc().to_string());
    report.stale_retries = ["rebuild_reentered", "rebuild_retries"]
        .iter()
        .map(|name| obs.counter_value(&me, "session", name) as u32)
        .sum();
    // Dropping the ElasticComm abandons its comm: ranks may have observed
    // faults asymmetrically, and abandon asks nothing rank-symmetric of
    // them. It still releases the PGCID family, so the id is recycled once
    // every member has let go.
    drop(elastic);
    session.finalize().expect("finalize");
    RankOutcome::Survivor(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_sessions::Info;
    use prrte::{JobSpec, Launcher, ProcCtx};
    use simnet::SimTestbed;
    use std::sync::{mpsc, Arc, Condvar, Mutex};

    #[test]
    fn quiet_run_completes_every_step_at_full_width() {
        let launcher = Launcher::new(SimTestbed::tiny(2, 2));
        let cfg = RecoverConfig::small();
        let run = {
            let cfg = cfg.clone();
            move |ctx: ProcCtx| run_rank(&ctx, &cfg)
        };
        let out = launcher.spawn(JobSpec::new(4), run).join().unwrap();
        for outcome in &out {
            let r = outcome.survivor().expect("no faults, everyone survives");
            assert_eq!(r.steps_done, cfg.steps);
            assert_eq!(r.repairs, 0);
            assert_eq!(r.final_size, 4);
            assert_eq!(r.sums, vec![4u32; cfg.steps as usize]);
        }
    }

    /// A member that dies inside a rebuild's own fan-in fails it
    /// `ProcFailed`; `establish` absorbs it as one more fault and re-enters
    /// onto the prune event. The kill is ordered after the server opened
    /// the survivors' construct — a survivor then sits in the fan-in — so
    /// the interleaving is forced.
    #[test]
    fn a_death_inside_the_repair_fan_in_is_retried_at_the_newer_epoch() {
        let launcher = Launcher::new(SimTestbed::tiny(1, 3));
        let universe = launcher.universe().clone();
        let obs = universe.fabric().obs();
        obs.cvar_write("universe", "pmix.group_timeout_ms", obs::CvarValue::U64(2000)).unwrap();
        let (ready_tx, ready_rx) = mpsc::channel::<u32>();
        let killed = Arc::new((Mutex::new(false), Condvar::new()));
        let run = {
            let killed = killed.clone();
            move |ctx: ProcCtx| {
                let ready = ready_tx.clone();
                let session =
                    Session::init(&ctx, ThreadLevel::Single, ErrHandler::Return, &Info::null())
                        .unwrap();
                let pset = session.track_faults().unwrap();
                ready.send(ctx.rank()).unwrap();
                if ctx.rank() == 2 {
                    // The victim never joins; it is killed inside the
                    // survivors' fan-in.
                    let (flag, cv) = &*killed;
                    drop(cv.wait_while(flag.lock().unwrap(), |k| !*k).unwrap());
                    return None;
                }
                let elastic = ElasticComm::establish(&session, &pset, Duration::from_secs(10))
                    .expect("a survivor is never evicted");
                let size = elastic.comm().map(Comm::size);
                drop(elastic);
                session.finalize().unwrap();
                size
            }
        };
        let handle = launcher.spawn(JobSpec::new(3), run);
        for _ in 0..3 {
            ready_rx.recv_timeout(Duration::from_secs(30)).expect("every rank tracks faults");
        }
        // Every earlier collective was observed by all three ranks and
        // reaped; the next op a server holds is the survivors' construct.
        let constructing = || {
            let servers = universe.servers().iter();
            servers.flat_map(|s| s.shard_occupancy().ops_live).any(|n| n > 0)
        };
        while !constructing() {
            std::thread::yield_now();
        }
        universe.kill_proc(&pmix::ProcId::new(handle.nspace(), 2)).expect("kill");
        *killed.0.lock().unwrap() = true;
        killed.1.notify_all();
        let out = handle.join().expect("a ProcFailed fan-in is re-entered, not fatal");
        assert_eq!(out.into_iter().flatten().collect::<Vec<_>>(), [2, 2]);
        assert!(
            obs.sum_counters("session", "rebuild_reentered") >= 1,
            "the survivor inside the fan-in re-entered its failed rebuild"
        );
    }

    #[test]
    fn killed_rank_is_removed_and_survivors_recover() {
        kill_one_of_four(InitMode::Sessions);
    }

    /// Lazy session init changes nothing in the drill: the rebuild after
    /// the kill is still an eager construct, so its fan-in completes on the
    /// servers.
    #[test]
    fn killed_rank_is_removed_and_survivors_recover_in_lazy_sessions() {
        kill_one_of_four(InitMode::Lazy);
    }

    fn kill_one_of_four(init: InitMode) {
        let launcher = Launcher::new(SimTestbed::tiny(2, 2));
        let universe = launcher.universe().clone();
        // Fast typed Timeout verdicts while epochs disagree mid-repair.
        let obs = universe.fabric().obs();
        obs.cvar_write("universe", "pmix.group_timeout_ms", obs::CvarValue::U64(2000)).unwrap();
        let cfg = RecoverConfig {
            steps: 6,
            step_wait: Duration::from_secs(2),
            repair_budget: Duration::from_secs(30),
            init,
        };
        let (ack_tx, ack_rx) = mpsc::channel::<(u32, u32)>();
        // Ranks hold after step 2 until the kill has been issued, so it
        // can never land after the last step however the threads are
        // scheduled.
        let killed = Arc::new((Mutex::new(false), Condvar::new()));
        let run = {
            let cfg = cfg.clone();
            let killed = killed.clone();
            move |ctx: ProcCtx| {
                let tx = ack_tx.clone();
                let rank = ctx.rank();
                run_rank_with_progress(&ctx, &cfg, |step| {
                    let _ = tx.send((rank, step));
                    if step == 2 {
                        let (flag, cv) = &*killed;
                        drop(cv.wait_while(flag.lock().unwrap(), |k| !*k).unwrap());
                    }
                })
            }
        };
        let handle = launcher.spawn(JobSpec::new(4), run);
        let victim = pmix::ProcId::new(handle.nspace(), 3);
        // Wait until every rank has completed step 1, then kill rank 3.
        let mut done_step1 = std::collections::HashSet::new();
        while done_step1.len() < 4 {
            let (rank, step) = ack_rx
                .recv_timeout(Duration::from_secs(30))
                .expect("ranks make progress");
            if step >= 1 {
                done_step1.insert(rank);
            }
        }
        let constructs = || obs.sum_counters("pmix", "group_construct_completed");
        let before_kill = constructs();
        universe.kill_proc(&victim).expect("kill");
        *killed.0.lock().unwrap() = true;
        killed.1.notify_all();
        let out = handle.join().unwrap();
        assert!(constructs() > before_kill, "the rebuild after the kill fans in");
        if init == InitMode::Lazy {
            assert_eq!(obs.sum_counters("pmix", "fence_completed"), 0, "init stayed lazy");
        }
        for (rank, outcome) in out.iter().enumerate() {
            if rank == 3 {
                assert!(
                    outcome.survivor().is_none(),
                    "the victim must exit Removed, got {outcome:?}"
                );
            } else {
                let r = outcome.survivor().expect("survivors finish");
                assert_eq!(r.steps_done, cfg.steps);
                assert!(r.repairs >= 1, "a kill forces at least one repair");
                assert_eq!(r.final_size, 3);
                assert_eq!(
                    r.sums.last(),
                    Some(&3),
                    "post-repair steps run at the shrunk width"
                );
            }
        }
    }
}
