//! Post-run protocol invariants, checked from the observability registry.
//!
//! Every fault schedule — whatever it drops, delays, duplicates, kills or
//! partitions — must leave the stack in a state where these hold:
//!
//! 1. **handshake-unique** — at most one completed exCID handshake per
//!    (process, exCID, peer, cache generation); the `pml.handshake` event
//!    count matches the `handshakes` counter. The cache generation bumps
//!    whenever the PML evicts or invalidates a cache entry, so a repeat
//!    handshake is legal exactly when a removal happened in between —
//!    needed because recycled PGCIDs revisit old (exCID, peer) keys.
//! 2. **fanout-abort-exclusive** — no server both completes (fan-out) and
//!    aborts the same collective epoch: a failed group construct must not
//!    leak its result (or its PGCID) to waiting clients.
//! 3. **pgcid-agreement** — every server that fans out a given group
//!    construct epoch reports the same PGCID and member count.
//! 4. **pgcid-accounting** — every PGCID exposed to the stack (group
//!    fan-outs, exCID refills) is non-zero, a PGCID feeds at most one refill
//!    per lifetime (one more than its `pgcid.recycled` count), and the
//!    number of distinct RM ids in use (a recycled PGCID is the same id a
//!    generation later, see `pmix::pgcid_base`) never exceeds what the RM
//!    allocated.
//! 5. **failure-delivery** — a fresh failure watcher converges on exactly
//!    the endpoints the run killed: nothing lost, nothing invented (this
//!    exercises the late-subscriber replay path).
//! 6. **reinit** — when the scenario re-initialized a session after a kill,
//!    that re-init must have succeeded.
//! 7. **fault-counter-match** — the fabric's fault counters agree with the
//!    hook's trace: every injected fault was accounted, no phantom faults.
//! 8. **cid-agreement** — in symmetric scenarios, all listed processes
//!    performed the same number of exCID refills and derivations.
//! 9. **pset-epoch-monotonic** — the registry's `pset.update` stream
//!    carries strictly increasing epochs: no torn, reordered or duplicated
//!    pset version ever reached a subscriber.
//! 10. **rebuild-epoch-published** — every `session.rebuild` pinned an
//!     epoch the registry actually published; a rebuild against an invented
//!     epoch means group membership diverged from the runtime's view.
//! 11. **stale-epoch** — no rebuilt communicator was retired with traffic
//!     still queued against it: a nonzero `stale_unexpected` at retire
//!     means a message crossed a pset epoch boundary.
//! 12. **request-terminal** — every issued setup request (`req.issued`)
//!     reached a terminal state on its process: a matching `req.completed`
//!     or `req.failed` with the same request id. A request that is neither
//!     is a construction stranded mid-state-machine by the fault schedule
//!     (a cancelled request completes first — drop drives the collective
//!     to completion — so cancellation still pairs with `req.completed`).
//!
//! 13. **stall-terminal** — every stall the progress-engine watchdog
//!     declared (`req.stalled`) cleared (`req.unstalled`) or escalated to a
//!     typed terminal state (`req.completed` / `req.failed`). A stall that
//!     does neither is a hung construction the fault schedule wedged
//!     *permanently* — exactly the failure mode the watchdog exists to
//!     surface. Stall/unstall episodes alternate per request, so the count
//!     algebra (`stalls ≤ unstalls`, or one extra stall closed by a
//!     terminal event) checks episode closure without needing ring order.
//!
//! 14. **lazy-resolve-terminal** — every lazy peer resolution a process
//!     began (`pml.lazy_resolve` phase `begin`) reached a terminal `end`
//!     for the same peer, and every `end` carries an outcome of
//!     `resolved` or `failed`. A begin with no end is a send parked
//!     forever behind a KVS fetch the fault schedule wedged; an end with
//!     no begin (per peer) is resolver bookkeeping gone wrong.
//!
//! 15. **survivors-exclude-dead** — at run end, no tracked survivors pset
//!     (`mpi://survivors/...`, the queryable faults pset maintained by the
//!     failure bridge) still names a process whose endpoint the run killed.
//!     A dead member lingering there means the bridge's prune raced or
//!     lost the death, and every epoch-pinned repair over the pset would
//!     re-admit a corpse.
//!
//! Ring overflow (`events_dropped > 0`) is itself a violation: the event-
//! based checks are only sound over a complete ring, so scenarios must be
//! sized to fit it.

use crate::hook::FaultRecord;
use crate::plan::FaultClass;
use simnet::{EndpointId, Fabric};
use std::collections::{BTreeMap, BTreeSet};

/// One invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant failed.
    pub invariant: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// Everything a check needs about one finished run.
pub struct InvariantCtx<'a> {
    /// The fabric-wide observability registry.
    pub obs: &'a obs::Registry,
    /// The fabric itself (for the failure-replay probe).
    pub fabric: &'a Fabric,
    /// The hook's fault trace (canonical or raw — only counted/matched).
    pub trace: &'a [FaultRecord],
    /// Every endpoint the run killed (hook verdicts + explicit kills).
    pub expected_dead: Vec<EndpointId>,
    /// Whether a post-kill session re-init succeeded, if the scenario did one.
    pub reinit_ok: Option<bool>,
    /// Process names whose `cid` counters must agree (symmetric scenarios).
    pub cid_agree: Vec<String>,
    /// Final membership of every tracked survivors pset, resolved to
    /// endpoints (name, member endpoints). The harness snapshots these from
    /// the registry at `finish()`.
    pub tracked_psets: Vec<(String, Vec<EndpointId>)>,
}

/// The invariant suite. Construct with [`InvariantChecker::standard`] and
/// run [`InvariantChecker::check`]; an empty result means all hold.
#[derive(Default)]
pub struct InvariantChecker;

impl InvariantChecker {
    /// The full standard suite.
    pub fn standard() -> Self {
        Self
    }

    /// Run every check; returns all violations found.
    pub fn check(&self, ctx: &InvariantCtx<'_>) -> Vec<Violation> {
        let mut out = Vec::new();
        self.check_ring(ctx, &mut out);
        self.check_handshakes(ctx, &mut out);
        self.check_fanout_abort(ctx, &mut out);
        self.check_pgcids(ctx, &mut out);
        self.check_failure_delivery(ctx, &mut out);
        self.check_reinit(ctx, &mut out);
        self.check_fault_counters(ctx, &mut out);
        self.check_cid_agreement(ctx, &mut out);
        self.check_pset_epochs(ctx, &mut out);
        self.check_stale_epochs(ctx, &mut out);
        self.check_request_terminal(ctx, &mut out);
        self.check_stall_terminal(ctx, &mut out);
        self.check_lazy_resolve_terminal(ctx, &mut out);
        self.check_survivors_exclude_dead(ctx, &mut out);
        out
    }

    fn check_ring(&self, ctx: &InvariantCtx<'_>, out: &mut Vec<Violation>) {
        let dropped = ctx.obs.events_dropped();
        if dropped > 0 {
            out.push(Violation {
                invariant: "obs-ring",
                detail: format!("{dropped} events dropped; event checks are unsound"),
            });
        }
    }

    fn check_handshakes(&self, ctx: &InvariantCtx<'_>, out: &mut Vec<Violation>) {
        let events = ctx.obs.events_named("pml.handshake");
        let mut seen: BTreeSet<(String, u64, u64, u64, u64)> = BTreeSet::new();
        for e in &events {
            // `cache_gen` distinguishes a legal re-handshake (the cached
            // peer state was evicted or invalidated in between, bumping the
            // generation) from a true double handshake. Events predating
            // the attribute default to generation 0.
            let key = (
                e.process.clone(),
                attr_u64(e, "pgcid"),
                attr_u64(e, "derivation"),
                attr_u64(e, "peer"),
                attr_u64(e, "cache_gen"),
            );
            if !seen.insert(key.clone()) {
                out.push(Violation {
                    invariant: "handshake-unique",
                    detail: format!(
                        "process {} completed the handshake with peer {} twice \
                         (pgcid {}, derivation {}) within cache generation {}",
                        key.0, key.3, key.1, key.2, key.4
                    ),
                });
            }
        }
        let counted = ctx.obs.sum_counters("pml", "handshakes");
        if counted != events.len() as u64 {
            out.push(Violation {
                invariant: "handshake-unique",
                detail: format!(
                    "handshakes counter says {counted} but {} events recorded",
                    events.len()
                ),
            });
        }
    }

    fn check_fanout_abort(&self, ctx: &InvariantCtx<'_>, out: &mut Vec<Violation>) {
        let fanouts = ctx.obs.events_named("group.fanout");
        let aborted: BTreeSet<(String, String, String, u64)> = ctx
            .obs
            .events_named("group.abort")
            .iter()
            .map(|e| {
                (
                    e.process.clone(),
                    attr_str(e, "kind"),
                    attr_str(e, "op"),
                    attr_u64(e, "epoch"),
                )
            })
            .collect();
        for e in &fanouts {
            let key = (
                e.process.clone(),
                attr_str(e, "kind"),
                attr_str(e, "op"),
                attr_u64(e, "epoch"),
            );
            if aborted.contains(&key) {
                out.push(Violation {
                    invariant: "fanout-abort-exclusive",
                    detail: format!(
                        "server {} both completed and aborted {} \"{}\" epoch {}",
                        key.0, key.1, key.2, key.3
                    ),
                });
            }
        }
        // pgcid-agreement: all fan-outs of one construct epoch must agree.
        let mut per_op: BTreeMap<(String, u64), BTreeSet<(u64, u64)>> = BTreeMap::new();
        for e in &fanouts {
            if attr_str(e, "kind") != "group_construct" {
                continue;
            }
            per_op
                .entry((attr_str(e, "op"), attr_u64(e, "epoch")))
                .or_default()
                .insert((attr_u64(e, "pgcid"), attr_u64(e, "members")));
        }
        for ((op, epoch), views) in per_op {
            if views.len() > 1 {
                out.push(Violation {
                    invariant: "pgcid-agreement",
                    detail: format!(
                        "construct \"{op}\" epoch {epoch} fanned out with divergent \
                         (pgcid, members) views: {views:?}"
                    ),
                });
            }
        }
    }

    fn check_pgcids(&self, ctx: &InvariantCtx<'_>, out: &mut Vec<Violation>) {
        // Distinct RM-allocated ids in use: a recycled PGCID comes back a
        // generation later, a new value over the same id.
        let mut used: BTreeSet<u64> = BTreeSet::new();
        for e in ctx.obs.events_named("group.fanout") {
            let p = attr_u64(&e, "pgcid");
            if p != 0 {
                used.insert(pmix::pgcid_base(p));
            }
        }
        let mut refill_pgcids: Vec<u64> = Vec::new();
        for e in ctx.obs.events_named("cid.refill") {
            let p = attr_u64(&e, "pgcid");
            if p == 0 {
                out.push(Violation {
                    invariant: "pgcid-accounting",
                    detail: format!("process {} refilled its exCID pool with pgcid 0", e.process),
                });
            }
            used.insert(pmix::pgcid_base(p));
            refill_pgcids.push(p);
        }
        // A PGCID may feed one refill per *lifetime*: its first use plus one
        // more for every time a lead recycled it into a pool.
        let mut refill_counts: BTreeMap<u64, u64> = BTreeMap::new();
        for p in &refill_pgcids {
            *refill_counts.entry(*p).or_insert(0) += 1;
        }
        let mut recycled: BTreeMap<u64, u64> = BTreeMap::new();
        for e in ctx.obs.events_named("pgcid.recycled") {
            *recycled.entry(attr_u64(&e, "pgcid")).or_insert(0) += 1;
        }
        for (p, n) in &refill_counts {
            let allowed = 1 + recycled.get(p).copied().unwrap_or(0);
            if *n > allowed {
                out.push(Violation {
                    invariant: "pgcid-accounting",
                    detail: format!(
                        "pgcid {p} fed {n} exCID refills but was recycled only {} time(s)",
                        allowed - 1
                    ),
                });
            }
        }
        let allocated = ctx.obs.sum_counters("pmix", "pgcid_allocated");
        if (used.len() as u64) > allocated {
            out.push(Violation {
                invariant: "pgcid-accounting",
                detail: format!(
                    "{} distinct PGCIDs in use but RM only allocated {allocated}",
                    used.len()
                ),
            });
        }
    }

    fn check_failure_delivery(&self, ctx: &InvariantCtx<'_>, out: &mut Vec<Violation>) {
        // A fresh watcher replays every prior death: the late-subscriber
        // guarantee means its replay IS the fabric's failure knowledge.
        let mut watcher = ctx.fabric.watch_failures();
        let mut seen: BTreeSet<EndpointId> = BTreeSet::new();
        // Outside a turn the replay has landed when `watch_failures`
        // returns, and every kill has finished its turn: nothing is late.
        while let Some(ev) = watcher.try_recv() {
            seen.insert(ev.endpoint);
        }
        let expected: BTreeSet<EndpointId> = ctx.expected_dead.iter().copied().collect();
        for ep in expected.difference(&seen) {
            out.push(Violation {
                invariant: "failure-delivery",
                detail: format!("killed endpoint {ep:?} never reached failure watchers"),
            });
        }
        for ep in seen.difference(&expected) {
            out.push(Violation {
                invariant: "failure-delivery",
                detail: format!("watchers saw a death nobody injected: {ep:?}"),
            });
        }
    }

    fn check_reinit(&self, ctx: &InvariantCtx<'_>, out: &mut Vec<Violation>) {
        if ctx.reinit_ok == Some(false) {
            out.push(Violation {
                invariant: "reinit",
                detail: "session re-initialization after the kill failed".into(),
            });
        }
    }

    fn check_fault_counters(&self, ctx: &InvariantCtx<'_>, out: &mut Vec<Violation>) {
        let count = |classes: &[FaultClass]| {
            ctx.trace.iter().filter(|r| classes.contains(&r.class)).count() as u64
        };
        let pairs = [
            ("faults_dropped", count(&[FaultClass::Drop, FaultClass::Partition])),
            ("faults_delayed", count(&[FaultClass::Delay])),
            ("faults_duplicated", count(&[FaultClass::Duplicate])),
        ];
        for (name, traced) in pairs {
            let counted = ctx.obs.sum_counters("fabric", name);
            if counted != traced {
                out.push(Violation {
                    invariant: "fault-counter-match",
                    detail: format!("fabric {name} = {counted} but the trace holds {traced}"),
                });
            }
        }
    }

    fn check_pset_epochs(&self, ctx: &InvariantCtx<'_>, out: &mut Vec<Violation>) {
        // The bridge emits one `pset.update` per registry change under the
        // emission lock, so ring order is publication order: epochs must be
        // strictly increasing across all psets (the epoch is global).
        let updates = ctx.obs.events_named("pset.update");
        let epochs: Vec<u64> = updates.iter().map(|e| attr_u64(e, "epoch")).collect();
        for w in epochs.windows(2) {
            if w[0] >= w[1] {
                out.push(Violation {
                    invariant: "pset-epoch-monotonic",
                    detail: format!(
                        "pset.update stream is not strictly increasing: {} then {}",
                        w[0], w[1]
                    ),
                });
            }
        }
        // Every rebuild must have pinned a published epoch.
        let published: BTreeSet<u64> = epochs.iter().copied().collect();
        for e in ctx.obs.events_named("session.rebuild") {
            let epoch = attr_u64(&e, "epoch");
            if !published.contains(&epoch) {
                out.push(Violation {
                    invariant: "rebuild-epoch-published",
                    detail: format!(
                        "process {} rebuilt '{}' at epoch {epoch}, which the registry \
                         never published",
                        e.process,
                        attr_str(&e, "pset"),
                    ),
                });
            }
        }
    }

    fn check_stale_epochs(&self, ctx: &InvariantCtx<'_>, out: &mut Vec<Violation>) {
        for e in ctx.obs.events_named("elastic.retire") {
            let stale = attr_u64(&e, "stale_unexpected");
            if stale > 0 {
                out.push(Violation {
                    invariant: "stale-epoch",
                    detail: format!(
                        "process {} retired its '{}' epoch-{} communicator with {stale} \
                         unexpected message(s) still queued — traffic crossed an epoch \
                         boundary",
                        e.process,
                        attr_str(&e, "pset"),
                        attr_u64(&e, "epoch"),
                    ),
                });
            }
        }
    }

    fn check_request_terminal(&self, ctx: &InvariantCtx<'_>, out: &mut Vec<Violation>) {
        let mut terminal: BTreeSet<(String, u64)> = BTreeSet::new();
        for name in ["req.completed", "req.failed"] {
            for e in ctx.obs.events_named(name) {
                terminal.insert((e.process.clone(), attr_u64(&e, "id")));
            }
        }
        for e in ctx.obs.events_named("req.issued") {
            let key = (e.process.clone(), attr_u64(&e, "id"));
            // No kill exemption: a request on a killed endpoint must still
            // terminate — its stages *fail* when the fabric is gone, and
            // both `wait` and drop drive the machine to that terminal state.
            if terminal.contains(&key) {
                continue;
            }
            out.push(Violation {
                invariant: "request-terminal",
                detail: format!(
                    "process {} issued setup request {} ({}) that never completed, \
                     failed, or was cancelled",
                    key.0,
                    key.1,
                    attr_str(&e, "op"),
                ),
            });
        }
    }

    fn check_stall_terminal(&self, ctx: &InvariantCtx<'_>, out: &mut Vec<Violation>) {
        let mut stalls: BTreeMap<(String, u64), (u64, u64)> = BTreeMap::new();
        for e in ctx.obs.events_named("req.stalled") {
            stalls.entry((e.process.clone(), attr_u64(&e, "id"))).or_default().0 += 1;
        }
        for e in ctx.obs.events_named("req.unstalled") {
            stalls.entry((e.process.clone(), attr_u64(&e, "id"))).or_default().1 += 1;
        }
        let mut terminal: BTreeSet<(String, u64)> = BTreeSet::new();
        for name in ["req.completed", "req.failed"] {
            for e in ctx.obs.events_named(name) {
                terminal.insert((e.process.clone(), attr_u64(&e, "id")));
            }
        }
        for ((process, id), (stalled, unstalled)) in stalls {
            // Episodes alternate stall → unstall; at most one episode can
            // be open at the end, and only if a terminal event closed it.
            if stalled > unstalled + 1 || (stalled == unstalled + 1 && !terminal.contains(&(process.clone(), id))) {
                out.push(Violation {
                    invariant: "stall-terminal",
                    detail: format!(
                        "process {process} request {id}: {stalled} stall(s), \
                         {unstalled} clear(s), no terminal state — a wedged \
                         construction the watchdog flagged but nothing resolved"
                    ),
                });
            } else if unstalled > stalled {
                out.push(Violation {
                    invariant: "stall-terminal",
                    detail: format!(
                        "process {process} request {id}: {unstalled} unstall \
                         event(s) but only {stalled} stall(s) — watchdog \
                         accounting is broken"
                    ),
                });
            }
        }
    }

    fn check_lazy_resolve_terminal(&self, ctx: &InvariantCtx<'_>, out: &mut Vec<Violation>) {
        // Per (process, peer): resolutions begun vs. terminated. Lazy
        // resolution is a per-peer state machine (one fetch in flight per
        // peer, later senders park behind it), so the pair counts must
        // balance exactly once the run has drained.
        let mut tallies: BTreeMap<(String, String), (u64, u64)> = BTreeMap::new();
        for e in ctx.obs.events_named("pml.lazy_resolve") {
            let key = (e.process.clone(), attr_str(&e, "peer"));
            let entry = tallies.entry(key.clone()).or_default();
            match attr_str(&e, "phase").as_str() {
                "begin" => entry.0 += 1,
                "end" => {
                    entry.1 += 1;
                    let outcome = attr_str(&e, "outcome");
                    if outcome != "resolved" && outcome != "failed" {
                        out.push(Violation {
                            invariant: "lazy-resolve-terminal",
                            detail: format!(
                                "process {} ended its resolution of peer {} with \
                                 untyped outcome \"{outcome}\"",
                                key.0, key.1
                            ),
                        });
                    }
                }
                other => {
                    out.push(Violation {
                        invariant: "lazy-resolve-terminal",
                        detail: format!(
                            "process {} emitted a lazy-resolve event with unknown \
                             phase \"{other}\" for peer {}",
                            key.0, key.1
                        ),
                    });
                }
            }
        }
        for ((process, peer), (begins, ends)) in tallies {
            if begins != ends {
                out.push(Violation {
                    invariant: "lazy-resolve-terminal",
                    detail: format!(
                        "process {process} began {begins} resolution(s) of peer \
                         {peer} but ended {ends} — a send is parked behind a \
                         KVS fetch that never terminated"
                    ),
                });
            }
        }
    }

    fn check_survivors_exclude_dead(&self, ctx: &InvariantCtx<'_>, out: &mut Vec<Violation>) {
        let dead: BTreeSet<EndpointId> = ctx.expected_dead.iter().copied().collect();
        for (pset, members) in &ctx.tracked_psets {
            for ep in members {
                if dead.contains(ep) {
                    out.push(Violation {
                        invariant: "survivors-exclude-dead",
                        detail: format!(
                            "survivors pset '{pset}' still names killed endpoint {ep:?} \
                             at run end — the failure bridge never pruned it"
                        ),
                    });
                }
            }
        }
    }

    fn check_cid_agreement(&self, ctx: &InvariantCtx<'_>, out: &mut Vec<Violation>) {
        for name in ["refills", "derivations"] {
            let values: BTreeSet<u64> = ctx
                .cid_agree
                .iter()
                .map(|p| ctx.obs.counter_value(p, "cid", name))
                .collect();
            if values.len() > 1 {
                out.push(Violation {
                    invariant: "cid-agreement",
                    detail: format!(
                        "cid.{name} diverges across ranks {:?}: {values:?}",
                        ctx.cid_agree
                    ),
                });
            }
        }
    }
}

fn attr_u64(e: &obs::Event, k: &str) -> u64 {
    e.attr(k).and_then(|v| v.as_u64()).unwrap_or(0)
}

fn attr_str(e: &obs::Event, k: &str) -> String {
    e.attr(k).and_then(|v| v.as_str()).unwrap_or("").to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{CostModel, NodeId};

    fn ctx_for<'a>(
        obs: &'a obs::Registry,
        fabric: &'a Fabric,
        trace: &'a [FaultRecord],
    ) -> InvariantCtx<'a> {
        InvariantCtx {
            obs,
            fabric,
            trace,
            expected_dead: Vec::new(),
            reinit_ok: None,
            cid_agree: Vec::new(),
            tracked_psets: Vec::new(),
        }
    }

    #[test]
    fn clean_world_has_no_violations() {
        let fabric = Fabric::new(CostModel::zero());
        let obs = fabric.obs();
        let v = InvariantChecker::standard().check(&ctx_for(&obs, &fabric, &[]));
        assert!(v.is_empty(), "unexpected violations: {v:?}");
    }

    #[test]
    fn duplicate_handshake_is_flagged() {
        let fabric = Fabric::new(CostModel::zero());
        let obs = fabric.obs();
        let attrs = || {
            vec![
                ("pgcid", 5u64.into()),
                ("derivation", 0u64.into()),
                ("peer", 1u64.into()),
            ]
        };
        obs.event("ep1", "pml", "pml.handshake", attrs());
        obs.event("ep1", "pml", "pml.handshake", attrs());
        obs.counter("ep1", "pml", "handshakes").add(2);
        // Account for the pgcid so only the handshake check trips.
        obs.counter("server:0", "pmix", "pgcid_allocated").inc();
        let v = InvariantChecker::standard().check(&ctx_for(&obs, &fabric, &[]));
        assert_eq!(v.len(), 1, "got: {v:?}");
        assert_eq!(v[0].invariant, "handshake-unique");
    }

    #[test]
    fn rehandshake_across_cache_generations_is_legal() {
        let fabric = Fabric::new(CostModel::zero());
        let obs = fabric.obs();
        let attrs = |generation: u64| {
            vec![
                ("pgcid", 5u64.into()),
                ("derivation", 0u64.into()),
                ("peer", 1u64.into()),
                ("cache_gen", generation.into()),
            ]
        };
        // Same (process, exCID, peer) twice — legal because an eviction
        // bumped the generation between the two completions.
        obs.event("ep1", "pml", "pml.handshake", attrs(0));
        obs.event("ep1", "pml", "pml.handshake", attrs(3));
        obs.counter("ep1", "pml", "handshakes").add(2);
        obs.counter("server:0", "pmix", "pgcid_allocated").inc();
        let v = InvariantChecker::standard().check(&ctx_for(&obs, &fabric, &[]));
        assert!(v.is_empty(), "got: {v:?}");
        // A third completion reusing generation 3 is the real bug.
        obs.event("ep1", "pml", "pml.handshake", attrs(3));
        obs.counter("ep1", "pml", "handshakes").inc();
        let v = InvariantChecker::standard().check(&ctx_for(&obs, &fabric, &[]));
        assert_eq!(v.len(), 1, "got: {v:?}");
        assert_eq!(v[0].invariant, "handshake-unique");
    }

    #[test]
    fn recycled_pgcid_may_feed_one_more_refill() {
        let fabric = Fabric::new(CostModel::zero());
        let obs = fabric.obs();
        let refill = || {
            obs.event("r0", "cid", "cid.refill", vec![("pgcid", 9u64.into())]);
        };
        obs.counter("server:0", "pmix", "pgcid_allocated").inc();
        refill();
        refill();
        // Two refills of pgcid 9 with no recycle in between: a violation.
        let v = InvariantChecker::standard().check(&ctx_for(&obs, &fabric, &[]));
        assert_eq!(v.len(), 1, "got: {v:?}");
        assert_eq!(v[0].invariant, "pgcid-accounting");
        // The lead's recycle legitimizes the reuse.
        obs.event("server:0", "pmix", "pgcid.recycled", vec![("pgcid", 9u64.into())]);
        let v = InvariantChecker::standard().check(&ctx_for(&obs, &fabric, &[]));
        assert!(v.is_empty(), "got: {v:?}");
    }

    #[test]
    fn fanout_after_abort_is_flagged() {
        let fabric = Fabric::new(CostModel::zero());
        let obs = fabric.obs();
        let base = || {
            vec![
                ("op", "g".into()),
                ("kind", "group_construct".into()),
                ("epoch", 1u64.into()),
            ]
        };
        obs.event("server:0", "pmix", "group.abort", {
            let mut a = base();
            a.push(("reason", "timeout".into()));
            a
        });
        obs.event("server:0", "pmix", "group.fanout", {
            let mut a = base();
            a.push(("members", 2u64.into()));
            a.push(("pgcid", 0u64.into()));
            a
        });
        let v = InvariantChecker::standard().check(&ctx_for(&obs, &fabric, &[]));
        assert_eq!(v.len(), 1, "got: {v:?}");
        assert_eq!(v[0].invariant, "fanout-abort-exclusive");
    }

    #[test]
    fn pgcid_overdraw_and_disagreement_are_flagged() {
        let fabric = Fabric::new(CostModel::zero());
        let obs = fabric.obs();
        // Two servers fan the same epoch out with different pgcids, and the
        // RM never allocated anything.
        for (srv, pgcid) in [("server:0", 11u64), ("server:1", 12u64)] {
            obs.event(srv, "pmix", "group.fanout", vec![
                ("op", "g".into()),
                ("kind", "group_construct".into()),
                ("epoch", 1u64.into()),
                ("members", 2u64.into()),
                ("pgcid", pgcid.into()),
            ]);
        }
        let v = InvariantChecker::standard().check(&ctx_for(&obs, &fabric, &[]));
        let names: Vec<&str> = v.iter().map(|x| x.invariant).collect();
        assert!(names.contains(&"pgcid-agreement"), "got: {v:?}");
        assert!(names.contains(&"pgcid-accounting"), "got: {v:?}");
    }

    #[test]
    fn failure_delivery_mismatches_are_flagged() {
        let fabric = Fabric::new(CostModel::zero());
        let obs = fabric.obs();
        let a = fabric.register(NodeId(0));
        let b = fabric.register(NodeId(0));
        fabric.kill(a.id());
        // `a` died but is not expected; `b` is expected but alive.
        let mut ctx = ctx_for(&obs, &fabric, &[]);
        ctx.expected_dead = vec![b.id()];
        let v = InvariantChecker::standard().check(&ctx);
        assert_eq!(v.len(), 2, "got: {v:?}");
        assert!(v.iter().all(|x| x.invariant == "failure-delivery"));
    }

    #[test]
    fn fault_counters_must_match_trace() {
        let fabric = Fabric::new(CostModel::zero());
        let obs = fabric.obs();
        let trace = vec![FaultRecord {
            rel_src: 0,
            rel_dst: 1,
            pair_seq: 0,
            class: FaultClass::Drop,
            detail: 0,
            len: 4,
        }];
        // Trace says one drop, fabric counted none.
        let v = InvariantChecker::standard().check(&ctx_for(&obs, &fabric, &trace));
        assert_eq!(v.len(), 1, "got: {v:?}");
        assert_eq!(v[0].invariant, "fault-counter-match");
    }

    #[test]
    fn pset_epoch_violations_are_flagged() {
        let fabric = Fabric::new(CostModel::zero());
        let obs = fabric.obs();
        let update = |epoch: u64| {
            obs.event("registry", "pmix", "pset.update", vec![
                ("pset", "app://x".into()),
                ("epoch", epoch.into()),
                ("kind", "membership".into()),
                ("members", 2u64.into()),
            ]);
        };
        update(1);
        update(3);
        update(3); // duplicate epoch: monotonicity broken
        // A rebuild against an epoch nobody published.
        obs.event("ep9", "session", "session.rebuild", vec![
            ("pset", "app://x".into()),
            ("epoch", 7u64.into()),
        ]);
        let v = InvariantChecker::standard().check(&ctx_for(&obs, &fabric, &[]));
        let names: Vec<&str> = v.iter().map(|x| x.invariant).collect();
        assert!(names.contains(&"pset-epoch-monotonic"), "got: {v:?}");
        assert!(names.contains(&"rebuild-epoch-published"), "got: {v:?}");
        assert_eq!(v.len(), 2, "got: {v:?}");
    }

    #[test]
    fn stale_retire_is_flagged_and_clean_retire_is_not() {
        let fabric = Fabric::new(CostModel::zero());
        let obs = fabric.obs();
        let retire = |stale: u64| {
            obs.event("ep4", "session", "elastic.retire", vec![
                ("pset", "app://x".into()),
                ("epoch", 2u64.into()),
                ("stale_unexpected", stale.into()),
            ]);
        };
        retire(0);
        let v = InvariantChecker::standard().check(&ctx_for(&obs, &fabric, &[]));
        assert!(v.is_empty(), "clean retire flagged: {v:?}");
        retire(3);
        let v = InvariantChecker::standard().check(&ctx_for(&obs, &fabric, &[]));
        assert_eq!(v.len(), 1, "got: {v:?}");
        assert_eq!(v[0].invariant, "stale-epoch");
        assert!(v[0].detail.contains("3 unexpected"));
    }

    #[test]
    fn stranded_setup_request_is_flagged() {
        let fabric = Fabric::new(CostModel::zero());
        let obs = fabric.obs();
        let ev = |name: &'static str, id: u64| {
            obs.event("ns:0", "req", name, vec![
                ("op", "comm_create_from_group".into()),
                ("id", id.into()),
            ]);
        };
        ev("req.issued", 1);
        ev("req.completed", 1);
        ev("req.issued", 2);
        ev("req.failed", 2);
        let v = InvariantChecker::standard().check(&ctx_for(&obs, &fabric, &[]));
        assert!(v.is_empty(), "terminated requests flagged: {v:?}");
        ev("req.issued", 3); // never reaches a terminal event
        let v = InvariantChecker::standard().check(&ctx_for(&obs, &fabric, &[]));
        assert_eq!(v.len(), 1, "got: {v:?}");
        assert_eq!(v[0].invariant, "request-terminal");
        assert!(v[0].detail.contains("request 3"));
    }

    #[test]
    fn stranded_lazy_resolution_is_flagged() {
        let fabric = Fabric::new(CostModel::zero());
        let obs = fabric.obs();
        let ev = |phase: &str, outcome: Option<&str>| {
            let mut attrs: obs::Attrs = vec![("peer", "job:1".into()), ("phase", phase.into())];
            if let Some(o) = outcome {
                attrs.push(("outcome", o.into()));
            }
            obs.event("job:0", "pml", "pml.lazy_resolve", attrs);
        };
        // A resolved round trip and a typed failure are both clean.
        ev("begin", None);
        ev("end", Some("resolved"));
        ev("begin", None);
        ev("end", Some("failed"));
        let v = InvariantChecker::standard().check(&ctx_for(&obs, &fabric, &[]));
        assert!(v.is_empty(), "terminated resolutions flagged: {v:?}");
        // A begin with no end: a send parked forever.
        ev("begin", None);
        let v = InvariantChecker::standard().check(&ctx_for(&obs, &fabric, &[]));
        assert_eq!(v.len(), 1, "got: {v:?}");
        assert_eq!(v[0].invariant, "lazy-resolve-terminal");
        assert!(v[0].detail.contains("began 3"));
        // Closing it with an untyped outcome is its own violation.
        ev("end", Some("shrug"));
        let v = InvariantChecker::standard().check(&ctx_for(&obs, &fabric, &[]));
        assert_eq!(v.len(), 1, "got: {v:?}");
        assert!(v[0].detail.contains("untyped outcome"));
    }

    #[test]
    fn dead_member_in_survivors_pset_is_flagged() {
        let fabric = Fabric::new(CostModel::zero());
        let obs = fabric.obs();
        let a = fabric.register(NodeId(0));
        let b = fabric.register(NodeId(0));
        fabric.kill(a.id());
        let mut ctx = ctx_for(&obs, &fabric, &[]);
        ctx.expected_dead = vec![a.id()];
        // Live member only: clean.
        ctx.tracked_psets = vec![("mpi://survivors/j".into(), vec![b.id()])];
        let v = InvariantChecker::standard().check(&ctx);
        assert!(v.is_empty(), "pruned pset flagged: {v:?}");
        // The killed endpoint still listed: the bridge lost the prune.
        ctx.tracked_psets = vec![("mpi://survivors/j".into(), vec![a.id(), b.id()])];
        let v = InvariantChecker::standard().check(&ctx);
        assert_eq!(v.len(), 1, "got: {v:?}");
        assert_eq!(v[0].invariant, "survivors-exclude-dead");
    }

    #[test]
    fn reinit_failure_and_cid_divergence_are_flagged() {
        let fabric = Fabric::new(CostModel::zero());
        let obs = fabric.obs();
        obs.counter("r0", "cid", "refills").inc();
        // r1 never refilled: divergence.
        let mut ctx = ctx_for(&obs, &fabric, &[]);
        ctx.reinit_ok = Some(false);
        ctx.cid_agree = vec!["r0".into(), "r1".into()];
        let v = InvariantChecker::standard().check(&ctx);
        let names: Vec<&str> = v.iter().map(|x| x.invariant).collect();
        assert!(names.contains(&"reinit"), "got: {v:?}");
        assert!(names.contains(&"cid-agreement"), "got: {v:?}");
    }
}
