//! The PMIx client handle: what a simulated process uses to talk to its
//! node-local server.

use crate::error::{PmixError, Result};
use crate::event::{EventCode, EventStream};
use crate::group::{GroupDirectives, GroupResult, InviteOutcome, PmixGroup};
use crate::server::{CollOutcome, PendingColl, PmixServer};
use crate::types::{ProcId, Rank};
use crate::value::PmixValue;
use crate::wire::OpKind;
use parking_lot::Mutex;
use simnet::NodeId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default timeout for blocking PMIx operations issued by this client.
const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

/// A process's PMIx client (analog of `PMIx_Init` … `PMIx_Finalize`).
///
/// Cloneable: MPI may hold one per session while the process holds another.
/// The underlying client registration is released when [`PmixClient::finalize`]
/// is called (PMIx itself reference-counts `PMIx_Init`; we mirror that by
/// making `finalize` explicit and idempotent at the server).
#[derive(Clone)]
pub struct PmixClient {
    proc: ProcId,
    /// `proc` interned in the fabric's obs registry (spans are keyed by it).
    obs_key: obs::ProcKey,
    server: Arc<PmixServer>,
    staged: Arc<Mutex<HashMap<String, PmixValue>>>,
    // Run-stable discriminator for this client's fence spans (fences have
    // no caller-supplied name to key on).
    fence_seq: Arc<AtomicU64>,
}

impl PmixClient {
    /// Initialize a client for `proc` against its node-local `server`.
    pub fn init(server: Arc<PmixServer>, proc: ProcId) -> Self {
        server.attach_client(&proc);
        Self {
            obs_key: server.obs().intern(&proc.to_string()),
            proc,
            server,
            staged: Arc::new(Mutex::new(HashMap::new())),
            fence_seq: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Open the client-side operation span (`pmix.fence` or
    /// `pmix.group_construct`, keyed `key`) and run the
    /// collective's local fan-in under it. The span is *entered* whenever
    /// this thread is inside the server, so the fan-in links it as causal
    /// predecessor and any fault injected on a message this thread sends is
    /// attributed to it. Every collective — fence or group construct,
    /// blocking or not — starts here and ends in [`PendingOp::close`].
    #[allow(clippy::too_many_arguments)]
    fn begin_coll(
        &self,
        key: &str,
        kind: OpKind,
        name: &str,
        members: &[ProcId],
        directives: &GroupDirectives,
        kvs: HashMap<String, PmixValue>,
    ) -> Result<PendingOp> {
        let span = self.server.obs().span(self.obs_key, span_names(kind).0, key);
        let begun = {
            let _entered = span.enter();
            self.server.coll_begin(kind, name, members, directives, &self.proc, kvs)
        };
        match begun {
            Ok(pending) => Ok(PendingOp {
                client: self.clone(),
                pending: Some(pending),
                span: Some(span),
                kind,
                key: key.to_owned(),
            }),
            Err(e) => {
                span.end();
                Err(e)
            }
        }
    }

    /// Release the client registration.
    pub fn finalize(&self) {
        self.server.detach_client(&self.proc);
    }

    /// This client's process id.
    pub fn proc(&self) -> &ProcId {
        &self.proc
    }

    /// This client's process as interned in the fabric's obs registry.
    pub fn obs_key(&self) -> obs::ProcKey {
        self.obs_key
    }

    /// This client's rank within its namespace.
    pub fn rank(&self) -> Rank {
        self.proc.rank()
    }

    /// The node this client runs on.
    pub fn node(&self) -> NodeId {
        self.server.node()
    }

    /// The node-local server (escape hatch for advanced callers).
    pub fn server(&self) -> &Arc<PmixServer> {
        &self.server
    }

    // -- key-value exchange ------------------------------------------------

    /// Stage a key-value pair (visible to peers after [`PmixClient::commit`]).
    pub fn put(&self, key: &str, value: impl Into<PmixValue>) {
        self.staged.lock().insert(key.to_owned(), value.into());
    }

    /// Publish all staged pairs to the local server.
    pub fn commit(&self) {
        let staged: HashMap<String, PmixValue> = self.staged.lock().drain().collect();
        if !staged.is_empty() {
            self.server.commit_kvs(&self.proc, staged);
        }
    }

    /// Fetch `key` of `proc` (committed data; direct-modex for remote owners).
    pub fn get(&self, proc: &ProcId, key: &str) -> Result<PmixValue> {
        self.get_timeout(proc, key, DEFAULT_TIMEOUT)
    }

    /// [`PmixClient::get`] with an explicit timeout: begin a fetch ticket,
    /// then poll it, parking on the owner's KVS shard between polls. A dead
    /// or deregistered owner fails typed (`ProcTerminated` / `NotFound`) at
    /// once rather than running out the clock.
    pub fn get_timeout(&self, proc: &ProcId, key: &str, timeout: Duration) -> Result<PmixValue> {
        let deadline = Instant::now() + timeout;
        let mut ticket = self.server.fetch_begin(proc, key)?;
        loop {
            if let Some(res) = self.server.fetch_poll(&mut ticket) {
                return res;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                self.server.fetch_cancel(&mut ticket);
                return Err(PmixError::Timeout);
            }
            self.server.fetch_park(&ticket, left);
        }
    }

    // -- fences ------------------------------------------------------------

    /// Collective fence over `procs`. With `collect`, committed data of all
    /// participants is exchanged so later `get`s are local.
    pub fn fence(&self, procs: &[ProcId], collect: bool) -> Result<()> {
        self.fence_timeout(procs, collect, DEFAULT_TIMEOUT)
    }

    /// [`PmixClient::fence`] with an explicit timeout.
    pub fn fence_timeout(&self, procs: &[ProcId], collect: bool, timeout: Duration) -> Result<()> {
        let kvs = if collect {
            self.commit();
            // The server snapshots this proc's full committed map.
            self.server_committed()
        } else {
            HashMap::new()
        };
        let directives = GroupDirectives::default()
            .without_pgcid()
            .with_timeout(Some(timeout));
        let seq = self.fence_seq.fetch_add(1, Ordering::Relaxed).to_string();
        self.begin_coll(&seq, OpKind::Fence, "", procs, &directives, kvs)?
            .wait()
            .map(|_| ())
    }

    /// The fence contribution: everything this process has committed so
    /// far, read back from the server's local store (cheap: same node).
    fn server_committed(&self) -> HashMap<String, PmixValue> {
        self.server.local_committed(&self.proc).unwrap_or_default()
    }

    // -- groups ------------------------------------------------------------

    /// Collectively construct a PMIx group over `members`
    /// (`PMIx_Group_construct`). Blocks for all members: exactly
    /// [`PmixClient::group_construct_nb`] + [`PendingGroup::wait`].
    pub fn group_construct(
        &self,
        name: &str,
        members: &[ProcId],
        directives: &GroupDirectives,
    ) -> Result<PmixGroup> {
        self.group_construct_nb(name, members, directives)?.wait()
    }

    /// Nonblocking group construct (`PMIx_Group_construct_nb` analog): run
    /// the local fan-in and return a handle to poll. The operation span
    /// opens here, stays open across polls, and closes (with the `.done`
    /// release edge linking the server's fan-out) when the result is
    /// observed.
    pub fn group_construct_nb(
        &self,
        name: &str,
        members: &[ProcId],
        directives: &GroupDirectives,
    ) -> Result<PendingGroup> {
        let kind = OpKind::GroupConstruct;
        let op = self.begin_coll(name, kind, name, members, directives, HashMap::new())?;
        Ok(PendingGroup { op, request_pgcid: directives.request_pgcid })
    }

    /// Release this member's hold on a group (`PMIx_Group_destruct`). Local
    /// and one-way: the node's server records the release and returns at
    /// once. When every local member has released the group or died, the
    /// server forgets it and reports to the group's lead server, which
    /// recycles the PGCID once every member server has reported (see
    /// `server/pgcid.rs`). Nothing waits on another member, so `timeout` is
    /// unused and the call never fails; both stay for the PMIx signature.
    pub fn group_destruct(&self, group: &PmixGroup, _timeout: Option<Duration>) -> Result<()> {
        self.server.group_release(group, &self.proc);
        Ok(())
    }

    /// Leave a group asynchronously; remaining members get a
    /// [`EventCode::GroupMemberLeft`] event.
    pub fn group_leave(&self, group: &PmixGroup) -> Result<()> {
        self.server.group_leave(group.name(), &self.proc)
    }

    /// Asynchronous construction, initiator side: invite `invited` to join
    /// `name`. Follow with [`PmixClient::group_invite_wait`].
    pub fn group_invite(
        &self,
        name: &str,
        invited: &[ProcId],
        directives: &GroupDirectives,
    ) -> Result<()> {
        self.server.invite(&self.proc, name, invited, directives)
    }

    /// Initiator side: wait for all invitees to respond; returns the final
    /// membership (decliners and dead invitees removed) and PGCID.
    ///
    /// An invitee that never answers within `timeout` fails the whole wait
    /// with [`PmixError::Timeout`]; use
    /// [`PmixClient::group_invite_wait_report`] to get the partial group and
    /// per-invitee outcomes instead.
    pub fn group_invite_wait(&self, name: &str, timeout: Duration) -> Result<PmixGroup> {
        let result = self.server.invite_wait(name, timeout)?;
        Ok(PmixGroup::new(name.to_owned(), &result))
    }

    /// Initiator side, detailed variant: wait for invitees, then return the
    /// finalized group *and* what happened to each invitee
    /// ([`InviteOutcome::Accepted`] / `Declined` / `Dead` / `TimedOut`).
    /// Unresponsive invitees are dropped, not fatal.
    pub fn group_invite_wait_report(
        &self,
        name: &str,
        timeout: Duration,
    ) -> Result<(PmixGroup, Vec<(ProcId, InviteOutcome)>)> {
        let report = self.server.invite_wait_report(name, timeout)?;
        Ok((PmixGroup::new(name.to_owned(), &report.group), report.outcomes))
    }

    /// Invitee side: respond to a [`EventCode::GroupInvited`] event.
    pub fn group_join(&self, name: &str, inviter: &ProcId, accept: bool) -> Result<()> {
        self.server.join_reply(name, &self.proc, inviter, accept)
    }

    // -- events --------------------------------------------------------

    /// Register for events; `codes = None` receives everything.
    pub fn register_events(&self, codes: Option<Vec<EventCode>>) -> EventStream {
        self.server.subscribe(&self.proc, codes)
    }

    // -- job info & queries ----------------------------------------------

    /// Number of processes in this client's namespace (`PMIX_JOB_SIZE`).
    pub fn job_size(&self) -> Result<usize> {
        Ok(self.server.registry().namespace(self.proc.nspace())?.size())
    }

    /// Ranks co-located on this client's node (`PMIX_LOCAL_PEERS`).
    pub fn local_peers(&self) -> Result<Vec<Rank>> {
        Ok(self
            .server
            .registry()
            .namespace(self.proc.nspace())?
            .local_peers(self.server.node()))
    }

    /// Query: names of all process sets (`PMIX_QUERY_PSET_NAMES`).
    pub fn query_pset_names(&self) -> Vec<String> {
        self.server.registry().pset_names()
    }

    /// Query: membership of one process set.
    pub fn query_pset_membership(&self, name: &str) -> Result<Vec<ProcId>> {
        self.server.registry().pset_members(name)
    }

    /// Query: a self-consistent snapshot of the whole pset table. Batches
    /// asking for count + names + membership answer every key from one
    /// snapshot so concurrent define/undefine cannot make them disagree.
    pub fn query_pset_snapshot(&self) -> crate::nspace::PsetSnapshot {
        self.server.registry().pset_snapshot()
    }

    /// Subscribe to pset change events with replay: the stream starts with
    /// synthetic `PsetDefined`/`PsetDeleted` events describing the current
    /// table (at their real epochs), then carries live changes exactly once.
    pub fn watch_psets(&self) -> EventStream {
        self.server.subscribe_psets(&self.proc)
    }
}

impl std::fmt::Debug for PmixClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmixClient").field("proc", &self.proc).finish()
    }
}

/// A collective in flight under its client-side operation span (see
/// [`PmixClient::begin_coll`]). Dropping it unobserved abandons this
/// member's observation of the collective — the op itself still completes
/// server-side (see the server's abandonment bookkeeping).
struct PendingOp {
    client: PmixClient,
    pending: Option<PendingColl>,
    span: Option<obs::Span>,
    kind: OpKind,
    key: String,
}

/// The client-side span of a collective and its `.done` release child.
fn span_names(kind: OpKind) -> (&'static str, &'static str) {
    match kind {
        OpKind::Fence => ("pmix.fence", "pmix.fence.done"),
        OpKind::GroupConstruct => ("pmix.group_construct", "pmix.group_construct.done"),
    }
}

impl PendingOp {
    /// `Some(result)` exactly once when the collective finishes.
    fn poll(&mut self) -> Option<Result<CollOutcome>> {
        let pending = self.pending.as_mut()?;
        let res = {
            let _entered = self.span.as_ref().expect("span lives while pending").enter();
            self.client.server.coll_poll(pending)?
        };
        self.pending = None;
        Some(self.close(res))
    }

    /// Block until the collective completes, fails or times out.
    fn wait(mut self) -> Result<CollOutcome> {
        let Some(pending) = self.pending.take() else {
            return Err(PmixError::BadParam(format!("waited on finished {}", self.key)));
        };
        let res = {
            let _entered = self.span.as_ref().expect("span lives while pending").enter();
            self.client.server.coll_wait(pending)
        };
        self.close(res)
    }

    /// End the operation span. On success a zero-duration `<name>.done`
    /// child is emitted first that links the server's fan-out context: the
    /// release edge `fanout → done` closes the cross-process loop
    /// `op → fanin → xchg → fanout → op.done` without a cycle.
    fn close(&mut self, res: Result<CollOutcome>) -> Result<CollOutcome> {
        let span = self.span.take().expect("span lives until completion");
        if let Ok(out) = &res {
            let mut done = self.client.server.obs().span_with_parent(
                self.client.obs_key,
                span_names(self.kind).1,
                &self.key,
                Some(span.context()),
            );
            if let Some(ctx) = out.ctx {
                done.link(ctx);
            }
            done.end();
        }
        span.end();
        res
    }
}

impl Drop for PendingOp {
    fn drop(&mut self) {
        if let Some(mut pending) = self.pending.take() {
            self.client.server.coll_abandon(&mut pending);
            if let Some(span) = self.span.take() {
                span.end();
            }
        }
    }
}

/// An in-flight nonblocking group construct, returned by
/// [`PmixClient::group_construct_nb`].
///
/// Poll with [`PendingGroup::try_group`] or block in
/// [`PendingGroup::wait`]. Dropping the handle abandons this member's
/// observation of the collective (the construct itself still completes
/// server-side — construction is collective, so cancellation must be too).
pub struct PendingGroup {
    op: PendingOp,
    request_pgcid: bool,
}

impl PendingGroup {
    /// The group name this construct will produce.
    pub fn name(&self) -> &str {
        &self.op.key
    }

    /// True once the construct has delivered its result.
    pub fn is_finished(&self) -> bool {
        self.op.pending.is_none()
    }

    /// Test for completion: `Some(result)` exactly once when the construct
    /// finishes; `None` while still in flight.
    pub fn try_group(&mut self) -> Option<Result<PmixGroup>> {
        let res = self.op.poll()?;
        Some(into_group(&self.op.key, self.request_pgcid, res))
    }

    /// Park until the construct is ready to observe or `limit` elapses,
    /// without observing it: a subsequent [`PendingGroup::try_group`] picks
    /// the result up. Lets wait-style callers of the nonblocking API ride
    /// the server condvar instead of poll-spinning.
    pub fn park(&mut self, limit: Duration) {
        if let Some(pending) = self.op.pending.as_ref() {
            self.op.client.server.coll_park(pending, limit);
        }
    }

    /// Block until the construct completes.
    pub fn wait(self) -> Result<PmixGroup> {
        let name = self.op.key.clone();
        into_group(&name, self.request_pgcid, self.op.wait())
    }
}

fn into_group(name: &str, request_pgcid: bool, res: Result<CollOutcome>) -> Result<PmixGroup> {
    let out = res?;
    if request_pgcid && out.pgcid.is_none() {
        return Err(PmixError::Internal("construct completed without PGCID".into()));
    }
    Ok(PmixGroup::new(name.to_owned(), &GroupResult { members: out.members, pgcid: out.pgcid }))
}

impl std::fmt::Debug for PendingGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingGroup")
            .field("name", &self.name())
            .field("finished", &self.is_finished())
            .finish()
    }
}
