//! The MPI Sessions API (paper §I and §III-B6).
//!
//! `MPI_Session_init` is **local** (no communication), thread-safe, and
//! callable any number of times — including after all previous sessions
//! (and the WPM) have been finalized. A session exposes the runtime's
//! process sets; a pset name becomes an [`MpiGroup`]
//! (`MPI_Group_from_session_pset`), and a group becomes a communicator
//! (`MPI_Comm_create_from_group` — see [`crate::comm::Comm`]).
//!
//! The three built-in psets of the prototype are provided: `mpi://world`,
//! `mpi://self` and `mpi://shared` (the processes of the local node);
//! additional psets come from PMIx (defined at launch via
//! `JobSpec::with_pset`, the `prun --pset` analog).

use crate::attr::AttrStore;
use crate::errhandler::ErrHandler;
use crate::error::{ErrClass, MpiError, Result};
use crate::group::{MpiGroup, ProcRef};
use crate::info::{keys, Info};
use crate::instance::{MpiProcess, SESSION_MIN_SUBSYSTEMS};
use crate::request::{stage, SetupRequest, SetupStep};
use prrte::ProcCtx;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Built-in pset: every process of the job.
pub const PSET_WORLD: &str = "mpi://world";
/// Built-in pset: the calling process alone.
pub const PSET_SELF: &str = "mpi://self";
/// Built-in pset: the processes sharing the caller's node.
pub const PSET_SHARED: &str = "mpi://shared";

/// MPI thread support levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ThreadLevel {
    /// `MPI_THREAD_SINGLE`
    Single,
    /// `MPI_THREAD_FUNNELED`
    Funneled,
    /// `MPI_THREAD_SERIALIZED`
    Serialized,
    /// `MPI_THREAD_MULTIPLE`
    Multiple,
}

impl ThreadLevel {
    /// Parse the proposal's `thread_level` info value.
    pub fn from_info_value(v: &str) -> Option<ThreadLevel> {
        Some(match v {
            "MPI_THREAD_SINGLE" => ThreadLevel::Single,
            "MPI_THREAD_FUNNELED" => ThreadLevel::Funneled,
            "MPI_THREAD_SERIALIZED" => ThreadLevel::Serialized,
            "MPI_THREAD_MULTIPLE" => ThreadLevel::Multiple,
            _ => return None,
        })
    }
}

struct SessionInner {
    id: u64,
    process: Arc<MpiProcess>,
    thread_level: ThreadLevel,
    errh: ErrHandler,
    info: Info,
    attrs: AttrStore,
    finalized: AtomicBool,
    /// Fence-free (lazy) init: peer endpoints are resolved on demand by
    /// the first send instead of being required up front (DESIGN.md §14).
    lazy: bool,
}

/// An MPI session handle.
#[derive(Clone)]
pub struct Session {
    inner: Arc<SessionInner>,
}

impl Session {
    /// `MPI_Session_init`: local, light-weight, thread-safe, repeatable.
    ///
    /// Initializes only the minimum subsystems a session object needs
    /// (refcounted; see [`crate::instance`]). Implemented as the
    /// `i`-variant plus `wait` (quiet — same engine, same observable
    /// behavior as the historical blocking call).
    pub fn init(
        ctx: &ProcCtx,
        requested: ThreadLevel,
        errh: ErrHandler,
        info: &Info,
    ) -> Result<Session> {
        Self::init_i_inner(ctx, requested, errh, info, true).wait()
    }

    /// Nonblocking `MPI_Session_init`: returns a [`SetupRequest`] whose
    /// stages split the two costs the blocking call times — bringing up
    /// the library's *resources* (`resources` stage: subsystems,
    /// refcounted) and constructing the session *handle* itself
    /// (`handle` stage: local, cheap); lazy init puts a local `publish`
    /// stage between them. All are one-shot stages — none answers
    /// `Pending` — so no driver ever parks on them and the blocking
    /// `init` costs exactly their work. Dropping the request before
    /// claiming the session finalizes it.
    pub fn init_i(
        ctx: &ProcCtx,
        requested: ThreadLevel,
        errh: ErrHandler,
        info: &Info,
    ) -> SetupRequest<Session> {
        Self::init_i_inner(ctx, requested, errh, info, false)
    }

    fn init_i_inner(
        ctx: &ProcCtx,
        requested: ThreadLevel,
        errh: ErrHandler,
        info: &Info,
        quiet: bool,
    ) -> SetupRequest<Session> {
        let process = MpiProcess::obtain(ctx);
        let m = process.metrics();
        let init_span = m.obs.span(m.key, "session.init", "");
        let info = info.dup();
        // The info object is the mode's one source: without the key (or
        // with any value but "lazy") the session is eager.
        let lazy = info.get(keys::INIT_MODE).is_some_and(|v| v == "lazy");
        let first = stage("resources", {
            let process = process.clone();
            move || {
                let m = process.metrics();
                let t_resources = std::time::Instant::now();
                let mut res_span = m.obs.span(m.key, "session.resources", "");
                let id = process.acquire_instance(SESSION_MIN_SUBSYSTEMS);
                res_span.add_work(SESSION_MIN_SUBSYSTEMS.len() as u64);
                res_span.end();
                let resources = t_resources.elapsed();
                m.init_resources_ns.record(resources);
                if lazy {
                    // Fence-free init: one extra local stage that publishes
                    // this rank's business card (put + commit, NO fence) and
                    // installs the on-demand peer resolver. Still zero
                    // synchronization with any peer.
                    Ok(SetupStep::Next(stage("publish", move || {
                        let m = process.metrics();
                        let mut pub_span = m.obs.span(m.key, "session.publish", "");
                        let pmix = process.pmix();
                        pmix.put(
                            pmix::value::keys::ENDPOINT,
                            pmix::PmixValue::U64(process.pml().endpoint_id().0),
                        );
                        pmix.commit();
                        process.pml().install_resolver(pmix::PeerResolver::new(pmix));
                        pub_span.add_work(1);
                        pub_span.end();
                        m.lazy_inits.inc();
                        Ok(SetupStep::Next(Self::handle_stage(
                            process, requested, errh, info, id, true,
                        )))
                    })))
                } else {
                    Ok(SetupStep::Next(Self::handle_stage(
                        process, requested, errh, info, id, false,
                    )))
                }
            }
        });
        SetupRequest::issue(
            process,
            "session_init",
            Some(init_span),
            quiet,
            first,
            Some(Box::new(|s: Session| {
                let _ = s.finalize();
            })),
        )
    }

    /// The final init stage, shared by the eager and lazy paths:
    /// constructs the session handle itself (local, cheap).
    fn handle_stage(
        process: Arc<MpiProcess>,
        requested: ThreadLevel,
        errh: ErrHandler,
        info: Info,
        id: u64,
        lazy: bool,
    ) -> Box<dyn crate::request::SetupStage<Session>> {
        stage("handle", move || {
            let t_handle = std::time::Instant::now();
            let m = process.metrics();
            let mut handle_span = m.obs.span(m.key, "session.handle", "");
            handle_span.add_work(1);
            // Honor PML tuning from the info object.
            if let Some(limit) = info.get_int(keys::EAGER_LIMIT) {
                if limit > 0 {
                    process.pml().set_eager_limit(limit as usize);
                }
            }
            let thread_level = info
                .get(keys::THREAD_LEVEL)
                .and_then(|v| ThreadLevel::from_info_value(&v))
                .unwrap_or(requested);
            let session = Session {
                inner: Arc::new(SessionInner {
                    id,
                    process: process.clone(),
                    thread_level,
                    errh,
                    info,
                    attrs: AttrStore::new(),
                    finalized: AtomicBool::new(false),
                    lazy,
                }),
            };
            handle_span.end();
            let m = process.metrics();
            m.init_handle_ns.record(t_handle.elapsed());
            m.sessions_initialized.inc();
            Ok(SetupStep::Done(session))
        })
    }

    /// Whether this session was initialized in lazy (fence-free) mode.
    pub fn is_lazy(&self) -> bool {
        self.inner.lazy
    }

    /// The granted thread support level.
    pub fn thread_level(&self) -> ThreadLevel {
        self.inner.thread_level
    }

    /// Session-local id (diagnostics).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// The session's error handler.
    pub fn errhandler(&self) -> &ErrHandler {
        &self.inner.errh
    }

    /// The session's info object (`MPI_Session_get_info`).
    pub fn info(&self) -> Info {
        self.inner.info.dup()
    }

    /// The session's attribute store.
    pub fn attrs(&self) -> &AttrStore {
        &self.inner.attrs
    }

    /// The owning process (crate plumbing).
    pub(crate) fn process(&self) -> &Arc<MpiProcess> {
        &self.inner.process
    }

    pub(crate) fn check_live(&self) -> Result<()> {
        if self.inner.finalized.load(Ordering::Acquire) {
            return Err(MpiError::new(ErrClass::Session, "session has been finalized"));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Process sets
    // ------------------------------------------------------------------

    /// `MPI_Session_get_num_psets`.
    pub fn num_psets(&self) -> Result<usize> {
        Ok(self.pset_names()?.len())
    }

    /// All pset names visible to this session: the three built-ins plus
    /// everything the runtime defines (`PMIX_QUERY_PSET_NAMES`).
    pub fn pset_names(&self) -> Result<Vec<String>> {
        self.check_live()?;
        let mut names = vec![
            PSET_WORLD.to_owned(),
            PSET_SELF.to_owned(),
            PSET_SHARED.to_owned(),
        ];
        names.extend(self.inner.process.pmix().query_pset_names());
        Ok(names)
    }

    /// `MPI_Session_get_nth_pset`.
    pub fn nth_pset(&self, n: usize) -> Result<String> {
        self.pset_names()?
            .get(n)
            .cloned()
            .ok_or_else(|| MpiError::new(ErrClass::Arg, format!("pset index {n} out of range")))
    }

    /// `MPI_Session_get_pset_info`: currently the membership size under
    /// the standard key `mpi_size`.
    pub fn pset_info(&self, name: &str) -> Result<Info> {
        let members = self.resolve_pset(name)?;
        let info = Info::new();
        info.set("mpi_size", &members.len().to_string());
        Ok(info)
    }

    /// `MPI_Group_from_session_pset`: local resolution of a pset name into
    /// a group bound to this session's process (`i`-variant + `wait`).
    pub fn group_from_pset(&self, name: &str) -> Result<MpiGroup> {
        self.igroup_inner(name, true).wait()
    }

    /// Nonblocking `MPI_Group_from_session_pset`: a single-`resolve`-stage
    /// [`SetupRequest`]. Resolution is local today, but routing it through
    /// the engine lets pset lookups interleave with in-flight PMIx
    /// constructions under one progress loop.
    pub fn igroup_from_pset(&self, name: &str) -> SetupRequest<MpiGroup> {
        self.igroup_inner(name, false)
    }

    fn igroup_inner(&self, name: &str, quiet: bool) -> SetupRequest<MpiGroup> {
        let sess = self.clone();
        let name = name.to_owned();
        let first = stage("resolve", move || {
            let members = sess.resolve_pset(&name)?;
            Ok(SetupStep::Done(
                MpiGroup::from_members(members)
                    .bind(sess.inner.process.clone())
                    .mark_lazy(sess.inner.lazy),
            ))
        });
        SetupRequest::issue(
            self.inner.process.clone(),
            "group_from_pset",
            None,
            quiet,
            first,
            None,
        )
    }

    fn resolve_pset(&self, name: &str) -> Result<Vec<ProcRef>> {
        self.check_live()?;
        let process = &self.inner.process;
        let registry = process.universe().registry();
        let me = process.proc();
        let nspace = registry.namespace(me.nspace())?;
        let to_ref = |e: &pmix::NamespaceInfo| -> Vec<ProcRef> {
            e.procs()
                .iter()
                .map(|p| ProcRef { proc: p.proc.clone(), endpoint: p.endpoint })
                .collect()
        };
        match name {
            PSET_WORLD => Ok(to_ref(&nspace)),
            PSET_SELF => {
                let entry = registry.locate(me)?;
                Ok(vec![ProcRef { proc: me.clone(), endpoint: entry.endpoint }])
            }
            PSET_SHARED => Ok(nspace
                .procs()
                .iter()
                .filter(|p| p.node == process.node())
                .map(|p| ProcRef { proc: p.proc.clone(), endpoint: p.endpoint })
                .collect()),
            other => {
                let members = registry.pset_members(other).map_err(|_| {
                    MpiError::new(ErrClass::Arg, format!("unknown process set '{other}'"))
                })?;
                members
                    .into_iter()
                    .map(|proc| {
                        let entry = registry.locate(&proc)?;
                        Ok(ProcRef { proc, endpoint: entry.endpoint })
                    })
                    .collect()
            }
        }
    }

    // ------------------------------------------------------------------
    // Finalize
    // ------------------------------------------------------------------

    /// `MPI_Session_finalize`: releases this session's subsystem
    /// references; the last finalize in the process tears the library
    /// down (cleanup callbacks) so a later `Session_init` starts fresh.
    pub fn finalize(self) -> Result<()> {
        self.check_live()?;
        self.inner.finalized.store(true, Ordering::Release);
        self.inner.process.release_instance(SESSION_MIN_SUBSYSTEMS);
        Ok(())
    }

    /// Whether the session is finalized.
    pub fn is_finalized(&self) -> bool {
        self.inner.finalized.load(Ordering::Acquire)
    }
}

impl Drop for SessionInner {
    fn drop(&mut self) {
        // A dropped-but-never-finalized session still releases its
        // subsystem references so the process can reach the pristine state
        // (Rust RAII in place of the C requirement to always finalize).
        if !self.finalized.load(Ordering::Acquire) {
            self.process.release_instance(SESSION_MIN_SUBSYSTEMS);
        }
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("id", &self.inner.id)
            .field("thread_level", &self.inner.thread_level)
            .field("finalized", &self.is_finalized())
            .finish()
    }
}
