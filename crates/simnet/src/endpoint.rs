//! Endpoints: per-process mailboxes attached to the fabric.

use crate::fabric::FabricCore;
use crate::message::Envelope;
use crate::topology::NodeId;
use bytes::Bytes;
use crossbeam::channel::{Receiver, RecvTimeoutError, TryRecvError};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

/// Fabric-unique identifier of an endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EndpointId(pub u64);

impl std::fmt::Display for EndpointId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ep{}", self.0)
    }
}

/// Errors surfaced by the receive side of an endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// No message available right now (only from `try_recv`).
    Empty,
    /// The wait deadline elapsed (only from `recv_timeout`).
    Timeout,
    /// This endpoint has been killed or the fabric has shut down.
    Disconnected,
}

/// Errors surfaced by the send side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The destination endpoint does not exist or has been killed.
    PeerDead(EndpointId),
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::PeerDead(ep) => write!(f, "destination endpoint {ep} is dead"),
        }
    }
}

impl std::error::Error for SendError {}

/// A process's attachment point to the fabric: an id, a home node and a
/// mailbox of incoming [`Envelope`]s.
///
/// `Endpoint` is `Send` (it can be moved into the thread that plays the
/// simulated process) but receiving is single-consumer: exactly one thread
/// should drain it, which is exactly the MPI progress-engine discipline.
pub struct Endpoint {
    id: EndpointId,
    node: NodeId,
    rx: Receiver<Envelope>,
    fabric: Arc<FabricCore>,
}

impl Endpoint {
    pub(crate) fn new(
        id: EndpointId,
        node: NodeId,
        rx: Receiver<Envelope>,
        fabric: Arc<FabricCore>,
    ) -> Self {
        Self { id, node, rx, fabric }
    }

    /// This endpoint's fabric-unique id.
    pub fn id(&self) -> EndpointId {
        self.id
    }

    /// The node this endpoint lives on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// A cloneable handle to the fabric this endpoint is attached to.
    pub fn fabric(&self) -> crate::fabric::Fabric {
        crate::fabric::Fabric::from_core(self.fabric.clone())
    }

    /// The observability registry of the fabric this endpoint lives on.
    pub fn obs(&self) -> Arc<obs::Registry> {
        self.fabric.obs().clone()
    }

    /// Send `payload` to `dst`, applying the fabric's cost model.
    ///
    /// Sends are asynchronous: the call returns once the message is scheduled
    /// for delivery. Per-(src,dst) ordering is guaranteed even when delays
    /// differ by message size.
    ///
    /// The sending thread's current trace context (entered span or ambient)
    /// is piggybacked on the envelope automatically, so receivers can link
    /// the causal predecessor without any wire-format change.
    pub fn send(&self, dst: EndpointId, payload: Bytes) -> Result<(), SendError> {
        self.send_ctx(dst, payload, obs::trace::current_context())
    }

    /// Send with an explicit piggybacked trace context (overriding the
    /// thread-current one) — used where the logically-owning span is held
    /// in protocol state rather than entered on the calling thread.
    pub fn send_ctx(
        &self,
        dst: EndpointId,
        payload: Bytes,
        ctx: Option<obs::TraceContext>,
    ) -> Result<(), SendError> {
        self.send_parts(dst, payload, Bytes::new(), ctx)
    }

    /// Send a gather of two segments — `head` (the wire header) and `body`
    /// (the data, handed through by reference count) — as one message; see
    /// [`Envelope`]. `send` and `send_ctx` are the body-less spelling.
    pub fn send_parts(
        &self,
        dst: EndpointId,
        head: Bytes,
        body: Bytes,
        ctx: Option<obs::TraceContext>,
    ) -> Result<(), SendError> {
        self.fabric.send(Envelope::gather(self.id, dst, head, body, ctx))
    }

    /// Blocking receive. Returns `Disconnected` once this endpoint is killed
    /// (and its queue fully drained) or the fabric is gone.
    pub fn recv(&self) -> Result<Envelope, RecvError> {
        crate::turn::catch_up();
        self.rx.recv().map_err(|_| RecvError::Disconnected)
    }

    /// Receive with a deadline.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, RecvError> {
        crate::turn::catch_up();
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => RecvError::Timeout,
            RecvTimeoutError::Disconnected => RecvError::Disconnected,
        })
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<Envelope, RecvError> {
        self.rx.try_recv().map_err(|e| match e {
            TryRecvError::Empty => RecvError::Empty,
            TryRecvError::Disconnected => RecvError::Disconnected,
        })
    }

    /// Number of messages currently queued in the mailbox.
    pub fn queued(&self) -> usize {
        self.rx.len()
    }

    /// Serve this endpoint: from now on no thread receives on it. Each
    /// frame that lands in its mailbox is passed to `handler` by the thread
    /// that delivered it, when that thread's turn ends — or, when the cost
    /// model charges `rpc_processing`, by the fabric's pump once the frame
    /// is due (see [`crate::turn`](mod@crate::turn)). At most one thread
    /// runs `handler` at a time, in mailbox order. Frames already queued
    /// are handled too. Take a [`Endpoint::sender`] first to send as it.
    pub fn serve(self, handler: impl Fn(Envelope) + Send + Sync + 'static) {
        let Endpoint { id, rx, fabric, .. } = self;
        fabric.serve(id, rx, Box::new(handler));
    }

    /// A cloneable send-only handle for this endpoint, usable from threads
    /// that do not own the mailbox (e.g. a server's worker threads).
    pub fn sender(&self) -> EndpointSender {
        EndpointSender { id: self.id, node: self.node, fabric: self.fabric.clone() }
    }
}

/// Send-only handle to the fabric on behalf of an endpoint.
#[derive(Clone)]
pub struct EndpointSender {
    id: EndpointId,
    node: NodeId,
    fabric: Arc<FabricCore>,
}

impl EndpointSender {
    /// The endpoint this sender sends as.
    pub fn id(&self) -> EndpointId {
        self.id
    }

    /// The node the owning endpoint lives on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Send `payload` to `dst` as the owning endpoint. The sending thread's
    /// current trace context is piggybacked, as with [`Endpoint::send`].
    pub fn send(&self, dst: EndpointId, payload: Bytes) -> Result<(), SendError> {
        self.send_ctx(dst, payload, obs::trace::current_context())
    }

    /// Send with an explicit piggybacked trace context, as with
    /// [`Endpoint::send_ctx`].
    pub fn send_ctx(
        &self,
        dst: EndpointId,
        payload: Bytes,
        ctx: Option<obs::TraceContext>,
    ) -> Result<(), SendError> {
        self.send_parts(dst, payload, Bytes::new(), ctx)
    }

    /// Send a head + body gather as one message, as with
    /// [`Endpoint::send_parts`].
    pub fn send_parts(
        &self,
        dst: EndpointId,
        head: Bytes,
        body: Bytes,
        ctx: Option<obs::TraceContext>,
    ) -> Result<(), SendError> {
        self.fabric.send(Envelope::gather(self.id, dst, head, body, ctx))
    }

    /// The observability registry of the fabric this sender sends on.
    pub fn obs(&self) -> Arc<obs::Registry> {
        self.fabric.obs().clone()
    }

    /// A cloneable handle to the fabric this sender sends on (quiescence
    /// probes for logical-time deadlines).
    pub fn fabric(&self) -> crate::fabric::Fabric {
        crate::fabric::Fabric::from_core(self.fabric.clone())
    }
}

impl std::fmt::Debug for EndpointSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EndpointSender").field("id", &self.id).finish()
    }
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("id", &self.id)
            .field("node", &self.node)
            .field("queued", &self.rx.len())
            .finish()
    }
}
