//! Collective operations, built on the communicator's point-to-point
//! channels with a reserved (negative) internal tag space.
//!
//! Algorithms are the textbook ones Open MPI's `coll/base` uses at these
//! scales: dissemination barrier, binomial broadcast/reduce, gather+bcast
//! allgather, pairwise-exchange alltoall, linear scan. `MPI_Ibarrier` is a
//! setup-request state machine driven by `test`/`wait` — exactly what the
//! paper's 2MESH integration loops over (`MPI_Ibarrier` + `nanosleep`) to
//! emulate low-perturbation quiescence (§IV-E).

use crate::comm::Comm;
use crate::datatype::{self, MpiScalar, ReduceOp};
use crate::error::{ErrClass, MpiError, Result};
use crate::request::{Request, SetupRequest, SetupStage, SetupStep};
use bytes::Bytes;
use std::time::Duration;

/// Internal collective op codes (folded into the reserved tag space).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum CollOp {
    Barrier = 0,
    Bcast = 1,
    Reduce = 2,
    Alltoall = 4,
    Gather = 5,
    Scatter = 6,
    Scan = 7,
    Subgroup = 8,
    Ibarrier = 9,
}

/// Build an internal (negative) tag: 4 bits of op, 26 bits of salt.
fn internal_tag(op: CollOp, salt: u32) -> i32 {
    -(1 + (((op as i32) & 0xF) << 26) + ((salt & 0x03FF_FFFF) as i32))
}

fn next_salt(comm: &Comm) -> u32 {
    comm.inner.coll_seq.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// Barrier
// ---------------------------------------------------------------------

/// `MPI_Barrier`: dissemination algorithm, ⌈log2 n⌉ rounds.
pub fn barrier(comm: &Comm) -> Result<()> {
    if comm.size() <= 1 {
        return Ok(());
    }
    let salt = next_salt(comm);
    for round in 0..comm.size().next_power_of_two().trailing_zeros() {
        let (rreq, sreq) = post_round(comm, CollOp::Barrier, salt, round)?;
        rreq.wait()?;
        sreq.wait()?;
    }
    Ok(())
}

/// Post a dissemination round: receive from `2^round` ranks below, send above.
fn post_round(comm: &Comm, op: CollOp, salt: u32, round: u32) -> Result<(Request, Request)> {
    let (n, me, dist) = (comm.size(), comm.rank(), 1u32 << round);
    let tag = internal_tag(op, salt.wrapping_add(round) & 0xFFFF | (salt << 16));
    let rreq = comm.irecv_internal(Some((me + n - dist) % n), Some(tag))?;
    let sreq = comm.isend_internal((me + dist) % n, tag, Bytes::new())?;
    Ok((rreq, sreq))
}

/// `MPI_Ibarrier`: the dissemination barrier as a quiet setup request of
/// one `ibarrier` stage, driven by `test`/`wait` like any construction.
pub fn ibarrier(comm: &Comm) -> Result<SetupRequest<()>> {
    // Like `barrier`, a one-rank barrier exchanges nothing and takes no salt.
    let salt = if comm.size() > 1 { next_salt(comm) } else { 0 };
    let stage = Box::new(IbarrierStage { comm: comm.clone(), salt, round: 0, pending: None });
    let process = comm.process().clone();
    Ok(SetupRequest::issue(process, "ibarrier", None, true, stage, None))
}

/// An [`ibarrier`]'s one stage: its rounds, one in flight at a time.
struct IbarrierStage {
    comm: Comm,
    salt: u32,
    round: u32,
    pending: Option<(Request, Request)>,
}

impl SetupStage<()> for IbarrierStage {
    fn name(&self) -> &'static str {
        "ibarrier"
    }
    fn poll(&mut self) -> Result<SetupStep<()>> {
        while self.round < self.comm.size().next_power_of_two().trailing_zeros() {
            if self.pending.is_none() {
                let round = post_round(&self.comm, CollOp::Ibarrier, self.salt, self.round)?;
                self.pending = Some(round);
            }
            let (rreq, sreq) = self.pending.as_mut().expect("just posted");
            if !(rreq.test()? && sreq.test()?) {
                return Ok(SetupStep::Pending);
            }
            self.pending = None;
            self.round += 1;
        }
        Ok(SetupStep::Done(()))
    }
    fn park(&mut self, limit: Duration) {
        self.comm.process().pml().progress(Some(limit));
    }
}

// ---------------------------------------------------------------------
// Rooted collectives
// ---------------------------------------------------------------------

/// `MPI_Bcast`: binomial tree from `root`. Root passes the payload; all
/// callers receive the broadcast value.
pub fn bcast_t<T: MpiScalar>(comm: &Comm, root: u32, data: &[T]) -> Result<Vec<T>> {
    let bytes = bcast_bytes(comm, root, datatype::to_bytes(data))?;
    datatype::from_bytes(&bytes)
}

/// Byte-level broadcast.
pub fn bcast_bytes(comm: &Comm, root: u32, data: Vec<u8>) -> Result<Vec<u8>> {
    let n = comm.size();
    if root >= n {
        return Err(MpiError::new(ErrClass::Rank, "bcast root outside communicator"));
    }
    if n == 1 {
        return Ok(data);
    }
    let salt = next_salt(comm);
    let tag = internal_tag(CollOp::Bcast, salt);
    // Rotate so the root is virtual rank 0.
    let me = comm.rank();
    let vrank = (me + n - root) % n;
    // One buffer per rank: the root adopts `data`, everyone else keeps the
    // `Bytes` it received; children get handle clones of it.
    let mut payload: Option<Bytes> = if me == root { Some(Bytes::from(data)) } else { None };
    // Standard binomial tree: receive from the parent across the lowest
    // set bit of vrank, then forward to children across the bits below it.
    let mut mask = 1u32;
    if vrank != 0 {
        while mask < n {
            if vrank & mask != 0 {
                let parent_v = vrank - mask;
                let parent = (parent_v + root) % n;
                let req = comm.irecv_internal(Some(parent), Some(tag))?;
                payload = Some(req.wait_data()?.0);
                break;
            }
            mask <<= 1;
        }
    } else {
        while mask < n {
            mask <<= 1;
        }
    }
    let have = payload.expect("received or root");
    let mut m = mask >> 1;
    while m > 0 {
        let child_v = vrank + m;
        if child_v < n {
            let child = (child_v + root) % n;
            let req = comm.isend_internal(child, tag, have.clone())?;
            req.wait()?;
        }
        m >>= 1;
    }
    Ok(have.to_vec())
}

/// `MPI_Reduce`: binomial fold toward `root`. Returns `Some(result)` at the
/// root, `None` elsewhere.
pub fn reduce_t<T: MpiScalar>(
    comm: &Comm,
    root: u32,
    op: ReduceOp,
    data: &[T],
) -> Result<Option<Vec<T>>> {
    let n = comm.size();
    if root >= n {
        return Err(MpiError::new(ErrClass::Rank, "reduce root outside communicator"));
    }
    let salt = next_salt(comm);
    let tag = internal_tag(CollOp::Reduce, salt);
    let me = comm.rank();
    let vrank = (me + n - root) % n;
    let mut acc: Vec<T> = data.to_vec();
    let mut mask = 1u32;
    while mask < n {
        if vrank & mask != 0 {
            // Send to the partner below and exit.
            let dst_v = vrank & !mask;
            let dst = (dst_v + root) % n;
            let req = comm.isend_internal(dst, tag, Bytes::from(datatype::to_bytes(&acc)))?;
            req.wait()?;
            return Ok(None);
        }
        let src_v = vrank | mask;
        if src_v < n {
            let src = (src_v + root) % n;
            let req = comm.irecv_internal(Some(src), Some(tag))?;
            let (bytes, _) = req.wait_data()?;
            let theirs: Vec<T> = datatype::from_bytes(&bytes)?;
            datatype::reduce_into(op, &mut acc, &theirs)?;
        }
        mask <<= 1;
    }
    Ok(Some(acc))
}

/// `MPI_Allreduce`: reduce to rank 0, then broadcast.
pub fn allreduce_t<T: MpiScalar>(comm: &Comm, op: ReduceOp, data: &[T]) -> Result<Vec<T>> {
    let reduced = reduce_t(comm, 0, op, data)?;
    bcast_t(comm, 0, &reduced.unwrap_or_default())
}

/// `MPI_Gather` (equal contribution lengths): linear to `root`.
/// Returns `Some(concatenated)` at the root.
pub fn gather_t<T: MpiScalar>(comm: &Comm, root: u32, data: &[T]) -> Result<Option<Vec<T>>> {
    let n = comm.size();
    if root >= n {
        return Err(MpiError::new(ErrClass::Rank, "gather root outside communicator"));
    }
    let salt = next_salt(comm);
    let tag = internal_tag(CollOp::Gather, salt);
    let me = comm.rank();
    if me == root {
        let mut out: Vec<Vec<T>> = vec![Vec::new(); n as usize];
        out[me as usize] = data.to_vec();
        let mut reqs = Vec::new();
        for r in 0..n {
            if r != me {
                reqs.push((r, comm.irecv_internal(Some(r), Some(tag))?));
            }
        }
        for (r, req) in reqs {
            let (bytes, _) = req.wait_data()?;
            out[r as usize] = datatype::from_bytes(&bytes)?;
        }
        Ok(Some(out.concat()))
    } else {
        let req = comm.isend_internal(root, tag, Bytes::from(datatype::to_bytes(data)))?;
        req.wait()?;
        Ok(None)
    }
}

/// `MPI_Scatter` (equal chunks): root passes `Some(all)`, everyone gets
/// their chunk.
pub fn scatter_t<T: MpiScalar>(comm: &Comm, root: u32, data: Option<&[T]>) -> Result<Vec<T>> {
    let n = comm.size();
    if root >= n {
        return Err(MpiError::new(ErrClass::Rank, "scatter root outside communicator"));
    }
    let salt = next_salt(comm);
    let tag = internal_tag(CollOp::Scatter, salt);
    let me = comm.rank();
    if me == root {
        let all = data.ok_or_else(|| MpiError::new(ErrClass::Arg, "scatter root needs data"))?;
        if all.len() % n as usize != 0 {
            return Err(MpiError::new(ErrClass::Arg, "scatter data not divisible by size"));
        }
        let chunk = all.len() / n as usize;
        for r in 0..n {
            if r != me {
                let part = &all[r as usize * chunk..(r as usize + 1) * chunk];
                let req = comm.isend_internal(r, tag, Bytes::from(datatype::to_bytes(part)))?;
                req.wait()?;
            }
        }
        Ok(all[me as usize * chunk..(me as usize + 1) * chunk].to_vec())
    } else {
        let req = comm.irecv_internal(Some(root), Some(tag))?;
        let (bytes, _) = req.wait_data()?;
        datatype::from_bytes(&bytes)
    }
}

// ---------------------------------------------------------------------
// All-to-all style
// ---------------------------------------------------------------------

/// `MPI_Allgather` (equal contribution lengths): gather to 0 + bcast.
pub fn allgather_t<T: MpiScalar>(comm: &Comm, data: &[T]) -> Result<Vec<T>> {
    let gathered = gather_t(comm, 0, data)?;
    bcast_t(comm, 0, &gathered.unwrap_or_default())
}

/// `MPI_Alltoall` (equal chunks): pairwise exchange, n-1 rounds of
/// sendrecv.
pub fn alltoall_t<T: MpiScalar>(comm: &Comm, data: &[T]) -> Result<Vec<T>> {
    let n = comm.size() as usize;
    if !data.len().is_multiple_of(n) {
        return Err(MpiError::new(ErrClass::Arg, "alltoall data not divisible by size"));
    }
    let chunk = data.len() / n;
    let me = comm.rank() as usize;
    let salt = next_salt(comm);
    let tag = internal_tag(CollOp::Alltoall, salt);
    let mut out = vec![data[me * chunk..(me + 1) * chunk].to_vec()];
    out.resize(n, Vec::new());
    // out[k] will hold the chunk received *from* rank (me - ... ) — build
    // by absolute source rank below instead.
    let mut slots: Vec<Vec<T>> = vec![Vec::new(); n];
    slots[me] = data[me * chunk..(me + 1) * chunk].to_vec();
    for round in 1..n {
        let dst = (me + round) % n;
        let src = (me + n - round) % n;
        let send_part = &data[dst * chunk..(dst + 1) * chunk];
        let rreq = comm.irecv_internal(Some(src as u32), Some(tag))?;
        let sreq =
            comm.isend_internal(dst as u32, tag, Bytes::from(datatype::to_bytes(send_part)))?;
        let (bytes, _) = rreq.wait_data()?;
        sreq.wait()?;
        slots[src] = datatype::from_bytes(&bytes)?;
    }
    Ok(slots.concat())
}

/// `MPI_Scan` (inclusive prefix reduction): linear chain.
pub fn scan_t<T: MpiScalar>(comm: &Comm, op: ReduceOp, data: &[T]) -> Result<Vec<T>> {
    let n = comm.size();
    let me = comm.rank();
    let salt = next_salt(comm);
    let tag = internal_tag(CollOp::Scan, salt);
    let mut acc = data.to_vec();
    if me > 0 {
        let req = comm.irecv_internal(Some(me - 1), Some(tag))?;
        let (bytes, _) = req.wait_data()?;
        let prefix: Vec<T> = datatype::from_bytes(&bytes)?;
        // acc = prefix ⊕ mine (order matters for non-commutative ops).
        let mut combined = prefix;
        datatype::reduce_into(op, &mut combined, &acc)?;
        acc = combined;
    }
    if me + 1 < n {
        let req = comm.isend_internal(me + 1, tag, Bytes::from(datatype::to_bytes(&acc)))?;
        req.wait()?;
    }
    Ok(acc)
}

// ---------------------------------------------------------------------
// Subgroup primitives (CID consensus machinery)
// ---------------------------------------------------------------------

/// Reduction flavor for [`subgroup_allreduce_u32`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubgroupOp {
    /// Maximum.
    Max,
    /// Minimum.
    Min,
    /// Sum.
    Sum,
}

/// An allreduce over a *subset* of a communicator's ranks, used by the CID
/// consensus algorithm (which must agree among exactly the participating
/// processes, e.g. `MPI_Comm_create_group`). `participants` must be
/// identical (same order) at every participant and contain the caller.
pub fn subgroup_allreduce_u32(
    comm: &Comm,
    participants: &[u32],
    value: u32,
    op: SubgroupOp,
) -> Result<u32> {
    let me = comm.rank();
    let my_pos = participants
        .iter()
        .position(|r| *r == me)
        .ok_or_else(|| MpiError::new(ErrClass::Group, "caller not among participants"))?;
    if participants.len() == 1 {
        return Ok(value);
    }
    // Tag salt: hash of the participant list, so different subgroups sharing
    // a member use disjoint tag streams. Sequential ops on the same subgroup
    // may share a tag; per-pair FIFO keeps them correctly paired.
    let mut h: u32 = 0x811c9dc5;
    for p in participants {
        h ^= *p;
        h = h.wrapping_mul(0x0100_0193);
    }
    let tag = internal_tag(CollOp::Subgroup, h);
    let lead = participants[0];
    if my_pos == 0 {
        let mut acc = value;
        for _ in 1..participants.len() {
            let req = comm.irecv_internal(None, Some(tag))?;
            let (bytes, _) = req.wait_data()?;
            let v: Vec<u32> = datatype::from_bytes(&bytes)?;
            acc = match op {
                SubgroupOp::Max => acc.max(v[0]),
                SubgroupOp::Min => acc.min(v[0]),
                SubgroupOp::Sum => acc.wrapping_add(v[0]),
            };
        }
        for p in &participants[1..] {
            let req = comm.isend_internal(*p, tag, Bytes::from(datatype::to_bytes(&[acc])))?;
            req.wait()?;
        }
        Ok(acc)
    } else {
        let req = comm.isend_internal(lead, tag, Bytes::from(datatype::to_bytes(&[value])))?;
        req.wait()?;
        let req = comm.irecv_internal(Some(lead), Some(tag))?;
        let (bytes, _) = req.wait_data()?;
        let v: Vec<u32> = datatype::from_bytes(&bytes)?;
        Ok(v[0])
    }
}

// ---------------------------------------------------------------------
// Variable-count and prefix variants
// ---------------------------------------------------------------------

/// `MPI_Gatherv` analog with implicit counts: each rank contributes a
/// slice of any length; the root receives them in rank order.
pub fn gatherv_t<T: MpiScalar>(
    comm: &Comm,
    root: u32,
    data: &[T],
) -> Result<Option<Vec<Vec<T>>>> {
    let n = comm.size();
    if root >= n {
        return Err(MpiError::new(ErrClass::Rank, "gatherv root outside communicator"));
    }
    let salt = next_salt(comm);
    let tag = internal_tag(CollOp::Gather, salt ^ 0x2000_0000);
    let me = comm.rank();
    if me == root {
        let mut out: Vec<Vec<T>> = vec![Vec::new(); n as usize];
        out[me as usize] = data.to_vec();
        let mut reqs = Vec::new();
        for r in 0..n {
            if r != me {
                reqs.push((r, comm.irecv_internal(Some(r), Some(tag))?));
            }
        }
        for (r, req) in reqs {
            let (bytes, _) = req.wait_data()?;
            out[r as usize] = datatype::from_bytes(&bytes)?;
        }
        Ok(Some(out))
    } else {
        let req = comm.isend_internal(root, tag, Bytes::from(datatype::to_bytes(data)))?;
        req.wait()?;
        Ok(None)
    }
}

/// `MPI_Allgatherv` analog: every rank receives every contribution,
/// rank-ordered, preserving per-rank lengths.
pub fn allgatherv_t<T: MpiScalar>(comm: &Comm, data: &[T]) -> Result<Vec<Vec<T>>> {
    let gathered = gatherv_t(comm, 0, data)?;
    // Broadcast lengths, then the flattened payload.
    let (lens, flat): (Vec<u64>, Vec<T>) = match gathered {
        Some(parts) => {
            let lens = parts.iter().map(|p| p.len() as u64).collect();
            (lens, parts.concat())
        }
        None => (Vec::new(), Vec::new()),
    };
    let lens = bcast_t(comm, 0, &lens)?;
    let flat = bcast_t(comm, 0, &flat)?;
    let mut out = Vec::with_capacity(lens.len());
    let mut off = 0usize;
    for l in lens {
        let l = l as usize;
        out.push(flat[off..off + l].to_vec());
        off += l;
    }
    Ok(out)
}

/// `MPI_Exscan` (exclusive prefix reduction): rank 0 receives `None`;
/// rank r receives the reduction of ranks 0..r.
pub fn exscan_t<T: MpiScalar>(comm: &Comm, op: ReduceOp, data: &[T]) -> Result<Option<Vec<T>>> {
    let n = comm.size();
    let me = comm.rank();
    let salt = next_salt(comm);
    let tag = internal_tag(CollOp::Scan, salt ^ 0x2000_0000);
    // Inclusive prefix of my predecessor = my exclusive prefix; compute by
    // a linear chain carrying the running inclusive prefix.
    let mut incoming: Option<Vec<T>> = None;
    if me > 0 {
        let req = comm.irecv_internal(Some(me - 1), Some(tag))?;
        let (bytes, _) = req.wait_data()?;
        incoming = Some(datatype::from_bytes(&bytes)?);
    }
    if me + 1 < n {
        // Forward the inclusive prefix through me.
        let mut inclusive = incoming.clone().unwrap_or_default();
        if inclusive.is_empty() {
            inclusive = data.to_vec();
        } else {
            datatype::reduce_into(op, &mut inclusive, data)?;
        }
        let req = comm.isend_internal(me + 1, tag, Bytes::from(datatype::to_bytes(&inclusive)))?;
        req.wait()?;
    }
    Ok(incoming)
}

/// `MPI_Reduce_scatter_block`: reduce elementwise across ranks, then
/// scatter equal blocks — rank r gets block r of the reduction.
pub fn reduce_scatter_block_t<T: MpiScalar>(
    comm: &Comm,
    op: ReduceOp,
    data: &[T],
) -> Result<Vec<T>> {
    let n = comm.size() as usize;
    if !data.len().is_multiple_of(n) {
        return Err(MpiError::new(
            ErrClass::Arg,
            "reduce_scatter_block data not divisible by size",
        ));
    }
    let reduced = reduce_t(comm, 0, op, data)?;
    scatter_t(comm, 0, reduced.as_deref())
}
