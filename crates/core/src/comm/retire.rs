//! Retiring a communicator: `MPI_Comm_free` and `abandon`.

use super::{CidOrigin, Comm};
use crate::error::Result;
use std::sync::atomic::Ordering;

impl Comm {
    /// Retire a communicator whose membership may have diverged — a member
    /// died, or ranks observed a fault at different points.
    /// [`crate::elastic::ElasticComm`] calls this on the broken
    /// communicator before it builds the replacement. Like
    /// [`Comm::free`] it is local and releases the PGCID family, so the
    /// PGCID of a repaired communicator is recycled once every member has
    /// freed, abandoned or died. Unlike `free` it does not return a derived
    /// exCID subfield to its parent pool: abandonment is rank-asymmetric,
    /// and the pool's freed list must stay identical on every rank.
    pub fn abandon(self) {
        if self.inner.freed.swap(true, Ordering::AcqRel) {
            return;
        }
        self.retire_local();
    }

    /// The local half of retiring a communicator: release the PML route and
    /// the local CID and drop the PGCID-family reference; the family's last
    /// reference releases its PMIx group.
    fn retire_local(&self) {
        self.process.pml().unregister_comm(self.inner.local_cid);
        self.process.release_cid(self.inner.local_cid);
        self.process.metrics().cid.released.inc();
        let Some(pgcid) = self.inner.excid.map(|e| e.pgcid).filter(|p| *p != 0) else {
            return;
        };
        if let Some(group) = self.process.pgcid_release(pgcid) {
            // A one-way release to the local server; it cannot fail.
            let _ = self.process.pmix().group_destruct(&group, None);
        }
    }

    /// `MPI_Comm_free`. Completes locally: it releases the local CID and
    /// route, returns a derived exCID subfield to its parent pool for
    /// recycling, and — when this was the last live communicator of its
    /// PGCID family — releases the backing PMIx group. The lead server
    /// recycles the PGCID once every member has released it or died, so
    /// nothing here waits on a peer, dead or alive. Every rank must still
    /// free (not abandon) a derived communicator, so the parent pools'
    /// freed lists stay identical; the only error is freeing twice.
    pub fn free(self) -> Result<()> {
        self.check_live()?;
        self.inner.freed.store(true, Ordering::Release);
        self.retire_local();
        if let (CidOrigin::Derived, Some(excid)) = (self.inner.origin, self.inner.excid) {
            if self.inner.derive.give_back(excid, self.inner.incarnation) {
                self.process.metrics().cid.subfields_returned.inc();
            }
        }
        Ok(())
    }
}
