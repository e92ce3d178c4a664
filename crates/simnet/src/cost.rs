//! Communication cost model.
//!
//! The model splits every message cost into three parts, mirroring the usual
//! latency/bandwidth (Hockney) model used to characterize interconnects such
//! as Aries:
//!
//! * a fixed **latency** per message, different for on-node (shared memory)
//!   and off-node (network) paths;
//! * a **per-byte** cost derived from the path bandwidth;
//! * an optional fixed **software overhead** applied on the *sender* side,
//!   modelling per-call injection cost.
//!
//! On the single-core CI host, injected delays are realized with
//! `thread::sleep`, whose practical granularity is tens of microseconds.
//! Default inter-node latencies are therefore scaled up relative to real
//! Aries (~1 µs) so that the *ratios* between experiment configurations stay
//! meaningful; see `SimTestbed` for the calibrated presets.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Latency/bandwidth cost model for the simulated fabric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Fixed delivery delay for messages between endpoints on the same node.
    /// Zero by default: the shared-memory fast path is a direct queue handoff.
    pub intra_node_latency: Duration,
    /// Fixed delivery delay for messages crossing nodes.
    pub inter_node_latency: Duration,
    /// Bandwidth of the on-node path, in bytes per second. `None` = infinite.
    pub intra_node_bandwidth: Option<u64>,
    /// Bandwidth of the off-node path, in bytes per second. `None` = infinite.
    pub inter_node_bandwidth: Option<u64>,
    /// Fixed sender-side software overhead per message (applied by the
    /// caller's thread, not the delivery pump).
    pub send_overhead: Duration,
    /// Per-message processing cost of a control-plane (PMIx server) RPC.
    ///
    /// The PMIx/PRRTE path is an event-looped, generality-first software
    /// stack — far slower per message than the MPI fast path. This is what
    /// makes PGCID acquisition "relatively expensive" (paper §III-B3).
    /// Charged by the fabric to each frame a served endpoint (a PMIx
    /// server) handles: the frame is due this long after the later of its
    /// arrival and the endpoint's previous frame, and the delivery pump
    /// runs its handler then (see [`crate::turn`](mod@crate::turn)).
    pub rpc_processing: Duration,
    /// One-time cost charged when a simulated process is spawned.
    ///
    /// The paper attributes its high absolute `MPI_Init` times to binaries
    /// loaded from a slow NFS filesystem; this knob is the analog of that
    /// environmental cost. Default zero.
    pub spawn_cost: Duration,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            intra_node_latency: Duration::ZERO,
            inter_node_latency: Duration::from_micros(100),
            intra_node_bandwidth: None,
            inter_node_bandwidth: Some(8 * 1024 * 1024 * 1024), // ~8 GiB/s, Aries-class
            send_overhead: Duration::ZERO,
            rpc_processing: Duration::from_micros(100),
            spawn_cost: Duration::ZERO,
        }
    }
}

impl CostModel {
    /// A model with zero injected cost everywhere — useful for unit tests
    /// and for on-node microbenchmarks where real queue handoff time is the
    /// quantity of interest.
    pub fn zero() -> Self {
        Self {
            intra_node_latency: Duration::ZERO,
            inter_node_latency: Duration::ZERO,
            intra_node_bandwidth: None,
            inter_node_bandwidth: None,
            send_overhead: Duration::ZERO,
            rpc_processing: Duration::ZERO,
            spawn_cost: Duration::ZERO,
        }
    }

    /// Delivery delay for a message of `len` bytes between `src` and `dst`
    /// nodes (fixed latency plus serialization time at path bandwidth).
    pub fn delivery_delay(&self, same_node: bool, len: usize) -> Duration {
        let (lat, bw) = if same_node {
            (self.intra_node_latency, self.intra_node_bandwidth)
        } else {
            (self.inter_node_latency, self.inter_node_bandwidth)
        };
        lat + Self::serialization(bw, len)
    }

    fn serialization(bandwidth: Option<u64>, len: usize) -> Duration {
        match bandwidth {
            None => Duration::ZERO,
            Some(bps) => {
                debug_assert!(bps > 0);
                // nanos = len / bps * 1e9, computed without overflow for
                // realistic message sizes (< 2^53 bytes).
                let nanos = (len as u128 * 1_000_000_000u128) / bps as u128;
                Duration::from_nanos(nanos as u64)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_model_has_no_delay() {
        let m = CostModel::zero();
        assert_eq!(m.delivery_delay(true, 1 << 20), Duration::ZERO);
        assert_eq!(m.delivery_delay(false, 1 << 20), Duration::ZERO);
    }

    #[test]
    fn intra_node_default_is_free() {
        let m = CostModel::default();
        assert_eq!(m.delivery_delay(true, 4096), Duration::ZERO);
    }

    #[test]
    fn inter_node_delay_includes_latency_and_bandwidth() {
        let m = CostModel {
            inter_node_latency: Duration::from_micros(10),
            inter_node_bandwidth: Some(1_000_000_000), // 1 GB/s
            ..CostModel::zero()
        };
        // 1 MB at 1 GB/s = 1 ms serialization + 10 us latency
        let d = m.delivery_delay(false, 1_000_000);
        assert_eq!(d, Duration::from_micros(1010));
    }

    #[test]
    fn serialization_scales_linearly() {
        let m = CostModel {
            inter_node_bandwidth: Some(1_000_000), // 1 MB/s
            inter_node_latency: Duration::ZERO,
            ..CostModel::zero()
        };
        let d1 = m.delivery_delay(false, 1000);
        let d2 = m.delivery_delay(false, 2000);
        assert_eq!(d1 * 2, d2);
        assert_eq!(d1, Duration::from_millis(1));
    }

    #[test]
    fn zero_length_message_costs_only_latency() {
        let m = CostModel::default();
        assert_eq!(m.delivery_delay(false, 0), m.inter_node_latency);
    }
}
