//! # apps — the paper's evaluation workloads
//!
//! Faithful re-creations of the benchmarks and the application used in the
//! paper's Section IV:
//!
//! * [`osu`] — the OSU microbenchmarks as modified by the authors:
//!   `osu_init` (startup time for `MPI_Init` vs. the
//!   `MPI_Session_init` → `MPI_Group_from_session_pset` →
//!   `MPI_Comm_create_from_group` sequence, with the per-phase breakdown
//!   quoted in §IV-C1), `osu_latency` and `osu_mbw_mr` (with the
//!   barrier-before-timing-loop structure whose interaction with the exCID
//!   handshake produces Fig. 5c, and the `presync` fix);
//! * [`hpcc`] — the HPC Challenge 8-byte random- and natural-order ring
//!   latency test, with the sessions variant creating its own session
//!   *inside* the bandwidth/latency routine exactly as the authors
//!   modified `main_bench_lat_bw` (§IV-D);
//! * [`mesh2`] — a miniature of the LANL 2MESH multi-physics application:
//!   an MPI-everywhere library (L0) interleaved with an MPI+threads
//!   library (L1) whose quiescence runs through QUO (§IV-E);
//! * [`recover`] — the checkpoint-free fault-recovery loop (DESIGN.md
//!   §15): a ring allreduce with bounded typed waits that rebuilds its
//!   communicator through injected kills with an `ElasticComm` over the
//!   survivors pset.

pub mod hpcc;
pub mod mesh2;
pub mod osu;
pub mod recover;

use serde::{Deserialize, Serialize};

/// Which initialization path a workload uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InitMode {
    /// Legacy `MPI_Init` (World Process Model).
    Wpm,
    /// The Sessions sequence of the paper's Figure 1.
    Sessions,
    /// The Figure-1 sequence with `init_mode=lazy`: fence-free session
    /// init, hashed exCIDs, peers resolved on first contact (DESIGN.md
    /// §14).
    Lazy,
}

impl InitMode {
    /// Parse a CLI word.
    pub fn parse(s: &str) -> Option<InitMode> {
        match s {
            "wpm" | "init" | "baseline" => Some(InitMode::Wpm),
            "sessions" | "session" => Some(InitMode::Sessions),
            "lazy" | "sessions-lazy" => Some(InitMode::Lazy),
            _ => None,
        }
    }

    /// The session-init info object for this mode: `init_mode=lazy` for
    /// `Lazy`, no key (an eager session) otherwise.
    pub fn session_info(self) -> mpi_sessions::Info {
        let info = mpi_sessions::Info::new();
        if self == InitMode::Lazy {
            info.set(mpi_sessions::info::keys::INIT_MODE, "lazy");
        }
        info
    }
}

impl std::fmt::Display for InitMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InitMode::Wpm => write!(f, "MPI_Init"),
            InitMode::Sessions => write!(f, "MPI_Session_init"),
            InitMode::Lazy => write!(f, "MPI_Session_init(lazy)"),
        }
    }
}

/// Tiny CLI helper: read `--key value` style options.
pub fn cli_opt(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Tiny CLI helper: presence of a flag.
pub fn cli_flag(args: &[String], key: &str) -> bool {
    args.iter().any(|a| a == key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_mode_parse() {
        assert_eq!(InitMode::parse("wpm"), Some(InitMode::Wpm));
        assert_eq!(InitMode::parse("sessions"), Some(InitMode::Sessions));
        assert_eq!(InitMode::parse("junk"), None);
    }

    #[test]
    fn cli_helpers() {
        let args: Vec<String> =
            ["--nodes", "4", "--presync"].iter().map(|s| s.to_string()).collect();
        assert_eq!(cli_opt(&args, "--nodes").as_deref(), Some("4"));
        assert_eq!(cli_opt(&args, "--ppn"), None);
        assert!(cli_flag(&args, "--presync"));
        assert!(!cli_flag(&args, "--quiet"));
    }
}
