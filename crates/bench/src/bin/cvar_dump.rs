//! Enumerate the live tuning surface: every control variable (cvar) the
//! stack registers, as text or as the checked-in `docs/TUNING.md`
//! markdown.
//!
//! The dump is taken from a *running* universe — a tiny testbed is
//! booted and two ranks hold an open session while the registry is
//! enumerated — so the table is exactly what `Registry::cvars()` (or an
//! `introspect_dump` snapshot) would show a tool at runtime, not a
//! hand-maintained list. Per-process scopes are collapsed to the generic
//! `process` label so the output is deterministic; ci.sh regenerates the
//! markdown and diffs it against `docs/TUNING.md` to catch knobs that
//! were added without documenting them (or docs that drifted from code).
//!
//! Usage: `cvar_dump [--markdown] [--out <path>]`

use bench_harness::{cli_flag, cli_opt};
use mpi_sessions::{ErrHandler, Info, Session, ThreadLevel};
use obs::CvarInfo;
use prrte::{JobSpec, Launcher};
use simnet::SimTestbed;
use std::collections::BTreeMap;
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

/// Collapse a scope key to its class: per-process scopes are ProcId
/// strings (`nspace:rank`), everything else is a fixed label.
fn scope_class(scope: &str) -> &'static str {
    match scope {
        "universe" => "universe",
        _ => "process",
    }
}

fn scope_rank(class: &str) -> u8 {
    match class {
        "universe" => 0,
        _ => 1,
    }
}

/// Boot a minimal stack and enumerate its cvars while the ranks are
/// still alive (the registry prunes a process's cvars once it dies).
fn enumerate_live() -> Vec<CvarInfo> {
    let launcher = Launcher::new(SimTestbed::tiny(1, 2));
    let (tx, rx) = mpsc::channel::<u32>();
    // Both ranks and this thread, once the cvars have been read.
    let read = Arc::new(Barrier::new(3));
    let release = Arc::clone(&read);
    let handle = launcher.spawn(JobSpec::new(2), move |ctx| {
        let session = Session::init(&ctx, ThreadLevel::Single, ErrHandler::Return, &Info::new())
            .expect("session init");
        tx.send(ctx.rank()).unwrap();
        release.wait();
        session.finalize().expect("session fini");
    });
    for _ in 0..2 {
        rx.recv_timeout(Duration::from_secs(30)).expect("rank up");
    }
    let rows = launcher.universe().fabric().obs().cvars();
    read.wait();
    handle.join().expect("dump job");
    rows
}

/// Dedupe per-process registrations down to one row per (class, name);
/// every process registers the same knobs with the same defaults, and we
/// fail loudly if that ever stops being true.
fn collapse(rows: Vec<CvarInfo>) -> Vec<(&'static str, CvarInfo)> {
    let mut by_key: BTreeMap<(u8, String), (&'static str, CvarInfo)> = BTreeMap::new();
    for row in rows {
        let class = scope_class(&row.scope);
        let key = (scope_rank(class), row.name.clone());
        if let Some((_, seen)) = by_key.get(&key) {
            assert_eq!(
                (seen.writable, seen.value.to_string()),
                (row.writable, row.value.to_string()),
                "cvar {} differs across {} scopes — the dump would be nondeterministic",
                row.name,
                class,
            );
        } else {
            by_key.insert(key, (class, row));
        }
    }
    by_key.into_values().collect()
}

fn escape(s: &str) -> String {
    s.replace('|', "\\|")
}

/// Which bench/chaos gate exercises each knob. A knob missing here shows
/// up as `—` in the table — add its gate when you add the knob.
fn exercised_by(name: &str) -> &'static str {
    match name {
        "pmix.pgcid_block" => {
            "`bench_gate` pgcid-batching hard bound; `abl_cid_fragmentation`"
        }
        "pmix.group_timeout_ms" => {
            "chaos `partition_rebuild` scenario (cvar_write to 800 ms); \
             `fig_recover` / apps recovery tests (2 s)"
        }
        "pmix.server_shards" => "introspect gate (`introspect_dump` shard rows)",
        "pmix.epoch_retention_cap" => "`fig_soak` epoch ring-bound checks",
        "registry.gc_enabled" => "ci.sh `fig_soak --no-gc` negative run",
        "registry.gc_tombstone_threshold" => "`fig_soak` registry GC sampling",
        "core.stall_ticks" => "stall-watchdog tests; introspect gate `--chaos-fail` run",
        "pml.handshake_cache_cap" => "`bench_gate` `pml_cache_two_comms_np2`",
        _ => "—",
    }
}

fn render_markdown(rows: &[(&'static str, CvarInfo)]) -> String {
    let mut out = String::new();
    out.push_str("# Tuning guide\n\n");
    out.push_str(
        "<!-- Generated by `cargo run -q --offline -p bench-harness --bin cvar_dump -- \
         --markdown`.\n     Do not edit by hand: ci.sh regenerates this table and fails on \
         drift. -->\n\n",
    );
    out.push_str(
        "The stack exposes its knobs through an MPI_T-style control-variable\n\
         (cvar) registry (`obs::Registry`). A tool reads a knob with\n\
         `cvar_read(scope, name)` and changes it at runtime with\n\
         `cvar_write(scope, name, value)`; every successful write emits a\n\
         `cvar.changed` event carrying the old and new value, so tuning\n\
         actions land in the same trace as their effects. `introspect_dump`\n\
         snapshots include the full table below with live values.\n\n",
    );
    out.push_str("## Control variables\n\n");
    out.push_str("| Scope | Cvar | Writable | Default | Description | Exercised by |\n");
    out.push_str("|-------|------|----------|---------|-------------|--------------|\n");
    for (class, row) in rows {
        out.push_str(&format!(
            "| {} | `{}` | {} | `{}` | {} | {} |\n",
            class,
            row.name,
            if row.writable { "yes" } else { "no" },
            row.value,
            escape(row.description),
            exercised_by(&row.name),
        ));
    }
    out.push_str(
        "\nScope `universe` knobs are registered once at universe boot and\n\
         steer every job in it; scope `process` knobs are registered by each\n\
         MPI process under its own `nspace:rank` scope key (the table shows\n\
         the shared defaults — write to one process's scope to tune that\n\
         process alone). Read-only rows surface compile-time constants so\n\
         tools can discover the build's limits.\n",
    );
    out
}

fn render_plain(rows: &[(&'static str, CvarInfo)]) -> String {
    let mut out = String::new();
    for (class, row) in rows {
        out.push_str(&format!(
            "{:<9} {:<32} {:<3} {:<12} {}\n",
            class,
            row.name,
            if row.writable { "rw" } else { "ro" },
            row.value.to_string(),
            row.description,
        ));
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let rows = collapse(enumerate_live());
    let text =
        if cli_flag(&args, "--markdown") { render_markdown(&rows) } else { render_plain(&rows) };
    match cli_opt(&args, "--out") {
        Some(path) => {
            std::fs::write(&path, &text).expect("write --out");
            eprintln!("cvar_dump: wrote {} row(s) to {path}", rows.len());
        }
        None => print!("{text}"),
    }
}
