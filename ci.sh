#!/usr/bin/env bash
# Offline CI gate: release build, full test suite, lint-clean clippy.
# Everything runs with --offline against the vendored dependency shims in
# vendor/ (this container has no network; see CHANGES.md).
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo build --release =="
cargo build --release --offline --workspace

echo "== cargo test =="
cargo test -q --offline --workspace

echo "== cargo clippy -D warnings =="
cargo clippy -q --offline --workspace --all-targets -- -D warnings

# Wait-loop gate: every blocking wait on every request — p2p `wait`,
# `wait_timeout`, `wait_data*` and `wait_all`, `SetupRequest::wait` /
# `wait_timeout` and the setup drop drain — is the one private `drive` loop
# in `crates/core/src/request/mod.rs`, which never sleeps after a poll that
# made progress and blocks only on a request kind's own wake source.
# Structurally, over the request module (its test modules excluded): no
# timed nap; exactly one `.park(` call outside a `fn park` body — the
# loop's (inside one, a kind only delegates to its wake source); no
# `progress(Some(` outside a `fn park` body, so no wait loop pumps the PML
# itself; one `LogicalDeadline::new` in the whole core crate; and the
# deleted poll-hook mechanism stays deleted; and exactly one
# `yield_now(` call, in `drive` (a `Pending` poll yields the CPU once and
# polls again before the loop parks). The count-based tests in
# `request/setup.rs` check the behaviour; this keeps a second loop from
# coming back unnoticed.
echo "== wait-loop gate (request/: no sleep, one park call site, one yield in drive, PML pumped only in park) =="
req=crates/core/src/request
# Print "file:line:enclosing fn:text" for each code line containing $1.
call_sites() {
  awk -v pat="$1" '
    FNR == 1 { in_tests = 0 }
    /^mod tests \{/ { in_tests = 1 }
    in_tests || /^ *\/\// { next }
    /^ *(pub(\([a-z]+\))? )?fn [a-z_]/ { match($0, /fn [a-z_0-9]+/); fn = substr($0, RSTART + 3, RLENGTH - 3) }
    index($0, pat) { print FILENAME ":" FNR ":" fn ":" $0 }
  ' "$req"/*.rs
}
if grep -rn 'thread::sleep' "$req"; then
  echo "$req sleeps: park on the request's wake source instead" >&2
  exit 1
fi
parks="$(call_sites '.park(' | awk -F: '$3 != "park"')"
if [ "$(printf '%s\n' "$parks" | grep -c ':drive:')" -ne 1 ] || [ "$(printf '%s\n' "$parks" | grep -c .)" -ne 1 ]; then
  printf '%s\n' "$parks" >&2
  echo "expected exactly one .park( call outside fn park bodies, in drive" >&2
  exit 1
fi
yields="$(call_sites 'yield_now(')"
if [ "$(printf '%s\n' "$yields" | grep -c ':drive:')" -ne 1 ] || [ "$(printf '%s\n' "$yields" | grep -c .)" -ne 1 ]; then
  printf '%s\n' "$yields" >&2
  echo "expected exactly one yield_now( call in $req outside test modules, in drive" >&2
  exit 1
fi
if call_sites 'progress(Some(' | awk -F: '$3 != "park"' | grep .; then
  echo "a wait loop pumps the PML itself: only a fn park may call progress(Some(" >&2
  exit 1
fi
deadlines="$(grep -rn 'LogicalDeadline::new' crates/core/src | grep -vc '^[^:]*:[0-9]*: *//' || true)"
if [ "$deadlines" -ne 1 ]; then
  grep -rn 'LogicalDeadline::new' crates/core/src >&2 || true
  echo "expected exactly one LogicalDeadline::new in crates/core/src, found $deadlines" >&2
  exit 1
fi
if grep -rnE 'PollHook|with_hook|ReqKind::Coll' crates src tests examples --include='*.rs'; then
  echo "the poll-hook request mechanism is back: write a SetupStage machine instead" >&2
  exit 1
fi

# CID-route gate: each of the paper's three CID routes (consensus, fresh
# PGCID, local exCID derivation) is written once. Every fresh PGCID a
# communicator gets comes from the `begin` -> `group` -> `commit` stage
# machine in `comm/construct.rs`, whose blocking callers are its quiet
# `wait`. Structurally, over the core crate's code (test modules and
# comment lines excluded): no call to the blocking PMIx `.group_construct(`,
# and exactly one `Comm::build(..)` call naming `CidOrigin::Pgcid`, in
# `commit_stage`. The split test in `crates/core/tests/comm_derive.rs`
# checks the behaviour; this keeps a hand-rolled second construct path
# from coming back unnoticed.
echo "== CID-route gate (core: no blocking group construct; one PGCID Comm::build, in commit_stage) =="
# Print "file:line:enclosing fn:text" for each code line of crates/core/src.
core_code() {
  find crates/core/src -name '*.rs' ! -name tests.rs | sort | xargs awk '
    FNR == 1 { in_tests = 0 }
    /^ *(pub(\([a-z]+\))? )?mod [a-z_]*tests \{/ { in_tests = 1 }
    in_tests || /^ *\/\// { next }
    /^ *(pub(\([a-z]+\))? )?fn [a-z_]/ { match($0, /fn [a-z_0-9]+/); fn = substr($0, RSTART + 3, RLENGTH - 3) }
    { print FILENAME ":" FNR ":" fn ":" $0 }'
}
if core_code | grep -F '.group_construct('; then
  echo "crates/core/src calls the blocking group_construct: issue the construct stages and wait" >&2
  exit 1
fi
# "file:line:fn" of every Comm::build( call whose argument list names
# CidOrigin::Pgcid (the call may span lines; parentheses are balanced).
pgcid_builds="$(core_code | awk '
  {
    split($0, f, ":"); text = $0; sub(/^[^:]*:[^:]*:[^:]*:/, "", text)
    if (!inside && index(text, "Comm::build(")) {
      inside = 1; depth = 0; call = ""; site = f[1] ":" f[2] ":" f[3]
      text = substr(text, index(text, "Comm::build("))
    }
    if (!inside) next
    call = call text
    n = split(text, ch, "")
    for (i = 1; i <= n && inside; i++) {
      if (ch[i] == "(") depth++
      else if (ch[i] == ")" && --depth == 0) inside = 0
    }
    if (!inside && index(call, "CidOrigin::Pgcid")) print site
  }')"
if [ "$(printf '%s\n' "$pgcid_builds" | grep -c .)" -ne 1 ] \
  || ! printf '%s\n' "$pgcid_builds" | grep -q ':commit_stage$'; then
  printf '%s\n' "$pgcid_builds" >&2
  echo "expected exactly one Comm::build(.., CidOrigin::Pgcid, ..) in crates/core/src, in commit_stage" >&2
  exit 1
fi

# Copy-contract gate: a payload is copied once, at the `&[u8]` API boundary
# in `Comm::isend`, and never between `Pml::isend` and `Request::wait_data`
# — it travels as the body segment of a gather envelope, by handle.
# Structurally: nothing on the PML's send path appends a payload to a frame,
# no codec in `header.rs` takes one, and the fabric has exactly one place
# that builds an `Envelope` (so exactly one that sets `body`; every send
# spelling funnels into it). The pointer-identity tests in `pml/tests.rs`
# and the `bytes`-shim tests below check the behaviour; this keeps a
# serializing side path from coming back unnoticed.
echo "== copy-contract gate (pml: no payload serialization; one Envelope constructor) =="
if grep -nE 'extend_from_slice\(&?(payload|data)' crates/core/src/pml/{route,rdv,header}.rs; then
  echo "the PML copies a payload into a frame: hand it through as the envelope body" >&2
  exit 1
fi
if grep -nE 'fn encode\([^)]*&\[u8\]' crates/core/src/pml/header.rs; then
  echo "a pml::header encoder takes a byte slice: heads carry no payload" >&2
  exit 1
fi
sites="$(grep -rn 'Envelope {' --include='*.rs' crates src tests examples \
  | grep -vcE '(struct|impl|for) Envelope \{' || true)"
if [ "$sites" -ne 1 ] || grep -n 'Self {' crates/simnet/src/message.rs | grep -v -- '-> Self {'; then
  echo "expected exactly one Envelope literal (in Envelope::gather), found $sites" >&2
  exit 1
fi
echo "== vendored bytes shim (From<Vec> adopts, new() allocates nothing) =="
cargo test -q --offline -p bytes

# Wake-contract gate: a send wakes a parked receiver only when none has a
# wake coming (once per burst, never with nobody parked), and the fabric's
# zero-delay hand-off is one registry read and a move. Structurally: the
# mailbox channel has exactly one `notify_one(` call site (the one in `send`
# behind the `waiting > signaled` test; disconnect uses `notify_all`), the
# fabric clones no destination `Sender`, sleeps only to charge the cost
# model's send overhead, and the sleeping `quiesce` poll stays deleted. A
# receiver about to park yields its CPU once first and never spins: the
# shim's non-test code has exactly one `yield_now(` and no `spin_loop`. The
# count-based tests in the crossbeam shim (notify and yield counters,
# `waiting` / `signaled` under the lock, an interleaving proptest) check
# the behaviour.
echo "== wake-contract gate (one notify_one site, one yield, no spin; fabric: no tx.clone, one sleep, no quiesce) =="
shim=vendor/crossbeam/src/lib.rs
notifies="$(grep -c 'notify_one(' "$shim" || true)"
if [ "$notifies" -ne 1 ]; then
  grep -n 'notify_one(' "$shim" >&2 || true
  echo "expected exactly one notify_one( call site in the crossbeam shim, found $notifies" >&2
  exit 1
fi
# The shim's code lines, up to its test module, as "line:text".
shim_code() { awk '/^ *mod tests \{/ { exit } /^ *\/\// { next } { print FNR ":" $0 }' "$shim"; }
if [ "$(shim_code | grep -c 'yield_now(' || true)" -ne 1 ] || shim_code | grep 'spin_loop'; then
  shim_code | grep -E 'yield_now\(|spin_loop' >&2 || true
  echo "expected exactly one yield_now( and no spin_loop in the crossbeam shim's non-test code" >&2
  exit 1
fi
if grep -n 'tx\.clone()' crates/simnet/src/fabric.rs; then
  echo "the fabric clones a mailbox Sender: send into it under the registry read" >&2
  exit 1
fi
if grep -n 'thread::sleep' crates/simnet/src/fabric.rs | grep -v 'thread::sleep(self\.cost\.send_overhead)'; then
  echo "crates/simnet/src/fabric.rs sleeps outside the send_overhead cost-model line" >&2
  exit 1
fi
if grep -n 'fn quiesce' crates/simnet/src/fabric.rs; then
  echo "the sleeping Fabric::quiesce poll is back: use in_flight() / activity()" >&2
  exit 1
fi
# Thread gate: the simulator's only threads are rank threads and the
# fabric's delivery pump. A PMIx server (the RM included) is state plus a
# served endpoint, run by the threads that send to it; deaths reach the
# servers through a fabric death callback, not a bridge thread; and the
# pump starts on the first delayed frame. Structurally: non-test code
# under crates/{simnet,pmix,prrte,core}/src calls `thread::spawn` /
# `thread::Builder` only in the launcher's `spawn_rank_thread` and the
# fabric's `schedule` (the lazy pump start), and no `run_loop` is back in
# crates/pmix/src. The tests `universe_churn` (thread count flat through
# boot, a job and drop) and `thread_model` (a job's threads are its ranks)
# check the behaviour.
echo "== thread gate (spawns: rank threads + the lazy pump only; no pmix run_loop) =="
spawn_sites() {
  find crates/simnet/src crates/pmix/src crates/prrte/src crates/core/src -name '*.rs' ! -name tests.rs \
    | sort | xargs awk '
    FNR == 1 { in_tests = 0; cfg_test = 0 }
    cfg_test && /^mod [a-z_]+ \{/ { in_tests = 1 }
    { cfg_test = /^#\[cfg\(test\)\]/ }
    in_tests || /^ *\/\// { next }
    /^ *(pub(\([a-z]+\))? )?fn [a-z_]/ { match($0, /fn [a-z_0-9]+/); fn = substr($0, RSTART + 3, RLENGTH - 3) }
    /thread::(spawn|Builder)/ { print FILENAME ":" FNR ":" fn ":" $0 }
  '
}
spawns="$(spawn_sites)"
if [ "$(printf '%s\n' "$spawns" | grep -c .)" -ne 2 ] \
  || ! printf '%s\n' "$spawns" | grep -q '^crates/prrte/src/launcher.rs:[0-9]*:spawn_rank_thread:' \
  || ! printf '%s\n' "$spawns" | grep -q '^crates/simnet/src/fabric.rs:[0-9]*:schedule:'; then
  printf '%s\n' "$spawns" >&2
  echo "expected thread spawns only in prrte's spawn_rank_thread and simnet's lazy pump start (schedule)" >&2
  exit 1
fi
if grep -rn 'run_loop' crates/pmix/src; then
  echo "a PMIx server thread loop is back: serve the endpoint (PmixServer::new) instead" >&2
  exit 1
fi
# Allocation gate: one op of the sessions lifecycle (the session_churn
# sequence: init, group, create, derived dup, PGCID dup, first allreduce,
# frees, finalize) on a warm np = 2 universe stays under the committed
# allocations-per-op ceilings, both with room in the obs span buffer and
# with it full. tests/alloc_budget.rs counts with a global allocator, so it
# is its own test binary; it already ran in the workspace pass above and
# runs again here by name, in release, printing its per-step table.
echo "== allocation budget (session_churn allocations per op: span buffer with room, and full) =="
cargo test -q --offline --release --test alloc_budget -- --nocapture
# Sleep gate: no test or gate depends on a wall-clock sleep to pass. A
# kill is an event: a victim parks in `ProcCtx::park_until_killed`, a
# driver kills when the test's own channels say the phase is over, and a
# fault watcher hears of a death only after the runtime has absorbed it.
# A step that must come late waits on runtime state it can observe.
# Structurally: no `thread::sleep` in tests/, crates/*/tests, the
# #[cfg(test)] modules under crates/*/src and src (inline ones and
# out-of-line tests.rs files), or bench_gate's workloads, except a line
# that names the work it models with a `// sleep-ok: <work>` marker.
echo "== sleep gate (tests, test modules, bench_gate: no thread::sleep but named work) =="
# rs_lines <1|0> <regex> <dir>...: the lines of the .rs files under the
# dirs that match the regex, inside (1) or outside (0) test code: a
# #[cfg(test)] module (to the end of its file) or a tests.rs file.
rs_lines() {
  local inside=$1 re=$2
  shift 2
  find "$@" -name '*.rs' | sort | xargs awk -v inside="$inside" -v re="$re" '
    FNR == 1 { in_tests = (FILENAME ~ /\/tests\.rs$/); cfg_test = 0 }
    cfg_test && /^ *(pub(\([a-z]+\))? )?mod [a-z_]+ \{/ { in_tests = 1 }
    { cfg_test = /^ *#\[cfg\(test\)\]/ }
    in_tests == inside && $0 ~ re { print FILENAME ":" FNR ":" $0 }'
}
test_sleeps() {
  grep -rn 'thread::sleep' tests crates/*/tests crates/bench/src/bin/bench_gate.rs || true
  rs_lines 1 'thread::sleep' crates/*/src src
}
if test_sleeps | grep -v '// sleep-ok: [a-z]'; then
  echo "a test sleeps: wait on the event or the runtime state, or name the work it models (// sleep-ok: <work>)" >&2
  exit 1
fi
# Environment gate: the library reads no environment. A session's setup
# is what its caller passes in its info, and a runtime knob is a cvar; an
# environment variable belongs to the program that reads it (a test
# binary, a figure regenerator, this script).
echo "== environment gate (library crates: no std::env outside test code) =="
if rs_lines 0 'std::env' crates/{simnet,pmix,prrte,core,obs,quo,apps,chaos}/src | grep .; then
  echo "library code reads the environment: take the value from the caller (an info key or a cvar)" >&2
  exit 1
fi
echo "== vendored crossbeam shim (wake once per burst, none without a waiter) =="
cargo test -q --offline -p crossbeam

# Doc gate: every workspace crate's public API must document cleanly
# (broken or redundant intra-doc links, missing docs on public items, and
# invalid doctests all fail the build).
echo "== cargo doc -D warnings (every workspace crate) =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --no-deps --workspace

# Golden-trace gate: a fixed-size fig3_init run must produce a trace report
# that (a) validates against the checked-in schema subset and (b) yields the
# exact committed critical-path stage ordering. Trace reports are derived
# from logical clocks and work counters only, so this is byte-stable; cost
# drift is allowed, stage reordering or disappearance is not.
echo "== golden trace (fig3_init @ 2 nodes x 2 ppn) =="
trace_tmp="$(mktemp -t trace_ci.XXXXXX.json)"
cargo run -q --offline --release -p bench-harness --bin fig3_init -- \
  --nodes 2 --ppn-list 2 --reps 1 --trace-out "$trace_tmp" >/dev/null
cargo run -q --offline --release -p bench-harness --bin trace_check -- \
  "$trace_tmp" --schema ci/trace_schema.json 2>/dev/null \
  | diff -u ci/golden_fig3_critical_path.txt -
rm -f "$trace_tmp" "$trace_tmp.flame.txt"

# Second golden: the lazy (fence-free) init critical path. fig_init_scale
# records eager and lazy side by side; the lazy ordering must show the
# session.publish tail and no group.fanin/fanout stages (the binary itself
# exits nonzero if lazy fans out or fails to beat eager's path at np>=4).
echo "== golden trace (fig_init_scale eager vs lazy @ 2 nodes x 2 ppn) =="
lazy_tmp="$(mktemp -t lazy_ci.XXXXXX.json)"
cargo run -q --offline --release -p bench-harness --bin fig_init_scale -- \
  --nodes 2 --ppn-list 2 --reps 1 --trace-out "$lazy_tmp" >/dev/null
cargo run -q --offline --release -p bench-harness --bin trace_check -- \
  "$lazy_tmp" --schema ci/trace_schema.json 2>/dev/null \
  | diff -u ci/golden_lazy_critical_path.txt -
rm -f "$lazy_tmp" "$lazy_tmp.flame.txt"

# Async-setup gate: the interleaving test layer for the nonblocking
# request engine. The ProgressDriver harness plus the completion-order
# proptest (8 pinned cases in tests/properties.rs) already ran in the
# workspace pass above; re-running them by name here keeps the layer an
# explicit, individually-diagnosable gate rather than a needle in the
# workspace run.
echo "== async-setup interleaving layer (harness + 8-case proptest) =="
cargo test -q --offline --test async_setup
cargo test -q --offline --test properties prop_async_setup_any_completion_order_agrees

# Recycled-exCID gate: traffic on a recycled derived exCID crossing between
# incarnations (ROADMAP 1b) is a race between one rank's local free and its
# peer's, so one green run in the workspace pass above proves little. Run
# both regressions (free-running and with the skew pinned) twenty times and
# stop at the first red. A few seconds; deliberately not part of the chaos
# sweep below.
echo "== recycled exCID regression x20 (p2p recycled) =="
recycled_tmp="$(mktemp -t recycled_ci.XXXXXX.txt)"
for run in $(seq 20); do
  if ! cargo test -q --offline -p mpi-sessions --test p2p recycled >"$recycled_tmp" 2>&1; then
    cat "$recycled_tmp" >&2
    echo "recycled exCID regression failed on run $run of 20" >&2
    exit 1
  fi
done
rm -f "$recycled_tmp"

# Chaos gate: the pinned-seed fault-injection sweeps (tests/chaos_suite.rs)
# already ran as part of the workspace test pass above. The elastic churn
# scenario (grow/kill/retire/delete under delayed inter-server traffic),
# the soak scenario (session/comm/pset churn with leak-freedom checks
# after fault-triggered rebuilds) and the async_setup scenario (kill,
# delay and partition landing *between* the stages of in-flight setup
# requests, checked by the request-terminal invariant) additionally run
# here under four pinned seeds via the CHAOS_SEEDS knob, exercising the
# epoch-monotonicity / stale-epoch / rebuild-epoch / resource-lifecycle /
# request-terminal invariants end to end. The four fault-recovery
# scenarios (correlated multi-node kills, a partition biting the rebuild
# fan-in, a kill landing during lazy on-demand resolution, and cascading
# rebuilds racing a second fault) additionally drive the survivors-pset /
# watch_faults / ElasticComm rebuild layer under the survivors-exclude-dead
# invariant. The kill_after_free scenario kills a rank that never freed
# a communicator its peers already freed: the dead member must count as
# released, so the PGCID is recycled rather than leaked.
# Every selected scenario runs once per init mode (eager, then lazy):
# unpinned sessions take the mode, and scenarios that assert one mode's
# semantics pin it in their session info.
# Override or extend the lists by exporting CHAOS_SEEDS (comma-separated
# u64s) or CHAOS_SCENARIOS yourself, e.g. CHAOS_SEEDS=90,91 ./ci.sh
echo "== chaos sweep (CHAOS_SEEDS=${CHAOS_SEEDS:-71,72,73,74} CHAOS_SCENARIOS=${CHAOS_SCENARIOS:-elastic,soak,async_setup,lazy_init,correlated_kills,partition_rebuild,kill_lazy_resolve,cascade_rebuild,kill_after_free}) =="
CHAOS_SEEDS="${CHAOS_SEEDS:-71,72,73,74}" \
CHAOS_SCENARIOS="${CHAOS_SCENARIOS:-elastic,soak,async_setup,lazy_init,correlated_kills,partition_rebuild,kill_lazy_resolve,cascade_rebuild,kill_after_free}" \
  cargo test -q --offline --test chaos_suite chaos_seeds_env

# Soak gate: a smoke-sized run of the sessions-as-a-service churn harness
# must end with the leak-freedom verdict PASS (all resource levels back to
# the pre-churn baseline), and the same run with tombstone GC disabled must
# demonstrably FAIL — proving the gate actually detects the leak class it
# exists to catch rather than passing vacuously.
echo "== soak smoke (fig_soak --waves 50, plus --no-gc negative) =="
cargo run -q --offline --release -p bench-harness --bin fig_soak -- \
  --waves 50 >/dev/null
if cargo run -q --offline --release -p bench-harness --bin fig_soak -- \
  --waves 50 --no-gc >/dev/null 2>&1; then
  echo "soak negative check failed: --no-gc run should have leaked" >&2
  exit 1
fi
# Abandon variant: every 10th in-flight idup_via_group is dropped instead
# of claimed; collective cancellation must still drain every resource
# level back to the pre-churn baseline.
echo "== soak abandon smoke (fig_soak --waves 50 --abandon) =="
cargo run -q --offline --release -p bench-harness --bin fig_soak -- \
  --waves 50 --abandon >/dev/null

# Introspection gate, two halves. (a) Schema: a live-stack flight-recorder
# dump must validate against the checked-in introspect schema — every
# process, in-flight request, server shard and cvar row carries its
# required typed fields. (b) Failure-path artifact: a chaos run with a
# deliberately-broken invariant (an unresolved canary stall trips
# stall-terminal) must auto-attach a flight-recorder artifact that parses
# and validates the same way — proving a *failing* run always yields a
# usable post-mortem, not just a passing one.
echo "== introspect gate (dump schema + chaos-fail artifact) =="
intro_tmp="$(mktemp -t introspect_ci.XXXXXX.json)"
cargo run -q --offline --release -p bench-harness --bin introspect_dump -- \
  --out "$intro_tmp"
cargo run -q --offline --release -p bench-harness --bin trace_check -- \
  --introspect "$intro_tmp" --schema ci/introspect_schema.json
cargo run -q --offline --release -p bench-harness --bin introspect_dump -- \
  --chaos-fail --out "$intro_tmp" 2>/dev/null
cargo run -q --offline --release -p bench-harness --bin trace_check -- \
  --introspect "$intro_tmp" --schema ci/introspect_schema.json
rm -f "$intro_tmp"

# Perf-regression gate: bench_gate re-runs the fixed workload set and
# diffs its deterministic report (logical critical-path costs, span/stage
# counts, protocol counters — never wall time) against the committed
# baseline. BENCH_TOL sets the per-leaf relative tolerance (default 5%);
# regenerate the baseline after an intentional perf change with
#   cargo run --release -p bench-harness --bin bench_gate -- --out BENCH_BASELINE.json
# The binary also hard-enforces (exit 2, no tolerance) the PGCID batching
# bound and the nonblocking-overlap bound: 8 concurrent icomms must
# coalesce into strictly fewer pgcid.request round trips — and a strictly
# shorter serialized critical path — than 8 blocking constructs.
echo "== bench gate (tol ${BENCH_TOL:-0.05}) =="
cargo run -q --offline --release -p bench-harness --bin bench_gate -- \
  --check BENCH_BASELINE.json --tol "${BENCH_TOL:-0.05}"

# Recovery smoke: the checkpoint-free restart drill (apps::recover via
# fig_recover) must survive two injected kills — every survivor finishes
# all steps at the shrunk width, the victims exit Removed, and the
# settle-latency rows land in target/figures/fig_recover.json.
echo "== recovery smoke (fig_recover: 2 kills, checkpoint-free restart) =="
cargo run -q --offline --release -p bench-harness --bin fig_recover -- >/dev/null

# Doc-drift gate: docs/TUNING.md is generated from the live cvar registry
# (cvar_dump --markdown). Regenerate into a temp file and diff — a knob
# added without regenerating the doc (or a doc edited by hand) fails here.
echo "== tuning-doc drift gate (cvar_dump --markdown vs docs/TUNING.md) =="
tuning_tmp="$(mktemp -t tuning_ci.XXXXXX.md)"
cargo run -q --offline --release -p bench-harness --bin cvar_dump -- \
  --markdown --out "$tuning_tmp" 2>/dev/null
diff -u docs/TUNING.md "$tuning_tmp"
rm -f "$tuning_tmp"

# Perfbench smoke: the wall-clock benchmark (benchmark/, its own package;
# PRs may not edit it) must still build against the public API it calls
# (`ctx.pmix().get`, `GroupDirectives`, `PmixUniverse::new`,
# `Launcher::universe`, ...) and every op of all five workloads must
# verify. Tiny op counts — this gates "still runs and is still correct",
# never speed (timing is `benchmark/run.sh compare`, per PR, by hand).
echo "== perfbench smoke (benchmark/run.sh --smoke: 5 workloads, 0 failed ops) =="
smoke_tmp="$(mktemp -t perfbench_ci.XXXXXX.txt)"
benchmark/run.sh --smoke >"$smoke_tmp"
if [ "$(grep -c ', 0 of [0-9]* ops failed$' "$smoke_tmp")" -ne 5 ]; then
  grep 'ops failed' "$smoke_tmp" >&2 || true
  echo "perfbench smoke: expected 5 workloads, each with 0 failed ops" >&2
  exit 1
fi
rm -f "$smoke_tmp"

echo "CI OK"
