//! Golden-trace gate: validate a `--trace-out` report file against the
//! checked-in schema subset and print its critical-path stage orderings.
//!
//! Two jobs, both offline (no network, vendored JSON parser only):
//!
//! 1. **Schema check** — every run label in the file must hold a report
//!    matching `ci/trace_schema.json`: required keys with the right JSON
//!    types, the exact `schema` version string, zero dropped spans, and a
//!    referentially closed DAG (every `parent` / `links` / critical-path
//!    entry names a span that exists in the same report).
//! 2. **Stage ordering** — for each run and each trace root, print the
//!    critical path as span *names only* (no costs, no canonical ids), one
//!    line per trace. CI diffs this against a committed golden file, so
//!    the gate catches reordered or vanished stages but not cost drift.
//!
//! A third job rides on the same machinery: `--introspect <file>` switches
//! to validating a flight-recorder snapshot (`introspect_dump` output, or
//! the artifact a failing chaos run attaches) against
//! `ci/introspect_schema.json` — every process, request, server-shard and
//! cvar row must carry its required fields with the right types.
//!
//! Usage: `trace_check <trace.json> [--schema ci/trace_schema.json]`
//!        `trace_check --introspect <snapshot.json> [--schema <schema.json>]`
//! Exits nonzero on the first violation.

use apps::cli_opt;
use serde_json::{parse_value, Map, Value};

fn fail(msg: &str) -> ! {
    eprintln!("trace_check: {msg}");
    std::process::exit(1);
}

fn load(path: &str) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    parse_value(&text).unwrap_or_else(|e| fail(&format!("cannot parse {path}: {e}")))
}

/// True when `v` matches a schema type tag ("string" | "u64" | "array" |
/// "object").
fn type_ok(v: &Value, ty: &str) -> bool {
    match ty {
        "string" => v.as_str().is_some(),
        "u64" => v.as_u64().is_some(),
        "bool" => v.as_bool().is_some(),
        "array" => v.as_array().is_some(),
        "object" => v.as_object().is_some(),
        _ => false,
    }
}

/// Check that `obj` has every key of the `required` spec with the right
/// type; `where_` names the location for error messages.
fn check_required(obj: &Map, required: &Map, where_: &str) {
    for (field, ty) in required {
        let ty = ty.as_str().unwrap_or_else(|| fail("schema types must be strings"));
        match obj.get(field) {
            None => fail(&format!("{where_}: missing required field '{field}'")),
            Some(v) if !type_ok(v, ty) => {
                fail(&format!("{where_}: field '{field}' is not a {ty}"))
            }
            Some(_) => {}
        }
    }
}

fn required_spec<'a>(schema: &'a Map, key: &str) -> &'a Map {
    schema
        .get(key)
        .and_then(Value::as_object)
        .unwrap_or_else(|| fail(&format!("schema file is missing '{key}'")))
}

/// `--introspect` mode: validate one flight-recorder snapshot against the
/// introspect schema. Walks every nested collection — processes (and their
/// requests, PGCID families, cache), registry, servers (and their pending
/// PGCID releases and shards), cvar rows — checking required fields and
/// types.
fn check_introspect(snapshot_path: &str, schema_path: &str) {
    let schema = load(schema_path);
    let schema = schema.as_object().unwrap_or_else(|| fail("schema file must be an object"));
    let version = schema
        .get("schema")
        .and_then(Value::as_str)
        .unwrap_or_else(|| fail("schema file is missing 'schema' version string"));
    let root_req = required_spec(schema, "root_required");
    let proc_req = required_spec(schema, "process_required");
    let cache_req = required_spec(schema, "pml_cache_required");
    let request_req = required_spec(schema, "request_required");
    let family_req = required_spec(schema, "pgcid_family_required");
    let registry_req = required_spec(schema, "registry_required");
    let server_req = required_spec(schema, "server_required");
    let release_req = required_spec(schema, "pending_release_required");
    let shards_req = required_spec(schema, "shards_required");
    let cvar_req = required_spec(schema, "cvar_required");

    let snap = load(snapshot_path);
    let root = snap.as_object().unwrap_or_else(|| fail("snapshot must be an object"));
    check_required(root, root_req, "snapshot");
    let got = root.get("schema").and_then(Value::as_str).unwrap();
    if got != version {
        fail(&format!("snapshot schema '{got}', expected '{version}'"));
    }

    let procs = root.get("processes").and_then(Value::as_array).unwrap();
    for p in procs {
        let p = p.as_object().unwrap_or_else(|| fail("process entry is not an object"));
        check_required(p, proc_req, "process");
        let name = p.get("proc").and_then(Value::as_str).unwrap();
        let cache = p.get("pml_cache").and_then(Value::as_object).unwrap();
        check_required(cache, cache_req, &format!("process '{name}' pml_cache"));
        for r in p.get("requests").and_then(Value::as_array).unwrap() {
            let r = r
                .as_object()
                .unwrap_or_else(|| fail(&format!("process '{name}': request is not an object")));
            check_required(r, request_req, &format!("process '{name}' request"));
        }
        for f in p.get("pgcid_families").and_then(Value::as_array).unwrap() {
            let f = f
                .as_object()
                .unwrap_or_else(|| fail(&format!("process '{name}': family is not an object")));
            check_required(f, family_req, &format!("process '{name}' pgcid family"));
        }
    }

    let registry = root.get("registry").and_then(Value::as_object).unwrap();
    check_required(registry, registry_req, "registry");

    let servers = root.get("servers").and_then(Value::as_array).unwrap();
    if servers.is_empty() {
        fail("snapshot lists no servers (a universe always has the RM daemon)");
    }
    for s in servers {
        let s = s.as_object().unwrap_or_else(|| fail("server entry is not an object"));
        check_required(s, server_req, "server");
        for r in s.get("pending_releases").and_then(Value::as_array).unwrap() {
            let r = r.as_object().unwrap_or_else(|| fail("pending release is not an object"));
            check_required(r, release_req, "server pending release");
        }
        let shards = s.get("shards").and_then(Value::as_object).unwrap();
        check_required(shards, shards_req, "server shards");
    }

    for c in root.get("cvars").and_then(Value::as_array).unwrap() {
        let c = c.as_object().unwrap_or_else(|| fail("cvar row is not an object"));
        check_required(c, cvar_req, "cvar");
        if c.get("value").is_none() {
            fail("cvar row is missing 'value'");
        }
    }

    eprintln!(
        "trace_check: introspect OK ({} process(es), {} server(s), {} cvar(s))",
        procs.len(),
        servers.len(),
        root.get("cvars").and_then(Value::as_array).unwrap().len(),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(snapshot_path) = cli_opt(&args, "--introspect") {
        let schema_path =
            cli_opt(&args, "--schema").unwrap_or_else(|| "ci/introspect_schema.json".into());
        check_introspect(&snapshot_path, &schema_path);
        return;
    }
    let trace_path = args
        .iter()
        .skip(1)
        .find(|a| !a.starts_with("--") && Some(a.as_str()) != cli_opt(&args, "--schema").as_deref())
        .unwrap_or_else(|| fail("usage: trace_check <trace.json> [--schema <schema.json>]"));
    let schema_path = cli_opt(&args, "--schema").unwrap_or_else(|| "ci/trace_schema.json".into());

    let schema = load(&schema_path);
    let schema = schema.as_object().unwrap_or_else(|| fail("schema file must be an object"));
    let version = schema
        .get("schema")
        .and_then(Value::as_str)
        .unwrap_or_else(|| fail("schema file is missing 'schema' version string"));
    let report_req = required_spec(schema, "report_required");
    let span_req = required_spec(schema, "span_required");
    let trace_req = required_spec(schema, "trace_required");
    let cp_req = required_spec(schema, "critical_path_entry_required");
    let stage_req = required_spec(schema, "stage_required");

    let file = load(trace_path);
    let runs = file
        .as_object()
        .unwrap_or_else(|| fail("trace file must be an object of {label: report}"));
    if runs.is_empty() {
        fail("trace file has no runs (was the figure binary given --trace-out?)");
    }

    // Map is a BTreeMap, so labels and output ordering are deterministic.
    for (label, report) in runs {
        let report = report
            .as_object()
            .unwrap_or_else(|| fail(&format!("run '{label}': report is not an object")));
        check_required(report, report_req, &format!("run '{label}'"));
        let got = report.get("schema").and_then(Value::as_str).unwrap();
        if got != version {
            fail(&format!("run '{label}': schema '{got}', expected '{version}'"));
        }
        if report.get("spans_dropped").and_then(Value::as_u64).unwrap() != 0 {
            fail(&format!("run '{label}': report has dropped spans"));
        }

        // Span table: required fields plus a referentially closed DAG.
        let spans = report.get("spans").and_then(Value::as_array).unwrap();
        let mut ids: Vec<&str> = Vec::with_capacity(spans.len());
        for span in spans {
            let span = span
                .as_object()
                .unwrap_or_else(|| fail(&format!("run '{label}': span is not an object")));
            check_required(span, span_req, &format!("run '{label}' span"));
            let id = span.get("id").and_then(Value::as_str).unwrap();
            let start = span.get("logical_start").and_then(Value::as_u64).unwrap();
            let end = span.get("logical_end").and_then(Value::as_u64).unwrap();
            if start > end {
                fail(&format!("run '{label}' span '{id}': logical_start > logical_end"));
            }
            ids.push(id);
        }
        ids.sort_unstable();
        let known = |id: &str| ids.binary_search(&id).is_ok();
        for span in spans {
            let span = span.as_object().unwrap();
            let id = span.get("id").and_then(Value::as_str).unwrap();
            if let Some(p) = span.get("parent") {
                let p = p
                    .as_str()
                    .unwrap_or_else(|| fail(&format!("run '{label}' span '{id}': parent not a string")));
                if !known(p) {
                    fail(&format!("run '{label}' span '{id}': dangling parent '{p}'"));
                }
            }
            for l in span.get("links").and_then(Value::as_array).unwrap() {
                let l = l
                    .as_str()
                    .unwrap_or_else(|| fail(&format!("run '{label}' span '{id}': link not a string")));
                if !known(l) {
                    fail(&format!("run '{label}' span '{id}': dangling link '{l}'"));
                }
            }
        }
        let span_count = report.get("span_count").and_then(Value::as_u64).unwrap();
        if span_count != spans.len() as u64 {
            fail(&format!(
                "run '{label}': span_count {span_count} != {} spans listed",
                spans.len()
            ));
        }

        // Stage summary objects.
        for (stage, summary) in report.get("stages").and_then(Value::as_object).unwrap() {
            let summary = summary
                .as_object()
                .unwrap_or_else(|| fail(&format!("run '{label}' stage '{stage}': not an object")));
            check_required(summary, stage_req, &format!("run '{label}' stage '{stage}'"));
        }

        // Per-trace critical paths; print the stage ordering lines.
        for trace in report.get("traces").and_then(Value::as_array).unwrap() {
            let trace = trace
                .as_object()
                .unwrap_or_else(|| fail(&format!("run '{label}': trace is not an object")));
            check_required(trace, trace_req, &format!("run '{label}' trace"));
            let root = trace.get("root").and_then(Value::as_str).unwrap();
            if !known(root) {
                fail(&format!("run '{label}': trace root '{root}' is not a listed span"));
            }
            let mut names: Vec<&str> = Vec::new();
            for entry in trace.get("critical_path").and_then(Value::as_array).unwrap() {
                let entry = entry.as_object().unwrap_or_else(|| {
                    fail(&format!("run '{label}': critical-path entry is not an object"))
                });
                check_required(entry, cp_req, &format!("run '{label}' critical-path entry"));
                let span = entry.get("span").and_then(Value::as_str).unwrap();
                if !known(span) {
                    fail(&format!("run '{label}': critical path names unknown span '{span}'"));
                }
                names.push(entry.get("name").and_then(Value::as_str).unwrap());
            }
            println!("{label} {root}: {}", names.join(" -> "));
        }
    }
    eprintln!("trace_check: OK ({} run(s))", runs.len());
}
