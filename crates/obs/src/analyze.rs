//! Offline trace analysis: assemble the global span DAG, extract the
//! critical path, compute per-stage inclusive/exclusive cost, and emit
//! deterministic JSON plus a folded-stack flamegraph text report.
//!
//! Runtime span/trace ids and raw Lamport clocks are scheduling-dependent,
//! so nothing from the runtime representation reaches the output directly.
//! Instead every span is given a **canonical id** —
//! `process/name[:key][#occurrence]` — which is run-stable because `key` is
//! a caller-supplied stable discriminator and occurrence numbers follow
//! per-process start order (deterministic: each simulated process is
//! single-threaded, and server-side spans carry unique operation-id keys).
//! Logical times are *recomputed* here as longest-path depths over the
//! deterministic DAG, and all costs come from the spans' `work` counters,
//! never from wall time. Two runs at the same seed/size therefore produce
//! byte-identical reports.
//!
//! DAG edges, all run-stable:
//!
//! * **parent → child** — the child started inside the parent;
//! * **link → linker** — a context carried by a message (or handed across
//!   threads) causally precedes the span that linked it;
//! * **sibling order** — consecutive spans sharing `(process, parent)`,
//!   ordered by per-process start sequence. Spans *without* a parent get no
//!   sibling edges: on multi-client servers their relative start order is
//!   arrival order, which thread scheduling may permute.

use crate::trace::{SpanId, SpanRecord};
use serde_json::{Map, Value};
use std::collections::HashMap;

/// Schema identifier stamped into every report.
pub const TRACE_SCHEMA: &str = "mpi-sessions-trace-v1";

/// Exclusive cost of a span: its own deterministic work, floored at 1 so
/// every stage on a path contributes.
fn exclusive(rec: &SpanRecord) -> u64 {
    rec.work.max(1)
}

struct Node<'a> {
    rec: &'a SpanRecord,
    canon: String,
    /// Indices of causal predecessors (deduped).
    preds: Vec<usize>,
    /// Indices of children by parent tree.
    children: Vec<usize>,
}

/// Analyze a span snapshot into the deterministic JSON report.
///
/// `dropped` is the registry's span-drop counter; it is surfaced in the
/// report so a truncated trace can never masquerade as a complete one.
pub fn analyze(spans: &[SpanRecord], dropped: u64) -> Value {
    // Stable base order: per-process start order, then process name.
    let mut order: Vec<&SpanRecord> = spans.iter().collect();
    order.sort_by(|a, b| {
        (a.process.as_str(), a.seq, a.id).cmp(&(b.process.as_str(), b.seq, b.id))
    });

    // Canonical ids, with occurrence suffixes for repeated (process, name,
    // key) triples.
    let mut occ: HashMap<(&str, &str, &str), u64> = HashMap::new();
    let mut nodes: Vec<Node> = order
        .into_iter()
        .map(|rec| {
            let triple = (rec.process.as_str(), rec.name, rec.key.as_str());
            let n = occ.entry(triple).or_insert(0);
            let mut canon = if rec.key.is_empty() {
                format!("{}/{}", rec.process, rec.name)
            } else {
                format!("{}/{}:{}", rec.process, rec.name, rec.key)
            };
            if *n > 0 {
                canon.push('#');
                canon.push_str(&n.to_string());
            }
            *n += 1;
            Node { rec, canon, preds: Vec::new(), children: Vec::new() }
        })
        .collect();

    let by_id: HashMap<SpanId, usize> =
        nodes.iter().enumerate().map(|(i, n)| (n.rec.id, i)).collect();

    // Parent and link edges.
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for (i, node) in nodes.iter().enumerate() {
        if let Some(p) = node.rec.parent {
            if let Some(&pi) = by_id.get(&p) {
                edges.push((pi, i));
            }
        }
        for l in &node.rec.links {
            if let Some(&li) = by_id.get(&l.span) {
                if li != i {
                    edges.push((li, i));
                }
            }
        }
    }
    // Sibling edges between consecutive spans sharing (process, parent);
    // nodes are already in per-process seq order.
    let mut sib_prev: HashMap<(&str, SpanId), usize> = HashMap::new();
    for (i, node) in nodes.iter().enumerate() {
        let Some(parent) = node.rec.parent else { continue };
        if !by_id.contains_key(&parent) {
            continue;
        }
        let k = (node.rec.process.as_str(), parent);
        if let Some(&prev) = sib_prev.get(&k) {
            edges.push((prev, i));
        }
        sib_prev.insert(k, i);
    }
    edges.sort_unstable();
    edges.dedup();
    for &(from, to) in &edges {
        nodes[to].preds.push(from);
    }
    let parent_children: Vec<(usize, usize)> = nodes
        .iter()
        .enumerate()
        .filter_map(|(i, n)| {
            n.rec.parent.and_then(|p| by_id.get(&p).map(|&pi| (pi, i)))
        })
        .collect();
    for (pi, ci) in parent_children {
        nodes[pi].children.push(ci);
    }

    // Deterministic topological order (Kahn, ready set ordered by canonical
    // id). Link cycles are routine: a link asserts the predecessor happened
    // before *some point* of the (interval) span, so two spans that each
    // observed the other's context — e.g. both servers' `group.xchg` during
    // a contribution exchange — legitimately link each other. Parent edges
    // are tree edges and genuinely precede the child's start.
    let n = nodes.len();
    let mut indeg: Vec<usize> = vec![0; n];
    for (i, node) in nodes.iter().enumerate() {
        indeg[i] = node.preds.len();
    }
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, node) in nodes.iter().enumerate() {
        for &p in &node.preds {
            succs[p].push(i);
        }
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut topo: Vec<usize> = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    while topo.len() < n {
        let next = if ready.is_empty() {
            // Cycle: break it by dropping a link edge, never a parent edge
            // — force the smallest unplaced node whose parent is already
            // placed (its unsatisfied predecessors are all links), so a
            // span downstream of the cycle can't get ordered before its
            // parent and lose its depth. Fall back to the global minimum
            // only if every unplaced node waits on an unplaced parent.
            let parent_placed = |i: usize| {
                nodes[i].rec.parent.is_none_or(|p| by_id.get(&p).is_none_or(|&pi| placed[pi]))
            };
            (0..n)
                .filter(|&i| !placed[i] && parent_placed(i))
                .min_by(|&a, &b| nodes[a].canon.cmp(&nodes[b].canon))
                .or_else(|| {
                    (0..n)
                        .filter(|&i| !placed[i])
                        .min_by(|&a, &b| nodes[a].canon.cmp(&nodes[b].canon))
                })
                .expect("unplaced node exists")
        } else {
            let (pos, _) = ready
                .iter()
                .enumerate()
                .min_by(|(_, &a), (_, &b)| nodes[a].canon.cmp(&nodes[b].canon))
                .expect("ready non-empty");
            ready.swap_remove(pos)
        };
        if placed[next] {
            continue;
        }
        placed[next] = true;
        topo.push(next);
        for &s in &succs[next] {
            if placed[s] {
                continue;
            }
            indeg[s] = indeg[s].saturating_sub(1);
            if indeg[s] == 0 {
                ready.push(s);
            }
        }
    }
    let mut topo_pos = vec![0usize; n];
    for (pos, &i) in topo.iter().enumerate() {
        topo_pos[i] = pos;
    }

    // Longest paths: logical depth (edge count) and cumulative exclusive
    // cost with best-predecessor back-pointers for the critical path.
    // Only predecessors that precede a node in the topological order count,
    // so a (tolerated) cycle cannot recurse.
    let mut depth: Vec<u64> = vec![0; n];
    let mut dist: Vec<u64> = vec![0; n];
    let mut best_pred: Vec<Option<usize>> = vec![None; n];
    for &i in &topo {
        let excl = exclusive(nodes[i].rec);
        let mut d = 0u64;
        let mut best: Option<(u64, &str)> = None;
        for &p in &nodes[i].preds {
            if topo_pos[p] >= topo_pos[i] {
                continue;
            }
            d = d.max(depth[p] + 1);
            let cand = (dist[p], nodes[p].canon.as_str());
            let better = match best {
                None => true,
                // Higher cost wins; ties break toward the smaller
                // canonical id so the choice is run-stable.
                Some((bc, bn)) => cand.0 > bc || (cand.0 == bc && cand.1 < bn),
            };
            if better {
                best = Some(cand);
                best_pred[i] = Some(p);
            }
        }
        depth[i] = d;
        dist[i] = excl + best.map(|(c, _)| c).unwrap_or(0);
    }

    // Inclusive cost over the parent tree (children have larger runtime
    // ids than their parents, so descending-id order visits leaves first).
    let mut by_rid: Vec<usize> = (0..n).collect();
    by_rid.sort_by(|&a, &b| nodes[b].rec.id.cmp(&nodes[a].rec.id));
    let mut inclusive: Vec<u64> = (0..n).map(|i| exclusive(nodes[i].rec)).collect();
    for &i in &by_rid {
        let sum: u64 = nodes[i].children.iter().map(|&c| inclusive[c]).sum();
        inclusive[i] += sum;
    }

    // Group spans by runtime trace id; name each trace after its root
    // (the parentless span with the smallest canonical id).
    let mut traces: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, node) in nodes.iter().enumerate() {
        traces.entry(node.rec.trace.0).or_default().push(i);
    }
    let mut trace_list: Vec<(String, Vec<usize>)> = traces
        .into_values()
        .map(|members| {
            let root = members
                .iter()
                .copied()
                .filter(|&i| nodes[i].rec.parent.is_none())
                .min_by(|&a, &b| nodes[a].canon.cmp(&nodes[b].canon))
                .or_else(|| {
                    members
                        .iter()
                        .copied()
                        .min_by(|&a, &b| nodes[a].canon.cmp(&nodes[b].canon))
                })
                .expect("trace has members");
            (nodes[root].canon.clone(), members)
        })
        .collect();
    trace_list.sort_by(|a, b| a.0.cmp(&b.0));

    let mut traces_json: Vec<Value> = Vec::new();
    for (root, members) in &trace_list {
        // Critical path: walk best-predecessor links back from the
        // costliest member.
        let end = members
            .iter()
            .copied()
            .max_by(|&a, &b| {
                dist[a]
                    .cmp(&dist[b])
                    .then_with(|| nodes[b].canon.cmp(&nodes[a].canon))
            })
            .expect("trace has members");
        let mut path = Vec::new();
        let mut cur = Some(end);
        while let Some(i) = cur {
            path.push(i);
            cur = best_pred[i];
        }
        path.reverse();
        let path_json: Vec<Value> = path
            .iter()
            .map(|&i| {
                let mut m = Map::new();
                m.insert("span".into(), Value::Str(nodes[i].canon.clone()));
                m.insert("process".into(), Value::Str(nodes[i].rec.process.clone()));
                m.insert("name".into(), Value::Str(nodes[i].rec.name.into()));
                m.insert("exclusive".into(), Value::U64(exclusive(nodes[i].rec)));
                Value::Object(m)
            })
            .collect();
        let mut t = Map::new();
        t.insert("root".into(), Value::Str(root.clone()));
        t.insert("spans".into(), Value::U64(members.len() as u64));
        t.insert("critical_path_cost".into(), Value::U64(dist[end]));
        t.insert("critical_path".into(), Value::Array(path_json));
        traces_json.push(Value::Object(t));
    }

    // Per-stage aggregation by span name.
    let mut stages: Map = Map::new();
    let mut stage_acc: HashMap<&str, (u64, u64, u64)> = HashMap::new();
    for (i, node) in nodes.iter().enumerate() {
        let e = stage_acc.entry(node.rec.name).or_insert((0, 0, 0));
        e.0 += 1;
        e.1 += exclusive(node.rec);
        e.2 += inclusive[i];
    }
    let mut stage_names: Vec<&str> = stage_acc.keys().copied().collect();
    stage_names.sort_unstable();
    for name in stage_names {
        let (count, excl, incl) = stage_acc[name];
        let mut m = Map::new();
        m.insert("count".into(), Value::U64(count));
        m.insert("exclusive".into(), Value::U64(excl));
        m.insert("inclusive".into(), Value::U64(incl));
        stages.insert(name.to_string(), Value::Object(m));
    }

    // Span table, sorted by canonical id.
    let mut span_order: Vec<usize> = (0..n).collect();
    span_order.sort_by(|&a, &b| nodes[a].canon.cmp(&nodes[b].canon));
    let spans_json: Vec<Value> = span_order
        .iter()
        .map(|&i| {
            let node = &nodes[i];
            let mut m = Map::new();
            m.insert("id".into(), Value::Str(node.canon.clone()));
            m.insert("process".into(), Value::Str(node.rec.process.clone()));
            m.insert("name".into(), Value::Str(node.rec.name.into()));
            m.insert("key".into(), Value::Str(node.rec.key.clone()));
            if let Some(p) = node.rec.parent.and_then(|p| by_id.get(&p)) {
                m.insert("parent".into(), Value::Str(nodes[*p].canon.clone()));
            }
            let mut links: Vec<String> = node
                .rec
                .links
                .iter()
                .filter_map(|l| by_id.get(&l.span).map(|&li| nodes[li].canon.clone()))
                .collect();
            links.sort();
            links.dedup();
            m.insert(
                "links".into(),
                Value::Array(links.into_iter().map(Value::Str).collect()),
            );
            m.insert("logical_start".into(), Value::U64(depth[i]));
            m.insert("logical_end".into(), Value::U64(depth[i] + exclusive(node.rec)));
            m.insert("work".into(), Value::U64(node.rec.work));
            m.insert("exclusive".into(), Value::U64(exclusive(node.rec)));
            m.insert("inclusive".into(), Value::U64(inclusive[i]));
            if !node.rec.faults.is_empty() {
                m.insert(
                    "faults".into(),
                    Value::Array(
                        node.rec.faults.iter().cloned().map(Value::Str).collect(),
                    ),
                );
            }
            Value::Object(m)
        })
        .collect();

    // Folded-stack flamegraph lines: frames are process:name along the
    // parent chain, values sum exclusive cost over identical stacks.
    let mut folded: HashMap<String, u64> = HashMap::new();
    for i in 0..n {
        let mut frames: Vec<String> = Vec::new();
        let mut cur = Some(i);
        let mut hops = 0;
        while let Some(j) = cur {
            frames.push(format!("{}:{}", nodes[j].rec.process, nodes[j].rec.name));
            cur = nodes[j].rec.parent.and_then(|p| by_id.get(&p).copied());
            hops += 1;
            if hops > n {
                break; // defensive: malformed parent chain
            }
        }
        frames.reverse();
        *folded.entry(frames.join(";")).or_insert(0) += exclusive(nodes[i].rec);
    }
    let mut flame: Vec<String> = folded
        .into_iter()
        .map(|(stack, v)| format!("{stack} {v}"))
        .collect();
    flame.sort();

    // Spans annotated with faults, for fault-attribution reports.
    let fault_spans: Vec<Value> = span_order
        .iter()
        .filter(|&&i| !nodes[i].rec.faults.is_empty())
        .map(|&i| {
            let mut m = Map::new();
            m.insert("span".into(), Value::Str(nodes[i].canon.clone()));
            m.insert(
                "faults".into(),
                Value::Array(nodes[i].rec.faults.iter().cloned().map(Value::Str).collect()),
            );
            Value::Object(m)
        })
        .collect();

    let mut root = Map::new();
    root.insert("schema".into(), Value::Str(TRACE_SCHEMA.to_string()));
    root.insert("span_count".into(), Value::U64(n as u64));
    root.insert("spans_dropped".into(), Value::U64(dropped));
    root.insert("traces".into(), Value::Array(traces_json));
    root.insert("stages".into(), Value::Object(stages));
    root.insert("spans".into(), Value::Array(spans_json));
    root.insert(
        "flamegraph".into(),
        Value::Array(flame.into_iter().map(Value::Str).collect()),
    );
    root.insert("fault_spans".into(), Value::Array(fault_spans));
    Value::Object(root)
}

/// Render the flamegraph lines of an [`analyze`] report as one text block
/// (folded-stack format, one `stack value` line each — feed straight into
/// any flamegraph renderer, or read as-is: indentation is the `;` depth).
pub fn flamegraph_text(report: &Value) -> String {
    let mut out = String::new();
    if let Some(lines) = report
        .as_object()
        .and_then(|o| o.get("flamegraph"))
        .and_then(Value::as_array)
    {
        for l in lines {
            if let Some(s) = l.as_str() {
                out.push_str(s);
                out.push('\n');
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn report(r: &Registry) -> Value {
        analyze(&r.spans_snapshot(), r.spans_dropped())
    }

    #[test]
    fn empty_snapshot_analyzes() {
        let v = analyze(&[], 0);
        let o = v.as_object().unwrap();
        assert_eq!(o["span_count"].as_u64(), Some(0));
        assert_eq!(o["schema"].as_str(), Some(TRACE_SCHEMA));
    }

    #[test]
    fn critical_path_follows_cost_across_a_link() {
        let r = Registry::new();
        let root = r.span("p0", "job", "");
        let g = root.enter();
        let mut cheap = r.span("p0", "cheap", "");
        cheap.add_work(1);
        let mut remote = r.span("p1", "remote", "");
        remote.link(cheap.context());
        remote.add_work(50);
        cheap.end();
        remote.end();
        drop(g);
        drop(root);
        let v = report(&r);
        let traces = v.as_object().unwrap()["traces"].as_array().unwrap();
        assert_eq!(traces.len(), 1);
        let path = traces[0].as_object().unwrap()["critical_path"]
            .as_array()
            .unwrap();
        let names: Vec<&str> = path
            .iter()
            .map(|e| e.as_object().unwrap()["name"].as_str().unwrap())
            .collect();
        assert_eq!(names, vec!["job", "cheap", "remote"]);
    }

    #[test]
    fn inclusive_rolls_up_the_parent_tree() {
        let r = Registry::new();
        let mut root = r.span("p0", "outer", "");
        root.add_work(2);
        let g = root.enter();
        let mut a = r.span("p0", "inner", "a");
        a.add_work(3);
        a.end();
        let mut b = r.span("p0", "inner", "b");
        b.add_work(4);
        b.end();
        drop(g);
        root.end();
        let v = report(&r);
        let spans = v.as_object().unwrap()["spans"].as_array().unwrap();
        let outer = spans
            .iter()
            .map(|s| s.as_object().unwrap())
            .find(|s| s["name"].as_str() == Some("outer"))
            .unwrap();
        assert_eq!(outer["exclusive"].as_u64(), Some(2));
        assert_eq!(outer["inclusive"].as_u64(), Some(9));
    }

    #[test]
    fn output_is_deterministic_for_one_snapshot() {
        let r = Registry::new();
        let root = r.span("p0", "job", "");
        let g = root.enter();
        for i in 0..4 {
            let mut s = r.span("p0", "step", i);
            s.add_work(i + 1);
            s.end();
        }
        drop(g);
        drop(root);
        let snap = r.spans_snapshot();
        let a = serde_json::to_string(&analyze(&snap, 0)).unwrap();
        let mut shuffled = snap.clone();
        shuffled.reverse(); // buffer order must not matter
        let b = serde_json::to_string(&analyze(&shuffled, 0)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn repeated_triples_get_occurrence_suffixes() {
        let r = Registry::new();
        r.span("p", "op", "k").end();
        r.span("p", "op", "k").end();
        let v = report(&r);
        let ids: Vec<String> = v.as_object().unwrap()["spans"]
            .as_array()
            .unwrap()
            .iter()
            .map(|s| s.as_object().unwrap()["id"].as_str().unwrap().to_string())
            .collect();
        assert_eq!(ids, vec!["p/op:k".to_string(), "p/op:k#1".to_string()]);
    }

    #[test]
    fn flamegraph_lines_fold_stacks() {
        let r = Registry::new();
        let root = r.span("p0", "job", "");
        let g = root.enter();
        let mut s1 = r.span("p0", "step", "0");
        s1.add_work(2);
        s1.end();
        let mut s2 = r.span("p0", "step", "1");
        s2.add_work(3);
        s2.end();
        drop(g);
        drop(root);
        let v = report(&r);
        let text = flamegraph_text(&v);
        assert!(text.contains("p0:job;p0:step 5"), "folded stack sums work: {text}");
    }

    #[test]
    fn faults_surface_in_fault_spans() {
        let r = Registry::new();
        let mut s = r.span("p0", "fence", "0");
        s.fault("fault:kill");
        s.end();
        let v = report(&r);
        let fs = v.as_object().unwrap()["fault_spans"].as_array().unwrap();
        assert_eq!(fs.len(), 1);
        assert_eq!(
            fs[0].as_object().unwrap()["span"].as_str(),
            Some("p0/fence:0")
        );
    }
}
