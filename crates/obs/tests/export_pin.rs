//! Pins the exact text of every read surface of one registry — the JSON
//! export, the pvar and cvar listings, the trace analysis and its
//! flamegraph, the drop counters and the logical clock — after one fixed
//! script. The script touches every kind of stored record: counters
//! (one never incremented), gauges with high-water marks, histograms (one
//! empty), an event ring that overflows, cvars with a write, spans with
//! links, attributes and fault notes, and a span buffer that fills while
//! one span is still open. Spans started after the buffer is full still
//! link, enter and take fault notes, so the clock reading at the end pins
//! that a dropped span makes the same logical-clock ticks as a kept one.
//!
//! A change to how the registry stores what it records must leave this
//! text byte-identical.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use obs::analyze::{analyze, flamegraph_text};
use obs::tool::cvars_to_json;
use obs::trace::fault_current;
use obs::{u64_writer, AttrValue, CvarValue, Registry};

/// An event attribute key, converted to whatever key type the event
/// API takes.
fn key<K: From<&'static str>>(k: &'static str) -> K {
    K::from(k)
}

fn script() -> Registry {
    let r = Registry::with_capacities(4, 5);

    // Counters, across process-name shapes; a zero counter is not exported.
    r.counter("p0", "pml", "eager_sent").add(3);
    r.counter("p1", "pml", "eager_sent").inc();
    r.counter("server:0/s1", "pmix", "fence_completed").add(2);
    r.counter("p0", "pml", "never");

    // Gauges: a high-water mark above the current value, and a zero level.
    let g = r.gauge("p0", "cid", "table_used");
    g.add(5);
    g.add(-3);
    r.gauge("registry", "pmix", "psets_live").set(0);

    // Histograms: one with samples in several buckets, one empty.
    let h = r.histogram("launcher", "prrte", "map_ns");
    for ns in [500, 5_000, 2_000_000, 20_000_000_000] {
        h.record_ns(ns);
    }
    r.histogram("p1", "session", "init_handle_ns");

    // Events: six into a ring of four, then one of every attribute type.
    for i in 0..6u64 {
        r.event("p0", "req", "req.begin", vec![(key("id"), i.into()), (key("kind"), "comm".into())]);
    }
    r.event(
        "server:0",
        "pmix",
        "group.fanin",
        vec![
            (key("op"), AttrValue::Str("g1".into())),
            (key("n"), 2u64.into()),
            (key("neg"), (-1i64).into()),
            (key("f"), 0.5f64.into()),
            (key("ok"), true.into()),
        ],
    );

    // Cvars: a writable knob (the write emits `cvar.changed`) and a
    // read-only one.
    let cell = Arc::new(AtomicU64::new(8));
    let (rd, wr) = (cell.clone(), cell.clone());
    r.cvar_register(
        "universe",
        "demo.block",
        "a writable knob",
        move || Some(CvarValue::U64(rd.load(Ordering::Relaxed))),
        u64_writer(move |n| wr.store(n, Ordering::Relaxed)),
    );
    r.cvar_register("p0", "demo.mode", "a read-only knob", || Some(CvarValue::Str("eager".into())), None);
    r.cvar_write("universe", "demo.block", CvarValue::U64(32)).unwrap();

    // Spans, into a buffer of five. `long` stays open while the buffer fills.
    let root = r.span("launcher", "launch", "job0");
    let root_ctx = root.context();
    let long = r.span_with_parent("p0", "rank.main", "", Some(root_ctx));
    {
        let entered = long.enter();
        let mut init = r.span("p0", "session.init", "");
        init.add_work(2);
        init.attr("mode", "eager");
        init.attr("n", 3u64);
        let init_ctx = init.context();
        init.end();
        let mut recv = r.span("p1", "pml.handshake_recv", "7.0<-0");
        recv.link(init_ctx);
        recv.link(init_ctx);
        recv.add_work(1);
        let inside = recv.enter();
        assert!(fault_current("fault:delay"));
        drop(inside);
        recv.fault("fault:kill");
        recv.end();
        drop(entered);
    }
    let mut fanin = r.span_with_parent("server:0", "group.fanin", "op1", None);
    fanin.link(root_ctx);
    fanin.add_work(4);
    fanin.end();
    root.end();
    r.span("p1", "fill", "").end();

    // The buffer is full: these spans are dropped, but still link, enter,
    // take attributes and fault notes, and tick the clock.
    let mut late = r.span("p0", "late", "k");
    late.attr("peer", "p1");
    late.link(root_ctx);
    late.add_work(9);
    {
        let entered = late.enter();
        assert!(fault_current("fault:late"));
        let mut child = r.span("p0", "late.child", "");
        child.fault("fault:child");
        child.end();
        drop(entered);
    }
    let _ = late.context();
    late.end();
    long.end();
    r
}

fn render(r: &Registry) -> String {
    let mut out = String::new();
    out.push_str("export ");
    out.push_str(&serde_json::to_string_pretty(&r.export()).unwrap());
    out.push_str("\npvars\n");
    for d in r.pvar_enumerate() {
        out.push_str(&format!("  {} {} {} {}\n", d.class.as_str(), d.process, d.component, d.name));
    }
    out.push_str("cvars ");
    out.push_str(&serde_json::to_string(&cvars_to_json(r)).unwrap());
    // The raw records analysis does not show: clocks, seqs and attributes.
    let mut spans = r.spans_snapshot();
    spans.sort_by(|a, b| (a.process.as_str(), a.seq).cmp(&(b.process.as_str(), b.seq)));
    out.push_str("\nrecords\n");
    for s in &spans {
        let attrs: Vec<String> = s.attrs.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
        out.push_str(&format!(
            "  {}#{} {}:{} clocks {}..{} work {} links {} attrs [{}] faults {:?}\n",
            s.process,
            s.seq,
            s.name,
            s.key,
            s.start_clock,
            s.end_clock,
            s.work,
            s.links.len(),
            attrs.join(", "),
            s.faults
        ));
    }
    let report = analyze(&r.spans_snapshot(), r.spans_dropped());
    out.push_str("analyze ");
    out.push_str(&serde_json::to_string_pretty(&report).unwrap());
    out.push_str("\nflamegraph\n");
    out.push_str(&flamegraph_text(&report));
    out.push_str(&format!(
        "spans kept {} dropped {}; events kept {} dropped {}\n",
        r.spans_snapshot().len(),
        r.spans_dropped(),
        r.events_len(),
        r.events_dropped()
    ));
    out.push_str(&format!("clock after script {}\n", r.span("p9", "probe", "").context().clock));
    out
}

#[test]
fn every_read_surface_is_pinned() {
    let got = render(&script());
    if got != PINNED {
        println!("{got}");
    }
    assert!(got == PINNED, "the registry's read surfaces changed (full text above)");
}

const PINNED: &str = r##"export {
  "counters": {
    "p0": {
      "pml": {
        "eager_sent": 3
      }
    },
    "p1": {
      "pml": {
        "eager_sent": 1
      }
    },
    "server:0/s1": {
      "pmix": {
        "fence_completed": 2
      }
    }
  },
  "events": {
    "dropped": 4,
    "recorded": [
      {
        "attrs": {
          "id": 4,
          "kind": "comm"
        },
        "component": "req",
        "name": "req.begin",
        "process": "p0",
        "ts": 4
      },
      {
        "attrs": {
          "id": 5,
          "kind": "comm"
        },
        "component": "req",
        "name": "req.begin",
        "process": "p0",
        "ts": 5
      },
      {
        "attrs": {
          "f": 0.5,
          "n": 2,
          "neg": -1,
          "ok": true,
          "op": "g1"
        },
        "component": "pmix",
        "name": "group.fanin",
        "process": "server:0",
        "ts": 6
      },
      {
        "attrs": {
          "cvar": "demo.block",
          "from": "8",
          "to": "32"
        },
        "component": "tool",
        "name": "cvar.changed",
        "process": "universe",
        "ts": 7
      }
    ],
    "warning": "event ring overflowed: 4 event(s) dropped; raise the event capacity or reduce instrumentation"
  },
  "gauges": {
    "p0": {
      "cid": {
        "table_used": 2,
        "table_used#hw": 5
      }
    },
    "registry": {
      "pmix": {
        "psets_live": 0,
        "psets_live#hw": 0
      }
    }
  },
  "histograms": {
    "launcher": {
      "prrte": {
        "map_ns": {
          "buckets": [
            1,
            1,
            0,
            0,
            1,
            0,
            0,
            0,
            1
          ],
          "count": 4,
          "max_ns": 20000000000,
          "p50_ns": 10000,
          "p95_ns": 20000000000,
          "p99_ns": 20000000000,
          "sum_ns": 20002005500
        }
      }
    }
  }
}
pvars
  counter p0 pml eager_sent
  counter p1 pml eager_sent
  counter server:0/s1 pmix fence_completed
  level p0 cid table_used
  level registry pmix psets_live
  timer launcher prrte map_ns
cvars [{"description":"a read-only knob","name":"demo.mode","scope":"p0","value":"eager","writable":false},{"description":"a writable knob","name":"demo.block","scope":"universe","value":32,"writable":true}]
records
  launcher#0 launch:job0 clocks 1..16 work 0 links 0 attrs [] faults []
  p0#1 session.init: clocks 5..7 work 2 links 0 attrs [mode=Str("eager"), n=U64(3)] faults []
  p1#0 pml.handshake_recv:7.0<-0 clocks 8..12 work 1 links 1 attrs [] faults ["fault:kill", "fault:delay"]
  p1#1 fill: clocks 17..18 work 0 links 0 attrs [] faults []
  server:0#0 group.fanin:op1 clocks 13..15 work 4 links 1 attrs [] faults []
analyze {
  "fault_spans": [
    {
      "faults": [
        "fault:kill",
        "fault:delay"
      ],
      "span": "p1/pml.handshake_recv:7.0<-0"
    }
  ],
  "flamegraph": [
    "launcher:launch 1",
    "p0:session.init 2",
    "p1:fill 1",
    "p1:pml.handshake_recv 1",
    "server:0:group.fanin 4"
  ],
  "schema": "mpi-sessions-trace-v1",
  "span_count": 5,
  "spans": [
    {
      "exclusive": 1,
      "id": "launcher/launch:job0",
      "inclusive": 1,
      "key": "job0",
      "links": [],
      "logical_end": 1,
      "logical_start": 0,
      "name": "launch",
      "process": "launcher",
      "work": 0
    },
    {
      "exclusive": 2,
      "id": "p0/session.init",
      "inclusive": 2,
      "key": "",
      "links": [],
      "logical_end": 2,
      "logical_start": 0,
      "name": "session.init",
      "process": "p0",
      "work": 2
    },
    {
      "exclusive": 1,
      "id": "p1/fill",
      "inclusive": 1,
      "key": "",
      "links": [],
      "logical_end": 1,
      "logical_start": 0,
      "name": "fill",
      "process": "p1",
      "work": 0
    },
    {
      "exclusive": 1,
      "faults": [
        "fault:kill",
        "fault:delay"
      ],
      "id": "p1/pml.handshake_recv:7.0<-0",
      "inclusive": 1,
      "key": "7.0<-0",
      "links": [
        "p0/session.init"
      ],
      "logical_end": 2,
      "logical_start": 1,
      "name": "pml.handshake_recv",
      "process": "p1",
      "work": 1
    },
    {
      "exclusive": 4,
      "id": "server:0/group.fanin:op1",
      "inclusive": 4,
      "key": "op1",
      "links": [
        "launcher/launch:job0"
      ],
      "logical_end": 5,
      "logical_start": 1,
      "name": "group.fanin",
      "process": "server:0",
      "work": 4
    }
  ],
  "spans_dropped": 3,
  "stages": {
    "fill": {
      "count": 1,
      "exclusive": 1,
      "inclusive": 1
    },
    "group.fanin": {
      "count": 1,
      "exclusive": 4,
      "inclusive": 4
    },
    "launch": {
      "count": 1,
      "exclusive": 1,
      "inclusive": 1
    },
    "pml.handshake_recv": {
      "count": 1,
      "exclusive": 1,
      "inclusive": 1
    },
    "session.init": {
      "count": 1,
      "exclusive": 2,
      "inclusive": 2
    }
  },
  "traces": [
    {
      "critical_path": [
        {
          "exclusive": 1,
          "name": "launch",
          "process": "launcher",
          "span": "launcher/launch:job0"
        },
        {
          "exclusive": 4,
          "name": "group.fanin",
          "process": "server:0",
          "span": "server:0/group.fanin:op1"
        }
      ],
      "critical_path_cost": 5,
      "root": "launcher/launch:job0",
      "spans": 4
    },
    {
      "critical_path": [
        {
          "exclusive": 1,
          "name": "fill",
          "process": "p1",
          "span": "p1/fill"
        }
      ],
      "critical_path_cost": 1,
      "root": "p1/fill",
      "spans": 1
    }
  ]
}
flamegraph
launcher:launch 1
p0:session.init 2
p1:fill 1
p1:pml.handshake_recv 1
server:0:group.fanin 4
spans kept 5 dropped 3; events kept 4 dropped 4
clock after script 28
"##;
