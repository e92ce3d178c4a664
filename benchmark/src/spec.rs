//! The benchmark's contract, read from the root `BENCHMARK.json` at build
//! time: which metrics exist, their units, directions and bounds. The
//! binary prints exactly the names listed there, so the file and the
//! binary cannot drift apart unnoticed.

use serde_json::Value;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// End-to-end metrics only: the share of the base value by which the
    /// metric may worsen before it counts as a regression.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metric(v: &Value) -> MetricSpec {
    let field = |k: &str| v.as_object().and_then(|o| o.get(k));
    let text = |k: &str| {
        field(k)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("metric without {k}"))
            .to_owned()
    };
    MetricSpec {
        name: text("name"),
        unit: text("unit"),
        higher_is_better: text("better") == "higher",
        bound: field("bound").and_then(Value::as_f64),
    }
}

impl Spec {
    pub fn load() -> Spec {
        let root: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let list = |k: &str| -> Vec<Value> {
            root.as_object()
                .and_then(|o| o.get(k))
                .and_then(Value::as_array)
                .unwrap_or_else(|| panic!("BENCHMARK.json has no list {k}"))
                .clone()
        };
        Spec {
            workloads: list("workloads")
                .iter()
                .map(|w| {
                    let name = w
                        .as_object()
                        .and_then(|o| o.get("name"))
                        .and_then(Value::as_str);
                    name.expect("workload name").to_owned()
                })
                .collect(),
            end_to_end: list("end_to_end").iter().map(metric).collect(),
            per_layer: list("per_layer").iter().map(metric).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    #[test]
    fn benchmark_json_names_the_workloads_and_well_formed_metrics() {
        let spec = Spec::load();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, names);
        let ok = |s: &str, extra: &str| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(
                ok(&m.name, "_.-") && m.name.len() <= 64,
                "name {:?}",
                m.name
            );
            assert!(
                ok(&m.unit, "_/%.-") && m.unit.len() <= 16,
                "unit {:?}",
                m.unit
            );
            assert!(seen.insert(m.name.clone()), "{} listed twice", m.name);
        }
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
    }
}
