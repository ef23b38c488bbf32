//! `BENCHMARK.json` as the binary reads it: the bounds `--check-repeat`
//! compares against, and the names the unit tests hold the metric
//! dictionary to.

use serde::value::{Number, Value};
use serde::Deserialize;

/// One end-to-end metric entry.
#[derive(Debug, Clone, Deserialize)]
pub struct EndToEndSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the median by which the metric may worsen.
    pub bound: f64,
}

/// The part of the file the binary acts on.
#[derive(Debug, Clone, Deserialize)]
pub struct BenchmarkSpec {
    /// The gated metrics.
    pub end_to_end: Vec<EndToEndSpec>,
}

impl BenchmarkSpec {
    /// Parse the file's text.
    pub fn parse(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

/// A result line's `metrics` object: dynamic keys, so it is read as a
/// raw value tree.
struct Raw(Value);

impl Deserialize for Raw {
    fn from_value(v: &Value) -> Result<Self, serde::de::Error> {
        Ok(Raw(v.clone()))
    }
}

/// The fields of a result line the orchestrating modes need.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultLine {
    /// Every check passed.
    pub correct: bool,
    /// `(metric name, value)` in printed order.
    pub metrics: Vec<(String, f64)>,
}

/// Parse the contract's last-line object.
pub fn parse_result_line(line: &str) -> Result<ResultLine, String> {
    let Raw(root) = serde_json::from_str(line).map_err(|e| e.to_string())?;
    let fields = root.as_object().ok_or("result line is not an object")?;
    let field = |name: &str| {
        fields
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or(format!("result line has no `{name}`"))
    };
    let correct = matches!(field("correct")?, Value::Bool(true));
    let mut metrics = Vec::new();
    for (name, entry) in field("metrics")?
        .as_object()
        .ok_or("`metrics` is not an object")?
    {
        let value = entry
            .as_object()
            .and_then(|e| e.iter().find(|(k, _)| k == "value"))
            .and_then(|(_, v)| match v {
                Value::Number(Number::U64(n)) => Some(*n as f64),
                Value::Number(Number::I64(n)) => Some(*n as f64),
                Value::Number(Number::F64(n)) => Some(*n),
                _ => None,
            })
            .ok_or(format!("metric `{name}` has no numeric value"))?;
        metrics.push((name.clone(), value));
    }
    Ok(ResultLine { correct, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};

    #[derive(Deserialize)]
    struct Named {
        name: String,
        #[serde(default)]
        why: String,
        #[serde(default)]
        unit: String,
        #[serde(default)]
        better: String,
    }

    /// The whole file, as the contract lays it out.
    #[derive(Deserialize)]
    struct FullSpec {
        command: Vec<String>,
        paths: Vec<String>,
        run_seconds: u64,
        workloads: Vec<Named>,
        end_to_end: Vec<EndToEndSpec>,
        per_layer: Vec<Named>,
    }

    fn spec() -> FullSpec {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn benchmark_json_names_match_what_the_binary_prints() {
        let spec = spec();
        let names: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, WORKLOADS);
        let e2e: Vec<(&str, &str, &str)> = spec
            .end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str(), m.better.as_str()))
            .collect();
        assert_eq!(e2e, END_TO_END);
        let layers: Vec<(&str, &str, &str)> = spec
            .per_layer
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str(), m.better.as_str()))
            .collect();
        assert_eq!(layers, PER_LAYER);
    }

    #[test]
    fn benchmark_json_stays_inside_the_contract() {
        let spec = spec();
        assert_eq!(spec.paths, ["benchmark"]);
        assert!(spec.command.iter().any(|a| a.starts_with("benchmark/")));
        assert!((1..=60).contains(&spec.run_seconds));
        assert!(spec
            .workloads
            .iter()
            .all(|w| !w.why.is_empty() && w.why.len() <= 200));
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        // 4 + 22 runs per workload, two builds, all inside 3420 s.
        let runs = 4 + 22 * spec.workloads.len() as u64;
        assert!(runs * (spec.run_seconds + 5) + 2 * 150 < 3420);
    }

    #[test]
    fn result_lines_round_trip() {
        let line = r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 0.00125, "unit": "s"}, "sim_cycles": {"value": 4096, "unit": "cycles"}}}"#;
        let parsed = parse_result_line(line).unwrap();
        assert!(parsed.correct);
        assert_eq!(
            parsed.metrics,
            [
                ("setup_s".to_string(), 0.00125),
                ("sim_cycles".to_string(), 4096.0)
            ]
        );
        assert!(parse_result_line("{}").is_err());
    }
}
