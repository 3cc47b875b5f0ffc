//! The metric catalogue, the run report and its one-line JSON result.
//!
//! Every metric the benchmark can print is declared once in [`CATALOGUE`]
//! with its unit and its direction. Every workload prints every metric of
//! its kind. A run records values by name; [`Report::finish`] refuses a run
//! that left one out. The
//! `catalogue_matches_benchmark_json` test keeps the catalogue and
//! `BENCHMARK.json` in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// End-to-end metrics are printed with `--trace 0`, per-layer ones with
/// `--trace 1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    EndToEnd,
    PerLayer,
}

/// One declared metric.
#[derive(Debug)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better, kind: Kind::EndToEnd }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better, kind: Kind::PerLayer }
}

use Better::{Higher, Lower};

/// Every metric the benchmark prints.
pub const CATALOGUE: &[MetricSpec] = &[
    // End to end (untraced runs).
    e2e("setup_s", "s", Lower),
    e2e("p50_ms.light", "ms", Lower),
    e2e("p90_ms.light", "ms", Lower),
    e2e("p50_ms.heavy", "ms", Lower),
    e2e("p90_ms.heavy", "ms", Lower),
    e2e("max_rps", "req/s", Higher),
    e2e("throughput_rps", "req/s", Higher),
    e2e("sweep_s", "s", Lower),
    e2e("spgemm_ms", "ms", Lower),
    e2e("paper_gap", "ln_ratio", Lower),
    e2e("rss_mb", "MiB", Lower),
    // serve::net
    layer("wire_decode.p50_us", "us", Lower),
    layer("wire_decode.p99_us", "us", Lower),
    layer("wire_flush.p50_us", "us", Lower),
    layer("wire_flush.p99_us", "us", Lower),
    layer("wire.frames_in", "count", Higher),
    layer("wire.bytes_out", "bytes", Higher),
    // serve::server (admission)
    layer("admit.p50_us", "us", Lower),
    layer("shed", "count", Lower),
    // serve::batcher
    layer("queue.p50_us", "us", Lower),
    layer("queue.p99_us", "us", Lower),
    layer("queue.light_p50_us", "us", Lower),
    layer("batch.mean_size", "requests", Higher),
    layer("batches", "count", Lower),
    // serve::dispatch + timing
    layer("schedule.p50_us", "us", Lower),
    layer("schedule.p99_us", "us", Lower),
    layer("timing.hit_ratio", "ratio", Higher),
    layer("setup.price_ms", "ms", Lower),
    // serve::repository
    layer("cache.p50_us", "us", Lower),
    layer("cache.p99_us", "us", Lower),
    layer("cache.hit_ratio", "ratio", Higher),
    layer("cache.misses", "count", Lower),
    layer("cache.restores", "count", Lower),
    layer("cache.fresh_encodes", "count", Lower),
    layer("cache.evictions", "count", Lower),
    layer("cache.encode_ms_total", "ms", Lower),
    layer("cache.restore_ms_total", "ms", Lower),
    layer("setup.encode_ms", "ms", Lower),
    // serve::worker (+ stats, telemetry)
    layer("worker_wait.p50_us", "us", Lower),
    layer("worker_wait.p99_us", "us", Lower),
    layer("execute.p50_us", "us", Lower),
    layer("execute.p99_us", "us", Lower),
    layer("respond.p50_us", "us", Lower),
    // kernels (+ formats, tensor): replayed outside the server.
    layer("kernel.encode_a_us", "us", Lower),
    layer("kernel.execute_us", "us", Lower),
    layer("kernel.encode_b_ms", "ms", Lower),
    layer("kernel.rows", "rows", Higher),
    layer("kernel.macs_computed", "MAC", Higher),
    layer("kernel.bytes_computed", "bytes", Lower),
    layer("spgemm.a50_b50.execute_us", "us", Lower),
    layer("spgemm.a90_b90.execute_us", "us", Lower),
    layer("spgemm.a75_b99.execute_us", "us", Lower),
    layer("spgemm.bert_ffn.execute_us", "us", Lower),
    // sim (+ models)
    layer("sim.estimate_ms.p50", "ms", Lower),
    layer("sim.estimate.count", "count", Higher),
    layer("sim.profile_ms.p50", "ms", Lower),
    layer("sim.timing_model_us.p50", "us", Lower),
    // core (dsstc::inference)
    layer("inference.network_ms.vgg16", "ms", Lower),
    layer("inference.network_ms.resnet18", "ms", Lower),
    layer("inference.network_ms.mask_rcnn", "ms", Lower),
    layer("inference.network_ms.bert", "ms", Lower),
    layer("inference.network_ms.rnn", "ms", Lower),
    // hwmodel and the modelled outputs (exact, host-independent).
    layer("model.fig21.a0_b99.speedup", "x", Higher),
    layer("model.fig21.a999_b99.speedup", "x", Higher),
    layer("model.fig22.cnn_mean", "x", Higher),
    layer("model.fig22.nlp_mean", "x", Higher),
    layer("model.fig22.vgg16", "x", Higher),
    layer("model.fig22.resnet18", "x", Higher),
    layer("model.fig22.mask_rcnn", "x", Higher),
    layer("model.fig22.bert", "x", Higher),
    layer("model.fig22.rnn", "x", Higher),
    layer("model.table4.area_mm2", "mm2", Lower),
    layer("model.fig21.a0_b99.tensor_cycles", "cycles", Lower),
    layer("model.fig21.a0_b99.scalar_cycles", "cycles", Lower),
    layer("model.fig21.a0_b99.dram_cycles", "cycles", Lower),
    layer("model.fig21.a0_b99.shared_cycles", "cycles", Lower),
    layer("model.fig21.a0_b99.merge_cycles", "cycles", Lower),
    layer("model.fig21.a0_b99.total_cycles", "cycles", Lower),
    layer("model.fig21.a0_b99.bottleneck", "code", Lower),
    layer("model.fig21.a999_b99.tensor_cycles", "cycles", Lower),
    layer("model.fig21.a999_b99.scalar_cycles", "cycles", Lower),
    layer("model.fig21.a999_b99.dram_cycles", "cycles", Lower),
    layer("model.fig21.a999_b99.shared_cycles", "cycles", Lower),
    layer("model.fig21.a999_b99.merge_cycles", "cycles", Lower),
    layer("model.fig21.a999_b99.total_cycles", "cycles", Lower),
    layer("model.fig21.a999_b99.bottleneck", "code", Lower),
    // The generator itself.
    layer("gen.late_p99_ms", "ms", Lower),
    layer("gen.sent", "count", Higher),
    layer("gen.ok", "count", Higher),
    layer("gen.failed", "count", Lower),
    // Tracing cost: traced against untraced, inside the traced run.
    layer("trace.overhead_pct", "%", Lower),
];

/// Whether `name` is a valid metric name: a letter or digit first, then at
/// most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    !bytes.is_empty()
        && bytes.len() <= 64
        && bytes[0].is_ascii_alphanumeric()
        && bytes.iter().all(|&b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`, `%`,
/// `.` or `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

fn spec(name: &str) -> &'static MetricSpec {
    CATALOGUE
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

/// The metrics a run of `kind` prints.
pub fn expected(kind: Kind) -> impl Iterator<Item = &'static MetricSpec> {
    CATALOGUE.iter().filter(move |m| m.kind == kind)
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted: requests sent, products and model values
    /// checked.
    pub attempted: u64,
    /// Operations that failed: error frames, shed requests, timeouts and
    /// output mismatches.
    pub failed: u64,
    /// Every output and trace check that did not hold, one line each.
    pub problems: Vec<String>,
}

impl Report {
    /// Records a metric value (a later value for the same name replaces
    /// the earlier one).
    pub fn put(&mut self, name: &'static str, value: f64) {
        let m = spec(name);
        assert!(valid_name(m.name) && valid_unit(m.unit), "invalid metric {name} [{}]", m.unit);
        self.metrics.insert(name, value);
    }

    /// Keeps the metrics of `kind` and renders the result line. Panics if
    /// the run left one out; that is a bug in the benchmark, not in the
    /// program.
    pub fn finish(self, kind: Kind) -> String {
        let wanted: Vec<&MetricSpec> = expected(kind).collect();
        for m in &wanted {
            assert!(self.metrics.contains_key(m.name), "the run did not record {}", m.name);
        }
        let mut problems = self.problems;
        let mut metrics = String::new();
        for (i, m) in wanted.iter().enumerate() {
            let mut value = self.metrics[m.name];
            if !value.is_finite() {
                problems.push(format!("{} has no value (nothing was measured)", m.name));
                value = 0.0;
            }
            let better = if m.better == Better::Lower { "lower" } else { "higher" };
            println!("  {:<36} {value:>16.4} {:<9} ({better} is better)", m.name, m.unit);
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            problems.is_empty(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Nearest-rank quantile of `values` (which it sorts); `NaN` when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median of `values` (which it sorts).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident memory of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Total and stolen CPU ticks of the host so far (`/proc/stat`): the share
/// stolen during a run tells how much the hypervisor took from it.
pub fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .find_map(|line| line.strip_prefix("cpu "))
        .map(|rest| rest.split_whitespace().filter_map(|t| t.parse().ok()).collect())
        .unwrap_or_default();
    (ticks.iter().sum(), ticks.get(7).copied().unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_and_units_are_valid_and_unique() {
        for (i, m) in CATALOGUE.iter().enumerate() {
            assert!(valid_name(m.name), "bad metric name {}", m.name);
            assert!(valid_unit(m.unit), "bad unit {} of {}", m.unit, m.name);
            assert!(CATALOGUE[..i].iter().all(|o| o.name != m.name), "{} declared twice", m.name);
        }
        assert!(CATALOGUE.iter().filter(|m| m.kind == Kind::PerLayer).count() <= 128);
    }

    #[test]
    fn name_validity_rules() {
        assert!(valid_name("p50_ms.light"));
        assert!(valid_name("0-x_y.z"));
        assert!(!valid_name(""));
        assert!(!valid_name("_lead"));
        assert!(!valid_name(".lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/not"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_name(&"a".repeat(64)));
        assert!(valid_unit("req/s") && valid_unit("%") && valid_unit("MiB"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn both_kinds_have_metrics() {
        assert!(expected(Kind::EndToEnd).any(|m| m.name == "setup_s"));
        assert!(expected(Kind::PerLayer).count() > 0);
    }

    /// `BENCHMARK.json` declares exactly the catalogue: the same names,
    /// units and directions, end-to-end and per-layer, and the workloads
    /// the benchmark runs.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> String {
            let start = json.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key}"));
            let open = start + json[start..].find('[').expect("array");
            let close = open + json[open..].find(']').expect("array end");
            json[open..close].to_string()
        };
        let names = |text: &str| -> Vec<String> {
            text.split("\"name\"")
                .skip(1)
                .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
                .collect()
        };
        let workloads = names(&section("workloads"));
        let declared: Vec<&str> = crate::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, declared);
        for (key, kind) in [("end_to_end", Kind::EndToEnd), ("per_layer", Kind::PerLayer)] {
            let text = section(key);
            let listed = names(&text);
            let catalogue: Vec<&str> =
                CATALOGUE.iter().filter(|m| m.kind == kind).map(|m| m.name).collect();
            assert_eq!(listed, catalogue, "{key} differs from the catalogue");
            for m in CATALOGUE.iter().filter(|m| m.kind == kind) {
                let better = if m.better == Better::Lower { "lower" } else { "higher" };
                let entry = format!(
                    "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
                    m.name, m.unit
                );
                assert!(text.contains(&entry), "{key} entry for {} differs: {entry}", m.name);
            }
        }
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert!(quantile(&mut [], 0.5).is_nan());
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut r = Report::default();
        for m in expected(Kind::EndToEnd) {
            r.put(m.name, 1.5);
        }
        r.attempted = 3;
        let line = r.finish(Kind::EndToEnd);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"sweep_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    }
}
