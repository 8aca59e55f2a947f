//! The metric catalogue and the result line.

/// A reported metric: its name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn metric(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics: the untraced run's result line.
pub const END_TO_END: [Metric; 5] = [
    metric("throughput_mops", "Mop/s"),
    metric("op_p50_ns", "ns"),
    metric("op_p99_ns", "ns"),
    metric("peak_rss_mib", "MiB"),
    metric("setup_s", "s"),
];

/// Printed with every untraced run but left out of the result line, whose
/// metrics must never read 0: `bst-read90` retires nothing, so both
/// unreclaimed gauges read 0 there, and `failed_ops` is 0 on a correct run
/// (it is the line's `failed` field instead).
pub const UNGATED: [Metric; 4] = [
    metric("unreclaimed_avg_blocks", "blocks"),
    metric("unreclaimed_peak_blocks", "blocks"),
    metric("failed_ops", "count"),
    metric("attempted_ops", "count"),
];

/// Per-layer metrics: the traced run's result line. Layers are named after
/// the modules they time; `*_ns` probes report the median call.
pub const PER_LAYER: [Metric; 34] = [
    metric("ds.insert_ns.p50", "ns"),
    metric("ds.insert_ns.p99", "ns"),
    metric("ds.remove_ns.p50", "ns"),
    metric("ds.remove_ns.p99", "ns"),
    metric("ds.get_ns.p50", "ns"),
    metric("ds.get_ns.p99", "ns"),
    metric("ds.insert_success_ratio", "ratio"),
    metric("ds.remove_success_ratio", "ratio"),
    metric("ds.allocs_per_insert", "1/call"),
    metric("guard.shield_lease_ns", "ns"),
    metric("guard.enter_ns", "ns"),
    metric("guard.protect_ns", "ns"),
    metric("reclaim.alloc_ns", "ns"),
    metric("reclaim.retire_ns", "ns"),
    metric("reclaim.allocs_per_op", "1/op"),
    metric("reclaim.retires_per_op", "1/op"),
    metric("reclaim.freed_per_retire", "ratio"),
    metric("reclaim.cleanup_ns", "ns"),
    metric("reclaim.cleanup_freed", "blocks/pass"),
    metric("reclaim.unreclaimed_avg_blocks", "blocks"),
    metric("reclaim.unreclaimed_peak_blocks", "blocks"),
    metric("cache.hit_ratio", "ratio"),
    metric("cache.cached_bytes", "B"),
    metric("wfe.slow_path_per_mop", "1/Mop"),
    metric("wfe.helps_per_mop", "1/Mop"),
    metric("pool.checkout_ns", "ns"),
    metric("pool.checkin_ns", "ns"),
    metric("pool.hit_ratio", "ratio"),
    metric("registry.register_ns", "ns"),
    metric("registry.occupied_shards_avg", "shards"),
    metric("stats.snapshot_ns", "ns"),
    metric("trace.throughput_mops", "Mop/s"),
    metric("trace.untraced_throughput_mops", "Mop/s"),
    metric("trace.overhead_ratio", "ratio"),
];

fn lookup(name: &str) -> Metric {
    END_TO_END
        .iter()
        .chain(&UNGATED)
        .chain(&PER_LAYER)
        .copied()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Metric values in the order they were measured.
#[derive(Default)]
pub struct Report {
    values: Vec<(Metric, f64)>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.push((lookup(name), value));
    }

    /// One `metric <name> = <value> <unit>` line per metric.
    pub fn print(&self) {
        for (m, v) in &self.values {
            println!("metric {} = {} {}", m.name, v, m.unit);
        }
    }

    /// The result line, with exactly the metrics of `set`.
    pub fn json(&self, set: &[Metric], correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = set
            .iter()
            .map(|want| {
                let (m, v) = self
                    .values
                    .iter()
                    .find(|(m, _)| m == want)
                    .unwrap_or_else(|| panic!("metric {} was not measured", want.name));
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, v, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all() -> impl Iterator<Item = &'static Metric> {
        END_TO_END.iter().chain(&UNGATED).chain(&PER_LAYER)
    }

    #[test]
    fn names_are_well_formed_unique_and_have_units() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for m in all() {
            assert!(name_ok(m.name), "bad name {}", m.name);
            assert!(unit_ok(m.unit), "bad unit {} of {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        let listed = json.matches("\"unit\"").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn json_carries_exactly_the_requested_set() {
        let mut r = Report::default();
        r.put("op_p50_ns", 480.0);
        r.put("throughput_mops", 3.5);
        r.put("failed_ops", 0.0);
        let set = [lookup("throughput_mops"), lookup("op_p50_ns")];
        assert_eq!(
            r.json(&set, true, 10, 0),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"throughput_mops\": {\"value\": 3.5, \"unit\": \"Mop/s\"}, \
             \"op_p50_ns\": {\"value\": 480, \"unit\": \"ns\"}}}"
        );
    }
}
