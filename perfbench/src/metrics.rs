//! Every metric the benchmark reports, and the result line.
//!
//! `BENCHMARK.json` declares the same names, units and directions; a
//! unit test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which run reports a metric: the untraced run reports the end-to-end
/// metrics, the traced run the per-layer ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    EndToEnd,
    PerLayer,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub level: Level,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        level: Level::EndToEnd,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        level: Level::PerLayer,
    }
}

use Better::{Higher as H, Lower as L};

/// Host time unless the name says otherwise; `ipc_hmean`,
/// `see_speedup_pct`, `merge_gain_pct` and the exact counts are
/// simulated and deterministic for a seed. For an exact count the
/// direction is nominal: a perf or simplicity change must leave it
/// identical.
pub const DEFS: &[Def] = &[
    e2e("setup_s", "s", L),
    e2e("wall_s", "s", L),
    e2e("kips", "KIPS", H),
    e2e("peak_rss_mb", "MB", L),
    e2e("ipc_hmean", "insn/cycle", H),
    e2e("see_speedup_pct", "%", H),
    layer("workloads.build_s", "s", L),
    layer("func.ref_s", "s", L),
    layer("func.ref_minst", "Minsn", L),
    layer("sweep.grid_s", "s", L),
    layer("core.new_s", "s", L),
    layer("core.run_s", "s", L),
    layer("core.fetch_s", "s", L),
    layer("core.dispatch_s", "s", L),
    layer("core.issue_s", "s", L),
    layer("core.writeback_s", "s", L),
    layer("core.commit_s", "s", L),
    layer("core.unattributed_s", "s", L),
    layer("core.ns_per_cycle", "ns", L),
    layer("core.ns_per_fetched", "ns", L),
    layer("core.cell_kips_p50", "KIPS", H),
    layer("core.cell_kips_p10", "KIPS", H),
    layer("core.cell_kips_n", "count", H),
    layer("core.cycles", "count", L),
    layer("core.committed", "count", H),
    layer("core.fetched", "count", L),
    layer("core.killed", "count", L),
    layer("core.window_full_stalls", "count", L),
    layer("core.mean_live_paths", "paths", L),
    layer("core.useful_fetch_ratio", "ratio", H),
    layer("predictor.mispredict_rate", "ratio", L),
    layer("predictor.divergences", "count", L),
    layer("predictor.recoveries", "count", L),
    layer("predictor.jrs_pvn", "ratio", H),
    layer("ctx.no_ctx_stalls", "count", L),
    layer("ctx.max_live_paths", "paths", L),
    layer("predictor.merge_forks", "count", L),
    layer("predictor.merge_parks", "count", H),
    layer("predictor.merge_resumes", "count", H),
    layer("predictor.park_rate", "ratio", H),
    layer("merge_gain_pct", "%", H),
    layer("telemetry.observer_s", "s", L),
    layer("telemetry.seal_s", "s", L),
    layer("core.selfprof_overhead_x", "x", L),
    layer("sweep.fingerprint_us", "us", L),
    layer("sweep.cache_write_us", "us", L),
    layer("sweep.cache_read_us", "us", L),
    layer("sweep.engine_overhead_s", "s", L),
    layer("experiments.render_s", "s", L),
    layer("bench.trace_overhead_x", "x", L),
    layer("bench.unattributed_frac", "ratio", L),
];

fn def(name: &str) -> &'static Def {
    DEFS.iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is declared"))
}

/// The metrics of one run, by name.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is {value}");
        let _ = def(name);
        assert!(
            self.values.insert(name, value).is_none(),
            "metric {name} set twice"
        );
    }

    /// A human-readable table followed by the result line, which is the
    /// last line of stdout.
    ///
    /// # Panics
    /// If the report does not hold exactly the metrics of `level`.
    pub fn render(&self, level: Level, correct: bool, attempted: u64, failed: u64) -> String {
        let wanted: Vec<&Def> = DEFS.iter().filter(|d| d.level == level).collect();
        assert_eq!(
            self.values.len(),
            wanted.len(),
            "report holds {:?}",
            self.values.keys().collect::<Vec<_>>()
        );
        let mut out = String::new();
        let mut json = String::new();
        for (i, d) in wanted.iter().enumerate() {
            let v = self.values[d.name];
            let _ = writeln!(
                out,
                "  {:<28} {:>16} {} ({} is better)",
                d.name,
                fmt_num(v),
                d.unit,
                d.better.name()
            );
            let _ = write!(
                json,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                d.name,
                fmt_num(v),
                d.unit
            );
        }
        let _ = writeln!(out, "  cells attempted {attempted}, failed {failed}");
        let _ = writeln!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}"
        );
        out
    }
}

/// A JSON number with every digit the measurement has.
fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn every_metric_is_named_united_and_directed_once() {
        let mut seen = std::collections::HashSet::new();
        for d in DEFS {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(valid_unit(d.unit), "{}: {}", d.name, d.unit);
            assert!(seen.insert(d.name), "{} declared twice", d.name);
        }
        assert!(DEFS
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Better::Lower));
    }

    /// `(name, unit, better)` triples of one `BENCHMARK.json` section,
    /// read with a scanner that knows only this file's layout.
    fn declared(section: &str) -> Vec<(String, String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits beside the benchmark's directory");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |obj: &str, key: &str| {
            let at = obj
                .find(&format!("\"{key}\""))
                .map(|i| &obj[i + key.len() + 2..])?;
            let at = &at[at.find('"')? + 1..];
            Some(at[..at.find('"')?].to_string())
        };
        body.split('{')
            .skip(1)
            .map(|obj| {
                let obj = &obj[..obj.find('}').expect("object closes")];
                (
                    field(obj, "name").expect("name"),
                    field(obj, "unit").expect("unit"),
                    field(obj, "better").expect("better"),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        for (section, level) in [
            ("end_to_end", Level::EndToEnd),
            ("per_layer", Level::PerLayer),
        ] {
            let ours: Vec<(String, String, String)> = DEFS
                .iter()
                .filter(|d| d.level == level)
                .map(|d| {
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        d.better.name().to_string(),
                    )
                })
                .collect();
            assert_eq!(declared(section), ours, "{section}");
        }
    }

    #[test]
    fn the_result_line_is_json_shaped_and_last() {
        let mut r = Report::default();
        for d in DEFS.iter().filter(|d| d.level == Level::EndToEnd) {
            r.set(d.name, 1.25);
        }
        let out = r.render(Level::EndToEnd, true, 3, 0);
        let last = out.lines().last().expect("lines");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(
            last.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"),
            "{last}"
        );
    }
}
