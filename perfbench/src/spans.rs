//! In-memory span recorder for the traced run.
//!
//! A span is a named interval around one call into a layer, with the
//! span it ran inside and the grid cell it served. Spans stay in memory
//! and are written once, at the end of the run. A layer's self time is
//! its span's duration minus its children's.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub cell: Option<usize>,
    pub parent: Option<usize>,
    /// Offsets from the tracer's origin.
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn dur(&self) -> Duration {
        self.end - self.start
    }
}

/// Spans of one or more traced passes.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span inside the innermost open one.
    pub fn enter(&mut self, name: &'static str, cell: Option<usize>) -> usize {
        let id = self.spans.len();
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            cell,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = self.origin.elapsed();
    }

    /// The current instant, as an offset from the tracer's origin.
    pub fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    /// Time `f` as a leaf span.
    pub fn time<T>(&mut self, name: &'static str, cell: Option<usize>, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, cell);
        let out = f();
        self.exit(id);
        out
    }

    /// Record phase totals measured inside the closed span `parent` as
    /// its children, laid end to end from its start (the phases of a
    /// simulator run are accumulated totals, not single intervals).
    pub fn add_children(&mut self, parent: usize, children: &[(&'static str, Duration)]) {
        let cell = self.spans[parent].cell;
        let mut at = self.spans[parent].start;
        for &(name, d) in children {
            self.spans.push(Span {
                name,
                cell,
                parent: Some(parent),
                start: at,
                end: at + d,
            });
            at += d;
        }
    }

    /// Σ duration of every span's children.
    fn child_sums(&self) -> Vec<Duration> {
        let mut sums = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                sums[p] += s.dur();
            }
        }
        sums
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<Duration> {
        self.spans
            .iter()
            .zip(self.child_sums())
            .map(|(s, c)| s.dur().saturating_sub(c))
            .collect()
    }

    /// Per span name: (total duration, self time, count).
    pub fn by_name(&self) -> BTreeMap<&'static str, (Duration, Duration, usize)> {
        let mut out: BTreeMap<&'static str, (Duration, Duration, usize)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.0 += s.dur();
            e.1 += own;
            e.2 += 1;
        }
        out
    }

    /// Check that every child lies inside its parent and that the
    /// ledger closes over the pass that ran from `start` to `end`
    /// (offsets from the tracer's origin): Σ self time of the layer
    /// spans + unattributed = wall. Unattributed is the self time of the
    /// grouping spans (`is_layer` false) plus the gaps between
    /// consecutive root spans and between them and the pass's ends,
    /// measured from the span instants rather than derived from the
    /// wall, so a root span that overlaps another or leaves the pass
    /// breaks the ledger. Returns the unattributed time.
    pub fn conservation(
        &self,
        start: Duration,
        end: Duration,
        is_layer: impl Fn(&str) -> bool,
    ) -> Result<Duration, String> {
        for (i, s) in self.spans.iter().enumerate() {
            if s.end < s.start {
                return Err(format!("span {i} ({}) ends before it starts", s.name));
            }
            if let Some(p) = s.parent {
                let ps = &self.spans[p];
                if s.start < ps.start || s.end > ps.end {
                    return Err(format!(
                        "span {i} ({}) is not inside its parent {p} ({})",
                        s.name, ps.name
                    ));
                }
            }
        }
        let child_sums = self.child_sums();
        if let Some((i, s)) = self
            .spans
            .iter()
            .enumerate()
            .find(|(i, s)| child_sums[*i] > s.dur())
        {
            return Err(format!("children of span {i} ({}) outlast it", s.name));
        }
        let mut roots: Vec<&Span> = self.spans.iter().filter(|s| s.parent.is_none()).collect();
        roots.sort_by_key(|s| s.start);
        let mut gaps = Duration::ZERO;
        let mut at = start;
        let bounds = roots.iter().map(|s| (s.name, s.start, s.end));
        for (name, from, to) in bounds.chain([("the pass end", end, end)]) {
            let Some(gap) = from.checked_sub(at) else {
                return Err(format!(
                    "{name} at {from:?} starts before the pass start or the previous root span's end ({at:?})"
                ));
            };
            gaps += gap;
            at = to;
        }
        let own = self.self_times();
        let grouping: Duration = self
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| !is_layer(s.name))
            .map(|(_, d)| *d)
            .sum();
        let layers: Duration = self
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| is_layer(s.name))
            .map(|(_, d)| *d)
            .sum();
        let unattributed = gaps + grouping;
        let wall = end.saturating_sub(start);
        if layers + unattributed != wall {
            return Err(format!(
                "ledger does not close: layers {layers:?} + unattributed {unattributed:?} != wall {wall:?}"
            ));
        }
        Ok(unattributed)
    }

    /// The spans as JSON, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"cell\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name,
                opt(s.cell),
                opt(s.parent),
                s.start.as_nanos(),
                s.end.as_nanos()
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_the_ledger_closes() {
        let mut t = Tracer::new();
        let start = t.now();
        let cell = t.enter("cell", Some(0));
        t.time("core.new", Some(0), || {
            std::thread::sleep(Duration::from_millis(2));
        });
        let r = t.enter("core.run", Some(0));
        std::thread::sleep(Duration::from_millis(4));
        t.exit(r);
        t.add_children(
            r,
            &[
                ("core.fetch", Duration::from_millis(1)),
                ("core.commit", Duration::from_millis(1)),
            ],
        );
        t.exit(cell);
        let end = t.now() + Duration::from_millis(1);
        let un = t.conservation(start, end, |n| n != "cell").expect("closes");
        let by = t.by_name();
        let (run_total, run_self, _) = by["core.run"];
        assert_eq!(run_self, run_total - Duration::from_millis(2));
        assert!(un >= Duration::from_millis(1));
    }

    #[test]
    fn children_outlasting_their_parent_break_the_ledger() {
        let mut t = Tracer::new();
        let r = t.enter("core.run", None);
        t.exit(r);
        t.add_children(r, &[("core.fetch", Duration::from_secs(5))]);
        assert!(t
            .conservation(Duration::ZERO, Duration::from_secs(10), |_| true)
            .is_err());
    }

    #[test]
    fn a_span_outside_the_pass_breaks_the_ledger() {
        let mut t = Tracer::new();
        t.time("sweep.fingerprint", None, || {
            std::thread::sleep(Duration::from_millis(1));
        });
        let start = t.now();
        t.time("core.new", None, || {});
        let end = t.now();
        let e = t.conservation(start, end, |_| true).unwrap_err();
        assert!(e.contains("starts before"), "{e}");
        // Over a pass that holds both spans, the ledger closes.
        let whole = t.conservation(Duration::ZERO, end, |_| true);
        assert!(whole.is_ok(), "{whole:?}");
    }
}
