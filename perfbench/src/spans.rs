//! The benchmark's own span recorder: spans wrap the benchmark's calls
//! into each layer's public API (never code inside the program). Spans
//! are kept in memory and written out once, when the run ends.

use sc_obs::json::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Layer-qualified name, e.g. `md.step` or `cell.rebin`.
    pub name: &'static str,
    /// Start, in seconds since the recorder was created.
    pub start_s: f64,
    /// End, in seconds since the recorder was created.
    pub end_s: f64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
}

impl SpanRecord {
    /// Wall duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// An in-memory span recorder. When disabled it still times calls (so
/// untraced runs share one code path) but records nothing.
pub struct Spans {
    enabled: bool,
    run_id: String,
    origin: Instant,
    records: Vec<SpanRecord>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder for run `run_id`; `enabled` selects whether spans are kept.
    pub fn new(run_id: impl Into<String>, enabled: bool) -> Spans {
        Spans {
            enabled,
            run_id: run_id.into(),
            origin: Instant::now(),
            records: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name` and returns its result with
    /// the measured wall time. Spans opened inside `f` become children.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Spans) -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        if !self.enabled {
            let out = f(self);
            return (out, start.elapsed());
        }
        let idx = self.records.len();
        let start_s = (start - self.origin).as_secs_f64();
        self.records.push(SpanRecord {
            name,
            start_s,
            end_s: start_s,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        let elapsed = start.elapsed();
        self.open.pop();
        self.records[idx].end_s = start_s + elapsed.as_secs_f64();
        (out, elapsed)
    }

    /// Like [`Spans::time`] for a closure that needs no access to the
    /// recorder.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        self.time(name, |_| f())
    }

    /// Per-name totals: `(count, total seconds, self seconds)`. A span's
    /// self time is its duration minus the part its direct children cover
    /// (children never overlap: the recorder is single-threaded and
    /// properly nested).
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_s = vec![0.0; self.records.len()];
        for r in &self.records {
            if let Some(p) = r.parent {
                child_s[p] += r.duration_s();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (r, c) in self.records.iter().zip(&child_s) {
            let e = out.entry(r.name).or_default();
            e.0 += 1;
            e.1 += r.duration_s();
            e.2 += r.duration_s() - c;
        }
        out
    }

    /// The spans as one JSON document: run id, every span (name, start,
    /// end, parent), and the per-name self-time summary.
    pub fn to_json(&self) -> Json {
        let spans = self
            .records
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("name".to_string(), Json::str(r.name)),
                    ("start_s".to_string(), Json::num(r.start_s)),
                    ("end_s".to_string(), Json::num(r.end_s)),
                    ("parent".to_string(), r.parent.map_or(Json::Null, |p| Json::num(p as f64))),
                ])
            })
            .collect();
        let summary = self
            .summary()
            .into_iter()
            .map(|(name, (count, total, own))| {
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("count".to_string(), Json::num(count as f64)),
                        ("total_s".to_string(), Json::num(total)),
                        ("self_s".to_string(), Json::num(own)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("run".to_string(), Json::str(&self.run_id)),
            ("spans".to_string(), Json::Arr(spans)),
            ("summary".to_string(), Json::Obj(summary)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut s = Spans::new("t", true);
        s.time("outer", |s| {
            s.call("inner", || spin(Duration::from_millis(4)));
            s.call("inner", || spin(Duration::from_millis(4)));
            spin(Duration::from_millis(2));
        });
        let r = &s.records;
        assert_eq!(r.len(), 3);
        assert_eq!((r[0].parent, r[1].parent, r[2].parent), (None, Some(0), Some(0)));
        let summary = s.summary();
        assert_eq!(summary["inner"].0, 2);
        let own = summary["outer"].2;
        assert!(own > 0.0015 && own < r[0].duration_s() - 0.007, "self {own}");
        assert!((summary["outer"].1 - r[0].duration_s()).abs() < 1e-12);
        let doc = s.to_json().to_string();
        assert!(doc.contains("\"run\":\"t\"") || doc.contains("\"run\": \"t\""), "{doc}");
    }

    #[test]
    fn disabled_recorder_times_but_keeps_nothing() {
        let mut s = Spans::new("t", false);
        let (v, d) = s.call("x", || {
            spin(Duration::from_millis(1));
            7
        });
        assert_eq!(v, 7);
        assert!(d >= Duration::from_millis(1));
        assert!(s.records.is_empty());
    }
}
