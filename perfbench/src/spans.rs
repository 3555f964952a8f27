//! In-memory host-time spans for the traced run, written out once the
//! run ends. Spans are recorded by the benchmark around its own calls
//! into each layer; nothing inside the program is instrumented.

use shmt_trace::json::{JsonValue, ObjectBuilder};

/// One host-time interval (seconds since the phase epoch).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified span name, e.g. `serve.queue_wait`.
    pub name: &'static str,
    /// Start, seconds.
    pub start_s: f64,
    /// End, seconds.
    pub end_s: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The request the span belongs to.
    pub request: u64,
}

/// An append-only span store.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Appends a span and returns its index (usable as a parent).
    pub fn push(
        &mut self,
        name: &'static str,
        start_s: f64,
        end_s: f64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_s,
            end_s: end_s.max(start_s),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Appends `children` (name, duration) back to back from the
    /// parent's start. Used where only durations are known: the serve
    /// layer reports its queue wait and service time, and a replay
    /// measures each layer in turn.
    pub fn push_children(&mut self, parent: usize, children: &[(&'static str, f64)]) {
        let (mut t, request) = (self.spans[parent].start_s, self.spans[parent].request);
        for &(name, dur) in children {
            self.push(name, t, t + dur.max(0.0), Some(parent), request);
            t += dur.max(0.0);
        }
    }

    /// Number of spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Moves every span of `other` in, re-pointing its parents.
    pub fn append(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per-span child lists.
    fn children(&self) -> Vec<Vec<usize>> {
        let mut kids = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                kids[p].push(i);
            }
        }
        kids
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that the union of its children covers.
    pub fn self_times(&self) -> Vec<f64> {
        let kids = self.children();
        self.spans
            .iter()
            .zip(&kids)
            .map(|(s, k)| {
                let mut cover: Vec<(f64, f64)> = k
                    .iter()
                    .map(|&c| {
                        let c = &self.spans[c];
                        (c.start_s.max(s.start_s), c.end_s.min(s.end_s))
                    })
                    .filter(|(a, b)| b > a)
                    .collect();
                cover.sort_by(|a, b| a.0.total_cmp(&b.0));
                let (mut covered, mut reach) = (0.0, f64::NEG_INFINITY);
                for (a, b) in cover {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_s - s.start_s) - covered
            })
            .collect()
    }

    /// `(duration, self time)` of every span named `name`, in order.
    pub fn named(&self, name: &str) -> Vec<(f64, f64)> {
        let selfs = self.self_times();
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(s, own)| (s.end_s - s.start_s, own))
            .collect()
    }

    /// Chrome trace-event JSON (complete events, microseconds; one
    /// track per request).
    pub fn to_chrome_json(&self) -> String {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let args = ObjectBuilder::new()
                    .field("span", JsonValue::Number(i as f64))
                    .field(
                        "parent",
                        s.parent
                            .map_or(JsonValue::Null, |p| JsonValue::Number(p as f64)),
                    )
                    .build();
                ObjectBuilder::new()
                    .field("name", JsonValue::String(s.name.to_owned()))
                    .field("ph", JsonValue::String("X".to_owned()))
                    .field("ts", JsonValue::Number(s.start_s * 1e6))
                    .field("dur", JsonValue::Number((s.end_s - s.start_s) * 1e6))
                    .field("pid", JsonValue::Number(1.0))
                    .field("tid", JsonValue::Number(s.request as f64))
                    .field("args", args)
                    .build()
            })
            .collect();
        ObjectBuilder::new()
            .field("traceEvents", JsonValue::Array(events))
            .build()
            .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children_clipped_to_the_parent() {
        let mut log = SpanLog::default();
        let root = log.push("route", 0.0, 10.0, None, 7);
        log.push("a", 1.0, 3.0, Some(root), 7);
        log.push("b", 2.0, 5.0, Some(root), 7); // overlaps a
        log.push("c", 8.0, 12.0, Some(root), 7); // sticks out of the parent
        let leaf = log.push("d", 20.0, 21.0, None, 8);
        let selfs = log.self_times();
        assert!((selfs[root] - 4.0).abs() < 1e-12, "10 - [1,5] - [8,10]");
        assert!((selfs[1] - 2.0).abs() < 1e-12, "childless span is all self");
        assert!((selfs[leaf] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn back_to_back_children_and_append_keep_parents() {
        let mut log = SpanLog::default();
        let exec = log.push("core.execute", 5.0, 6.0, None, 1);
        log.push_children(exec, &[("core.partition", 0.1), ("kernels.exact", 0.6)]);
        let named = log.named("core.execute");
        assert_eq!(named.len(), 1);
        assert!((named[0].1 - 0.3).abs() < 1e-9);
        // Children that overrun the parent leave no negative self time.
        let mut over = SpanLog::default();
        let p = over.push("core.execute", 0.0, 1.0, None, 2);
        over.push_children(p, &[("kernels.exact", 0.7), ("kernels.npu", 0.6)]);
        log.append(over);
        assert_eq!(log.len(), 6);
        let selfs = log.self_times();
        assert_eq!(selfs[3], 0.0);
        let json = log.to_chrome_json();
        let parsed = JsonValue::parse(&json).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 6);
        let last_parent = events[5].get("args").unwrap().get("parent").unwrap();
        assert_eq!(last_parent.as_f64(), Some(3.0));
    }
}
