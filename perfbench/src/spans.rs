//! Spans recorded by the benchmark's own code around its calls into the
//! program, kept in memory and folded into per-layer self times at the end.
//!
//! A span is `(name, request id, parent, start, end)` in virtual
//! nanoseconds. The spans of one request share the id `(client, seq)`; the
//! root (`client.txn`, or `crash.trial` with the trial as client) has no
//! parent and every other span of the request is its child. Self time is a
//! span's duration minus the part its children cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::rc::Rc;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Boundary name (`client.txn`, `session.queue`, `engine.txn`, ...).
    pub name: &'static str,
    /// Client (or trial) number.
    pub client: u64,
    /// Sequence number within the client.
    pub seq: u64,
    /// Name of the parent span of the same request (`None` for the root).
    pub parent: Option<&'static str>,
    /// Start, virtual ns.
    pub start: u64,
    /// End, virtual ns.
    pub end: u64,
}

/// In-memory span sink; a disabled recorder drops everything.
#[derive(Clone, Default)]
pub struct Recorder {
    spans: Option<Rc<RefCell<Vec<Span>>>>,
}

impl Recorder {
    /// A recorder that keeps spans when `on`.
    pub fn new(on: bool) -> Recorder {
        Recorder {
            spans: on.then(Rc::default),
        }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Records one span (no-op when disabled).
    pub fn record(&self, span: Span) {
        if let Some(s) = &self.spans {
            s.borrow_mut().push(span);
        }
    }

    /// Every recorded span, in record order.
    pub fn take(&self) -> Vec<Span> {
        self.spans
            .as_ref()
            .map(|s| std::mem::take(&mut *s.borrow_mut()))
            .unwrap_or_default()
    }
}

/// Total self time and span count per span name.
pub type SelfTimes = BTreeMap<&'static str, (u64, u64)>;

/// Folds spans into self times and checks them against the latencies the
/// clients measured: for every `(client, seq, latency)` the request's
/// children lie inside its root without overlapping, and the self times
/// of all its spans add up to `latency` exactly (virtual time, so the
/// tolerance is 0). Sorts `spans` by request.
pub fn self_times(spans: &mut [Span], latencies: &[(u64, u64, u64)]) -> Result<SelfTimes, String> {
    spans.sort_by_key(|s| (s.client, s.seq, s.parent.is_some(), s.start));
    let expected: BTreeMap<(u64, u64), u64> =
        latencies.iter().map(|&(c, s, l)| ((c, s), l)).collect();
    let mut totals = SelfTimes::new();
    let mut checked = 0;
    for request in spans.chunk_by(|a, b| (a.client, a.seq) == (b.client, b.seq)) {
        let id = (request[0].client, request[0].seq);
        let root = request[0];
        if root.parent.is_some() || request[1..].iter().any(|s| s.parent != Some(root.name)) {
            return Err(format!("request {id:?}: not one root with direct children"));
        }
        let mut cursor = root.start;
        let mut sum = 0;
        for child in &request[1..] {
            if child.start < cursor || child.end < child.start || child.end > root.end {
                return Err(format!("request {id:?}: span {} out of place", child.name));
            }
            cursor = child.end;
            let t = totals.entry(child.name).or_default();
            t.0 += child.end - child.start;
            t.1 += 1;
            sum += child.end - child.start;
        }
        let root_self = (root.end - root.start) - sum;
        let t = totals.entry(root.name).or_default();
        t.0 += root_self;
        t.1 += 1;
        if let Some(&latency) = expected.get(&id) {
            if root_self + sum != latency {
                return Err(format!(
                    "request {id:?}: self times sum to {} ns, client saw {latency} ns",
                    root_self + sum
                ));
            }
            checked += 1;
        }
    }
    if checked != expected.len() {
        return Err(format!(
            "{} requests have no spans",
            expected.len() - checked
        ));
    }
    Ok(totals)
}

/// Mean self time of `name`, ns (0 when it never occurred).
pub fn mean(totals: &SelfTimes, name: &str) -> f64 {
    totals
        .get(name)
        .map_or(0.0, |&(sum, n)| sum as f64 / n as f64)
}

/// Writes the spans as JSON lines to `path` (one object per span).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
        writeln!(
            out,
            "{{\"name\":\"{}\",\"client\":{},\"seq\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.client, s.seq, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<&'static str>, start: u64, end: u64) -> Span {
        Span {
            name,
            client: 1,
            seq: 1,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_times_add_up_to_the_latency() {
        let mut spans = vec![
            span("engine.commit", Some("client.txn"), 40, 90),
            span("client.txn", None, 0, 100),
            span("engine.exec", Some("client.txn"), 10, 40),
        ];
        let t = self_times(&mut spans, &[(1, 1, 100)]).unwrap();
        assert_eq!(t["client.txn"], (20, 1));
        assert_eq!(t["engine.exec"], (30, 1));
        assert!(self_times(&mut spans, &[(1, 1, 99)]).is_err());
        spans[2].start = 30; // overlaps engine.exec
        assert!(self_times(&mut spans, &[(1, 1, 100)]).is_err());
    }
}
