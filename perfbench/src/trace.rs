//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's calls into each layer (the
//! program itself carries no spans): name, start, end and the enclosing
//! span. They stay in memory until [`write`] at the end of the run, so
//! the file system is never touched while the clock is running.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        on: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turns span recording on or off on this thread.
pub fn enable(on: bool) {
    TRACER.with(|t| t.borrow_mut().on = on);
}

/// Runs `f` inside a span named `name` (a plain call when tracing is off).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return None;
        }
        let id = t.spans.len() as u32;
        let parent = t.open.last().copied();
        let start_ns = t.epoch.elapsed().as_nanos() as u64;
        t.spans.push(Span { id, parent, name, start_ns, end_ns: start_ns });
        t.open.push(id);
        Some(id)
    });
    let out = f();
    if let Some(id) = id {
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let end = t.epoch.elapsed().as_nanos() as u64;
            t.spans[id as usize].end_ns = end;
            t.open.pop();
        });
    }
    out
}

/// Removes and returns every span recorded so far.
pub fn take() -> Vec<Span> {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().spans))
}

/// Per-span-name totals: `(name, count, total ns, self ns)`, where self
/// time is a span's duration minus the time its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut by_name: std::collections::BTreeMap<&'static str, (u64, u64, u64)> =
        std::collections::BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        let total = s.end_ns - s.start_ns;
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += total;
        e.2 += total.saturating_sub(c);
    }
    by_name.into_iter().map(|(n, (c, t, s))| (n, c, t, s)).collect()
}

/// Renders spans as JSON lines tagged with the shared run id.
pub fn render(run_id: &str, spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"run\":\"{run_id}\",\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.name,
            s.start_ns,
            s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_self_time() {
        enable(true);
        span("outer", || {
            span("inner", || std::hint::black_box((0..1000u64).sum::<u64>()));
        });
        enable(false);
        span("ignored", || ());
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(spans[0].id));
        let totals = self_times(&spans);
        let outer = totals.iter().find(|t| t.0 == "outer").unwrap();
        assert!(outer.3 <= outer.2, "self time cannot exceed total");
    }
}
