//! The benchmark's own span recorder. Spans are taken around calls the
//! benchmark makes into each layer's public API (or around the handler
//! and transport wrappers it installs); nothing inside the program is
//! instrumented. Spans stay in per-thread buffers until the run ends.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use wsrc_obs::{Clock, MonotonicClock};

/// One timed interval: `req` groups the spans of one request, `parent`
/// is the enclosing span's id (0 for a request's root).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub req: u64,
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// One thread's spans, shared with [`take_all`].
type Buffer = Arc<Mutex<Vec<Span>>>;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static BUFFERS: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());

thread_local! {
    /// This thread's tag (the high bits of its span ids) and buffer.
    static LOCAL: RefCell<Option<(u64, Buffer)>> = const { RefCell::new(None) };
    static NEXT_ID: Cell<u64> = const { Cell::new(0) };
    /// The request and span the current thread is working under, so the
    /// handler and transport wrappers can attach their spans to it.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// A request id: the caller in the high bits, then the request's number,
/// then a flag in bit 0 that marks a hit.
pub fn request_id(caller: usize, n: usize, hit: bool) -> u64 {
    ((caller as u64 + 1) << 48) | ((n as u64) << 1) | hit as u64
}

pub fn is_hit(req: u64) -> bool {
    req & 1 == 1
}

/// The one clock every timestamp of the run comes from.
pub fn now() -> u64 {
    static CLOCK: OnceLock<MonotonicClock> = OnceLock::new();
    CLOCK.get_or_init(MonotonicClock::new).now_nanos()
}

pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::SeqCst)
}

/// A span id unique across threads: a per-thread tag in the high bits.
pub fn next_id() -> u64 {
    let tag = LOCAL.with(|l| l.borrow_mut().get_or_insert_with(register).0);
    NEXT_ID.with(|n| {
        let id = n.get() + 1;
        n.set(id);
        (tag << 40) | id
    })
}

fn register() -> (u64, Buffer) {
    let buffer = Arc::new(Mutex::new(Vec::with_capacity(1 << 16)));
    BUFFERS
        .lock()
        .expect("span buffer list poisoned")
        .push(buffer.clone());
    (NEXT_THREAD.fetch_add(1, Ordering::SeqCst), buffer)
}

pub fn record(span: Span) {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let (_, buffer) = l.get_or_insert_with(register);
        buffer.lock().expect("span buffer poisoned").push(span);
    });
}

/// Runs `f` as a span named `name` under `(req, parent)`; the span is
/// the current one for wrappers called inside `f`.
pub fn span<T>(req: u64, parent: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
    span_with(req, parent, f, |_| (name, req))
}

/// Like [`span`], with the name and request id chosen from the result
/// (for example by whether the call was a hit).
pub fn span_with<T>(
    req: u64,
    parent: u64,
    f: impl FnOnce() -> T,
    label: impl FnOnce(&T) -> (&'static str, u64),
) -> T {
    let id = next_id();
    let saved = CURRENT.with(|c| c.replace((req, id)));
    let start = now();
    let out = f();
    let end = now();
    CURRENT.with(|c| c.set(saved));
    let (name, req) = label(&out);
    record(Span {
        req,
        id,
        parent,
        name,
        start,
        end,
    });
    out
}

/// The (request, span) the current thread is inside of, if any.
pub fn current() -> (u64, u64) {
    CURRENT.with(Cell::get)
}

/// Drains every thread's buffer.
pub fn take_all() -> Vec<Span> {
    let buffers: Vec<Buffer> = {
        let list = BUFFERS.lock().expect("span buffer list poisoned");
        list.clone()
    };
    let mut all = Vec::new();
    for b in &buffers {
        all.append(&mut b.lock().expect("span buffer poisoned"));
    }
    all
}

/// Per name: (count, p50 of durations, mean self time) in nanoseconds.
/// A span's self time is its duration minus the part of it covered by
/// its children.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, (usize, u64, u64)> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    let mut by_name: BTreeMap<&'static str, (Vec<u64>, u64)> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_nanos(c, s.start, s.end));
        let e = by_name.entry(s.name).or_default();
        e.0.push(s.nanos());
        e.1 += s.nanos().saturating_sub(covered);
    }
    by_name
        .into_iter()
        .map(|(name, (mut d, self_total))| {
            d.sort_unstable();
            let p50 = crate::stats::percentile(&d, 50.0).unwrap_or(0);
            (name, (d.len(), p50, self_total / d.len().max(1) as u64))
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_nanos(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur_start, mut cur_end) = (0, 0, 0);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        if s > cur_end {
            total += cur_end - cur_start;
            (cur_start, cur_end) = (s, e);
        } else {
            cur_end = cur_end.max(e);
        }
    }
    total + (cur_end - cur_start)
}

/// Writes the spans of every `sample`-th request as JSON lines. The
/// sample is taken on the request number, past the flag bits.
pub fn write_spans(path: &std::path::Path, spans: &[Span], sample: u64) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut written = 0;
    for s in spans.iter().filter(|s| (s.req >> 2) % sample == 0) {
        writeln!(
            out,
            "{{\"req\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.req, s.id, s.parent, s.name, s.start, s.end
        )?;
        written += 1;
    }
    out.flush()?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mk = |id, parent, start, end| Span {
            req: 1,
            id,
            parent,
            name: if parent == 0 { "root" } else { "child" },
            start,
            end,
        };
        // Root 0..100; children 10..30 and 20..50 overlap (union 40) and
        // 90..120 sticks out past the root (10 inside it).
        let spans = [
            mk(1, 0, 0, 100),
            mk(2, 1, 10, 30),
            mk(3, 1, 20, 50),
            mk(4, 1, 90, 120),
        ];
        let s = summarize(&spans);
        assert_eq!(s["root"], (1, 100, 50));
        assert_eq!(s["child"].0, 3);
    }
}
