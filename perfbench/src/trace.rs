//! In-memory span recorder for the traced run.
//!
//! A span is `(name, start, end, parent)` around one call from the
//! benchmark into a layer's public API. Spans are kept in memory while the
//! schedule runs and written out once at exit, so the recorder costs two
//! clock reads and one short critical section per span. With tracing off
//! [`span`] returns an inert guard and reads no clock at all.
//!
//! Parents: a span opened on a thread that already has an open span nests
//! under it. A span opened on a pool worker (generator and transformer
//! calls run on workers) nests under the *fan-out* span the driving thread
//! marked with [`Span::fan_out`], so worker spans still attach to the call
//! that spawned them.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
/// Span id worker threads without an open span of their own attach to.
static FAN_OUT_PARENT: AtomicU64 = AtomicU64::new(0);
static RECORDS: Mutex<Vec<Record>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Record {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

fn epoch() -> Instant {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Turn recording on or off for spans opened from now on.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; records itself when dropped.
pub struct Span {
    open: Option<(u64, u64, &'static str, Instant, bool)>,
}

/// Open a span named `name` (inert when tracing is off).
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s
            .last()
            .copied()
            .unwrap_or_else(|| FAN_OUT_PARENT.load(Ordering::Relaxed));
        s.push(id);
        parent
    });
    Span {
        open: Some((id, parent, name, Instant::now(), false)),
    }
}

impl Span {
    /// Mark this span as the parent of spans opened on worker threads
    /// until it closes.
    pub fn fan_out(mut self) -> Self {
        if let Some(open) = &mut self.open {
            FAN_OUT_PARENT.store(open.0, Ordering::Relaxed);
            open.4 = true;
        }
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((id, parent, name, start, fan_out)) = self.open.take() else {
            return;
        };
        let end = Instant::now();
        if fan_out {
            FAN_OUT_PARENT.store(0, Ordering::Relaxed);
        }
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        let base = epoch();
        let rec = Record {
            id,
            parent,
            name,
            start_ns: start.duration_since(base).as_nanos() as u64,
            end_ns: end.duration_since(base).as_nanos() as u64,
        };
        RECORDS.lock().unwrap_or_else(|e| e.into_inner()).push(rec);
    }
}

/// Take every recorded span, leaving the recorder empty.
pub fn drain() -> Vec<Record> {
    std::mem::take(&mut *RECORDS.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Nanoseconds of `parent`'s interval not covered by any child: children
/// on other threads may overlap each other, so the covered time is the
/// union of the child intervals clipped to the parent, not their sum.
fn self_ns(parent: &Record, children: &[&Record]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match &mut cur {
            Some((_, ce)) if s <= *ce => *ce = (*ce).max(e),
            _ => {
                if let Some((cs, ce)) = cur {
                    covered += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (parent.end_ns - parent.start_ns).saturating_sub(covered)
}

/// Self time of every span, keyed by span id.
pub fn self_times(records: &[Record]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<&Record>> = HashMap::new();
    for r in records {
        children.entry(r.parent).or_default().push(r);
    }
    records
        .iter()
        .map(|r| {
            let kids = children.get(&r.id).map(Vec::as_slice).unwrap_or(&[]);
            (r.id, self_ns(r, kids))
        })
        .collect()
}

/// Write `records` as JSON lines to `path`.
pub fn write_jsonl(path: &std::path::Path, records: &[Record]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for r in records {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            r.id, r.parent, r.name, r.start_ns, r.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, s: u64, e: u64) -> Record {
        Record {
            id,
            parent,
            name: "x",
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let p = rec(1, 0, 0, 100);
        let a = rec(2, 1, 10, 50);
        let b = rec(3, 1, 30, 70);
        let c = rec(4, 1, 90, 120);
        let t = self_times(&[p, a, b, c]);
        assert_eq!(t[&1], 100 - 60 - 10);
        assert_eq!(t[&2], 40);
    }
}
