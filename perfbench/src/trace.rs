//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into the library: an HTTP
//! request, a `next_clip`, a scheduler `drain`, an engine batch, or one
//! replayed call of a layer entry point. They are kept in memory, written
//! out when the run ends, and self times are derived from them.

use p3d_infer::{
    ClipResult, FaultPlan, InferenceEngine, SlotCtx, SupervisedSlot, SupervisionReport,
};
use p3d_tensor::Tensor;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub trace: u64,
    pub id: u64,
    pub parent: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work items the call handled (clips in a batch, frames, ...).
    pub items: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span that ran from `start_ns` until now.
    pub fn record(
        &self,
        name: &str,
        trace: u64,
        id: u64,
        parent: Option<u64>,
        start_ns: u64,
        items: u64,
    ) {
        let end_ns = self.now();
        let span = Span {
            name: name.to_string(),
            trace,
            id,
            parent,
            start_ns,
            end_ns,
            items,
        };
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Runs `f` inside a span named `name`; `f` receives the span id so
    /// it can parent child spans.
    pub fn span<R>(
        &self,
        name: &str,
        trace: u64,
        parent: Option<u64>,
        items: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id();
        let start = self.now();
        let r = f(id);
        self.record(name, trace, id, parent, start, items);
        r
    }

    /// Removes and returns every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span log poisoned"))
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(ch) = children.get_mut(&s.id) {
                ch.sort_unstable();
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in ch.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if a >= b {
                        continue;
                    }
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
            }
            (s.id, s.dur_ns() - covered.min(s.dur_ns()))
        })
        .collect()
}

/// Writes spans as tab-separated lines: trace, id, parent, name, start, end, items.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "trace\tid\tparent\tname\tstart_ns\tend_ns\titems")?;
    for s in spans {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.trace,
            s.id,
            s.parent.unwrap_or(0),
            s.name,
            s.start_ns,
            s.end_ns,
            s.items
        )?;
    }
    w.flush()
}

/// An engine wrapper recording one `engine.infer_batch` span per batch.
///
/// `parent` names the span the next batch belongs to (0 for none), so a
/// scheduler or resilience `drain` span can own the engine time it spent.
pub struct TimedEngine<E> {
    inner: E,
    tracer: Arc<Tracer>,
    parent: Arc<AtomicU64>,
    grow: fn(&E) -> usize,
    grow_events: Arc<AtomicUsize>,
}

impl<E: InferenceEngine> TimedEngine<E> {
    pub fn new(inner: E, tracer: Arc<Tracer>, grow: fn(&E) -> usize) -> Self {
        let grow_events = Arc::new(AtomicUsize::new(grow(&inner)));
        TimedEngine {
            inner,
            tracer,
            parent: Arc::new(AtomicU64::new(0)),
            grow,
            grow_events,
        }
    }

    /// Handle setting the parent span of the following batches.
    pub fn parent_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.parent)
    }

    /// Arena grow events of the wrapped engine after its latest batch.
    pub fn grow_handle(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.grow_events)
    }

    fn timed<R>(&mut self, items: usize, f: impl FnOnce(&mut E) -> R) -> R {
        let parent = match self.parent.load(Ordering::Relaxed) {
            0 => None,
            p => Some(p),
        };
        let id = self.tracer.next_id();
        let start = self.tracer.now();
        let r = f(&mut self.inner);
        self.tracer
            .record("engine.infer_batch", id, id, parent, start, items as u64);
        self.grow_events
            .store((self.grow)(&self.inner), Ordering::Relaxed);
        r
    }
}

impl<E: InferenceEngine> InferenceEngine for TimedEngine<E> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn infer_batch_into(&mut self, clips: &[Tensor], out: &mut [ClipResult]) {
        self.timed(clips.len(), |e| e.infer_batch_into(clips, out))
    }

    fn infer_batch_supervised(
        &mut self,
        clips: &[Tensor],
        ctx: &[SlotCtx],
        chaos: Option<&FaultPlan>,
        out: &mut [SupervisedSlot],
    ) -> SupervisionReport {
        self.timed(clips.len(), |e| {
            e.infer_batch_supervised(clips, ctx, chaos, out)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            name: String::new(),
            trace: 1,
            id,
            parent,
            start_ns: start,
            end_ns: end,
            items: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 40),
            span(4, Some(1), 60, 70),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 30 - 10);
        assert_eq!(st[&2], 20);
    }
}
