//! In-memory spans recorded by the benchmark around its calls into each
//! layer, and the self-time arithmetic over them.
//!
//! A span is one call: its layer name, start and end (ns since the run's
//! epoch), the span that caused it, and the id of the chunk or request it
//! carried, which every span along that chunk's path shares. A layer's
//! self time is its span's duration minus the part of that interval its
//! child spans cover.

use crate::json::{obj, Json};
use std::collections::BTreeMap;
use std::time::Instant;

pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub chunk: u64,
}

/// One thread's span log. Recording is a push onto a pre-grown vector; a
/// disabled recorder records nothing, which is how the untraced twin of an
/// arm runs the very same code.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Recorder {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Pauses or resumes recording (warm-up stretches are not recorded).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Runs `call`, recording it as a span when enabled. A disabled
    /// recorder does not even read the clock.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        chunk: u64,
        call: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return call();
        }
        let start = Instant::now();
        let out = call();
        self.record(name, parent, chunk, start, Instant::now());
        out
    }

    /// [`Recorder::timed`] for a call whose duration is a metric of its own:
    /// always reads the clock, and returns the milliseconds it took.
    pub fn timed_ms<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        chunk: u64,
        call: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let out = call();
        let end = Instant::now();
        self.record(name, parent, chunk, start, end);
        (out, (end - start).as_secs_f64() * 1e3)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span that other spans will name as their parent; close it
    /// with [`Recorder::close`]. Returns `None` when disabled.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        chunk: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            chunk,
        });
        Some((self.spans.len() - 1) as SpanId)
    }

    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id as usize].end_ns = self.ns(Instant::now());
        }
    }

    /// Records a finished call.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        chunk: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                chunk,
            });
        }
    }

    /// Appends another thread's log, re-basing its parent links. Spans of
    /// `other` whose parent is `None` are attached to `adopt`.
    pub fn absorb(&mut self, other: Recorder, adopt: Option<SpanId>) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(adopt);
            s
        }));
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals, clipped to the span itself. Children may overlap one another
/// (calls on two threads under one parent), hence the union.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a span log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    out
}

/// At most this many spans of one name are written to the trace file; the
/// per-name totals always cover every span recorded.
pub const SPANS_PER_NAME_IN_FILE: usize = 20_000;

/// The trace file body: per-name totals plus the spans themselves as
/// `[name, start_ns, end_ns, parent, chunk]` rows (`parent` is a row's
/// index in the unabridged log, or null).
pub fn to_json(spans: &[Span]) -> Json {
    let totals = totals_by_name(spans)
        .into_iter()
        .map(|(name, t)| {
            (
                name.to_string(),
                obj([
                    ("count", t.count.into()),
                    ("total_ns", t.total_ns.into()),
                    ("self_ns", t.self_ns.into()),
                ]),
            )
        })
        .collect();
    let mut written: BTreeMap<&'static str, usize> = BTreeMap::new();
    let rows = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| {
            let n = written.entry(s.name).or_default();
            *n += 1;
            *n <= SPANS_PER_NAME_IN_FILE
        })
        .map(|(i, s)| {
            Json::Arr(vec![
                i.into(),
                s.name.into(),
                s.start_ns.into(),
                s.end_ns.into(),
                s.parent.map_or(Json::Null, |p| u64::from(p).into()),
                s.chunk.into(),
            ])
        })
        .collect();
    obj([
        (
            "columns",
            Json::Arr(
                ["id", "name", "start_ns", "end_ns", "parent", "chunk"]
                    .map(Json::from)
                    .to_vec(),
            ),
        ),
        ("totals", Json::Obj(totals)),
        ("recorded", spans.len().into()),
        ("spans", Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            chunk: 0,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = vec![
            span("request", 0, 100, None),
            span("parse", 10, 30, Some(0)),
            span("detect", 30, 90, Some(0)),
            span("sweep", 40, 50, Some(2)),
            span("commit", 50, 80, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 20, 10, 30]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("root", 100, 200, None),
            // Two threads under one parent, overlapping in 130..150.
            span("a", 110, 150, Some(0)),
            span("b", 130, 170, Some(0)),
            // Starts before and ends after the parent: clipped to it.
            span("c", 190, 260, Some(0)),
            // Wholly outside the parent: covers nothing of it.
            span("d", 300, 400, Some(0)),
        ];
        // Covered: 110..170 (60) + 190..200 (10).
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = vec![
            span("pump", 0, 50, None),
            span("detect", 5, 45, Some(0)),
            span("pump", 50, 70, None),
            span("detect", 52, 60, Some(2)),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(
            t["pump"],
            NameTotals {
                count: 2,
                total_ns: 70,
                self_ns: 22
            }
        );
        assert_eq!(t["detect"].self_ns, 48);
    }

    #[test]
    fn absorbing_a_log_rebases_parents_and_adopts_roots() {
        let epoch = Instant::now();
        let mut main = Recorder::new(epoch, true);
        let root = main.open("arm", None, 0);
        let mut worker = Recorder::new(epoch, true);
        let call = worker.open("pump", None, 7);
        worker.record("detect", call, 7, epoch, epoch);
        worker.close(call);
        main.absorb(worker, root);
        main.close(root);
        let spans = main.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].chunk, 7);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut r = Recorder::new(Instant::now(), false);
        let id = r.open("x", None, 0);
        r.record("y", id, 0, Instant::now(), Instant::now());
        r.close(id);
        assert!(id.is_none() && r.into_spans().is_empty());
    }
}
