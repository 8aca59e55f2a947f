//! Spans of the traced run: timed calls into each layer's public functions.
//!
//! Every timed call lands in its kind's histogram. A span recorded with an
//! operation id is also kept in memory, up to a fixed cap, and the kept
//! spans are written out as TSV when the run ends.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use crate::hist::Hist;

/// Spans kept per worker; later spans are only counted.
const SPAN_CAP: usize = 1 << 16;

/// Where a span was taken, named `<layer>.<call>` after the modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One whole operation of the workload: the root of its spans.
    Op,
    Insert,
    Remove,
    Get,
    ShieldLease,
    Enter,
    Protect,
    Alloc,
    Retire,
    Cleanup,
    Checkout,
    Checkin,
    Snapshot,
    Register,
}

impl Kind {
    pub const COUNT: usize = Kind::Register as usize + 1;

    pub fn name(self) -> &'static str {
        match self {
            Kind::Op => "op",
            Kind::Insert => "ds.insert",
            Kind::Remove => "ds.remove",
            Kind::Get => "ds.get",
            Kind::ShieldLease => "guard.shield_lease",
            Kind::Enter => "guard.enter",
            Kind::Protect => "guard.protect",
            Kind::Alloc => "reclaim.alloc",
            Kind::Retire => "reclaim.retire",
            Kind::Cleanup => "reclaim.cleanup",
            Kind::Checkout => "pool.checkout",
            Kind::Checkin => "pool.checkin",
            Kind::Snapshot => "stats.snapshot",
            Kind::Register => "registry.register",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    op: u64,
    kind: Kind,
    start_ns: u64,
    dur_ns: u64,
}

/// One thread's spans and per-kind histograms.
pub struct Tracer {
    epoch: Instant,
    hists: Vec<Hist>,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// `epoch` is shared by every tracer of a run, so span starts compare.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            hists: (0..Kind::COUNT).map(|_| Hist::default()).collect(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Times `f` as a `kind` span. With `op`, the span is also kept under
    /// that operation id.
    #[inline]
    pub fn time<T>(&mut self, kind: Kind, op: Option<u64>, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(kind, op, start, start.elapsed());
        out
    }

    pub fn record(&mut self, kind: Kind, op: Option<u64>, start: Instant, dur: Duration) {
        let dur_ns = dur.as_nanos() as u64;
        self.hists[kind as usize].record(dur_ns);
        let Some(op) = op else { return };
        if self.spans.len() < SPAN_CAP {
            let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                op,
                kind,
                start_ns,
                dur_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    pub fn hist(&self, kind: Kind) -> &Hist {
        &self.hists[kind as usize]
    }

    pub fn merge(&mut self, other: Tracer) {
        for (mine, theirs) in self.hists.iter_mut().zip(&other.hists) {
            mine.merge(theirs);
        }
        self.spans.extend(other.spans);
        self.dropped += other.dropped;
    }

    /// Writes the kept spans as TSV (`op`, `span`, `parent`, `start_ns`,
    /// `dur_ns`), oldest first. Every span but the root names `op` as parent.
    pub fn write_tsv(&mut self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        self.spans.sort_by_key(|s| (s.start_ns, s.op));
        let mut out = BufWriter::new(File::create(path)?);
        writeln!(out, "op\tspan\tparent\tstart_ns\tdur_ns")?;
        for s in &self.spans {
            let parent = if s.kind == Kind::Op {
                ""
            } else {
                Kind::Op.name()
            };
            writeln!(
                out,
                "{:#x}\t{}\t{}\t{}\t{}",
                s.op,
                s.kind.name(),
                parent,
                s.start_ns,
                s.dur_ns
            )?;
        }
        out.flush()
    }

    pub fn kept_and_dropped(&self) -> (usize, u64) {
        (self.spans.len(), self.dropped)
    }
}
