//! In-memory spans around the benchmark's own calls into each layer.
//!
//! The program under test is not instrumented (that is a later change), so a
//! span here is "this public call, seen from outside". Spans on the
//! generator thread *tile* its timeline: whatever lies between two layer
//! spans is recorded as `bench.gen`, the generator's own work, so the tiles
//! sum to the window by construction and a layer's share of the thread is
//! its total divided by that sum. `bench.op` spans (submit → completion)
//! overlap the tiles and each other; they are the parents, not part of the
//! sum.
//!
//! Totals cover every span. Raw spans are kept up to [`RAW_CAP`] and written
//! out when the run ends; the header line says how many were dropped.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use crate::stats::Epoch;

/// Raw spans kept per run (~5 MB in memory, ~20 MB as JSONL).
const RAW_CAP: usize = 200_000;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Span {
    /// One operation, submit → completion (parent of the op's tiles).
    Op = 0,
    /// The generator's own work between layer calls.
    Gen,
    Declare,
    Revoke,
    Encode,
    Decode,
    Submit,
    CompletePoll,
    CompleteWait,
    /// One blocking call into `Machine` (the whole stack, seen from outside).
    MachineCall,
    /// The benchmark verifying an output.
    Check,
}

const SPANS: [Span; 11] = [
    Span::Op,
    Span::Gen,
    Span::Declare,
    Span::Revoke,
    Span::Encode,
    Span::Decode,
    Span::Submit,
    Span::CompletePoll,
    Span::CompleteWait,
    Span::MachineCall,
    Span::Check,
];

impl Span {
    pub fn name(self) -> &'static str {
        match self {
            Span::Op => "bench.op",
            Span::Gen => "bench.gen",
            Span::Declare => "hypervisor.shards.declare",
            Span::Revoke => "hypervisor.shards.revoke",
            Span::Encode => "cvd.proto.encode",
            Span::Decode => "cvd.proto.decode",
            Span::Submit => "cvd.multi.submit",
            Span::CompletePoll => "cvd.multi.complete_poll",
            Span::CompleteWait => "cvd.multi.complete_wait",
            Span::MachineCall => "core.machine.call",
            Span::Check => "bench.check",
        }
    }
}

#[derive(Clone, Copy, Default)]
pub struct Total {
    pub count: u64,
    pub ns: u64,
}

impl Total {
    pub fn mean_ns(self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.ns as f64 / self.count as f64
        }
    }
}

struct Raw {
    span: Span,
    op: u64,
    start: u64,
    end: u64,
}

/// The span recorder. Disabled (the untraced run) it reads no clock and
/// stores nothing.
pub struct Spans {
    enabled: bool,
    epoch: Epoch,
    totals: [Total; SPANS.len()],
    raw: Vec<Raw>,
    dropped: u64,
    tiled_to: u64,
}

impl Spans {
    pub fn new(enabled: bool, epoch: Epoch) -> Spans {
        Spans {
            enabled,
            epoch,
            totals: Default::default(),
            raw: Vec::with_capacity(if enabled { RAW_CAP } else { 0 }),
            dropped: 0,
            tiled_to: 0,
        }
    }

    /// The clock reading a span starts or ends at (0 when disabled).
    #[inline]
    pub fn now(&self) -> u64 {
        if self.enabled {
            self.epoch.ns()
        } else {
            0
        }
    }

    /// Starts the tiling at `at`: spans before the timed window are not
    /// recorded, so the recorder is opened when the window is.
    pub fn open(&mut self, at: u64) {
        self.tiled_to = at;
    }

    fn push(&mut self, span: Span, op: u64, start: u64, end: u64) {
        let total = &mut self.totals[span as usize];
        total.count += 1;
        total.ns += end.saturating_sub(start);
        if self.raw.len() < RAW_CAP {
            self.raw.push(Raw {
                span,
                op,
                start,
                end,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Records a layer span on the generator thread for operation `op`; the
    /// gap since the previous tile becomes a `bench.gen` tile. Returns `end`
    /// so adjacent spans can share one clock reading.
    #[inline]
    pub fn tile(&mut self, span: Span, op: u64, start: u64, end: u64) -> u64 {
        if self.enabled {
            if start > self.tiled_to {
                self.push(Span::Gen, 0, self.tiled_to, start);
            }
            self.push(span, op, start, end);
            self.tiled_to = end;
        }
        end
    }

    /// Records operation `op`'s submit → completion span.
    #[inline]
    pub fn op(&mut self, op: u64, start: u64, end: u64) {
        if self.enabled {
            self.push(Span::Op, op, start, end);
        }
    }

    /// Ends the tiling at `at`: the tail since the last tile is generator
    /// work.
    pub fn close(&mut self, at: u64) {
        if self.enabled && at > self.tiled_to {
            self.push(Span::Gen, 0, self.tiled_to, at);
            self.tiled_to = at;
        }
    }

    pub fn total(&self, span: Span) -> Total {
        self.totals[span as usize]
    }

    /// Sum of all tiles (everything but the overlapping `bench.op` spans).
    pub fn tiled_ns(&self) -> u64 {
        SPANS
            .iter()
            .filter(|&&s| s != Span::Op)
            .map(|&s| self.totals[s as usize].ns)
            .sum()
    }

    /// Writes the header line and the raw spans as JSONL.
    pub fn dump(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut header = format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"clock\":\"host ns since run start\",\
             \"spans_recorded\":{},\"spans_dropped\":{},\"totals\":{{",
            self.raw.len(),
            self.dropped
        );
        for (i, span) in SPANS.iter().enumerate() {
            let total = self.totals[*span as usize];
            let comma = if i == 0 { "" } else { "," };
            let _ = write!(
                header,
                "{comma}\"{}\":{{\"count\":{},\"ns\":{}}}",
                span.name(),
                total.count,
                total.ns
            );
        }
        header.push_str("}}");
        writeln!(out, "{header}")?;
        for raw in &self.raw {
            let parent = match raw.span {
                Span::Op | Span::Gen => "null",
                _ => "\"bench.op\"",
            };
            writeln!(
                out,
                "{{\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                raw.op,
                raw.span.name(),
                raw.start,
                raw.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiles_sum_to_the_window_and_ops_do_not_count() {
        let mut spans = Spans::new(true, Epoch::start());
        spans.open(100);
        spans.tile(Span::Encode, 1, 110, 130);
        spans.tile(Span::Submit, 1, 130, 170);
        spans.op(1, 110, 400);
        spans.tile(Span::Decode, 1, 300, 320);
        spans.close(500);
        assert_eq!(spans.tiled_ns(), 400);
        assert_eq!(spans.total(Span::Gen).ns, 10 + 130 + 180);
        assert_eq!(spans.total(Span::Op).count, 1);
    }

    #[test]
    fn disabled_recorder_stores_nothing() {
        let mut spans = Spans::new(false, Epoch::start());
        assert_eq!(spans.now(), 0);
        spans.tile(Span::Encode, 1, 0, 10);
        spans.op(1, 0, 10);
        assert_eq!(spans.tiled_ns(), 0);
        assert_eq!(spans.total(Span::Op).count, 0);
    }
}
