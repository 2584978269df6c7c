//! Spans of the layer replay: kept in memory while the replay runs,
//! written to `benchmark/out/trace-<workload>.jsonl` when it ends.
//!
//! A span is `{id, parent, layer, start_ns, end_ns, busy_ns, calls}`,
//! times in nanoseconds since the replay started. Three levels:
//!
//! * the root `replay` span of the workload;
//! * one **pass** span per layer group (`record`, `store.objects`,
//!   `net.broadcast`, …): one replay of that group's recorded tape
//!   from fresh state;
//! * **block** spans of one leaf layer (`net.broadcast.push`, …), one
//!   per ~1024 calls. The calls are 5-50 ns each, so there is one
//!   clock pair per block, never per call.
//!
//! `busy_ns` is the time the span's own calls were being timed. For a
//! block of back-to-back calls it equals `end_ns - start_ns`. Layers
//! whose calls interleave on one stateful object (push / flush /
//! receive on a broadcast endpoint, own / fold on a monitor) are timed
//! per run of same-kind calls; a block then collects runs until it
//! holds ~1024 calls, `busy_ns` sums the timed runs, and the rest of
//! `end_ns - start_ns` is the other kinds' calls that had to execute
//! in between to keep the state exact.
//!
//! A span's **self time** is its `busy_ns` minus its children's.

use crate::json::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Calls per block span.
pub const BLOCK: usize = 1024;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
    pub calls: u64,
}

/// The timed content of one block; summed per leaf layer, the layer's
/// total.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Block {
    pub calls: u64,
    pub busy_ns: u64,
    /// Clock pairs inside `busy_ns` (one per timed run of calls).
    pub clock_pairs: u64,
}

impl Block {
    /// Timed nanoseconds net of the clock pairs that were read inside
    /// the timed runs (`pair_ns` = the calibrated cost of one).
    pub fn net_ns(&self, pair_ns: f64) -> f64 {
        (self.busy_ns as f64 - self.clock_pairs as f64 * pair_ns).max(0.0)
    }

    /// Mean net nanoseconds per call; 0 when the layer saw no calls.
    pub fn ns_per_call(&self, pair_ns: f64) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        self.net_ns(pair_ns) / self.calls as f64
    }
}

pub struct SpanLog {
    t0: Instant,
    pub spans: Vec<Span>,
    totals: BTreeMap<&'static str, Block>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            t0: Instant::now(),
            spans: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    fn since(&self, t: Instant) -> u64 {
        t.duration_since(self.t0).as_nanos() as u64
    }

    /// Open a root or pass span now; [`close`](Self::close) ends it.
    pub fn open(&mut self, layer: &'static str, parent: Option<u32>) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.since(Instant::now());
        self.spans.push(Span {
            id,
            parent,
            layer,
            start_ns: now,
            end_ns: now,
            busy_ns: 0,
            calls: 0,
        });
        id
    }

    pub fn close(&mut self, id: u32) {
        let now = self.since(Instant::now());
        let s = &mut self.spans[id as usize];
        s.end_ns = now;
        s.busy_ns = now - s.start_ns;
    }

    /// Record one finished block of `layer` under pass span `parent`:
    /// `calls` calls timed over `busy_ns` in `clock_pairs` runs, the
    /// first starting at `start`, the last ending at `end`.
    pub fn block(
        &mut self,
        layer: &'static str,
        parent: u32,
        start: Instant,
        end: Instant,
        b: Block,
    ) {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: Some(parent),
            layer,
            start_ns: self.since(start),
            end_ns: self.since(end),
            busy_ns: b.busy_ns,
            calls: b.calls,
        });
        let t = self.totals.entry(layer).or_default();
        t.calls += b.calls;
        t.busy_ns += b.busy_ns;
        t.clock_pairs += b.clock_pairs;
    }

    /// Time `f`, which makes `calls` back-to-back calls into `layer`,
    /// as one block.
    pub fn timed<R>(
        &mut self,
        layer: &'static str,
        parent: u32,
        calls: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        let b = Block {
            calls,
            busy_ns: end.duration_since(start).as_nanos() as u64,
            clock_pairs: 1,
        };
        self.block(layer, parent, start, end, b);
        r
    }

    /// Totals of `layer` (zero when it was never called).
    pub fn total(&self, layer: &str) -> Block {
        self.totals.get(layer).copied().unwrap_or_default()
    }

    /// Self time per span id: `busy_ns` minus the children's.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.busy_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.busy_ns);
            }
        }
        own
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let line = Value::obj([
                ("id", Value::Num(s.id as f64)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                ),
                ("layer", Value::str(s.layer)),
                ("start_ns", Value::Num(s.start_ns as f64)),
                ("end_ns", Value::Num(s.end_ns as f64)),
                ("busy_ns", Value::Num(s.busy_ns as f64)),
                ("calls", Value::Num(s.calls as f64)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Timer for one stateful object whose calls of several kinds
/// interleave: each run of same-kind calls is timed with one clock
/// pair, and runs collect into ~[`BLOCK`]-call block spans per kind.
pub struct RunTimer {
    kinds: Vec<Pending>,
}

struct Pending {
    layer: &'static str,
    /// Start of the block's first run and end of its last.
    ends: Option<(Instant, Instant)>,
    block: Block,
}

impl RunTimer {
    pub fn new(layers: &[&'static str]) -> RunTimer {
        RunTimer {
            kinds: layers
                .iter()
                .map(|&layer| Pending {
                    layer,
                    ends: None,
                    block: Block::default(),
                })
                .collect(),
        }
    }

    /// Account one timed run of `calls` calls of kind `kind`.
    pub fn run(
        &mut self,
        log: &mut SpanLog,
        parent: u32,
        kind: usize,
        calls: u64,
        start: Instant,
        end: Instant,
    ) {
        let p = &mut self.kinds[kind];
        p.ends = Some((p.ends.map_or(start, |(first, _)| first), end));
        p.block.busy_ns += end.duration_since(start).as_nanos() as u64;
        p.block.calls += calls;
        p.block.clock_pairs += 1;
        if p.block.calls >= BLOCK as u64 {
            Self::flush_kind(p, log, parent);
        }
    }

    fn flush_kind(p: &mut Pending, log: &mut SpanLog, parent: u32) {
        if let Some((first, last)) = p.ends.take() {
            log.block(p.layer, parent, first, last, std::mem::take(&mut p.block));
        }
    }

    /// Emit the partial blocks left at the end of a tape.
    pub fn finish(mut self, log: &mut SpanLog, parent: u32) {
        for p in &mut self.kinds {
            Self::flush_kind(p, log, parent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_busy_minus_children() {
        let mut log = SpanLog::new();
        let root = log.open("replay", None);
        let pass = log.open("store.objects", Some(root));
        let t = Instant::now();
        for busy_ns in [300, 500] {
            let b = Block {
                calls: 10,
                busy_ns,
                clock_pairs: 1,
            };
            log.block("store.objects.apply_cc", pass, t, t, b);
        }
        log.close(pass);
        log.close(root);
        log.spans[pass as usize].busy_ns = 1000;
        log.spans[root as usize].busy_ns = 1500;
        assert_eq!(log.self_times(), [500, 200, 300, 500]);
        let total = log.total("store.objects.apply_cc");
        assert_eq!(
            (total.calls, total.busy_ns, total.clock_pairs),
            (20, 800, 2)
        );
        // 800 ns over 20 calls, minus two 50 ns clock pairs
        assert_eq!(total.ns_per_call(50.0), 35.0);
        assert_eq!(log.total("never.called").ns_per_call(50.0), 0.0);
    }

    #[test]
    fn run_timer_collects_runs_into_blocks() {
        let mut log = SpanLog::new();
        let pass = log.open("net.broadcast", None);
        let mut timer = RunTimer::new(&["push", "flush"]);
        let t = Instant::now();
        for _ in 0..40 {
            timer.run(&mut log, pass, 0, 32, t, t); // 40 runs of 32 pushes
            timer.run(&mut log, pass, 1, 1, t, t); // each followed by a flush
        }
        timer.finish(&mut log, pass);
        let blocks = |layer: &str| log.spans.iter().filter(|s| s.layer == layer).count();
        // 1280 pushes: one full block of 1024, one partial of 256
        assert_eq!(blocks("push"), 2);
        assert_eq!(blocks("flush"), 1);
        assert_eq!(log.total("push").calls, 1280);
        assert_eq!(log.total("push").clock_pairs, 40);
        assert_eq!(log.total("flush").calls, 40);
    }
}
