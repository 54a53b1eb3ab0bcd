//! In-memory span recording for the traced run.
//!
//! Every call the traced driver makes into a layer is one span. Spans
//! aggregate per kind (count, raw time, the raw time of their direct
//! children, and a log2 histogram of self time); the first [`RAW_SPANS`]
//! are also kept whole with their parent ids.
//!
//! The clock's own cost is taken out of every span. It is measured before
//! the run and again when the run ends, and the lesser cost stands, so a
//! burst of interference during one calibration cannot turn cheap spans
//! negative. Aggregates keep raw sums, which makes the correction exact
//! whenever it is applied.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::json;

/// Raw spans kept for the trace file.
const RAW_SPANS: usize = 10_000;

/// What a span covers: one call into a layer, bucketed by outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Build,
    WindowOpen,
    Churn,
    Batch,
    Ctx,
    NextAccess,
    L1Hit,
    L2Hit,
    Walk,
    Bypass,
    AccessFault,
    Warm,
    Functional,
    FaultGuest,
    FaultNested,
    FaultMid,
    FaultProt,
    FaultOther,
    Teardown,
}

impl Kind {
    pub const ALL: [Kind; 19] = [
        Kind::Build,
        Kind::WindowOpen,
        Kind::Churn,
        Kind::Batch,
        Kind::Ctx,
        Kind::NextAccess,
        Kind::L1Hit,
        Kind::L2Hit,
        Kind::Walk,
        Kind::Bypass,
        Kind::AccessFault,
        Kind::Warm,
        Kind::Functional,
        Kind::FaultGuest,
        Kind::FaultNested,
        Kind::FaultMid,
        Kind::FaultProt,
        Kind::FaultOther,
        Kind::Teardown,
    ];

    /// Span name: the crate whose call it times, then the operation.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Build => "sim.build",
            Kind::WindowOpen => "sim.window_open",
            Kind::Churn => "sim.churn",
            Kind::Batch => "sim.batch",
            Kind::Ctx => "sim.ctx",
            Kind::NextAccess => "workloads.next_access",
            Kind::L1Hit => "core.access.l1_hit",
            Kind::L2Hit => "core.access.l2_hit",
            Kind::Walk => "core.access.walk",
            Kind::Bypass => "core.access.bypass",
            Kind::AccessFault => "core.access.fault",
            Kind::Warm => "core.access_warm",
            Kind::Functional => "core.access_functional",
            Kind::FaultGuest => "sim.fault.guest",
            Kind::FaultNested => "sim.fault.nested",
            Kind::FaultMid => "sim.fault.mid",
            Kind::FaultProt => "sim.fault.prot",
            Kind::FaultOther => "sim.fault.other",
            Kind::Teardown => "sim.teardown",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Per-kind raw sums.
#[derive(Debug, Clone)]
struct Agg {
    count: u64,
    raw_ns: f64,
    /// Raw time of the spans' direct children, and how many there were.
    child_raw_ns: f64,
    children: u64,
    hist: [u64; 64],
}

impl Default for Agg {
    fn default() -> Agg {
        Agg {
            count: 0,
            raw_ns: 0.0,
            child_raw_ns: 0.0,
            children: 0,
            hist: [0; 64],
        }
    }
}

struct Frame {
    id: u64,
    start: Instant,
    child_raw_ns: f64,
    children: u64,
}

struct RawSpan {
    id: u64,
    parent: u64,
    kind: Kind,
    start_ns: f64,
    raw_ns: f64,
}

/// What the clock costs: the reading an empty span shows, and the wall
/// time one span's instrumentation costs its parent.
#[derive(Debug, Clone, Copy)]
struct Clock {
    timer_ns: f64,
    overhead_ns: f64,
}

/// A duration in nanoseconds, without the slow `u128` to `f64` conversion
/// of `Duration::as_nanos`.
#[inline]
fn nanos(d: Duration) -> f64 {
    d.as_secs() as f64 * 1e9 + f64::from(d.subsec_nanos())
}

/// Histogram bucket of a self time: bucket `b` holds `[2^(b-1), 2^b)` ns,
/// bucket 0 everything under 1 ns.
fn log2_bucket(ns: f64) -> usize {
    if ns < 1.0 {
        0
    } else {
        (64 - (ns as u64).leading_zeros() as usize).min(63)
    }
}

/// The span recorder. Spans nest strictly: `finish` closes the most
/// recent `start`.
pub struct Tracer {
    origin: Instant,
    clock: Clock,
    stack: Vec<Frame>,
    aggs: Vec<Agg>,
    raw: Vec<RawSpan>,
    next_id: u64,
}

impl Tracer {
    fn empty(clock: Clock) -> Tracer {
        Tracer {
            origin: Instant::now(),
            clock,
            stack: Vec::with_capacity(8),
            aggs: vec![Agg::default(); Kind::ALL.len()],
            raw: Vec::with_capacity(RAW_SPANS),
            next_id: 1,
        }
    }

    /// A recorder with the clock's cost measured on this host.
    pub fn calibrated() -> Tracer {
        Tracer::empty(measure_clock())
    }

    /// Measures the clock again; the lesser cost of all measurements is
    /// the one taken out of every span.
    pub fn recalibrate(&mut self) {
        let again = measure_clock();
        self.clock.timer_ns = self.clock.timer_ns.min(again.timer_ns);
        self.clock.overhead_ns = self.clock.overhead_ns.min(again.overhead_ns);
    }

    /// Opens a span.
    #[inline]
    pub fn start(&mut self) {
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Frame {
            id,
            start: self.origin,
            child_raw_ns: 0.0,
            children: 0,
        });
        // The clock is read last, so the push falls outside the span.
        if let Some(top) = self.stack.last_mut() {
            top.start = Instant::now();
        }
    }

    /// Closes the innermost open span as `kind`.
    #[inline]
    pub fn finish(&mut self, kind: Kind) {
        let end = Instant::now();
        let frame = self.stack.pop().expect("finish matches a start");
        let raw = nanos(end.duration_since(frame.start));
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_raw_ns += raw;
                p.children += 1;
                p.id
            }
            None => 0,
        };
        let self_ns = self.clock.self_ns(raw, frame.child_raw_ns, frame.children);
        let agg = &mut self.aggs[kind.index()];
        agg.count += 1;
        agg.raw_ns += raw;
        agg.child_raw_ns += frame.child_raw_ns;
        agg.children += frame.children;
        agg.hist[log2_bucket(self_ns)] += 1;
        if self.raw.len() < RAW_SPANS {
            self.raw.push(RawSpan {
                id: frame.id,
                parent,
                kind,
                start_ns: nanos(frame.start.duration_since(self.origin)),
                raw_ns: raw,
            });
        }
    }

    /// Spans of `kind` closed so far.
    pub fn count(&self, kind: Kind) -> u64 {
        self.aggs[kind.index()].count
    }

    /// Summed self time of `kind`: its spans less their children and the
    /// clock's cost.
    pub fn self_ns(&self, kind: Kind) -> f64 {
        let a = &self.aggs[kind.index()];
        self.clock.timer_ns * (a.children as f64 - a.count as f64) + a.raw_ns
            - a.child_raw_ns
            - self.clock.overhead_ns * a.children as f64
    }

    /// Mean self time per span of `kind` (0 when there were none).
    pub fn ns_per_op(&self, kind: Kind) -> f64 {
        match self.count(kind) {
            0 => 0.0,
            n => self.self_ns(kind) / n as f64,
        }
    }

    /// The trace as JSON lines: the calibration, one aggregate per kind,
    /// then the raw spans (uncorrected readings).
    pub fn jsonl(&self) -> String {
        let mut out = format!(
            "{{\"type\":\"calibration\",\"timer_ns\":{},\"span_overhead_ns\":{}}}\n",
            json::num(self.clock.timer_ns),
            json::num(self.clock.overhead_ns)
        );
        for kind in Kind::ALL {
            let a = &self.aggs[kind.index()];
            let hist: Vec<String> = a.hist.iter().map(u64::to_string).collect();
            let _ = writeln!(
                out,
                "{{\"type\":\"agg\",\"name\":{},\"count\":{},\"raw_ns\":{},\"self_ns\":{},\
                 \"log2_self_ns_hist\":[{}]}}",
                json::string(kind.name()),
                a.count,
                json::num(a.raw_ns),
                json::num(self.self_ns(kind)),
                hist.join(",")
            );
        }
        for s in &self.raw {
            let _ = writeln!(
                out,
                "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"name\":{},\"start_ns\":{},\
                 \"raw_ns\":{}}}",
                s.id,
                s.parent,
                json::string(s.kind.name()),
                json::num(s.start_ns),
                json::num(s.raw_ns)
            );
        }
        out
    }
}

impl Clock {
    /// Self time of one span from its raw reading and its children's.
    fn self_ns(&self, raw: f64, child_raw: f64, children: u64) -> f64 {
        let n = children as f64;
        raw - child_raw - self.timer_ns * (1.0 - n) - self.overhead_ns * n
    }
}

/// Times empty spans on a scratch recorder whose raw-span buffer is full,
/// the path nearly every span of a run takes. In each trial a parent holds
/// N empty children: a child's mean reading is what the clock adds to a
/// span, and the parent's reading per child is what one span costs its
/// parent. The least of the trials is the cost without interference from
/// the rest of the host.
fn measure_clock() -> Clock {
    const TRIALS: usize = 31;
    const N: u64 = 1_000;
    let mut t = Tracer::empty(Clock {
        timer_ns: 0.0,
        overhead_ns: 0.0,
    });
    for _ in 0..RAW_SPANS {
        t.start();
        t.finish(Kind::Teardown);
    }
    let mut clock = Clock {
        timer_ns: f64::INFINITY,
        overhead_ns: f64::INFINITY,
    };
    for _ in 0..TRIALS {
        let before = (
            t.aggs[Kind::Walk.index()].raw_ns,
            t.aggs[Kind::Batch.index()].raw_ns,
        );
        t.start();
        for _ in 0..N {
            t.start();
            t.finish(Kind::Walk);
        }
        t.finish(Kind::Batch);
        let child = (t.aggs[Kind::Walk.index()].raw_ns - before.0) / N as f64;
        let parent = (t.aggs[Kind::Batch.index()].raw_ns - before.1) / N as f64;
        clock.timer_ns = clock.timer_ns.min(child);
        clock.overhead_ns = clock.overhead_ns.min(parent);
    }
    clock
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_the_clock() {
        let mut t = Tracer::calibrated();
        t.start();
        for _ in 0..3 {
            t.start();
            std::thread::sleep(Duration::from_millis(2));
            t.finish(Kind::Walk);
        }
        t.finish(Kind::Batch);
        t.recalibrate();
        assert_eq!((t.count(Kind::Batch), t.count(Kind::Walk)), (1, 3));
        assert!(t.self_ns(Kind::Walk) >= 6e6, "three 2 ms children");
        assert!(t.self_ns(Kind::Batch) < 1e6, "the parent only looped");
        assert!(t.ns_per_op(Kind::Walk) >= 2e6);
        assert_eq!(t.ns_per_op(Kind::Churn), 0.0);
        let text = t.jsonl();
        assert_eq!(text.lines().count(), 1 + Kind::ALL.len() + 4);
        for line in text.lines() {
            mv_prof::json::parse(line).expect("each trace line is JSON");
        }
        // Children record their parent's id; the root has none.
        assert!(text.contains("\"parent\":0,\"name\":\"sim.batch\""));
        assert!(text.contains("\"parent\":1,\"name\":\"core.access.walk\""));
    }

    #[test]
    fn aggregate_self_time_matches_per_span_arithmetic() {
        let clock = Clock {
            timer_ns: 20.0,
            overhead_ns: 70.0,
        };
        let mut t = Tracer::empty(clock);
        t.aggs[Kind::Batch.index()] = Agg {
            count: 2,
            raw_ns: 1_000.0 + 600.0,
            child_raw_ns: 300.0 + 100.0,
            children: 3 + 1,
            ..Agg::default()
        };
        let per_span = clock.self_ns(1_000.0, 300.0, 3) + clock.self_ns(600.0, 100.0, 1);
        assert!((t.self_ns(Kind::Batch) - per_span).abs() < 1e-9);
        // 1000 - 300 + 2*20 - 3*70 = 530; 600 - 100 - 0 - 70 = 430.
        assert!((per_span - 960.0).abs() < 1e-9);
    }

    #[test]
    fn kinds_index_their_own_slot() {
        for (i, k) in Kind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }
}
