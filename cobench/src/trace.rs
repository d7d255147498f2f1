//! The in-memory span recorder of the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer's
//! public functions: the client side (connect, round trips, snippet
//! build/apply, HTML parse) on the load-generator threads, the server
//! side by wrapping the router's `Handler` and each returned `Park`'s
//! callbacks. Every span of one request shares its id, carried to the
//! server in a header of the traced run only, so a handler span nests
//! under the round trip that caused it. Spans stay in memory and are
//! written out when the benchmark ends.

use std::collections::HashMap;
use std::io::Write as _;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::stats::{percentile, us};

/// Header carrying a request's span id (traced run only).
pub const SPAN_HEADER: &str = "x-cobench-span";

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Id other spans nest under (0: nothing nests under this span).
    pub id: u64,
    /// Id of the span this one nests under (0: a root span).
    pub parent: u64,
    /// Nanoseconds since the trace epoch.
    pub start: u64,
    pub end: u64,
    /// Time this span spent waiting rather than working, where the
    /// recorder knows it (open-loop lateness of an op).
    pub wait: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide trace epoch.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The span id of a participant's request or op: the participant id in
/// the high bits, a per-participant sequence in the low 40.
pub fn span_id(pid: u64, seq: u64) -> u64 {
    (pid << 40) | (seq & ((1 << 40) - 1))
}

/// A load-generator thread's recorder. When off, `begin` reads no clock
/// and `end` records nothing, so the untraced run pays only a branch.
pub struct Tracer {
    on: bool,
    seq: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose span ids continue from sequence number `seq`.
    pub fn new(on: bool, seq: u64) -> Tracer {
        Tracer {
            on,
            seq,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// A fresh span id for participant `pid`.
    pub fn next_id(&mut self, pid: u64) -> u64 {
        self.seq += 1;
        span_id(pid, self.seq)
    }

    pub fn begin(&self) -> u64 {
        if self.on {
            now_ns()
        } else {
            0
        }
    }

    pub fn end(&mut self, name: &'static str, id: u64, parent: u64, start: u64) {
        self.end_waited(name, id, parent, start, 0);
    }

    pub fn end_waited(&mut self, name: &'static str, id: u64, parent: u64, start: u64, wait: u64) {
        if self.on {
            self.spans.push(Span {
                name,
                id,
                parent,
                start,
                end: now_ns(),
                wait,
            });
        }
    }
}

/// The server-side recorder, shared by the wrapped handler and the park
/// callbacks on the engine's threads.
#[derive(Default)]
pub struct ServerSpans {
    spans: Mutex<Vec<Span>>,
}

impl ServerSpans {
    pub fn new() -> Arc<ServerSpans> {
        Arc::new(ServerSpans::default())
    }

    pub fn push(&self, name: &'static str, parent: u64, start: u64, end: u64) {
        self.lock().push(Span {
            name,
            id: 0,
            parent,
            start,
            end,
            wait: 0,
        });
    }

    /// Drops everything recorded so far (the warm-up's spans).
    pub fn clear(&self) {
        self.lock().clear();
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.lock())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking thread")
    }
}

/// Per-name summary of a trace: durations, self time (a span minus the
/// spans nested inside it, minus its own wait) and wait time.
#[derive(Debug, Clone)]
pub struct LayerSummary {
    pub name: &'static str,
    pub count: usize,
    pub p50_us: f64,
    pub self_p50_us: f64,
    pub wait_p50_us: f64,
}

/// Wait time of each span: the recorded wait, or — for a parked
/// long-poll's round trip — the time between the handler's park and the
/// wake that completed it.
fn waits(spans: &[Span], children: &HashMap<u64, Vec<usize>>) -> Vec<u64> {
    spans
        .iter()
        .map(|s| {
            if s.name != "http.longpoll_rtt" {
                return s.wait;
            }
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            let parked = kids.iter().find(|&&i| spans[i].name == "router.park");
            let woken = kids
                .iter()
                .find(|&&i| matches!(spans[i].name, "tcp.wake" | "tcp.timeout"));
            match (parked, woken) {
                (Some(&p), Some(&w)) => spans[w].start.saturating_sub(spans[p].end),
                _ => 0,
            }
        })
        .collect()
}

/// Self time of each span — its duration minus the part of it covered by
/// spans nested under its id, minus its wait — and its wait.
pub fn self_and_wait(spans: &[Span]) -> (Vec<u64>, Vec<u64>) {
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push(i);
        }
    }
    let wait = waits(spans, &children);
    let selfs = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let covered: u64 = children
                .get(&s.id)
                .map_or(&[][..], Vec::as_slice)
                .iter()
                .map(|&c| {
                    let c = &spans[c];
                    c.end.min(s.end).saturating_sub(c.start.max(s.start))
                })
                .sum();
            s.duration().saturating_sub(covered).saturating_sub(wait[i])
        })
        .collect();
    (selfs, wait)
}

/// Summaries per span name, in name order.
pub fn summarize(spans: &[Span]) -> Vec<LayerSummary> {
    let (selfs, wait) = self_and_wait(spans);
    let mut by_name: std::collections::BTreeMap<&'static str, Vec<usize>> = Default::default();
    for (i, s) in spans.iter().enumerate() {
        by_name.entry(s.name).or_default().push(i);
    }
    by_name
        .into_iter()
        .map(|(name, idx)| {
            let p50 = |v: Vec<u64>| us(percentile(&v, 50.0).unwrap_or(0));
            LayerSummary {
                name,
                count: idx.len(),
                p50_us: p50(idx.iter().map(|&i| spans[i].duration()).collect()),
                self_p50_us: p50(idx.iter().map(|&i| selfs[i]).collect()),
                wait_p50_us: p50(idx.iter().map(|&i| wait[i]).collect()),
            }
        })
        .collect()
}

/// p50 duration (µs) of the spans called `name`; 0 when there are none
/// (the layer is not on this workload's path).
pub fn p50_us(spans: &[Span], name: &str) -> (f64, usize) {
    let d: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration)
        .collect();
    (us(percentile(&d, 50.0).unwrap_or(0)), d.len())
}

/// Writes the spans as tab-separated lines to `path`.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\tid\tparent\tstart_ns\tend_ns\twait_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.name, s.id, s.parent, s.start, s.end, s.wait
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            name,
            id,
            parent,
            start,
            end,
            wait: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_spans() {
        let rtt = span_id(3, 1);
        let spans = [
            span("http.poll_rtt", rtt, 9, 100, 200),
            span("router.poll", 0, rtt, 130, 160),
            span("bench.op", 9, 0, 90, 260),
        ];
        let (selfs, _) = self_and_wait(&spans);
        assert_eq!(selfs[0], 70);
        assert_eq!(selfs[1], 30);
        assert_eq!(selfs[2], 170 - 100);
    }

    #[test]
    fn long_poll_wait_is_park_to_wake() {
        let rtt = span_id(4, 2);
        let spans = [
            span("http.longpoll_rtt", rtt, 0, 0, 1_000),
            span("router.park", 0, rtt, 50, 80),
            span("tcp.wake", 0, rtt, 900, 950),
        ];
        let sum = summarize(&spans);
        let lp = sum.iter().find(|s| s.name == "http.longpoll_rtt").unwrap();
        assert_eq!(lp.wait_p50_us, 0.82);
        // 1000 - 30 (park) - 50 (wake) - 820 (wait)
        assert_eq!(lp.self_p50_us, 0.1);
    }

    #[test]
    fn span_ids_separate_participants() {
        assert_ne!(span_id(1, 2), span_id(2, 1));
        assert_eq!(span_id(1, 2) >> 40, 1);
    }
}
