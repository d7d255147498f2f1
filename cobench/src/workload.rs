//! The three workloads. A run is a fixed number of rounds; each round
//! sets a host up (several times, keeping the last), runs a fixed warm-up
//! op count, then its share of the fixed timed op count, checking every
//! op's output as it goes.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rcb_browser::UserAction;
use rcb_core::snippet::SnippetOutcome;
use rcb_crypto::SessionKey;
use rcb_http::server::ServerBackend;
use rcb_util::{DetRng, Result, SimDuration};

use crate::host::{manifest_len, Counters, Host, Window, PAGE_TITLE};
use crate::participant::Participant;
use crate::stats::OpenLoop;
use crate::trace::{ServerSpans, Span, Tracer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PollIdle,
    CofillSync,
    JoinLoad,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::PollIdle, Workload::CofillSync, Workload::JoinLoad];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PollIdle => "poll_idle",
            Workload::CofillSync => "cofill_sync",
            Workload::JoinLoad => "join_load",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Timed ops per second of `--seconds`. The op count of a run is a
    /// function of the arguments only, never of how fast this machine
    /// is, so every count- and memory-shaped number is path-independent.
    /// `cofill_sync` is an open loop at exactly this rate; the closed
    /// loops were sized to take about `--seconds` on a 2-core machine.
    pub fn ops_per_second(self) -> u64 {
        match self {
            Workload::PollIdle => 12_000,
            Workload::CofillSync => COFILL_RATE,
            Workload::JoinLoad => 300,
        }
    }

    /// Warm-up ops of each round.
    pub fn warmup_ops(self) -> u64 {
        match self {
            Workload::PollIdle => 1_000,
            Workload::CofillSync => 20,
            // Two full turns of the participant-id pool, so the session's
            // participant count is settled before the window.
            Workload::JoinLoad => 2 * PID_POOL as u64,
        }
    }

    /// Participants that join during set-up and stay for the run.
    fn resident_participants(self) -> usize {
        match self {
            Workload::PollIdle => 1,
            Workload::CofillSync => 2,
            Workload::JoinLoad => 0,
        }
    }
}

/// Open-loop action rate of `cofill_sync`.
const COFILL_RATE: u64 = 100;
/// Participant ids `join_load` cycles through.
const PID_POOL: usize = 8;
/// Rounds per run. Each round sets a fresh host and fresh participants up
/// and runs its share of the timed ops: the traced and untraced passes of
/// a run alternate round by round, and no participant document outlives
/// one round's share of ops.
pub const ROUNDS: u64 = 10;
/// Set-ups per round; the reported set-up time is the median of all of
/// a run's set-ups.
const SETUPS_PER_ROUND: usize = 3;
/// How long the `cofill_sync` watcher asks the agent to park its polls.
const LONG_POLL: SimDuration = SimDuration::from_millis(2_000);

/// Everything a run measures, for the arguments given.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub warmup: u64,
    pub timed: u64,
    pub dispatch: usize,
    /// Ops still running past this are abandoned and counted as failed,
    /// so a stuck run still ends within its time limit.
    pub deadline: Instant,
}

/// The seeded inputs: the session key, the participant-id pool and the
/// typist's value cycle.
pub struct Inputs {
    pub key: SessionKey,
    pub pids: Vec<u64>,
    /// Eight distinct values of equal length, so every generation's XML
    /// has the same size.
    pub values: Vec<String>,
}

impl Inputs {
    pub fn from_seed(seed: u64) -> Inputs {
        let mut rng = DetRng::new(seed);
        let key = SessionKey::generate_deterministic(&mut rng.fork(1));
        let mut pid_rng = rng.fork(2);
        let mut pids = Vec::new();
        while pids.len() < PID_POOL {
            let pid = 1 + pid_rng.next_below(1 << 20);
            if !pids.contains(&pid) {
                pids.push(pid);
            }
        }
        let mut value_rng = rng.fork(3);
        let mut values = Vec::new();
        while values.len() < 8 {
            let v: String = (0..12)
                .map(|_| char::from(b'a' + value_rng.next_below(26) as u8))
                .collect();
            if !values.contains(&v) {
                values.push(v);
            }
        }
        Inputs { key, pids, values }
    }

    pub fn value_width(&self) -> usize {
        self.values[0].len()
    }
}

/// Failed ops and checks, counted once each, with the first few reasons.
#[derive(Debug, Default)]
pub struct Failures {
    pub count: u64,
    pub notes: Vec<String>,
}

impl Failures {
    pub fn add(&mut self, n: u64, why: impl Into<String>) {
        self.count += n;
        if self.notes.len() < 8 {
            self.notes.push(why.into());
        }
    }
}

/// What one pass (set-up, warm-up, timed window) measured.
pub struct Pass {
    pub backend: ServerBackend,
    pub setup: Vec<Duration>,
    /// Latency of each timed op that completed and passed its checks.
    pub latencies: Vec<u64>,
    /// Open-loop lateness of each timed op (open loops only).
    pub lag: Vec<u64>,
    pub attempted: u64,
    pub failures: Failures,
    pub timed: u64,
    /// Host counter differences over the timed windows.
    pub window: Window,
    /// Size of the published XML at the end of the last window.
    pub xml_bytes: usize,
    /// Response bytes and requests of every participant in the window.
    pub wire_bytes: u64,
    pub requests: u64,
    /// Arena growth summed over participants, and the op × participant
    /// count it spreads over.
    pub arena_growth: u64,
    pub arena_divisor: u64,
    pub spans: Vec<Span>,
}

impl Pass {
    pub fn new(timed: u64) -> Pass {
        Pass {
            backend: ServerBackend::Epoll,
            setup: Vec::new(),
            latencies: Vec::with_capacity(timed as usize),
            lag: Vec::new(),
            attempted: 0,
            failures: Failures::default(),
            timed,
            window: Window::default(),
            xml_bytes: 0,
            wire_bytes: 0,
            requests: 0,
            arena_growth: 0,
            arena_divisor: 0,
            spans: Vec::new(),
        }
    }

    /// Adds one round's measurements to the run's.
    fn absorb(&mut self, round: Pass) {
        self.backend = round.backend;
        self.setup.extend(round.setup);
        self.latencies.extend(round.latencies);
        self.lag.extend(round.lag);
        self.attempted += round.attempted;
        self.failures.count += round.failures.count;
        for note in round.failures.notes {
            self.failures.add(0, note);
        }
        self.timed += round.timed;
        self.window.add(&round.window);
        self.xml_bytes = round.xml_bytes;
        self.wire_bytes += round.wire_bytes;
        self.requests += round.requests;
        self.arena_growth += round.arena_growth;
        self.arena_divisor += round.arena_divisor;
        self.spans.extend(round.spans);
    }
}

/// A participant's own counters at a window edge.
#[derive(Clone, Copy, Default)]
struct Mark {
    wire: u64,
    requests: u64,
    nodes: u64,
}

impl Mark {
    fn of(p: &Participant) -> Mark {
        Mark {
            wire: p.wire_bytes,
            requests: p.requests,
            nodes: p.arena_nodes() as u64,
        }
    }

    fn since(self, earlier: Mark) -> Mark {
        Mark {
            wire: self.wire - earlier.wire,
            requests: self.requests - earlier.requests,
            nodes: self.nodes.saturating_sub(earlier.nodes),
        }
    }
}

/// Runs `ROUNDS` rounds, each on a freshly set-up host with fresh
/// participants (so new threads and connections), and pools what they
/// measured: one pass per entry of `traced`. With several passes, their
/// rounds alternate, so a machine that speeds up or slows down during the
/// run moves every pass alike. Each round warms up, then runs its share
/// of the timed ops.
pub fn run(plan: &Plan, traced: &[bool]) -> Result<Vec<Pass>> {
    let inputs = Inputs::from_seed(plan.seed);
    let per_round = Plan {
        timed: plan.timed.div_ceil(ROUNDS),
        ..plan.clone()
    };
    let mut passes: Vec<Pass> = traced.iter().map(|_| Pass::new(0)).collect();
    let mut tracers: Vec<Tracer> = traced.iter().map(|&on| Tracer::new(on, 0)).collect();
    for round in 0..ROUNDS {
        for (pass, tr) in passes.iter_mut().zip(&mut tracers) {
            pass.absorb(run_round(&per_round, &inputs, round, tr)?);
        }
    }
    Ok(passes)
}

fn run_round(plan: &Plan, inputs: &Inputs, round: u64, tr: &mut Tracer) -> Result<Pass> {
    let spans = tr.on().then(ServerSpans::new);
    // Set-up time varies a lot between attempts (it is dominated by the
    // host navigation's allocations), so each round sets up several times
    // and measures on the last host.
    let mut setup = Vec::with_capacity(SETUPS_PER_ROUND);
    let (host, parts) = loop {
        let started = Instant::now();
        let (host, parts) = set_up(plan, inputs, spans.clone(), tr)?;
        setup.push(started.elapsed());
        if setup.len() == SETUPS_PER_ROUND {
            break (host, parts);
        }
        drop(parts);
        host.shutdown();
    };
    let sp = spans.as_deref();
    let (mut pass, before, after) = match plan.workload {
        Workload::PollIdle => poll_idle(plan, &host, parts, sp, tr),
        Workload::CofillSync => cofill_sync(plan, round, inputs, &host, parts, sp, tr),
        Workload::JoinLoad => join_load(plan, inputs, &host, sp, tr),
    };
    window_checks(plan.workload, &mut pass, &before, &after, inputs);
    pass.window = after.since(&before);
    pass.xml_bytes = after.xml_bytes;
    pass.setup = setup;
    pass.backend = host.backend();
    if let Some(spans) = spans {
        pass.spans.extend(spans.take());
    }
    host.shutdown();
    Ok(pass)
}

/// Host navigation, agent and server start, first generation, resident
/// participant joins and their first full sync.
fn set_up(
    plan: &Plan,
    inputs: &Inputs,
    spans: Option<Arc<ServerSpans>>,
    tr: &mut Tracer,
) -> Result<(Host, Vec<Participant>)> {
    let host = Host::start(inputs.key.clone(), plan.dispatch, spans)?;
    // join_load keeps nobody resident, but its set-up still proves a
    // join works before the window.
    let joins = plan.workload.resident_participants().max(1);
    let mut parts = Vec::with_capacity(joins);
    for &pid in &inputs.pids[..joins] {
        let mut p = Participant::join(&host.addr, inputs.key.clone(), pid, tr, 0)?;
        let polled = p.poll(tr, 0)?;
        if !matches!(polled.outcome, SnippetOutcome::Updated { .. }) || polled.objects_failed > 0 {
            return Err(rcb_util::RcbError::Protocol(format!(
                "participant {pid}: first sync did not deliver the page"
            )));
        }
        parts.push(p);
    }
    parts.truncate(plan.workload.resident_participants());
    Ok((host, parts))
}

/// One participant, one keep-alive connection, a closed loop of short
/// polls against an unchanging page: every reply must be a 200 with no
/// new content.
fn poll_idle(
    plan: &Plan,
    host: &Host,
    mut parts: Vec<Participant>,
    spans: Option<&ServerSpans>,
    tr: &mut Tracer,
) -> (Pass, Counters, Counters) {
    let mut pass = Pass::new(plan.timed);
    let mut before = host.counters();
    let p = &mut parts[0];
    let pid = p.snippet.participant_id;
    let total = plan.warmup + plan.timed;
    let mut mark = Mark::default();
    for k in 0..total {
        if k == plan.warmup {
            tr.spans.clear();
            spans.inspect(|s| s.clear());
            mark = Mark::of(p);
            before = host.counters();
        }
        if Instant::now() > plan.deadline {
            pass.failures
                .add(total - k, "poll_idle: run deadline passed");
            break;
        }
        pass.attempted += 1;
        let started = Instant::now();
        let op = tr.next_id(pid);
        let t = tr.begin();
        let polled = p.poll(tr, op);
        tr.end("bench.op", op, 0, t);
        let took = started.elapsed();
        match polled {
            Ok(r) if r.outcome == SnippetOutcome::NoNewContent && r.status == 200 => {
                if k >= plan.warmup {
                    pass.latencies.push(took.as_nanos() as u64);
                }
            }
            Ok(r) => pass.failures.add(
                1,
                format!(
                    "poll_idle op {k}: expected a 200 NoNewContent, got {} {:?}",
                    r.status, r.outcome
                ),
            ),
            Err(e) => pass.failures.add(1, format!("poll_idle op {k}: {e}")),
        }
    }
    let after = host.counters();
    let d = Mark::of(p).since(mark);
    (pass.wire_bytes, pass.requests) = (d.wire, d.requests);
    (pass.arena_growth, pass.arena_divisor) = (d.nodes, plan.timed);
    pass.spans = std::mem::take(&mut tr.spans);
    (pass, before, after)
}

/// A typist and a watcher on two connections and two threads. The
/// typist sends one `FormInput` per short poll, open loop at
/// `COFILL_RATE`; the watcher long-polls with delta capability. An op
/// runs from its due time until the watcher has applied the delta that
/// carries it.
fn cofill_sync(
    plan: &Plan,
    round: u64,
    inputs: &Inputs,
    host: &Host,
    parts: Vec<Participant>,
    spans: Option<&ServerSpans>,
    tr: &mut Tracer,
) -> (Pass, Counters, Counters) {
    let mut pass = Pass::new(plan.timed);
    let mut before = host.counters();
    let mut after = before.clone();
    let mut parts = parts.into_iter();
    let (mut typist, mut watcher) = (
        parts.next().expect("typist"),
        parts.next().expect("watcher"),
    );
    watcher.snippet.long_poll = Some(LONG_POLL);
    watcher.snippet.delta = true;
    let total = plan.warmup + plan.timed;
    let warmup = plan.warmup;
    let sched = OpenLoop {
        start: Instant::now() + Duration::from_millis(20),
        period: Duration::from_nanos(1_000_000_000 / COFILL_RATE),
    };
    let typist_done = AtomicBool::new(false);
    let watcher_done = AtomicBool::new(false);
    let mut failed_ops: BTreeSet<u64> = BTreeSet::new();
    let mut completed: Vec<Option<u64>> = vec![None; total as usize];

    let traced = tr.on();
    let typist_out = std::thread::scope(|s| {
        let typist_thread = s.spawn(|| {
            // Its own span-id sequence, disjoint from every other round's.
            let mut tr = Tracer::new(traced, (round + 1) << 32);
            let out = typist_loop(
                &mut typist,
                &mut tr,
                &sched,
                || host.parked() > 0 || watcher_done.load(Ordering::SeqCst),
                inputs,
                plan,
                total,
                warmup,
            );
            typist_done.store(true, Ordering::SeqCst);
            (out, tr.spans)
        });

        // The watcher runs on this thread.
        let pid = watcher.snippet.participant_id;
        let mut mark = Mark::default();
        let mut window_open = false;
        let mut last_value = watcher.field("q", "q");
        let mut k = 0u64;
        while k < total {
            if k == warmup && !window_open {
                window_open = true;
                tr.spans.clear();
                spans.inspect(|s| s.clear());
                mark = Mark::of(&watcher);
                before = host.counters();
            }
            if Instant::now() > plan.deadline {
                pass.failures.add(0, "cofill_sync: run deadline passed");
                break;
            }
            let op = tr.next_id(pid);
            let t = tr.begin();
            let polled = watcher.poll(tr, op);
            let applied_at = Instant::now();
            tr.end("bench.op", op, 0, t);
            let polled = match polled {
                Ok(p) => p,
                Err(e) => {
                    pass.failures
                        .add(0, format!("cofill_sync watcher at op {k}: {e}"));
                    break;
                }
            };
            if polled.outcome == SnippetOutcome::NoNewContent {
                // A park timeout: nothing was typed for a whole park.
                if typist_done.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            let value = watcher.field("q", "q");
            if value == last_value {
                // A generation that carried no new action; the
                // delta-wakes-equal-actions check counts it.
                continue;
            }
            let hit = (k..(k + 7).min(total))
                .find(|&j| value.as_deref() == Some(inputs.values[(j % 8) as usize].as_str()));
            match hit {
                Some(j) => {
                    // Ops skipped over were merged into one generation or
                    // lost: the watcher never saw them on their own.
                    failed_ops.extend(k..j);
                    completed[j as usize] = Some(
                        applied_at
                            .saturating_duration_since(sched.due(j))
                            .as_nanos() as u64,
                    );
                    k = j + 1;
                }
                None => pass.failures.add(
                    1,
                    format!("cofill_sync watcher at op {k}: unexpected field value {value:?}"),
                ),
            }
            last_value = value;
        }
        watcher_done.store(true, Ordering::SeqCst);
        after = host.counters();
        let d = Mark::of(&watcher).since(mark);
        let out = typist_thread.join().expect("typist thread panicked");
        (out, d)
    });
    let ((typist_res, typist_spans), watcher_delta) = typist_out;
    let TypistOut {
        failed,
        notes,
        lag,
        window,
    } = typist_res;
    for note in notes {
        pass.failures.add(0, note);
    }
    failed_ops.extend(failed);
    // Ops the watcher never reached.
    for (j, c) in completed.iter().enumerate() {
        if c.is_none() {
            failed_ops.insert(j as u64);
        }
    }
    pass.failures.count += failed_ops.len() as u64;
    if let Some(&first) = failed_ops.iter().next() {
        pass.failures.add(
            0,
            format!(
                "cofill_sync: {} ops failed, first op {first}",
                failed_ops.len()
            ),
        );
    }
    pass.attempted = total;
    pass.latencies = (warmup..total)
        .filter(|j| !failed_ops.contains(j))
        .filter_map(|j| completed[j as usize])
        .collect();
    pass.lag = lag;
    pass.wire_bytes = watcher_delta.wire + window.wire;
    pass.requests = watcher_delta.requests + window.requests;
    pass.arena_growth = watcher_delta.nodes + window.nodes;
    pass.arena_divisor = 2 * plan.timed;
    pass.spans = std::mem::take(&mut tr.spans);
    pass.spans.extend(typist_spans);
    (pass, before, after)
}

struct TypistOut {
    failed: Vec<u64>,
    notes: Vec<String>,
    lag: Vec<u64>,
    window: Mark,
}

#[allow(clippy::too_many_arguments)]
fn typist_loop(
    typist: &mut Participant,
    tr: &mut Tracer,
    sched: &OpenLoop,
    watcher_ready: impl Fn() -> bool,
    inputs: &Inputs,
    plan: &Plan,
    total: u64,
    warmup: u64,
) -> TypistOut {
    let pid = typist.snippet.participant_id;
    let mut out = TypistOut {
        failed: Vec::new(),
        notes: Vec::new(),
        lag: Vec::with_capacity(plan.timed as usize),
        window: Mark::default(),
    };
    let mut mark = Mark::default();
    for k in 0..total {
        if Instant::now() > plan.deadline {
            out.failed.extend(k..total);
            out.notes
                .push("cofill_sync typist: run deadline passed".into());
            break;
        }
        sched.wait_for(k);
        // An action sent before the watcher has re-parked would reach it
        // as a full-content poll reply instead of a delta wake — a
        // different op. A re-park that runs this late is a stall, so the
        // action waits for it; the wait counts in the op's latency, which
        // runs from the due time, and in the lag.
        while !watcher_ready() && Instant::now() < plan.deadline {
            std::thread::sleep(Duration::from_micros(20));
        }
        let sent = Instant::now();
        if k == warmup {
            tr.spans.clear();
            mark = Mark::of(typist);
        }
        let lag = sched.lateness(k, sent).as_nanos() as u64;
        if k >= warmup {
            out.lag.push(lag);
        }
        let value = &inputs.values[(k % 8) as usize];
        typist.snippet.capture_action(UserAction::FormInput {
            form: "q".into(),
            field: "q".into(),
            value: value.clone(),
        });
        let op = tr.next_id(pid);
        let t = tr.begin();
        let polled = typist.poll(tr, op);
        tr.end_waited("bench.action", op, 0, t.saturating_sub(lag), lag);
        let ok = match polled {
            Ok(r) => {
                let shown = typist.field("q", "q");
                let good = matches!(r.outcome, SnippetOutcome::Updated { .. })
                    && !r.delta
                    && r.objects_failed == 0
                    && shown.as_deref() == Some(value.as_str());
                if !good && out.notes.len() < 4 {
                    out.notes.push(format!(
                        "cofill_sync typist op {k}: expected full content showing {value:?}, \
                         got {:?} showing {shown:?}",
                        r.outcome
                    ));
                }
                good
            }
            Err(e) => {
                if out.notes.len() < 4 {
                    out.notes.push(format!("cofill_sync typist op {k}: {e}"));
                }
                false
            }
        };
        if !ok {
            out.failed.push(k);
        }
    }
    out.window = Mark::of(typist).since(mark);
    out
}

/// One thread, one connection at a time: connect, `GET /`, first poll
/// (full content), fetch every `/cache/` object, close. Participant ids
/// cycle through a fixed pool.
fn join_load(
    plan: &Plan,
    inputs: &Inputs,
    host: &Host,
    spans: Option<&ServerSpans>,
    tr: &mut Tracer,
) -> (Pass, Counters, Counters) {
    let mut pass = Pass::new(plan.timed);
    let mut before = host.counters();
    let total = plan.warmup + plan.timed;
    let objects = manifest_len();
    for k in 0..total {
        if k == plan.warmup {
            tr.spans.clear();
            spans.inspect(|s| s.clear());
            before = host.counters();
        }
        if Instant::now() > plan.deadline {
            pass.failures
                .add(total - k, "join_load: run deadline passed");
            break;
        }
        pass.attempted += 1;
        let pid = inputs.pids[(k % PID_POOL as u64) as usize];
        let started = Instant::now();
        let op = tr.next_id(pid);
        let t = tr.begin();
        let res = join_once(host, &inputs.key, pid, objects, tr, op);
        tr.end("bench.op", op, 0, t);
        let took = started.elapsed();
        match res {
            Ok(d) if k >= plan.warmup => {
                pass.latencies.push(took.as_nanos() as u64);
                pass.wire_bytes += d.wire;
                pass.requests += d.requests;
                pass.arena_growth += d.nodes;
            }
            Ok(_) => {}
            Err(e) => pass.failures.add(1, format!("join_load op {k}: {e}")),
        }
    }
    let after = host.counters();
    pass.arena_divisor = plan.timed;
    pass.spans = std::mem::take(&mut tr.spans);
    (pass, before, after)
}

fn join_once(
    host: &Host,
    key: &SessionKey,
    pid: u64,
    objects: usize,
    tr: &mut Tracer,
    op: u64,
) -> std::result::Result<Mark, String> {
    let mut p =
        Participant::join(&host.addr, key.clone(), pid, tr, op).map_err(|e| e.to_string())?;
    let joined = Mark::of(&p);
    let r = p.poll(tr, op).map_err(|e| e.to_string())?;
    if !matches!(r.outcome, SnippetOutcome::Updated { .. }) || r.delta {
        return Err(format!(
            "first poll did not carry full content: {:?}",
            r.outcome
        ));
    }
    if !p.has_title(PAGE_TITLE) {
        return Err("document lacks the page title".into());
    }
    if r.objects_ok != objects || r.objects_failed != 0 {
        return Err(format!(
            "objects: {} came back 200 and {} failed, manifest has {objects}",
            r.objects_ok, r.objects_failed
        ));
    }
    // The wire and request counts cover the whole op, join included.
    Ok(Mark {
        wire: p.wire_bytes,
        requests: p.requests,
        nodes: Mark::of(&p).since(joined).nodes,
    })
}

/// Stationarity checks over the timed window: the published XML size
/// and the session's participant count must be the same at both edges
/// (the XML within the width of one typed value), and on `cofill_sync`
/// every action must have reached the watcher as a delta wake.
fn window_checks(workload: Workload, pass: &mut Pass, b: &Counters, a: &Counters, inputs: &Inputs) {
    let mut broken = Vec::new();
    if a.xml_bytes.abs_diff(b.xml_bytes) > inputs.value_width() {
        broken.push(format!(
            "published XML moved {} -> {} bytes",
            b.xml_bytes, a.xml_bytes
        ));
    }
    if a.participants != b.participants {
        broken.push(format!(
            "participant count moved {} -> {}",
            b.participants, a.participants
        ));
    }
    let woken_delta = a.tcp.polls_woken_delta - b.tcp.polls_woken_delta;
    let fallbacks = a.tcp.delta_fallbacks - b.tcp.delta_fallbacks;
    if workload == Workload::CofillSync && woken_delta != pass.timed {
        broken.push(format!(
            "{woken_delta} delta wakes for {} actions",
            pass.timed
        ));
    }
    if fallbacks != 0 {
        broken.push(format!("{fallbacks} delta fallbacks"));
    }
    for why in broken {
        pass.failures.add(1, format!("window check: {why}"));
    }
}
