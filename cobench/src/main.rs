//! Co-browsing benchmark: three workloads against the real socket stack
//! (host browser → `core::router` handler → `http` epoll engine →
//! snippet-driven participants), every op's output checked as it runs.
//!
//! ```text
//! cargo run --release --manifest-path cobench/Cargo.toml -- \
//!     --workload <poll_idle|cofill_sync|join_load> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload untraced and reports the end-to-end
//! metrics. `--trace 1` runs two passes with half the timed ops each,
//! their rounds alternating — one untraced, one with spans recorded
//! around every call into a layer — and reports the per-layer metrics
//! plus the tracing overhead.
//! The last line of standard output is one JSON object; see `NOTES.md`.

mod host;
mod participant;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::{ms, percentile, percentile_signed, us, valid_metric_name, Metric, Ratio};
use trace::Span;
use workload::{Pass, Plan, Workload, ROUNDS};

/// A run must end well inside three minutes whatever happens.
const RUN_DEADLINE: Duration = Duration::from_secs(150);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: cobench --workload <poll_idle|cofill_sync|join_load> --seed <n> --seconds <1-60> --trace <0|1>";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=60).contains(s))
                        .ok_or_else(|| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cobench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // ServerConfig::builder, AgentConfig::from_env, RouterConfig::from_env
    // and the OverloadConfig::from_env inside SessionRouter::new all read
    // RCB_* variables: a stray one would change the program measured.
    let mut pinned: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("RCB_"))
        .collect();
    if !pinned.is_empty() {
        pinned.sort();
        eprintln!("cobench: refusing to run with {} set", pinned.join(", "));
        return ExitCode::from(2);
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cobench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> rcb_util::Result<()> {
    let started = Instant::now();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let timed = args.workload.ops_per_second() * args.seconds;
    let plan = |timed: u64| Plan {
        workload: args.workload,
        seed: args.seed,
        warmup: args.workload.warmup_ops(),
        timed,
        dispatch: nproc,
        deadline: started + RUN_DEADLINE,
    };
    let (passes, metrics) = if args.trace {
        // Half the ops per pass keeps a traced run as long as an untraced one.
        let half = plan(timed.div_ceil(2));
        let mut passes = workload::run(&half, &[false, true])?.into_iter();
        let (plain, traced) = (
            passes.next().expect("untraced pass"),
            passes.next().expect("traced pass"),
        );
        let metrics = per_layer(&traced, &plain);
        let out =
            std::path::Path::new("cobench-out").join(format!("spans-{}.tsv", args.workload.name()));
        trace::write_spans(&out, &traced.spans)?;
        println!("spans: {} written to {}", traced.spans.len(), out.display());
        print_layers(&traced.spans);
        (vec![plain, traced], metrics)
    } else {
        let passes = workload::run(&plan(timed), &[false])?;
        let metrics = end_to_end(&passes[0]);
        (passes, metrics)
    };

    let first = &passes[0];
    println!(
        "stamp: workload={} seed={} trace={} backend={} dispatch_pool={} nproc={} page={} \
         profile={} rounds={} warmup_ops_per_round={} timed_ops={} passes={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        first.backend.label(),
        nproc,
        nproc,
        host::PAGE_URL,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        ROUNDS,
        args.workload.warmup_ops(),
        first.timed,
        passes.len(),
    );
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failures.count).sum();
    for p in &passes {
        for note in &p.failures.notes {
            println!("failure: {note}");
        }
    }
    println!("fail_ratio: {}", Ratio::new(failed, attempted));
    for m in &metrics {
        assert!(
            valid_metric_name(m.name),
            "metric name {:?} breaks the grammar",
            m.name
        );
        println!(
            "metric {:<30} {:>14.4} {:<6} {}",
            m.name, m.value, m.unit, m.base
        );
    }
    println!(
        "{}",
        result_json(failed == 0, attempted.max(1), failed, &metrics)
    );
    Ok(())
}

/// The metrics a user of the system sees, from an untraced pass.
fn end_to_end(p: &Pass) -> Vec<Metric> {
    let done = p.latencies.len() as u64;
    let n = format!("n={done}");
    let setup: Vec<u64> = p.setup.iter().map(|d| d.as_nanos() as u64).collect();
    let window = p.window.elapsed.as_secs_f64();
    let cpu = p.window.cpu;
    vec![
        Metric::new(
            "setup_s",
            percentile(&setup, 50.0).unwrap_or(0) as f64 / 1e9,
            "s",
            format!("median of {} set-ups", setup.len()),
        ),
        Metric::new(
            "p50_ms",
            ms(percentile(&p.latencies, 50.0).unwrap_or(0)),
            "ms",
            n.clone(),
        ),
        Metric::new(
            "p90_ms",
            ms(percentile(&p.latencies, 90.0).unwrap_or(0)),
            "ms",
            n.clone(),
        ),
        Metric::new(
            "ops_per_s",
            if window > 0.0 {
                done as f64 / window
            } else {
                0.0
            },
            "1/s",
            format!("{done} ops in {window:.3} s"),
        ),
        Metric::new(
            "cpu_us_per_op",
            per(cpu.as_nanos() as u64, done) / 1_000.0,
            "us",
            format!("{:.3} s CPU / {done} ops", cpu.as_secs_f64()),
        ),
        Metric::new(
            "rss_mb",
            stats::peak_rss_mib(),
            "MiB",
            "VmHWM at end of run",
        ),
        Metric::new(
            "wire_kb_per_op",
            per(p.wire_bytes, done) / 1024.0,
            "KiB",
            format!("{} B / {done} ops", p.wire_bytes),
        ),
    ]
}

fn per(num: u64, den: u64) -> f64 {
    Ratio::new(num, den).value()
}

/// The per-layer metrics of a traced pass; `plain` is the untraced pass
/// of the same run, for the tracing overhead.
fn per_layer(t: &Pass, plain: &Pass) -> Vec<Metric> {
    let spans = &t.spans;
    let ops = t.latencies.len() as u64;
    let w = &t.window;
    let p50 = |name: &'static str, span: &str| -> Metric {
        let (v, n) = trace::p50_us(spans, span);
        Metric::new(name, v, "us", format!("n={n}"))
    };
    let per_op = |name: &'static str, unit: &'static str, count: u64| -> Metric {
        let r = Ratio::new(count, ops);
        Metric::new(name, r.value(), unit, format!("{r} per op"))
    };
    let ratio = |name: &'static str, r: Ratio| Metric::new(name, r.value(), "ratio", r.to_string());

    // http.engine_us: a short poll's round trip minus the handler time of
    // the same request (its nested server spans).
    let (selfs, _) = trace::self_and_wait(spans);
    let engine: Vec<u64> = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "http.poll_rtt")
        .map(|(_, &d)| d)
        .collect();
    let lag = percentile(&t.lag, 90.0).unwrap_or(0);
    let (traced_p50, plain_p50) = (
        percentile(&t.latencies, 50.0).unwrap_or(0) as f64,
        percentile(&plain.latencies, 50.0).unwrap_or(0) as f64,
    );
    let overhead = if plain_p50 > 0.0 {
        (traced_p50 - plain_p50) / plain_p50 * 100.0
    } else {
        0.0
    };
    let wake_delay = wake_delays(spans);
    let failed: u64 = t.failures.count + plain.failures.count;
    let attempted = t.attempted + plain.attempted;
    vec![
        p50("http.client_rtt_us", "http.poll_rtt"),
        Metric::new(
            "http.engine_us",
            us(percentile(&engine, 50.0).unwrap_or(0)),
            "us",
            format!("n={}", engine.len()),
        ),
        p50("http.connect_us", "http.connect"),
        p50("http.object_rtt_us", "http.object_rtt"),
        per_op("http.requests_per_op", "count/op", t.requests),
        per_op("http.conns_per_op", "count/op", w.conns),
        // The engine sheds before routing: the base is everything the
        // engine admitted or shed.
        ratio("http.shed_ratio", Ratio::new(w.shed, w.shed + w.routed)),
        p50("router.poll_us", "router.poll"),
        p50("router.action_us", "router.action"),
        p50("router.content_poll_us", "router.content_poll"),
        p50("router.object_us", "router.object"),
        p50("router.page_us", "router.page"),
        Metric::new(
            "tcp.wake_delay_us",
            percentile_signed(&wake_delay, 50.0).unwrap_or(0) as f64 / 1_000.0,
            "us",
            format!("n={}", wake_delay.len()),
        ),
        p50("tcp.wake_us", "tcp.wake"),
        ratio(
            "tcp.delta_hit_ratio",
            Ratio::new(w.polls_woken_delta, w.polls_woken),
        ),
        per_op("tcp.park_timeouts_per_op", "count/op", w.park_timeouts),
        per_op("tcp.body_bytes_copied_per_op", "B/op", w.body_bytes_copied),
        per_op("agent.generations_per_op", "count/op", w.generations),
        Metric::new(
            "snapshot.xml_bytes",
            t.xml_bytes as f64,
            "B",
            "published at window end",
        ),
        p50("snippet.build_poll_us", "snippet.build_poll"),
        p50("snippet.apply_full_us", "snippet.apply_full"),
        p50("snippet.apply_delta_us", "snippet.apply_delta"),
        p50("html.parse_us", "html.parse"),
        Metric::new(
            "html.arena_nodes_per_op",
            per(t.arena_growth, t.arena_divisor),
            "count/op",
            format!(
                "{} nodes / {} op-participants",
                t.arena_growth, t.arena_divisor
            ),
        ),
        Metric::new(
            "bench.lag_p90_ms",
            ms(lag),
            "ms",
            format!("n={}", t.lag.len()),
        ),
        Metric::new(
            "bench.trace_overhead_pct",
            overhead,
            "%",
            format!(
                "traced p50 {:.4} ms vs untraced {:.4} ms",
                traced_p50 / 1e6,
                plain_p50 / 1e6
            ),
        ),
        ratio("bench.fail_ratio", Ratio::new(failed, attempted)),
    ]
}

/// Action handler return → start of the wake it caused, in ns. Each
/// `cofill_sync` action publishes exactly one generation and wakes the
/// watcher once (a checked invariant), so the k-th action pairs with the
/// k-th wake.
fn wake_delays(spans: &[Span]) -> Vec<i64> {
    let mut actions: Vec<&Span> = spans.iter().filter(|s| s.name == "router.action").collect();
    let mut wakes: Vec<&Span> = spans.iter().filter(|s| s.name == "tcp.wake").collect();
    if wakes.is_empty() {
        return Vec::new();
    }
    actions.sort_by_key(|s| s.start);
    wakes.sort_by_key(|s| s.start);
    actions
        .iter()
        .zip(&wakes)
        .map(|(a, w)| w.start as i64 - a.end as i64)
        .collect()
}

fn print_layers(spans: &[Span]) {
    println!(
        "{:<22} {:>8} {:>12} {:>12} {:>12}",
        "span", "count", "p50_us", "self_p50_us", "wait_p50_us"
    );
    for l in trace::summarize(spans) {
        println!(
            "{:<22} {:>8} {:>12.3} {:>12.3} {:>12.3}",
            l.name, l.count, l.p50_us, l.self_p50_us, l.wait_p50_us
        );
    }
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in(json: &str, section: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let rest = &json[start..];
        let end = rest.find(']').expect("section closes");
        rest[..end]
            .split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn emitted_names_match_the_benchmark_manifest() {
        let manifest =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let empty = || Pass::new(0);
        let e2e: Vec<String> = end_to_end(&empty())
            .iter()
            .map(|m| m.name.to_string())
            .collect();
        let layer: Vec<String> = per_layer(&empty(), &empty())
            .iter()
            .map(|m| m.name.to_string())
            .collect();
        assert_eq!(names_in(&manifest, "end_to_end"), e2e);
        assert_eq!(names_in(&manifest, "per_layer"), layer);
        for name in e2e.iter().chain(&layer) {
            assert!(valid_metric_name(name), "{name}");
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(true, 3, 0, &[Metric::new("p50_ms", 1.25, "ms", "")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert!(!result_json(true, 1, 0, &[Metric::new("x", f64::NAN, "ms", "")]).contains("NaN"));
    }

    #[test]
    fn args_are_strict() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload join_load --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::JoinLoad, 7, 20, true)
        );
        assert!(parse("--workload nope --seed 7 --seconds 20 --trace 1").is_err());
        assert!(parse("--workload join_load --seed 7 --seconds 0 --trace 1").is_err());
        assert!(parse("--workload join_load --seed 7 --seconds 20 --trace 2").is_err());
        assert!(parse("--workload join_load --seed 7 --seconds 20").is_err());
        assert!(parse("--workload join_load --seed 7 --seconds 20 --trace 1 --extra 1").is_err());
    }
}
