//! The tspG benchmark.
//!
//! ```text
//! tspg-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, sets the engine or
//! server up, runs the inputs, checks every answer against the raw
//! per-query path and prints the metrics. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the run
//! is repeated with spans recorded around each layer call and the metrics
//! are the per-layer ones (see README.md). The exit code is 1 when any
//! operation failed.

mod batch;
mod live;
mod metrics;
mod replay;
mod serve;
mod stats;
mod trace;
mod verify;
mod workload;

use live::Live;
use metrics::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workload::{Inputs, Kind};

/// Extra set-ups an untraced run times in each of three groups: before the
/// timed phase, after it, and after the answer gate. `setup_s` is the
/// interquartile mean over all of them, so a passing state of a shared
/// machine meets only one group.
const SETUPS_PER_GROUP: usize = 50;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value:?}")),
                };
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// One measured run of the workload against a fresh set-up.
fn measure(inputs: &Inputs, threads: usize, tracer: Option<&mut Tracer>) -> Result<Live, String> {
    if inputs.kind.is_serve() {
        serve::run(inputs, threads, tracer)
    } else {
        Ok(batch::run(inputs, threads, tracer))
    }
}

/// Times `count` extra set-ups of the workload's engine or server, after
/// one untimed set-up that brings the allocator to the state the repeated
/// set-ups then meet.
fn set_up_times(inputs: &Inputs, count: usize, threads: usize) -> Result<Vec<f64>, String> {
    let mut times = if inputs.kind.is_serve() {
        serve::set_up_times(inputs, count + 1, threads)?
    } else {
        batch::set_up_times(inputs, count + 1)
    };
    times.remove(0);
    Ok(times)
}

/// Checks every answer and ingest of `runs`; returns (attempted, failed).
fn gate(inputs: &Inputs, runs: &[&Live], threads: usize) -> (usize, usize) {
    let reference: Vec<Vec<u64>> =
        inputs.parts.iter().map(|p| verify::reference(p, threads)).collect();
    let (mut attempted, mut failed) = (0, 0);
    for live in runs {
        for (answers, expected) in live.answers.iter().zip(&reference) {
            attempted += expected.len();
            failed += verify::mismatches(answers, expected);
        }
        attempted += inputs.parts.iter().map(workload::Part::num_ingests).sum::<usize>();
        failed += live.failed_ingests;
    }
    (attempted, failed)
}

fn end_to_end(live: &Live) -> Report {
    let summary = live.summary();
    eprintln!("latency: {} samples in {} slices", summary.samples, summary.slices);
    let us: Vec<String> = live.setup_s.iter().map(|s| format!("{:.0}", s * 1e6)).collect();
    eprintln!("set-ups (us, in order): {}", us.join(" "));
    for times in &live.ingest_ms {
        let us: Vec<String> = times.iter().map(|ms| format!("{:.0}", ms * 1e3)).collect();
        eprintln!("ingests (us, in order): {}", us.join(" "));
    }
    let mut report = Report::new(false);
    report.set("setup_s", stats::interquartile_mean(&live.setup_s));
    report.set("qps", summary.qps);
    report.set("query_p50_ms", summary.p50_ms);
    report.set("peak_rss_mb", live.peak_rss_mb);
    report
}

fn per_layer(
    base: &Live,
    traced: &Live,
    replay: &replay::Replay,
    tracer: &Tracer,
    threads: usize,
) -> Report {
    use stats::{mean, median, ratio};
    let c = |key: &str| traced.counter(key) as f64;
    let runs = &replay.runs;
    let per_run = |ns: u64| ratio(ns as f64 / 1e6, runs.count as f64);
    let batch_ms = mean(&tracer.durations_ms("executor.run_batch"));
    let pipeline_ms = ratio(runs.pipeline_ns as f64 / 1e6, replay.batches as f64);
    let summary = traced.summary();
    let mut r = Report::new(true);
    r.set("graph.ingest_ms", median(&tracer.durations_ms("graph.ingest")));
    r.set("ingest.p50_ms", base.ingest_p50_ms());
    r.set("planner.plan_ms", mean(&tracer.durations_ms("planner.plan")));
    r.set("planner.runs_per_query", ratio(c("pipeline_runs"), c("queries")));
    r.set("planner.envelope_yield", ratio(c("envelope_answered"), c("envelope_units")));
    r.set("planner.profile_groups", c("profile_groups"));
    r.set("planner.profile_answered", c("profile_answered"));
    r.set("planner.dedup_answered", c("dedup_answered"));
    r.set("planner.shared_answered", c("shared_answered"));
    r.set("executor.batch_ms", batch_ms);
    r.set("executor.pipeline_ms", pipeline_ms);
    r.set("executor.parallel_eff", ratio(pipeline_ms, threads as f64 * batch_ms));
    r.set("executor.follower_reruns", c("shared_answered") + c("envelope_answered"));
    r.set("vug.quick_ms", per_run(runs.quick_ns));
    r.set("vug.tight_ms", per_run(runs.tight_ns));
    r.set("vug.eev_ms", per_run(runs.eev_ns));
    r.set("vug.quick_ratio", ratio(runs.result_edges as f64, runs.quick_edges as f64));
    r.set("vug.tight_ratio", ratio(runs.result_edges as f64, runs.tight_edges as f64));
    r.set(
        "vug.eev_search_yield",
        ratio(runs.confirmed_by_search as f64, (runs.confirmed_by_search + runs.rejected) as f64),
    );
    r.set("profile.pass_ms", mean(&tracer.durations_ms("profile.pass")));
    r.set(
        "profile_cache.hit_ratio",
        ratio(c("profile_cache_hits"), c("profile_cache_hits") + c("profile_cache_misses")),
    );
    r.set(
        "result_cache.hit_ratio",
        ratio(c("cache_lookup_hits"), c("cache_lookup_hits") + c("cache_lookup_misses")),
    );
    r.set("result_cache.evictions", c("cache_evictions"));
    r.set("result_cache.bytes", c("cache_bytes"));
    r.set(
        "result_cache.probe_us",
        ratio(tracer.total_ms("result_cache.get") * 1e3, replay.probes as f64),
    );
    r.set("server.mean_batch", ratio(c("queries"), c("batches")));
    r.set("server.timer_flushes", c("timer_flushes"));
    r.set("server.size_flushes", c("size_flushes"));
    r.set("server.empty_wakeups", c("empty_wakeups"));
    r.set("server.quota_rejections", c("quota_rejections"));
    r.set("server.overhead_ms", summary.p50_ms - median(&tracer.durations_ms("executor.single")));
    r.set(
        "protocol.encode_us",
        ratio(tracer.total_ms("protocol.encode") * 1e3, replay.answers as f64),
    );
    r.set(
        "protocol.decode_us",
        ratio(tracer.total_ms("protocol.decode") * 1e3, replay.answers as f64),
    );
    r.set("protocol.bytes_per_answer", ratio(replay.bytes as f64, replay.answers as f64));
    r.set("trace.overhead_pct", (ratio(base.summary().qps, summary.qps) - 1.0) * 100.0);
    eprintln!(
        "latency: {} samples in {} slices, tail percentile p{} (highest with >= {} samples beyond in every part)",
        summary.samples,
        summary.slices,
        summary.tail,
        stats::MIN_BEYOND
    );
    r.set("latency.p99_ms", summary.p99_ms);
    r.set("latency.samples", summary.samples as f64);
    r
}

/// Where the spans of a traced run are written.
fn trace_path(args: &Args) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/benchmark-traces").join(format!(
        "{}-seed{}.json",
        args.kind.name(),
        args.seed
    ))
}

fn print_self_times(tracer: &Tracer) {
    eprintln!("  {:<22} {:>9} {:>12} {:>12}", "span", "count", "total ms", "self ms");
    for (name, t) in trace::layer_times(tracer.spans()) {
        eprintln!(
            "  {name:<22} {:>9} {:>12.3} {:>12.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let threads = args.kind.engine_threads(cores);
    let started = Instant::now();
    let inputs = workload::generate(args.kind, args.seed, args.seconds)?;
    eprintln!("inputs generated in {:.2} s", started.elapsed().as_secs_f64());
    for part in &inputs.parts {
        eprintln!(
            "{} on {}: {} vertices, {} edges, {} queries, {} ingests, {threads} threads",
            args.kind.name(),
            part.graph.dataset,
            part.graph.num_vertices,
            part.graph.edges.len(),
            part.num_queries(),
            part.num_ingests()
        );
    }
    let (report, attempted, failed) = if args.trace {
        let base = measure(&inputs, threads, None)?;
        let mut tracer = Tracer::new(Instant::now());
        let traced = measure(&inputs, threads, Some(&mut tracer))?;
        let chunk = args.kind.is_serve().then(|| {
            let mean_batch =
                stats::ratio(traced.counter("queries") as f64, traced.counter("batches") as f64);
            (mean_batch.round() as usize).max(1)
        });
        let replay = replay::run(&inputs, chunk, threads, &mut tracer);
        let (attempted, failed) = gate(&inputs, &[&base, &traced], threads);
        print_self_times(&tracer);
        let path = trace_path(args);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, tracer.to_json(args.kind.name(), args.seed)));
        match written {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
        (per_layer(&base, &traced, &replay, &tracer, threads), attempted, failed)
    } else {
        let mut setups = set_up_times(&inputs, SETUPS_PER_GROUP, threads)?;
        let mut live = measure(&inputs, threads, None)?;
        setups.extend(set_up_times(&inputs, SETUPS_PER_GROUP, threads)?);
        let (attempted, failed) = gate(&inputs, &[&live], threads);
        setups.extend(set_up_times(&inputs, SETUPS_PER_GROUP, threads)?);
        live.setup_s.extend(setups);
        (end_to_end(&live), attempted, failed)
    };
    eprintln!("measured and checked in {:.2} s", started.elapsed().as_secs_f64());
    eprint!("{}", report.lines());
    eprintln!("failed_ratio: {}", stats::ratio(failed as f64, attempted as f64));
    println!("{}", report.json(attempted, failed));
    Ok(if failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: tspg-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    run(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}
