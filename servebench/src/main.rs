//! Seeded serving benchmark for the STI reproduction.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload <fleet_open|closed_stream|recurrent_shared> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! One process: set up the task context and server (timed), generate the
//! workload's trace from the seed, check the replay against a sequential
//! replay on a fresh server, then replay it with `replay_event` on fresh
//! servers for `--seconds`. `host_eps` is the median over those replays of
//! served engagements per second, each scaled by the speed of a fixed
//! benchmark-local kernel timed around it ([`reference_s`]), so drift in a
//! shared host's speed cancels. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` alternates untraced and traced replays (see [`traced`]) and
//! prints the per-layer metrics. The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Any correctness
//! mismatch exits non-zero without printing it.

mod outcome;
mod traced;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use sti_core::{build_server, replay_event, replay_sequential, ServeReport, TaskContext};
use sti_nlp::TaskKind;
use sti_transformer::ModelConfig;

use outcome::{same_results, summarize, Summary};
use traced::{replay_traced, TracedRun};
use workload::Workload;

/// Set-up repetitions per run. The importance profile (about 90% of
/// set-up) is computed once and injected into the later repetitions.
const SETUP_REPS: usize = 3;

/// Seconds [`reference_s`] takes at the host speed `host_eps` is scaled to:
/// about its median on the 2-vCPU x86-64 VM the bounds were tuned on.
const REFERENCE_NOMINAL_S: f64 = 0.25;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|_| format!("{flag}: '{v}' is not a number"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)? as f64),
            "--trace" => trace = Some(num(&value)? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One named metric with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Wall time of each set-up phase, in seconds.
#[derive(Clone, Copy)]
struct Setup {
    task: f64,
    store: f64,
    importance: f64,
    server: f64,
}

impl Setup {
    fn total(&self) -> f64 {
        self.task + self.store + self.importance + self.server
    }
}

/// Builds the task context, shard store, importance profile and a server
/// [`SETUP_REPS`] times; returns the first context and every repetition's
/// phase times.
fn set_up(w_cfg: &sti_core::ServeConfig) -> (TaskContext, Vec<Setup>) {
    let mut reps = Vec::with_capacity(SETUP_REPS);
    let mut first: Option<TaskContext> = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let ctx = TaskContext::with_config(TaskKind::Sst2, ModelConfig::scaled_bert());
        let task = t.elapsed().as_secs_f64();
        let t = Instant::now();
        ctx.shard_source();
        let store = t.elapsed().as_secs_f64();
        let importance = match &first {
            None => {
                let t = Instant::now();
                ctx.importance();
                t.elapsed().as_secs_f64()
            }
            Some(f) => {
                ctx.set_importance(f.importance().clone());
                reps.first().map_or(0.0, |s: &Setup| s.importance)
            }
        };
        let t = Instant::now();
        drop(build_server(&ctx, w_cfg));
        let server = t.elapsed().as_secs_f64();
        reps.push(Setup { task, store, importance, server });
        first.get_or_insert(ctx);
    }
    (first.expect("at least one set-up"), reps)
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of `xs` (sorted in place).
fn percentile(xs: &mut [f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((p * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// First line of a tool's output, or `unknown`.
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Wall time of a fixed, benchmark-local compute kernel: small dense
/// matrix products of the model's shapes (60 x 240 by 240 x 60). Timed
/// between replays, it tracks how fast the shared host runs right then, so
/// `host_eps` can cancel host-speed drift that no change to the program
/// causes.
fn reference_s() -> f64 {
    const ROWS: usize = 60;
    const INNER: usize = 240;
    let a: Vec<f32> = (0..ROWS * INNER).map(|i| (i % 17) as f32 * 0.01).collect();
    let b: Vec<f32> = (0..INNER * ROWS).map(|i| (i % 13) as f32 * 0.01).collect();
    let mut c = vec![0f32; ROWS * ROWS];
    let t = Instant::now();
    for rep in 0..400 {
        for i in 0..ROWS {
            for j in 0..ROWS {
                let dot: f32 = (0..INNER).map(|k| a[i * INNER + k] * b[k * ROWS + j]).sum();
                c[i * ROWS + j] = dot + rep as f32;
            }
        }
        std::hint::black_box(&mut c);
    }
    t.elapsed().as_secs_f64()
}

/// `per_s` at the nominal host speed: scaled by the mean of the reference
/// kernel's timings just before and after the replay it measured.
fn scaled(per_s: f64, before: f64, after: f64) -> f64 {
    per_s * (before + after) / 2.0 / REFERENCE_NOMINAL_S
}

/// Replays `w` once with `replay_event` on a fresh server; returns the
/// report and the wall time of the whole call.
fn replay_once(ctx: &TaskContext, w: &Workload) -> Result<(ServeReport, Duration), String> {
    let server = build_server(ctx, &w.cfg);
    let t = Instant::now();
    let rep = replay_event(&server, &w.trace).map_err(|e| format!("replay_event: {e}"))?;
    Ok((rep, t.elapsed()))
}

fn traced_once(ctx: &TaskContext, w: &Workload) -> Result<(TracedRun, Duration), String> {
    let server = build_server(ctx, &w.cfg);
    let t = Instant::now();
    let run = replay_traced(&server, &w.trace).map_err(|e| format!("traced replay: {e}"))?;
    Ok((run, t.elapsed()))
}

/// The correctness gate: the event replay is internally consistent and its
/// outcomes equal a sequential replay's on a fresh server.
fn check(ctx: &TaskContext, w: &Workload, rep: &ServeReport) -> Result<Summary, String> {
    let summary = summarize(w, rep)?;
    let sequential = replay_sequential(&build_server(ctx, &w.cfg), &w.trace)
        .map_err(|e| format!("replay_sequential: {e}"))?;
    if sequential.outcomes != rep.outcomes || sequential.rejected_clients != rep.rejected_clients {
        return Err("event replay outcomes differ from the sequential replay".into());
    }
    Ok(summary)
}

fn end_to_end(
    ctx: &TaskContext,
    w: &Workload,
    seconds: f64,
    setup_s: f64,
) -> Result<(Vec<Metric>, usize), String> {
    // Every replay's raw throughput is scaled by the reference kernel's
    // speed around it, so a host that runs everything 20% slower for a
    // minute moves neither. The first replay also feeds the correctness
    // gate; the window of `seconds` opens after the gate.
    let mut before = reference_s();
    let (first, wall) = replay_once(ctx, w)?;
    let mut after = reference_s();
    let summary = check(ctx, w, &first)?;
    let per_s = |wall: Duration| summary.served as f64 / wall.as_secs_f64();
    let mut raw = vec![per_s(wall)];
    let mut eps = vec![scaled(raw[0], before, after)];
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    before = reference_s();
    while Instant::now() < deadline {
        let (rep, wall) = replay_once(ctx, w)?;
        after = reference_s();
        same_results(&first, &rep).map_err(|e| format!("repeated replay: {e}"))?;
        raw.push(per_s(wall));
        eps.push(scaled(per_s(wall), before, after));
        before = after;
    }
    let replays = eps.len();
    let rounded = |v: &[f64]| v.iter().map(|e| e.round()).collect::<Vec<_>>();
    println!("host eps per replay: raw {:?}, reference-scaled {:?}", rounded(&raw), rounded(&eps));
    println!(
        "replays {replays}  served {}/{}  shed {}  rejected {}  sim latency samples {} (p99 has {} beyond)",
        summary.served,
        summary.attempted,
        summary.shed,
        summary.rejected,
        summary.latencies_us.len(),
        summary.beyond(0.99),
    );
    // The two defects the workloads keep visible: a closed loop's later
    // streams wait for every earlier stream, and only same-instant
    // co-arrivals batch.
    let arrivals: Vec<_> = w.trace.clients.iter().map(|c| c.arrival).collect();
    let co_arrives = |c: usize| arrivals.iter().filter(|&&a| a == arrivals[c]).count() > 1;
    let first_wait_ms =
        summary.by_client.iter().filter_map(|l| l.first()).max().copied().unwrap_or(0) as f64 / 1e3;
    println!(
        "defect witness: longest first-engagement latency {first_wait_ms:.1} ms; mean latency {:.1} ms \
         co-arriving vs {:.1} ms otherwise; {} batched dispatches",
        summary.mean_ms(co_arrives),
        summary.mean_ms(|c| !co_arrives(c)),
        first.contention.batched_dispatches
    );
    let metrics = vec![
        m("setup_s", setup_s, "s"),
        m("host_eps", median(&mut eps), "1/s"),
        m("sim_p50_ms", summary.percentile_ms(0.50), "ms"),
        m("sim_p99_ms", summary.percentile_ms(0.99), "ms"),
        m("slo_goodput", summary.slo_goodput(), "ratio"),
        m("sim_eps", summary.sim_eps(), "1/s"),
        m("accuracy", summary.accuracy(), "ratio"),
        m("served_frac", summary.served_frac(), "ratio"),
        m("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    Ok((metrics, replays * summary.attempted))
}

/// Host-time totals of one span name across a traced run.
struct SpanStats {
    durations_us: Vec<f64>,
    busy_s: f64,
}

fn span_stats(run: &TracedRun, name: &str) -> SpanStats {
    let durations_us: Vec<f64> =
        run.spans.iter().filter(|s| s.name == name).map(|s| s.ns() as f64 / 1e3).collect();
    let busy_s = durations_us.iter().fold(0.0, |a, d| a + d) / 1e6;
    SpanStats { durations_us, busy_s }
}

fn per_layer(
    ctx: &TaskContext,
    w: &Workload,
    seconds: f64,
    setup: Setup,
    span_path: &std::path::Path,
) -> Result<(Vec<Metric>, usize), String> {
    let (reference, wall) = replay_once(ctx, w)?;
    let summary = check(ctx, w, &reference)?;
    // Traced and untraced replays alternate, so drift in the host's speed
    // lands on both sides of the overhead ratio.
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut untraced = vec![wall.as_secs_f64()];
    let mut runs: Vec<(TracedRun, f64)> = Vec::new();
    while runs.is_empty() || Instant::now() < deadline {
        let (run, wall) = traced_once(ctx, w)?;
        same_results(&reference, &run.report).map_err(|e| format!("traced replay: {e}"))?;
        runs.push((run, wall.as_secs_f64()));
        untraced.push(replay_once(ctx, w)?.1.as_secs_f64());
    }
    let replays = runs.len() + untraced.len();
    let mut traced_walls: Vec<f64> = runs.iter().map(|r| r.1).collect();
    let traced_wall = median(&mut traced_walls);
    // Per-layer timings come from the traced replay closest to the median.
    let (run, wall) = runs
        .iter()
        .min_by(|a, b| (a.1 - traced_wall).abs().total_cmp(&(b.1 - traced_wall).abs()))
        .expect("at least one traced replay");
    traced::write_spans(span_path, &run.spans).map_err(|e| format!("write spans: {e}"))?;
    println!("spans of the median traced replay written to {}", span_path.display());

    let rep = &run.report;
    let admit = span_stats(run, "pipeline.admit");
    let issue = span_stats(run, "pipeline.issue");
    let complete = span_stats(run, "pipeline.complete");
    let dispatch = span_stats(run, "storage.dispatch");
    let engine = span_stats(run, "device.engine");
    let engine_children_s: f64 = {
        let engine_idx: Vec<u32> = (0..run.spans.len() as u32)
            .filter(|&i| run.spans[i as usize].name == "device.engine")
            .collect();
        run.spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| engine_idx.contains(&p)))
            .map(|s| s.ns() as f64 / 1e9)
            .sum()
    };
    let roots_s: f64 =
        run.spans.iter().filter(|s| s.parent.is_none()).map(|s| s.ns() as f64 / 1e9).sum();
    let c = &rep.contention;
    let channels = f64::from(w.cfg.channels.max(1));
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    let mean_ms = |f: &dyn Fn(&sti_pipeline::EngagementContention) -> u64| {
        c.engagements.iter().map(f).sum::<u64>() as f64 / c.engagements.len().max(1) as f64 / 1e3
    };
    let pf = rep.prefetch.as_ref();
    let sched = run.schedule;
    let metrics = vec![
        m("core.setup.task_s", setup.task, "s"),
        m("core.setup.store_s", setup.store, "s"),
        m("core.setup.importance_s", setup.importance, "s"),
        m("core.setup.server_s", setup.server, "s"),
        m("pipeline.admit.calls", admit.durations_us.len() as f64, "count"),
        m("pipeline.admit.p50_us", percentile(&mut admit.durations_us.clone(), 0.50), "us"),
        m("pipeline.admit.p99_us", percentile(&mut admit.durations_us.clone(), 0.99), "us"),
        m("pipeline.admit.busy_s", admit.busy_s, "s"),
        m("pipeline.admit.rejected", rep.rejected_clients.len() as f64, "count"),
        m("pipeline.open.busy_s", span_stats(run, "pipeline.open").busy_s, "s"),
        m("pipeline.issue.busy_s", issue.busy_s, "s"),
        m("pipeline.issue.p99_us", percentile(&mut issue.durations_us.clone(), 0.99), "us"),
        m("pipeline.gate.decisions", c.gate.len() as f64, "count"),
        m("pipeline.gate.delayed", c.queue_delayed() as f64, "count"),
        m("pipeline.gate.shed", c.shed_count() as f64, "count"),
        m("pipeline.complete.busy_s", complete.busy_s, "s"),
        m("pipeline.complete.p50_us", percentile(&mut complete.durations_us.clone(), 0.50), "us"),
        m("pipeline.stall_frac", sched.stall_us as f64 / sched.makespan_us.max(1) as f64, "ratio"),
        m(
            "pipeline.loaded_kb_per_eng",
            sched.loaded_bytes as f64 / 1024.0 / sched.engagements.max(1) as f64,
            "KiB",
        ),
        m("pipeline.peak_working_kb", sched.peak_working_bytes as f64 / 1024.0, "KiB"),
        m("storage.dispatch.calls", dispatch.durations_us.len() as f64, "count"),
        m("storage.dispatch.busy_s", dispatch.busy_s, "s"),
        m("storage.dispatch.requests", rep.io_stats.requests as f64, "count"),
        m("storage.cache.hit_ratio", rep.shard_stats.hit_rate(), "ratio"),
        m("storage.cache.evictions", rep.shard_stats.evictions as f64, "count"),
        m("storage.batch.occupancy", c.mean_batch_occupancy, "ratio"),
        m("storage.batch.saved_kb", c.flash_bytes_saved as f64 / 1024.0, "KiB"),
        m(
            "planner.plan_cache.hit_ratio",
            ratio(rep.plan_stats.hits, rep.plan_stats.misses),
            "ratio",
        ),
        m("planner.slo_cache.hit_ratio", ratio(run.slo_plan.hits, run.slo_plan.misses), "ratio"),
        m("planner.prefetch.pool_hit_ratio", pf.map_or(0.0, |p| p.pool.hit_rate()), "ratio"),
        m(
            "planner.prefetch.speculated_kb",
            pf.map_or(0.0, |p| p.speculated_bytes as f64 / 1024.0),
            "KiB",
        ),
        m(
            "planner.prefetch.wasted_kb",
            pf.map_or(0.0, |p| {
                (p.pool.staged_flash_bytes + p.pool.pinned_bytes).saturating_sub(p.pool.hit_bytes)
                    as f64
                    / 1024.0
            }),
            "KiB",
        ),
        m("device.engine.ticks", run.ticks as f64, "count"),
        m("device.engine.heap_ops", rep.heap_ops as f64, "count"),
        m("device.engine.self_s", engine.busy_s - engine_children_s, "s"),
        m("device.contention.busy_s", span_stats(run, "device.contention").busy_s, "s"),
        m(
            "device.flash_util",
            c.flash_busy.as_us() as f64 / (c.queue_makespan.as_us().max(1) as f64 * channels),
            "ratio",
        ),
        m("device.max_queue_depth", c.max_queue_depth as f64, "count"),
        m("device.queueing_ms_mean", mean_ms(&|e| e.queueing().as_us()), "ms"),
        m("device.initial_queueing_ms_mean", mean_ms(&|e| e.initial_queueing.as_us()), "ms"),
        m("obs.spans.busy_s", span_stats(run, "obs.spans").busy_s, "s"),
        m("obs.spans.count", run.obs_spans as f64, "count"),
        m("trace.overhead_frac", traced_wall / median(&mut untraced.clone()) - 1.0, "ratio"),
        m("trace.unattributed_frac", 1.0 - roots_s / wall, "ratio"),
    ];
    println!(
        "replays {} traced + {} untraced  served {}/{}",
        runs.len(),
        untraced.len(),
        summary.served,
        summary.attempted
    );
    Ok((metrics, replays * summary.attempted))
}

fn run(args: &Args) -> Result<(Vec<Metric>, usize), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "stamp: workload {} seed {} nproc {} rustc '{}' git {} model {:?}",
        args.workload,
        args.seed,
        nproc,
        tool_line("rustc", &["--version"]),
        tool_line("git", &["rev-parse", "--short", "HEAD"]),
        ModelConfig::scaled_bert(),
    );
    // Validate the workload name before the slow set-up.
    let w_cfg = workload::config(&args.workload).ok_or_else(|| {
        format!("unknown workload '{}' ({})", args.workload, workload::NAMES.join("|"))
    })?;
    let (ctx, reps) = set_up(&w_cfg);
    let mut totals: Vec<f64> = reps.iter().map(Setup::total).collect();
    let setup_s = median(&mut totals);
    let w = workload::generate(&args.workload, args.seed, ctx.task().test().examples())
        .expect("validated above");
    println!(
        "workload {} (digest {:016x}): {} clients, {} engagements; set-up {:.3} s (median of {})",
        w.name,
        w.digest(),
        w.trace.clients.len(),
        w.attempted(),
        setup_s,
        reps.len()
    );
    if args.trace {
        let mid = |f: fn(&Setup) -> f64| median(&mut reps.iter().map(f).collect::<Vec<_>>());
        let setup = Setup {
            task: mid(|s| s.task),
            store: mid(|s| s.store),
            importance: mid(|s| s.importance),
            server: mid(|s| s.server),
        };
        let path: PathBuf =
            ["bench_results", "servebench", &format!("{}-seed{}.spans.jsonl", w.name, args.seed)]
                .iter()
                .collect();
        per_layer(&ctx, &w, args.seconds, setup, &path)
    } else {
        end_to_end(&ctx, &w, args.seconds, setup_s)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((metrics, attempted)) => {
            let mut json = String::new();
            for (i, x) in metrics.iter().enumerate() {
                println!("metric {:<36} {:>16} {}", x.name, x.value, x.unit);
                json.push_str(&format!(
                    "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    if i == 0 { "" } else { ", " },
                    x.name,
                    x.value,
                    x.unit
                ));
            }
            println!("{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{{json}}}}}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}
