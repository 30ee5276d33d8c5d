//! Serving-throughput benchmark: engagements/sec as concurrent sessions
//! grow, against one shared `StiServer` (plan cache, shard cache, and IO
//! scheduler all shared). The single-session point doubles as the
//! regression baseline for plain engine-style inference through the server
//! path. Replays run on the discrete-event engine — the default executor
//! everywhere now — so the numbers track the path serving actually ships.
//! `closed_loop_8x64` is the compute-bound closed loop (many back-to-back
//! engagements per client) where `replay_event`'s compute pool pays off.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sti::prelude::*;
use sti::TaskContext;

fn serving_fixture() -> (TaskContext, ServeConfig) {
    let ctx = TaskContext::with_config(TaskKind::Sst2, ModelConfig::tiny());
    // Zero preload so every engagement exercises the streaming path (the
    // worst case for the shared scheduler and the best case for the cache).
    let cfg = ServeConfig {
        target: SimTime::from_ms(300),
        preload_bytes: 0,
        io_workers: 2,
        ..Default::default()
    };
    // Warm the importance profile outside the timed region.
    ctx.importance();
    (ctx, cfg)
}

fn bench_concurrent_sessions(c: &mut Criterion) {
    let (ctx, cfg) = serving_fixture();
    let mut group = c.benchmark_group("serving_throughput");
    for sessions in [1usize, 2, 4, 8] {
        let trace = ServingTrace::synthetic(&ctx, &cfg, sessions, 2);
        let server = build_server(&ctx, &cfg);
        group.throughput(Throughput::Elements(trace.total_engagements() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(sessions), &trace, |b, trace| {
            b.iter(|| replay_event(&server, trace).expect("replay succeeds"))
        });
    }
    // The closed loop the compute pool targets: 8 clients stream 64
    // back-to-back engagements each over 8 distinct (T, |S|) plans, so the
    // forward pass, not admission or IO, dominates host time.
    let examples = ctx.task().test().examples();
    let plans = [(200, 0), (200, 8), (200, 16), (300, 0), (300, 8), (300, 16), (400, 0), (400, 8)];
    let closed = ServingTrace {
        clients: plans
            .iter()
            .enumerate()
            .map(|(c, &(target_ms, preload_kb))| ClientTrace {
                target: SimTime::from_ms(target_ms),
                preload_bytes: preload_kb << 10,
                slo: None,
                arrival: SimTime::from_ms(c as u64),
                idle: SimTime::ZERO,
                engagements: (0..64)
                    .map(|k| examples[(c * 64 + k) % examples.len()].tokens.clone())
                    .collect(),
            })
            .collect(),
    };
    let server = build_server(&ctx, &ServeConfig { shard_cache_bytes: 128 << 10, ..cfg });
    group.throughput(Throughput::Elements(closed.total_engagements() as u64));
    group.bench_function("closed_loop_8x64", |b| {
        b.iter(|| replay_event(&server, &closed).expect("replay succeeds"))
    });
    group.finish();
}

fn bench_session_open(c: &mut Criterion) {
    let (ctx, cfg) = serving_fixture();
    let server = build_server(&ctx, &cfg);
    // First open plans and fills; the steady state this measures is the
    // cache-hit path a serving runtime lives on.
    let _warm = server.session().expect("session opens");
    c.bench_function("session_open_cached", |b| {
        b.iter(|| server.session().expect("session opens"))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_concurrent_sessions, bench_session_open
}
criterion_main!(benches);
