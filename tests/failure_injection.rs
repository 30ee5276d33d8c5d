//! Failure injection across the storage/pipeline boundary: corrupt stores,
//! missing versions, truncated files, and shrinking memory must all surface
//! as typed errors (never hangs, panics, or silent wrong results).

use std::sync::Arc;

use sti::prelude::*;
use sti_pipeline::{PipelineExecutor, PreloadBuffer};
use sti_planner::{plan_two_stage, ImportanceProfile};
use sti_storage::manifest::Manifest;
use sti_storage::{ShardSource, StorageError};

fn setup() -> (Task, DeviceProfile, HwProfile, ImportanceProfile) {
    let cfg = ModelConfig::tiny();
    let task = Task::build(TaskKind::Qnli, cfg.clone(), 4, 4);
    let device = DeviceProfile::odroid_n2();
    let hw = HwProfile::measure(&device, &cfg, &QuantConfig::default());
    let importance = ImportanceProfile::from_scores(
        cfg.layers,
        cfg.heads,
        (0..cfg.total_shards()).map(|i| 0.5 + (i % 4) as f64 * 0.02).collect(),
        0.42,
    );
    (task, device, hw, importance)
}

fn plan_for(hw: &HwProfile, importance: &ImportanceProfile) -> ExecutionPlan {
    plan_two_stage(hw, importance, SimTime::from_ms(400), 0, &[2, 4], &Bitwidth::ALL)
}

#[test]
fn missing_version_fails_with_missing_shard() {
    let (task, device, hw, importance) = setup();
    let store = Arc::new(MemStore::build(
        task.model(),
        &[Bitwidth::B2, Bitwidth::Full],
        &QuantConfig::default(),
    ));
    // Planner believes all versions exist; B6 etc. are absent from the store.
    let plan = plan_for(&hw, &importance);
    let needs_missing = plan
        .layers
        .iter()
        .flat_map(|l| l.bitwidths.iter())
        .any(|bw| *bw != Bitwidth::B2 && *bw != Bitwidth::Full);
    let exec = PipelineExecutor::new(task.model(), store, device.flash, &hw);
    let result = exec.execute(&plan, &PreloadBuffer::new(0), &[1, 2]);
    if needs_missing {
        let err = result.unwrap_err();
        assert!(
            matches!(err, PipelineError::Storage(StorageError::MissingShard { .. })),
            "unexpected error: {err}"
        );
    }
}

#[test]
fn corrupt_disk_record_surfaces_as_corrupt_error() {
    let (task, device, hw, importance) = setup();
    let dir = std::env::temp_dir().join(format!("sti-failinj-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store =
        ShardStore::create(&dir, task.model(), &Bitwidth::ALL, &QuantConfig::default()).unwrap();

    let plan = plan_for(&hw, &importance);
    // Corrupt every layer-0 file so whichever version the plan chose is hit.
    for bw in Bitwidth::ALL {
        let path = dir.join(Manifest::layer_file_name(0, bw));
        let mut bytes = std::fs::read(&path).unwrap();
        for b in bytes.iter_mut() {
            *b ^= 0xA5;
        }
        std::fs::write(&path, bytes).unwrap();
    }
    let exec = PipelineExecutor::new(task.model(), Arc::new(store), device.flash, &hw);
    let err = exec.execute(&plan, &PreloadBuffer::new(0), &[3]).unwrap_err();
    assert!(matches!(err, PipelineError::Storage(_)), "unexpected error: {err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_manifest_fails_to_open() {
    let (task, _, _, _) = setup();
    let dir = std::env::temp_dir().join(format!("sti-failinj-manifest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store =
        ShardStore::create(&dir, task.model(), &[Bitwidth::B2], &QuantConfig::default()).unwrap();
    drop(store);
    let manifest_path = dir.join(ShardStore::MANIFEST_FILE);
    let bytes = std::fs::read(&manifest_path).unwrap();
    std::fs::write(&manifest_path, &bytes[..bytes.len() / 2]).unwrap();
    assert!(ShardStore::open(&dir).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn deleted_layer_file_fails_reads_not_open() {
    let (task, _, _, _) = setup();
    let dir = std::env::temp_dir().join(format!("sti-failinj-delete-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store =
        ShardStore::create(&dir, task.model(), &[Bitwidth::B2], &QuantConfig::default()).unwrap();
    drop(store);
    std::fs::remove_file(dir.join(Manifest::layer_file_name(1, Bitwidth::B2))).unwrap();
    let store = ShardStore::open(&dir).unwrap();
    assert!(store.read_layer(0, &[(0, Bitwidth::B2)]).is_ok());
    assert!(store.read_layer(1, &[(0, Bitwidth::B2)]).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn oversized_preload_request_is_rejected_not_truncated() {
    let (task, _, _, _) = setup();
    let store = MemStore::build(task.model(), &[Bitwidth::Full], &QuantConfig::default());
    let blob =
        sti_storage::ShardSource::load(&store, ShardKey::new(ShardId::new(0, 0), Bitwidth::Full))
            .unwrap();
    let mut buffer = PreloadBuffer::new(blob.byte_size() as u64 - 1);
    let err = buffer.insert(ShardId::new(0, 0), blob).unwrap_err();
    assert!(matches!(err, PipelineError::PreloadOverflow { .. }));
    assert_eq!(buffer.len(), 0);
}

#[test]
fn scheduler_shutdown_mid_burst_halts_the_event_loop_cleanly() {
    use sti_storage::{IoChannel, IoScheduler, LayerRequest};

    let (task, _, _, _) = setup();
    let store = Arc::new(MemStore::build(task.model(), &Bitwidth::ALL, &QuantConfig::default()));
    let sched =
        IoScheduler::spawn(store, FlashModel::new(1_000_000, SimTime::from_ms(1)), 1, 0.0, None);
    // Event-host mode: park the pool, the loop is the only dispatcher.
    sched.pause_dispatch();
    let channel = sched.channel();

    struct Ctx {
        sched: Option<IoScheduler>,
        channel: IoChannel,
        shutdown_error: Option<StorageError>,
        log: Vec<(ComponentId, SimTime)>,
    }
    fn request(layer: u16) -> LayerRequest {
        LayerRequest { layer, items: vec![(0, Bitwidth::B2)] }
    }

    /// Drives one request through at 1 µs, then returns mid-burst at 3 µs
    /// to find the scheduler shut down under it.
    struct Worker;
    impl Component<Ctx> for Worker {
        fn id(&self) -> ComponentId {
            0
        }
        fn next_tick(&self) -> Option<SimTime> {
            Some(SimTime::from_us(1))
        }
        fn tick(&mut self, now: SimTime, sys: &mut System<'_, Ctx>) -> Option<SimTime> {
            sys.ctx.log.push((0, now));
            if let Some(sched) = sys.ctx.sched.as_ref() {
                sys.ctx.channel.request(request(0)).unwrap();
                assert_eq!(sched.drive_queued(), 1, "the loop dispatches its own burst");
                sys.ctx.channel.recv().unwrap();
                Some(SimTime::from_us(3))
            } else {
                // The saboteur shut the scheduler down between ticks: the
                // abandoned queued request surfaces the typed error —
                // never a hang — and the component stops the loop.
                sys.ctx.shutdown_error = sys.ctx.channel.recv().err();
                sys.halt();
                None
            }
        }
    }

    /// Queues a second burst at 2 µs, then shuts the scheduler down.
    struct Saboteur;
    impl Component<Ctx> for Saboteur {
        fn id(&self) -> ComponentId {
            1
        }
        fn next_tick(&self) -> Option<SimTime> {
            Some(SimTime::from_us(2))
        }
        fn tick(&mut self, now: SimTime, sys: &mut System<'_, Ctx>) -> Option<SimTime> {
            sys.ctx.log.push((1, now));
            sys.ctx.channel.request(request(1)).unwrap();
            sys.ctx.sched.take().expect("first shutdown").shutdown();
            None
        }
    }

    /// Scheduled after the halt; must never tick.
    struct Lagger;
    impl Component<Ctx> for Lagger {
        fn id(&self) -> ComponentId {
            2
        }
        fn next_tick(&self) -> Option<SimTime> {
            Some(SimTime::from_us(10))
        }
        fn tick(&mut self, now: SimTime, sys: &mut System<'_, Ctx>) -> Option<SimTime> {
            sys.ctx.log.push((2, now));
            None
        }
    }

    let mut engine: Engine<Ctx> = Engine::new();
    engine.register(Box::new(Worker));
    engine.register(Box::new(Saboteur));
    engine.register(Box::new(Lagger));
    let mut ctx = Ctx { sched: Some(sched), channel, shutdown_error: None, log: Vec::new() };
    let report = engine.run(&mut ctx);
    assert!(report.halted, "the worker stopped the loop on the shutdown error");
    assert_eq!(report.end, SimTime::from_us(3));
    assert_eq!(
        ctx.log,
        vec![(0, SimTime::from_us(1)), (1, SimTime::from_us(2)), (0, SimTime::from_us(3))],
        "no component ticks after the halt"
    );
    assert!(
        matches!(ctx.shutdown_error, Some(StorageError::SchedulerShutdown)),
        "unexpected error: {:?}",
        ctx.shutdown_error
    );
}

#[test]
fn engine_survives_budget_shrink_to_zero() {
    let (task, device, hw, importance) = setup();
    let store = Arc::new(MemStore::build(task.model(), &Bitwidth::ALL, &QuantConfig::default()));
    let mut engine = StiEngine::builder(task.model().clone(), store, hw, device.flash, importance)
        .target(SimTime::from_ms(400))
        .preload_budget(16 << 10)
        .widths(&[2, 4])
        .build()
        .unwrap();
    assert!(engine.preload_used() > 0);
    engine.set_preload_budget(0).unwrap();
    assert_eq!(engine.preload_used(), 0);
    // Cold-start inference still works.
    let inf = engine.infer(&[9, 1]).unwrap();
    assert!(inf.class < 2);
}

/// A disk store whose layer-0 files are deleted once `after` shard loads
/// have been served — a layer file vanishing mid-replay — and written
/// back by [`VanishingLayer::restore`].
struct VanishingLayer {
    store: ShardStore,
    files: Vec<(std::path::PathBuf, Vec<u8>)>,
    loads: std::sync::atomic::AtomicUsize,
    after: std::sync::atomic::AtomicUsize,
}

impl VanishingLayer {
    fn new(dir: &std::path::Path, model: &Model, after: usize) -> Self {
        let _ = std::fs::remove_dir_all(dir);
        let store =
            ShardStore::create(dir, model, &Bitwidth::ALL, &QuantConfig::default()).unwrap();
        let files = Bitwidth::ALL
            .iter()
            .map(|&bw| dir.join(Manifest::layer_file_name(0, bw)))
            .filter(|path| path.exists())
            .map(|path| {
                let bytes = std::fs::read(&path).unwrap();
                (path, bytes)
            })
            .collect();
        Self { store, files, loads: 0.into(), after: after.into() }
    }

    fn loads(&self) -> usize {
        self.loads.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Puts the deleted files back and disarms the fault.
    fn restore(&self) {
        self.after.store(usize::MAX, std::sync::atomic::Ordering::SeqCst);
        for (path, bytes) in &self.files {
            std::fs::write(path, bytes).unwrap();
        }
    }
}

impl ShardSource for VanishingLayer {
    fn load(&self, key: ShardKey) -> Result<QuantizedBlob, StorageError> {
        let n = self.loads.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1;
        if n == self.after.load(std::sync::atomic::Ordering::SeqCst) {
            for (path, _) in &self.files {
                std::fs::remove_file(path).unwrap();
            }
        }
        self.store.load(key)
    }

    fn size_bytes(&self, key: ShardKey) -> Result<u64, StorageError> {
        self.store.size_bytes(key)
    }
}

#[test]
fn mid_replay_flash_error_under_the_compute_pool_fails_cleanly_and_the_server_recovers() {
    use std::sync::mpsc;
    use std::time::Duration;

    let (task, device, hw, importance) = setup();
    let server_on = |source: Arc<VanishingLayer>| {
        StiServer::builder(
            task.model().clone(),
            source,
            hw.clone(),
            device.flash,
            importance.clone(),
        )
        .target(SimTime::from_ms(400))
        .preload_budget(0)
        .widths(&[2, 4])
        // No shard cache: every engagement reads its layers from disk.
        .shard_cache_bytes(0)
        .build()
    };
    let examples = task.test().examples();
    let trace = ServingTrace {
        clients: (0..4)
            .map(|c| ClientTrace {
                target: SimTime::from_ms(400),
                preload_bytes: 0,
                slo: None,
                arrival: SimTime::from_us(c as u64 * 50),
                idle: SimTime::ZERO,
                engagements: (0..4)
                    .map(|e| examples[(c * 4 + e) % examples.len()].tokens.clone())
                    .collect(),
            })
            .collect(),
    };
    let dir = |tag: &str| {
        std::env::temp_dir().join(format!("sti-failinj-pool-{tag}-{}", std::process::id()))
    };

    // A healthy sequential replay counts the loads; the fault fires halfway.
    let healthy_dir = dir("healthy");
    let healthy = Arc::new(VanishingLayer::new(&healthy_dir, task.model(), usize::MAX));
    let want = replay_sequential(&server_on(healthy.clone()), &trace).unwrap();
    let after = healthy.loads() / 2;
    assert!(after > 4, "the fault must strike after several engagements");
    std::fs::remove_dir_all(&healthy_dir).unwrap();

    let seq_dir = dir("sequential");
    let seq_err = replay_sequential(
        &server_on(Arc::new(VanishingLayer::new(&seq_dir, task.model(), after))),
        &trace,
    )
    .unwrap_err();
    std::fs::remove_dir_all(&seq_dir).unwrap();

    // The event replay runs on its own thread so a hang (an unjoined helper
    // or a blocked sender) fails the test instead of stalling it.
    let event_dir = dir("event");
    let source = Arc::new(VanishingLayer::new(&event_dir, task.model(), after));
    let server = server_on(source.clone());
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let failed = replay_event(&server, &trace);
        tx.send(()).unwrap();
        (server, trace, failed)
    });
    rx.recv_timeout(Duration::from_secs(120)).expect("replay_event hung after a flash error");
    let (server, trace, failed) = worker.join().unwrap();
    let event_err = failed.unwrap_err();
    assert!(
        matches!(event_err, PipelineError::Storage(StorageError::Io(_))),
        "unexpected error: {event_err}"
    );
    assert!(
        matches!(seq_err, PipelineError::Storage(StorageError::Io(_))),
        "unexpected error: {seq_err}"
    );

    // IO resumed: with the file back, the same server serves the trace
    // exactly as a healthy sequential replay does.
    source.restore();
    let again = replay_event(&server, &trace).unwrap();
    assert_eq!(again.outcomes, want.outcomes);
    assert_eq!(again.rejected_clients, want.rejected_clients);
    std::fs::remove_dir_all(&event_dir).unwrap();
}
