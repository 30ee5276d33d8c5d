//! The traced run: an event loop that mirrors `sti_core::replay_event`
//! call for call through the public API, with every call into a crate
//! wrapped in a host-time span.
//!
//! Spans carry a `<crate>.<call>` name, start and end (ns since the run
//! began), their parent span, and — for an engagement's calls — the
//! `(session token, engagement index)` id. They stay in memory until the
//! run ends.

use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

use sti_core::engine::{Component, ComponentId, Engine, System};
use sti_core::{EngagementOutcome, ServeReport, ServingTrace};
use sti_device::SimTime;
use sti_pipeline::{PendingEngagement, PipelineError, Session, StiServer};
use sti_planner::PlanCacheStats;

/// One host-time span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub id: Option<(u64, u32)>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder for one thread.
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, id: Option<(u64, u32)>, f: impl FnOnce() -> T) -> T {
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span { name, start_ns: 0, end_ns: 0, parent, id });
            (spans.len() - 1) as u32
        };
        self.open.borrow_mut().push(idx);
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[idx as usize].start_ns = start;
        spans[idx as usize].end_ns = end;
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Per-engagement figures the executor reports in each `Inference`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScheduleTotals {
    pub engagements: u64,
    pub stall_us: u64,
    pub makespan_us: u64,
    pub loaded_bytes: u64,
    pub peak_working_bytes: usize,
}

/// A traced replay: the report `replay_event` would have returned, the
/// spans, the engine's tick count, and the executor's schedule totals.
pub struct TracedRun {
    pub report: ServeReport,
    pub spans: Vec<Span>,
    pub ticks: u64,
    pub schedule: ScheduleTotals,
    /// Span events `trace_spans` returned.
    pub obs_spans: usize,
    /// SLO-search memo counters after the replay.
    pub slo_plan: PlanCacheStats,
}

struct Ctx<'a> {
    server: &'a StiServer,
    sessions: &'a [Option<Session>],
    trace: &'a ServingTrace,
    tr: &'a Tracer,
    outcomes: Vec<Vec<EngagementOutcome>>,
    pendings: Vec<Option<(PendingEngagement, (u64, u32))>>,
    cursor: Vec<usize>,
    waiting: Vec<ComponentId>,
    flash: ComponentId,
    channels: usize,
    spec_wake: bool,
    schedule: ScheduleTotals,
    error: Option<PipelineError>,
}

impl Ctx<'_> {
    fn drive(&self, channel: usize) -> usize {
        self.tr.span("storage.dispatch", None, || self.server.drive_io_on(channel as u16))
    }
}

fn fail(sys: &mut System<'_, Ctx<'_>>, e: PipelineError) -> Option<SimTime> {
    sys.ctx.error = Some(e);
    sys.halt();
    None
}

struct Client {
    id: ComponentId,
    arrival: SimTime,
}

impl<'a> Component<Ctx<'a>> for Client {
    fn id(&self) -> ComponentId {
        self.id
    }

    fn next_tick(&self) -> Option<SimTime> {
        Some(self.arrival)
    }

    fn tick(&mut self, now: SimTime, sys: &mut System<'_, Ctx<'a>>) -> Option<SimTime> {
        let (sessions, trace, tr) = (sys.ctx.sessions, sys.ctx.trace, sys.ctx.tr);
        let session = sessions[self.id].as_ref()?;
        let client = &trace.clients[self.id];
        if let Some((pending, id)) = sys.ctx.pendings[self.id].take() {
            match tr.span("pipeline.complete", Some(id), || session.infer_complete(pending)) {
                Ok(inf) => {
                    let t = &mut sys.ctx.schedule;
                    t.engagements += 1;
                    t.stall_us += inf.outcome.timeline.total_stall.as_us();
                    t.makespan_us += inf.outcome.timeline.makespan.as_us();
                    t.loaded_bytes += inf.outcome.loaded_bytes;
                    t.peak_working_bytes = t.peak_working_bytes.max(inf.outcome.peak_working_bytes);
                    sys.ctx.outcomes[self.id].push(EngagementOutcome {
                        class: inf.class,
                        probabilities: inf.probabilities,
                        makespan: inf.outcome.timeline.makespan,
                        loaded_bytes: inf.outcome.loaded_bytes,
                    });
                }
                Err(e) => return fail(sys, e),
            }
            if sys.ctx.spec_wake {
                let (flash, channels) = (sys.ctx.flash, sys.ctx.channels);
                for c in 0..channels {
                    sys.wake(flash + c, now);
                }
            }
        }
        loop {
            let k = sys.ctx.cursor[self.id];
            if k >= client.engagements.len() {
                return None;
            }
            sys.ctx.cursor[self.id] = k + 1;
            let id = (session.token(), k as u32);
            match tr
                .span("pipeline.issue", Some(id), || session.infer_issue(&client.engagements[k]))
            {
                Ok(pending) => {
                    sys.ctx.pendings[self.id] = Some((pending, id));
                    sys.ctx.waiting.push(self.id);
                    let (flash, channels) = (sys.ctx.flash, sys.ctx.channels);
                    for c in 0..channels {
                        sys.wake(flash + c, now);
                    }
                    return None;
                }
                Err(PipelineError::Backpressure { .. }) => continue,
                Err(e) => return fail(sys, e),
            }
        }
    }
}

struct Flash {
    id: ComponentId,
    channel: usize,
    last: bool,
}

impl<'a> Component<Ctx<'a>> for Flash {
    fn id(&self) -> ComponentId {
        self.id
    }

    fn next_tick(&self) -> Option<SimTime> {
        None
    }

    fn tick(&mut self, now: SimTime, sys: &mut System<'_, Ctx<'a>>) -> Option<SimTime> {
        sys.ctx.drive(self.channel);
        if self.last {
            // Sweep every channel to a fixpoint before waking the issuers,
            // exactly as the program's event executor does.
            loop {
                let served: usize = (0..sys.ctx.channels).map(|c| sys.ctx.drive(c)).sum();
                if served == 0 {
                    break;
                }
            }
            for id in std::mem::take(&mut sys.ctx.waiting) {
                sys.wake(id, now);
            }
        }
        None
    }
}

/// Replays `trace` on `server` exactly as `replay_event` does, recording a
/// span around every call into the program.
pub fn replay_traced(server: &StiServer, trace: &ServingTrace) -> Result<TracedRun, PipelineError> {
    let tr = Tracer::new();
    let start = Instant::now();
    let mut sessions = Vec::with_capacity(trace.clients.len());
    for client in &trace.clients {
        let opened = match client.slo {
            Some(slo) => tr.span("pipeline.admit", None, || {
                server.session_with_slo_at(slo, client.preload_bytes, client.arrival)
            }),
            None => tr.span("pipeline.open", None, || {
                server.session_with(client.target, client.preload_bytes)
            }),
        };
        sessions.push(match opened {
            Ok(mut session) => {
                tr.span("pipeline.arrival", None, || {
                    session.set_arrival(client.arrival);
                    session.set_issue_gap(client.idle);
                });
                Some(session)
            }
            Err(PipelineError::AdmissionRejected { .. }) => None,
            Err(e) => return Err(e),
        });
    }
    tr.span("pipeline.pause_io", None, || server.pause_io());
    let mut engine: Engine<Ctx<'_>> = Engine::new();
    engine.set_obs_sink(server.obs_sink());
    for (id, client) in trace.clients.iter().enumerate() {
        engine.register(Box::new(Client { id, arrival: client.arrival }));
    }
    let channels =
        tr.span("pipeline.report", None, || server.device_topology().channel_count()) as usize;
    let flash = trace.clients.len();
    for c in 0..channels {
        engine.register(Box::new(Flash { id: flash + c, channel: c, last: c + 1 == channels }));
    }
    let mut ctx = Ctx {
        server,
        sessions: &sessions,
        trace,
        tr: &tr,
        outcomes: vec![Vec::new(); trace.clients.len()],
        pendings: (0..trace.clients.len()).map(|_| None).collect(),
        cursor: vec![0; trace.clients.len()],
        waiting: Vec::new(),
        flash,
        channels,
        spec_wake: server.prefetch_enabled(),
        schedule: ScheduleTotals::default(),
        error: None,
    };
    let engine_report = tr.span("device.engine", None, || engine.run(&mut ctx));
    let Ctx { outcomes, pendings, error, schedule, .. } = ctx;
    drop(pendings);
    drop(engine);
    tr.span("pipeline.resume_io", None, || server.resume_io());
    if let Some(e) = error {
        return Err(e);
    }
    let rejected_clients =
        sessions.iter().enumerate().filter_map(|(i, s)| s.is_none().then_some(i)).collect();
    let contention = tr.span("device.contention", None, || server.contention_report());
    let spans = tr.span("obs.spans", None, || server.trace_spans());
    let slo_plan = tr.span("pipeline.report", None, || server.slo_plan_stats());
    let mut report = tr.span("pipeline.report", None, || ServeReport {
        outcomes,
        wall: std::time::Duration::ZERO,
        plan_stats: server.plan_stats(),
        distinct_plans: server.cached_plans(),
        shard_stats: server.shard_stats(),
        io_stats: server.io_stats(),
        contention,
        serving_stats: server.serving_stats(),
        rejected_clients,
        heap_ops: engine_report.heap_ops,
        spans,
        metrics: server.metrics_snapshot(),
        prefetch: server.prefetch_report(),
    });
    report.wall = start.elapsed();
    report.metrics.counters.insert("engine.ticks".to_string(), engine_report.ticks);
    report.metrics.counters.insert("engine.heap_ops".to_string(), engine_report.heap_ops);
    Ok(TracedRun {
        obs_spans: report.spans.len(),
        report,
        spans: tr.into_spans(),
        ticks: engine_report.ticks,
        schedule,
        slo_plan,
    })
}

/// Writes spans as JSON lines: name, start/end in ns, parent index, and
/// the engagement id when the span belongs to one.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        write!(
            out,
            "{{\"i\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
            s.name, s.start_ns, s.end_ns
        )?;
        if let Some(p) = s.parent {
            write!(out, ",\"parent\":{p}")?;
        }
        if let Some((session, k)) = s.id {
            write!(out, ",\"session\":{session},\"engagement\":{k}")?;
        }
        writeln!(out, "}}")?;
    }
    out.flush()
}
