//! The correctness gate and the end-to-end figures of one replay, both
//! derived from its [`ServeReport`] and the workload's gold labels.

use sti_core::{ServeReport, ServingTrace};
use sti_device::SimTime;

use crate::workload::Workload;

/// What one replay served, engagement by engagement, once the report has
/// passed [`summarize`]'s consistency checks.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Engagements the trace asked for.
    pub attempted: usize,
    /// Engagements that produced an outcome.
    pub served: usize,
    /// Engagements the backpressure gate shed.
    pub shed: usize,
    /// Engagements of clients admission control rejected.
    pub rejected: usize,
    /// User-perceived latency of every served engagement (gate delay +
    /// initial queueing + contended makespan), sorted ascending.
    pub latencies_us: Vec<u64>,
    /// The same latencies per client, in engagement order.
    pub by_client: Vec<Vec<u64>>,
    /// SLO engagements attempted (rejected and shed ones included).
    pub slo_attempted: usize,
    /// SLO engagements served within their SLO.
    pub slo_met: usize,
    /// Served engagements whose class equals the gold label.
    pub correct: usize,
    /// Contended queue makespan.
    pub makespan: SimTime,
}

impl Summary {
    /// Nearest-rank percentile of the user-perceived latencies, in µs.
    fn percentile_us(&self, p: f64) -> u64 {
        let n = self.latencies_us.len();
        if n == 0 {
            return 0;
        }
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        self.latencies_us[rank - 1]
    }

    /// Nearest-rank percentile of the user-perceived latencies, in ms.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        self.percentile_us(p) as f64 / 1e3
    }

    /// Served engagements whose latency lies strictly above the `p`
    /// percentile — the sample count behind that tail.
    pub fn beyond(&self, p: f64) -> usize {
        let cut = self.percentile_us(p);
        self.latencies_us.iter().filter(|&&l| l > cut).count()
    }

    /// SLO engagements that met their SLO over SLO engagements attempted;
    /// 1 when the workload has no SLO client.
    pub fn slo_goodput(&self) -> f64 {
        if self.slo_attempted == 0 {
            1.0
        } else {
            self.slo_met as f64 / self.slo_attempted as f64
        }
    }

    /// Served engagements per second of contended queue makespan.
    pub fn sim_eps(&self) -> f64 {
        self.served as f64 / (self.makespan.as_us() as f64 / 1e6).max(1e-9)
    }

    /// Share of served engagements classified as their gold label.
    pub fn accuracy(&self) -> f64 {
        self.correct as f64 / self.served.max(1) as f64
    }

    /// Mean latency in ms over the clients `pick` selects (0 when none).
    pub fn mean_ms(&self, pick: impl Fn(usize) -> bool) -> f64 {
        let picked: Vec<u64> = self
            .by_client
            .iter()
            .enumerate()
            .filter(|(c, _)| pick(*c))
            .flat_map(|(_, l)| l.clone())
            .collect();
        picked.iter().sum::<u64>() as f64 / picked.len().max(1) as f64 / 1e3
    }

    /// Share of attempted engagements that were served.
    pub fn served_frac(&self) -> f64 {
        self.served as f64 / self.attempted.max(1) as f64
    }
}

/// Registry tokens of a fresh server's sessions: opens run in client order
/// and only admitted opens take a token.
fn tokens(trace: &ServingTrace, rejected: &[usize]) -> Vec<Option<u64>> {
    let mut next = 0;
    (0..trace.clients.len())
        .map(|c| {
            (!rejected.contains(&c)).then(|| {
                next += 1;
                next - 1
            })
        })
        .collect()
}

/// Checks one replay's report for internal consistency and derives its
/// end-to-end figures:
///
/// * attempted = served + shed + engagements of rejected clients;
/// * every gated session has one gate decision per engagement;
/// * exactly one contention row per served engagement.
pub fn summarize(w: &Workload, rep: &ServeReport) -> Result<Summary, String> {
    let trace = &w.trace;
    if rep.outcomes.len() != trace.clients.len() {
        return Err(format!(
            "{} outcome lists for {} clients",
            rep.outcomes.len(),
            trace.clients.len()
        ));
    }
    let gated = !matches!(w.cfg.backpressure, sti_pipeline::BackpressureMode::Off);
    let mut s = Summary {
        attempted: trace.total_engagements(),
        served: 0,
        shed: 0,
        rejected: 0,
        latencies_us: Vec::new(),
        by_client: vec![Vec::new(); trace.clients.len()],
        slo_attempted: 0,
        slo_met: 0,
        correct: 0,
        makespan: rep.contention.queue_makespan,
    };
    for (c, token) in tokens(trace, &rep.rejected_clients).into_iter().enumerate() {
        let client = &trace.clients[c];
        let n = client.engagements.len();
        if client.slo.is_some() {
            s.slo_attempted += n;
        }
        let Some(token) = token else {
            s.rejected += n;
            if !rep.outcomes[c].is_empty() {
                return Err(format!("rejected client {c} reported outcomes"));
            }
            continue;
        };
        // Gate delay per engagement; `None` marks a shed one.
        let decisions: Vec<_> = rep.contention.gate.iter().filter(|d| d.session == token).collect();
        let delays: Vec<Option<SimTime>> = if gated && client.slo.is_some() {
            if decisions.len() != n {
                return Err(format!(
                    "client {c}: {} gate decisions for {n} engagements",
                    decisions.len()
                ));
            }
            decisions.iter().map(|d| (!d.shed).then_some(d.delay)).collect()
        } else {
            if !decisions.is_empty() {
                return Err(format!("ungated client {c} has gate decisions"));
            }
            vec![Some(SimTime::ZERO); n]
        };
        let rows: Vec<_> =
            rep.contention.engagements.iter().filter(|e| e.session == token).collect();
        let outcomes = &rep.outcomes[c];
        let served: Vec<(usize, SimTime)> =
            delays.iter().enumerate().filter_map(|(k, d)| d.map(|d| (k, d))).collect();
        if outcomes.len() != served.len() || rows.len() != served.len() {
            return Err(format!(
                "client {c}: {} served, {} outcomes, {} contention rows",
                served.len(),
                outcomes.len(),
                rows.len()
            ));
        }
        s.shed += n - served.len();
        for (((k, delay), outcome), row) in served.into_iter().zip(outcomes).zip(rows) {
            let latency = delay + row.initial_queueing + row.contended;
            s.by_client[c].push(latency.as_us());
            s.correct += usize::from(outcome.class == w.labels[c][k]);
            if client.slo.is_some_and(|slo| latency <= slo) {
                s.slo_met += 1;
            }
        }
        s.served += outcomes.len();
    }
    if s.served + s.shed + s.rejected != s.attempted {
        return Err(format!(
            "attempted {} != served {} + shed {} + rejected {}",
            s.attempted, s.served, s.shed, s.rejected
        ));
    }
    if rep.contention.engagements.len() != s.served {
        return Err(format!(
            "{} contention rows for {} served engagements",
            rep.contention.engagements.len(),
            s.served
        ));
    }
    s.latencies_us = s.by_client.concat();
    s.latencies_us.sort_unstable();
    Ok(s)
}

/// Whether two replays of one workload produced the same results: the
/// outcomes, the admission verdicts, the contention rows and the gate log.
pub fn same_results(a: &ServeReport, b: &ServeReport) -> Result<(), String> {
    if a.outcomes != b.outcomes {
        return Err("engagement outcomes differ".into());
    }
    if a.rejected_clients != b.rejected_clients {
        return Err("admission verdicts differ".into());
    }
    if a.contention.engagements != b.contention.engagements {
        return Err("contention rows differ".into());
    }
    if a.contention.gate != b.contention.gate {
        return Err("gate logs differ".into());
    }
    Ok(())
}
