//! Seeded workload generation: one [`ServingTrace`] plus its server knobs
//! per `(workload, seed)`, with every engagement's tokens and gold label
//! drawn from the task's test split. The program under test only ever sees
//! the generated trace; the labels stay here for the accuracy check.

use sti_core::{ClientTrace, ServeConfig, ServingTrace};
use sti_device::SimTime;
use sti_nlp::Example;
use sti_pipeline::{AdmissionMode, BackpressureMode};
use sti_planner::{PrefetchConfig, PreloadPolicy};

/// The workloads this benchmark knows, in `BENCHMARK.json` order.
pub const NAMES: [&str; 3] = ["fleet_open", "closed_stream", "recurrent_shared"];

/// `fleet_open`: single-engagement clients on an open Poisson loop.
const FLEET_CLIENTS: usize = 2_000;
/// Mean Poisson inter-arrival gap: about 0.75 of one flash channel's
/// capacity at the fleet's plans.
const FLEET_MEAN_GAP_US: u64 = 200_000;
/// Arrivals per stratum: the Poisson process is conditioned on exactly
/// this many arrivals per `FLEET_STRATUM * FLEET_MEAN_GAP_US` window
/// (uniform within it), which bounds how far one seed's bursts can stretch
/// the tail beyond another's.
const FLEET_STRATUM: usize = 5;
/// Every n-th fleet client carries an SLO.
const FLEET_SLO_EVERY: usize = 10;
const FLEET_SLOS_MS: [u64; 5] = [100, 150, 200, 250, 300];
/// Longest queue delay the backpressure gate may apply before shedding.
const MAX_QUEUE_DELAY_MS: u64 = 100;

/// `closed_stream`: plain clients issuing back-to-back engagements.
const STREAM_CLIENTS: usize = 8;
const STREAM_ENGAGEMENTS: usize = 250;
const STREAM_TARGETS_MS: [u64; 3] = [150, 200, 400];
const STREAM_PRELOADS_KB: [u64; 3] = [0, 16, 48];
/// Smaller than the union of the eight plans' shards, so they evict one
/// another.
const STREAM_CACHE_KB: u64 = 128;
/// Seeded relative jitter on every drawn stream target, so the plans (and
/// the latencies they set) differ a little from seed to seed.
const TARGET_JITTER: f64 = 0.03;

/// `recurrent_shared`: groups of clients engaging on a shared trigger.
const GROUPS: usize = 32;
/// Groups per epoch: an epoch's groups arrive `GROUP_SPACING_MS` apart and
/// finish their engagements before the next epoch's arrive. Four epochs
/// give four independent overlap patterns per seed, which steadies the
/// latency percentiles from seed to seed.
const EPOCH_GROUPS: usize = 8;
const GROUP_SIZE: usize = 8;
const GROUP_ENGAGEMENTS: usize = 6;
const THINK_TIME_MS: u64 = 2_000;
const GROUP_SPACING_MS: u64 = 100;
const BATCH_WINDOW_US: u64 = 500;
const GROUP_TARGET_MS: u64 = 200;
const GROUP_SLOS_MS: [u64; 3] = [300, 400, 500];
/// Smaller than one engagement's streamed shards, so groups miss.
const RECURRENT_CACHE_KB: u64 = 64;
const PREFETCH_BUDGET_KB: u64 = 48;

/// One generated workload: the trace the program replays, the server knobs
/// it replays under, and the gold label of every engagement.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name (one of [`NAMES`]).
    pub name: &'static str,
    /// Server configuration the trace is replayed under.
    pub cfg: ServeConfig,
    /// The multi-client trace.
    pub trace: ServingTrace,
    /// Gold labels, per client, per engagement.
    pub labels: Vec<Vec<usize>>,
}

impl Workload {
    /// Engagements the trace asks for.
    pub fn attempted(&self) -> usize {
        self.trace.total_engagements()
    }

    /// A canonical byte rendering of everything the program receives plus
    /// the labels — equal bytes mean an identical workload.
    pub fn to_bytes(&self) -> Vec<u8> {
        format!("{}|{:?}|{:?}|{:?}", self.name, self.cfg, self.trace, self.labels).into_bytes()
    }

    /// FNV-1a digest of [`Workload::to_bytes`], stamped on every run.
    pub fn digest(&self) -> u64 {
        fnv_bytes(&self.to_bytes())
    }
}

/// Builds workload `name` for `seed` from the test split `examples`.
/// `None` for an unknown name.
pub fn generate(name: &str, seed: u64, examples: &[Example]) -> Option<Workload> {
    let cfg = config(name)?;
    assert!(!examples.is_empty(), "the test split is empty");
    let mut gen =
        Gen { rng: Rng::new(seed ^ fnv(name)), examples, deck: Vec::new(), labels: Vec::new() };
    // `config` accepted the name, so it is one of the three.
    let (name, clients) = match name {
        "fleet_open" => ("fleet_open", gen.fleet_open()),
        "closed_stream" => ("closed_stream", gen.closed_stream()),
        _ => ("recurrent_shared", gen.recurrent_shared()),
    };
    Some(Workload { name, cfg, trace: ServingTrace { clients }, labels: gen.labels })
}

/// The server knobs workload `name` replays under; `None` for an unknown
/// name.
pub fn config(name: &str) -> Option<ServeConfig> {
    match name {
        "fleet_open" => Some(fleet_cfg()),
        "closed_stream" => Some(stream_cfg()),
        "recurrent_shared" => Some(recurrent_cfg()),
        _ => None,
    }
}

/// Server knobs shared by every workload: the default device, one IO worker
/// (the event replay parks it; the sequential check uses it).
fn base_cfg() -> ServeConfig {
    ServeConfig { io_workers: 1, ..ServeConfig::default() }
}

fn fleet_cfg() -> ServeConfig {
    ServeConfig {
        admission: AdmissionMode::Enforce,
        backpressure: BackpressureMode::Queue(SimTime::from_ms(MAX_QUEUE_DELAY_MS)),
        ..base_cfg()
    }
}

fn stream_cfg() -> ServeConfig {
    ServeConfig { shard_cache_bytes: STREAM_CACHE_KB << 10, ..base_cfg() }
}

fn recurrent_cfg() -> ServeConfig {
    ServeConfig {
        admission: AdmissionMode::Enforce,
        backpressure: BackpressureMode::Queue(SimTime::from_ms(MAX_QUEUE_DELAY_MS)),
        channels: 4,
        batch_window: Some(SimTime::from_us(BATCH_WINDOW_US)),
        prefetch: PrefetchConfig::markov(PREFETCH_BUDGET_KB << 10),
        dram_residency: true,
        plan_sharing: PreloadPolicy::SharingAware,
        shard_cache_bytes: RECURRENT_CACHE_KB << 10,
        ..base_cfg()
    }
}

struct Gen<'a> {
    rng: Rng,
    examples: &'a [Example],
    /// Example indices left in the current pass over the split.
    deck: Vec<usize>,
    labels: Vec<Vec<usize>>,
}

impl Gen<'_> {
    /// A client whose engagements cycle through `patterns` test examples
    /// drawn from the split (one fresh draw per engagement when `patterns`
    /// is zero).
    fn client(
        &mut self,
        knobs: (SimTime, u64, Option<SimTime>),
        arrival: SimTime,
        idle: SimTime,
        engagements: usize,
        patterns: usize,
    ) -> ClientTrace {
        let (target, preload_bytes, slo) = knobs;
        let drawn: Vec<usize> = (0..patterns).map(|_| self.draw()).collect();
        let picks: Vec<usize> = (0..engagements)
            .map(|k| if patterns == 0 { self.draw() } else { drawn[k % patterns] })
            .collect();
        self.labels.push(picks.iter().map(|&i| self.examples[i].label).collect());
        ClientTrace {
            target,
            preload_bytes,
            slo,
            arrival,
            idle,
            engagements: picks.iter().map(|&i| self.examples[i].tokens.clone()).collect(),
        }
    }

    /// The next test example: the split is dealt in seeded shuffled passes,
    /// so every example appears equally often and accuracy does not hinge
    /// on which examples a seed happened to repeat.
    fn draw(&mut self) -> usize {
        if self.deck.is_empty() {
            self.deck = (0..self.examples.len()).collect();
            self.rng.shuffle(&mut self.deck);
        }
        self.deck.pop().expect("the deck was just refilled")
    }

    /// A target of `ms` with a seeded relative jitter of up to `spread`.
    fn target(&mut self, ms: u64, spread: f64) -> SimTime {
        let jitter = (2.0 * self.rng.unit() - 1.0) * spread;
        SimTime::from_us((ms as f64 * 1e3 * (1.0 + jitter)) as u64)
    }

    fn fleet_open(&mut self) -> Vec<ClientTrace> {
        let window = FLEET_STRATUM as u64 * FLEET_MEAN_GAP_US;
        let arrivals: Vec<u64> = (0..FLEET_CLIENTS / FLEET_STRATUM)
            .flat_map(|w| {
                let mut at: Vec<u64> = (0..FLEET_STRATUM)
                    .map(|_| w as u64 * window + self.rng.below(window as usize) as u64)
                    .collect();
                at.sort_unstable();
                at
            })
            .collect();
        (0..FLEET_CLIENTS)
            .map(|c| {
                let slo = (c % FLEET_SLO_EVERY == FLEET_SLO_EVERY - 1)
                    .then(|| SimTime::from_ms(FLEET_SLOS_MS[self.rng.below(FLEET_SLOS_MS.len())]));
                let knobs = (SimTime::from_ms(200), 16 << 10, slo);
                self.client(knobs, SimTime::from_us(arrivals[c]), SimTime::ZERO, 1, 0)
            })
            .collect()
    }

    fn closed_stream(&mut self) -> Vec<ClientTrace> {
        // Eight distinct (T, |S|) plans: the nine combinations minus the
        // last, in seeded client order. A fixed set keeps the streamed
        // bytes and the compute per engagement alike from seed to seed.
        let mut combos: Vec<(u64, u64)> = STREAM_TARGETS_MS
            .iter()
            .flat_map(|&t| STREAM_PRELOADS_KB.iter().map(move |&s| (t, s)))
            .take(STREAM_CLIENTS)
            .collect();
        self.rng.shuffle(&mut combos);
        let mut arrival_us = 0;
        (0..STREAM_CLIENTS)
            .map(|c| {
                let (t, s) = combos[c];
                arrival_us += 1_000 + self.rng.below(400_000) as u64;
                let knobs = (self.target(t, TARGET_JITTER), s << 10, None);
                let arrival = SimTime::from_us(arrival_us);
                self.client(knobs, arrival, SimTime::ZERO, STREAM_ENGAGEMENTS, 0)
            })
            .collect()
    }

    fn recurrent_shared(&mut self) -> Vec<ClientTrace> {
        let mut clients = Vec::with_capacity(GROUPS * GROUP_SIZE);
        for g in 0..GROUPS {
            let epoch_us =
                (g / EPOCH_GROUPS) as u64 * GROUP_ENGAGEMENTS as u64 * THINK_TIME_MS * 1_000;
            let base_us = epoch_us
                + (g % EPOCH_GROUPS) as u64 * GROUP_SPACING_MS * 1_000
                + self.rng.below(50_000) as u64;
            // Even groups co-arrive at one instant; odd groups arrive
            // jittered inside the batch window.
            let window = if g % 2 == 0 { 1 } else { BATCH_WINDOW_US as usize };
            let mut offsets: Vec<u64> =
                (0..GROUP_SIZE).map(|_| self.rng.below(window) as u64).collect();
            offsets.sort_unstable();
            let target = SimTime::from_ms(GROUP_TARGET_MS);
            let slo_member = self.rng.below(GROUP_SIZE);
            for (m, off) in offsets.into_iter().enumerate() {
                let slo = (m == slo_member)
                    .then(|| SimTime::from_ms(GROUP_SLOS_MS[self.rng.below(GROUP_SLOS_MS.len())]));
                clients.push(self.client(
                    (target, 16 << 10, slo),
                    SimTime::from_us(base_us + off),
                    SimTime::from_ms(THINK_TIME_MS),
                    GROUP_ENGAGEMENTS,
                    2,
                ));
            }
        }
        clients
    }
}

/// FNV-1a of the workload name, so two workloads never share a stream.
fn fnv(s: &str) -> u64 {
    fnv_bytes(s.as_bytes())
}

fn fnv_bytes(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// splitmix64: small, seedable, and stable across platforms.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `(0, 1]`.
    fn unit(&mut self) -> f64 {
        ((self.next() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split() -> Vec<Example> {
        (0..16u32)
            .map(|i| Example { tokens: vec![i, i + 1, i * 3], label: (i % 2) as usize })
            .collect()
    }

    #[test]
    fn same_seed_gives_a_byte_identical_workload() {
        let examples = split();
        for name in NAMES {
            let a = generate(name, 7, &examples).unwrap().to_bytes();
            let b = generate(name, 7, &examples).unwrap().to_bytes();
            assert_eq!(a, b, "{name}");
        }
    }

    #[test]
    fn different_seeds_give_different_workloads() {
        let examples = split();
        for name in NAMES {
            let a = generate(name, 7, &examples).unwrap().to_bytes();
            let b = generate(name, 8, &examples).unwrap().to_bytes();
            assert_ne!(a, b, "{name}");
        }
    }

    #[test]
    fn labels_follow_the_drawn_examples() {
        let examples = split();
        for name in NAMES {
            let w = generate(name, 3, &examples).unwrap();
            assert_eq!(w.labels.len(), w.trace.clients.len());
            for (client, labels) in w.trace.clients.iter().zip(&w.labels) {
                assert_eq!(client.engagements.len(), labels.len());
                for (tokens, &label) in client.engagements.iter().zip(labels) {
                    let ex = examples.iter().find(|e| &e.tokens == tokens).unwrap();
                    assert_eq!(ex.label, label);
                }
            }
        }
        assert!(generate("nope", 1, &examples).is_none());
    }
}
