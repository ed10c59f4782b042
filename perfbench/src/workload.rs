//! The three workloads, their seeded inputs, and the configuration
//! fingerprint recorded with every result.
//!
//! Everything a workload feeds the system is derived from the run's seed:
//! record sizes, payload bytes, and (open loop) the due time of every
//! record. The system under test only ever sees those generated inputs.

use std::rc::Rc;

use kafkadirect::{ConnMode, Record, SystemKind};
use sim::rng::SimRng;

/// Record-size distribution (payload bytes, inclusive bounds).
#[derive(Debug, Clone, Copy)]
pub enum Sizes {
    Uniform {
        min: usize,
        max: usize,
    },
    /// 90% uniform in `[min, 1 KiB]`, 10% log-uniform in `[1 KiB, max]`.
    HeavyTail {
        min: usize,
        max: usize,
    },
}

/// Open-loop arrival process: seeded exponential gaps per producer plus
/// the §5.4 periodic bursts, over a fixed span of virtual time.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    /// Mean offered load over all producers, records per virtual second,
    /// bursts included. A constant of the workload definition: it is never
    /// recomputed from a measured capacity.
    pub rate_per_s: f64,
    /// Virtual time over which records come due.
    pub duration_us: u64,
    /// Virtual time between bursts.
    pub burst_period_us: u64,
    /// Records each participating producer emits at a burst instant.
    pub burst_len: usize,
    /// Producers take turns: producer `p` joins burst `k` when
    /// `(p + k) % burst_groups == 0`.
    pub burst_groups: usize,
}

/// A workload definition. Every field is part of the config fingerprint.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub system: SystemKind,
    pub brokers: usize,
    pub partitions: u32,
    pub replication: u32,
    pub conn_mode: ConnMode,
    /// Producer `i` writes partition `i % partitions`.
    pub producers: usize,
    /// Shared-mode (FAA) RDMA producers instead of exclusive ones.
    pub shared: bool,
    /// Produce requests in flight per producer.
    pub window: usize,
    /// Ack receive buffers per RDMA producer.
    pub ack_depth: usize,
    /// Records per producer sent during set-up (closed loop).
    pub warmup: usize,
    /// Closed loop: records per producer sent in the measured phase (an
    /// open loop sends whatever its schedule makes due).
    pub records: usize,
    pub sizes: Sizes,
    /// `None` = closed loop with a full window.
    pub open_loop: Option<OpenLoop>,
    /// RDMA consumer read size (ignored by TCP consumers).
    pub fetch_size: u32,
    pub segment_size: u32,
    /// Tiered file store (`EveryMs(5)` sync, physical fsync off) instead
    /// of the in-memory store.
    pub tiered: bool,
    /// The catch-up consumer reads from offset 0 while producers write;
    /// otherwise it runs after the measured phase.
    pub concurrent_catchup: bool,
}

pub const NAMES: [&str; 3] = ["produce_small", "iot_fanin", "kafka_tcp_catchup"];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        Some(match name {
            "produce_small" => Workload {
                name: "produce_small",
                system: SystemKind::KafkaDirect,
                brokers: 1,
                partitions: 4,
                replication: 1,
                conn_mode: ConnMode::PerQp,
                producers: 4,
                shared: false,
                window: 32,
                ack_depth: 512,
                warmup: 2048,
                records: 16_000,
                sizes: Sizes::Uniform { min: 32, max: 1024 },
                open_loop: None,
                fetch_size: 2048,
                segment_size: 32 * 1024 * 1024,
                tiered: false,
                concurrent_catchup: false,
            },
            "iot_fanin" => Workload {
                name: "iot_fanin",
                system: SystemKind::KafkaDirect,
                brokers: 3,
                partitions: 8,
                replication: 3,
                conn_mode: ConnMode::SrqMux,
                producers: 1536,
                shared: true,
                window: 4,
                ack_depth: 8,
                warmup: 1,
                records: 0,
                sizes: Sizes::HeavyTail {
                    min: 128,
                    max: 16 * 1024,
                },
                open_loop: Some(OpenLoop {
                    // Half of this workload's capacity on the seed commit (816 MiB/s,
                    // about 800k records/s, with every record due at once).
                    rate_per_s: 400_000.0,
                    duration_us: 40_000,
                    burst_period_us: 5_000,
                    burst_len: 2,
                    burst_groups: 16,
                }),
                fetch_size: 32 * 1024,
                segment_size: 32 * 1024 * 1024,
                tiered: false,
                concurrent_catchup: false,
            },
            "kafka_tcp_catchup" => Workload {
                name: "kafka_tcp_catchup",
                system: SystemKind::Kafka,
                brokers: 2,
                partitions: 4,
                replication: 2,
                conn_mode: ConnMode::PerQp,
                producers: 4,
                shared: false,
                window: 16,
                ack_depth: 512,
                warmup: 512,
                records: 1500,
                sizes: Sizes::Uniform {
                    min: 512,
                    max: 4096,
                },
                open_loop: None,
                fetch_size: 2048,
                segment_size: 512 * 1024,
                tiered: true,
                concurrent_catchup: true,
            },
            _ => return None,
        })
    }

    /// A reduced copy for tests: fewer producers and records, same shape
    /// (an open loop keeps its per-producer rate).
    pub fn scaled_down(mut self, divisor: usize) -> Workload {
        let d = divisor.max(1);
        let producers = (self.producers / d).max(self.partitions as usize);
        if let Some(ol) = &mut self.open_loop {
            ol.rate_per_s *= producers as f64 / self.producers as f64;
            ol.duration_us /= d as u64;
        }
        self.producers = producers;
        self.records /= d;
        self.warmup = (self.warmup / d).max(1);
        self
    }

    pub fn rdma(&self) -> bool {
        self.system.rdma_produce()
    }

    pub fn partition_of(&self, producer: usize) -> u32 {
        (producer % self.partitions as usize) as u32
    }
}

/// Everything the seed determines.
pub struct Inputs {
    /// Per producer: `warmup` set-up records, then its measured ones.
    /// Shared, not copied, by every repetition's generator and consumer
    /// tasks.
    pub records: Rc<Vec<Rc<Vec<Record>>>>,
    /// Open loop only: per producer, the due time of each measured record
    /// in virtual nanoseconds after the measured phase starts.
    pub due_ns: Vec<Vec<u64>>,
    /// FNV-1a over every generated byte and due time.
    pub digest: u64,
}

/// Bytes of the payload header: producer index and sequence number, so a
/// consumer can tell which seeded record it is looking at.
const HEADER: usize = 8;

/// Reads the `(producer, seq)` header of a benchmark payload.
pub fn payload_id(value: &[u8]) -> Option<(usize, usize)> {
    if value.len() < HEADER {
        return None;
    }
    let p = u32::from_le_bytes(value[0..4].try_into().ok()?) as usize;
    let s = u32::from_le_bytes(value[4..8].try_into().ok()?) as usize;
    Some((p, s))
}

fn draw_size(rng: &mut SimRng, sizes: Sizes) -> usize {
    match sizes {
        Sizes::Uniform { min, max } => min + rng.below((max - min + 1) as u64) as usize,
        Sizes::HeavyTail { min, max } => {
            if rng.below(10) != 0 {
                min + rng.below((1024 - min + 1) as u64) as usize
            } else {
                let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                let lo = 1024f64.ln();
                let hi = (max as f64).ln();
                ((lo + u * (hi - lo)).exp() as usize).clamp(1024, max)
            }
        }
    }
}

fn exp_gap_ns(rng: &mut SimRng, mean_ns: f64) -> u64 {
    let u = ((rng.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
    (-u.ln() * mean_ns) as u64
}

/// FNV-1a, folded over byte slices.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

pub const FNV_INIT: u64 = 0xcbf2_9ce4_8422_2325;

impl Inputs {
    pub fn generate(w: &Workload, seed: u64) -> Inputs {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x5eed_da7a_0b5e_55ed);
        let mut digest = FNV_INIT;
        let due_ns: Vec<Vec<u64>> = match w.open_loop {
            Some(ol) => (0..w.producers)
                .map(|p| {
                    let due = schedule(&mut rng, &ol, w.producers, p);
                    for d in &due {
                        digest = fnv(digest, &d.to_le_bytes());
                    }
                    due
                })
                .collect(),
            None => Vec::new(),
        };
        let mut records = Vec::with_capacity(w.producers);
        for p in 0..w.producers {
            let per = w.warmup + due_ns.get(p).map_or(w.records, Vec::len);
            let mut mine = Vec::with_capacity(per);
            for s in 0..per {
                let len = draw_size(&mut rng, w.sizes).max(HEADER);
                let mut value = vec![0u8; len];
                value[0..4].copy_from_slice(&(p as u32).to_le_bytes());
                value[4..8].copy_from_slice(&(s as u32).to_le_bytes());
                rng.fill(&mut value[HEADER..]);
                digest = fnv(digest, &value);
                mine.push(Record::value(value));
            }
            records.push(Rc::new(mine));
        }
        Inputs {
            records: Rc::new(records),
            due_ns,
            digest,
        }
    }
}

/// Due times of producer `p`: a Poisson process plus the bursts it takes
/// part in, sorted, all within the open loop's duration.
fn schedule(rng: &mut SimRng, ol: &OpenLoop, producers: usize, p: usize) -> Vec<u64> {
    // Burst records per producer per second, averaged over turns.
    let burst_rate =
        ol.burst_len as f64 * 1e6 / (ol.burst_period_us as f64 * ol.burst_groups as f64);
    let base_rate = (ol.rate_per_s / producers as f64 - burst_rate).max(1.0);
    let mean_gap = 1e9 / base_rate;
    let end = ol.duration_us * 1_000;
    let mut due = Vec::new();
    let mut t = exp_gap_ns(rng, mean_gap);
    while t < end {
        due.push(t);
        t += exp_gap_ns(rng, mean_gap);
    }
    let period = ol.burst_period_us * 1_000;
    let mut k = 1u64;
    while k * period < end {
        if (p as u64 + k).is_multiple_of(ol.burst_groups as u64) {
            due.extend(std::iter::repeat_n(k * period, ol.burst_len));
        }
        k += 1;
    }
    due.sort_unstable();
    due
}

/// Hash of everything that shapes a virtual-time result: the network and
/// CPU profile, the broker configuration as booted (storage directory
/// excluded), the workload definition, and the host's hardware threads.
/// A virtual-time metric that moves together with this hash is a change to
/// the model, not a gain.
pub fn fingerprint(cluster: &kafkadirect::SimCluster, w: &Workload) -> u64 {
    let inner = cluster.broker(0).inner().clone();
    let mut config = inner.config.clone();
    config.storage.dir = None;
    let text = format!(
        "{:?}|{:?}|{:?}|hw_threads={}",
        inner.profile,
        config,
        w,
        crate::host::hw_threads()
    );
    fnv(FNV_INIT, text.as_bytes())
}
