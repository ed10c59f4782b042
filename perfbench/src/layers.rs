//! Per-layer metrics of a traced repetition, the trace analysis that backs
//! them, the artifacts written per workload, and the isolated replay of a
//! sample of the workload's records through the public `kdstorage` and
//! `kdwire` APIs.
//!
//! Counters and histograms come from the repetition's private
//! `kdtelem::Registry`, probed just before and just after the measured
//! phase; gauges report their peak over the whole repetition.

use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use kafkadirect::{Broker, SimCluster};
use kdstorage::record::BatchBuilder;
use kdstorage::{FileStore, Log, LogConfig, StorageConfig};
use kdtelem::critpath::{self, CritPathReport, STAGES};
use kdtelem::{HistSnapshot, TelemetryReport, TraceEvent};
use kdwire::{ErrorCode, FetchResp, Request, Response};

use crate::drive::ClientStats;
use crate::stats::{median, Metric};
use crate::workload::{Inputs, Workload};

type Key = (&'static str, &'static str);

/// Registry and NIC state at one instant.
pub struct Probe {
    report: TelemetryReport,
    hists: Vec<(Key, HistSnapshot)>,
    /// `netsim` / `link.busy_ns` of every link cell, in registration order.
    link_busy: Vec<u64>,
    reads_served: u64,
    atomics_served: u64,
}

impl Probe {
    pub fn take(registry: &kdtelem::Registry, cluster: &SimCluster) -> Probe {
        let mut link_busy = Vec::new();
        registry.fold_counters(|k, v| {
            if k == ("netsim", "link.busy_ns") {
                link_busy.push(v);
            }
        });
        let (mut reads_served, mut atomics_served) = (0, 0);
        for b in cluster.brokers() {
            let s = b.nic_stats();
            reads_served += s.reads_served;
            atomics_served += s.atomics_served;
        }
        Probe {
            report: registry.snapshot(),
            hists: registry.merged_histograms(),
            link_busy,
            reads_served,
            atomics_served,
        }
    }

    fn counter(&self, component: &str, name: &str) -> u64 {
        self.report.counter(component, name).unwrap_or(0)
    }

    fn hist(&self, component: &str, name: &str) -> HistSnapshot {
        self.hists
            .iter()
            .find(|(k, _)| k.0 == component && k.1 == name)
            .map_or_else(HistSnapshot::empty, |(_, h)| h.clone())
    }
}

/// Raw material of the per-layer metrics, collected by a traced repetition.
pub struct LayerRaw {
    pub before: Probe,
    pub after: Probe,
    pub brokers: Vec<Broker>,
    /// `(slot_reads, data_reads, access_requests)` per tailing consumer.
    pub consumers: Vec<(u64, u64, u64)>,
    pub client: ClientStats,
    pub polls: u64,
    pub virtual_ns: u64,
    pub cpu_ns: u64,
    pub wall_ns: u64,
    pub records: u64,
    pub events: Vec<TraceEvent>,
    pub dropped: u64,
}

impl LayerRaw {
    fn delta(&self, component: &str, name: &str) -> f64 {
        self.after
            .counter(component, name)
            .saturating_sub(self.before.counter(component, name)) as f64
    }

    fn p99(&self, component: &str, name: &str) -> f64 {
        let after = self.after.hist(component, name);
        after.delta_quantile(&self.before.hist(component, name), 0.99) as f64
    }

    fn hist_mean(&self, component: &str, name: &str) -> f64 {
        let after = self.after.hist(component, name);
        let before = self.before.hist(component, name);
        let n = after.count().saturating_sub(before.count());
        after.sum().saturating_sub(before.sum()) as f64 / n.max(1) as f64
    }

    fn peak(&self, component: &str, name: &str) -> f64 {
        self.after
            .report
            .gauge(component, name)
            .map_or(0.0, |g| g.peak as f64)
    }
}

/// The result of checking and analysing a traced repetition's events.
pub struct TraceAnalysis {
    pub critpath: CritPathReport,
    pub violations: Vec<String>,
}

/// Runs `kdtelem::check` and `critpath::analyze` over the drained events.
pub fn analyze(events: &[TraceEvent]) -> TraceAnalysis {
    TraceAnalysis {
        critpath: critpath::analyze(events),
        violations: check_chunked(events, CHECK_CHUNK_EVENTS),
    }
}

/// Target events per `check` call in [`check_chunked`].
const CHECK_CHUNK_EVENTS: usize = 1024;

/// Trace id given to the commit events copied into a chunk.
const BORROWED: u64 = u64::MAX;

/// How `kdtelem::check` words a completion-order violation.
const COMPLETION_ORDER: &str = "completion order violated";

/// `kdtelem::check` over a large event log, in pieces that give exactly
/// the verdict of one call over the whole log. One call costs time
/// quadratic in its input, which a full repetition's log makes
/// impractical. Every invariant but two is a property of one lifeline,
/// so whole lifelines go to each piece together:
///
/// * fetch-after-commit matches a fetch against commits of other
///   lifelines — each piece also gets a copy (under a reserved trace id
///   that no lifeline uses) of every commit whose offset range overlaps a
///   range it fetches, which are the only commits the rule can use;
/// * completion order per QP spans lifelines — it is checked once over
///   every completion event of the log.
pub fn check_chunked(events: &[TraceEvent], chunk_events: usize) -> Vec<String> {
    use kdtelem::EventKind;
    use std::collections::HashMap;

    // Lifelines in order of first appearance.
    let mut order: Vec<u64> = Vec::new();
    let mut lifelines: HashMap<u64, Vec<TraceEvent>> = HashMap::new();
    for e in events {
        lifelines
            .entry(e.trace_id)
            .or_insert_with(|| {
                order.push(e.trace_id);
                Vec::new()
            })
            .push(*e);
    }
    // Commits per stream, sorted by base offset, plus each stream's
    // longest commit range (bounds the backward search below).
    let mut commits: HashMap<u64, (Vec<TraceEvent>, u64)> = HashMap::new();
    for e in events {
        if let EventKind::Commit {
            stream,
            base_offset,
            next_offset,
        } = e.kind
        {
            let (v, longest) = commits.entry(stream).or_default();
            v.push(TraceEvent {
                trace_id: BORROWED,
                ..*e
            });
            *longest = (*longest).max(next_offset.saturating_sub(base_offset));
        }
    }
    let base = |e: &TraceEvent| match e.kind {
        EventKind::Commit { base_offset, .. } => base_offset,
        _ => 0,
    };
    for (v, _) in commits.values_mut() {
        v.sort_by_key(|e| (base(e), e.ts_ns));
    }

    let mut violations = Vec::new();
    let mut piece: Vec<TraceEvent> = Vec::new();
    let mut borrowed: Vec<TraceEvent> = Vec::new();
    let mut flush = |piece: &mut Vec<TraceEvent>, borrowed: &mut Vec<TraceEvent>| {
        if piece.is_empty() {
            return;
        }
        piece.append(borrowed);
        // Completion order is judged once, over the whole log, below.
        violations.extend(
            kdtelem::check::check(piece)
                .violations
                .into_iter()
                .filter(|v| !v.starts_with(COMPLETION_ORDER)),
        );
        piece.clear();
    };
    for id in order {
        let life = &lifelines[&id];
        for e in life {
            if let EventKind::FetchServed {
                stream,
                start_offset,
                next_offset,
                ..
            } = e.kind
            {
                let Some((v, longest)) = commits.get(&stream) else {
                    continue;
                };
                // First commit with base >= start, then back over the ones
                // that may still reach into the fetched range.
                let mut i = v.partition_point(|c| base(c) < start_offset);
                while i > 0 && base(&v[i - 1]) + longest > start_offset {
                    i -= 1;
                }
                for c in &v[i..] {
                    if base(c) >= next_offset {
                        break;
                    }
                    if let EventKind::Commit { next_offset: n, .. } = c.kind {
                        if n > start_offset {
                            borrowed.push(*c);
                        }
                    }
                }
            }
        }
        piece.extend_from_slice(life);
        if piece.len() >= chunk_events {
            flush(&mut piece, &mut borrowed);
        }
    }
    flush(&mut piece, &mut borrowed);
    let completions: Vec<TraceEvent> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Completion { .. }))
        .copied()
        .collect();
    violations.extend(kdtelem::check::check(&completions).violations);
    violations
}

/// Isolated replay timings, nanoseconds per record.
pub struct Replay {
    pub append_ns: f64,
    pub read_ns: f64,
    pub codec_ns: f64,
}

/// Records replayed through the isolated `kdstorage` / `kdwire` path.
const REPLAY_SAMPLE: usize = 2048;
const REPLAY_ROUNDS: usize = 5;

/// Replays a sample of the workload's generated records, each encoded as
/// the single-record batch a producer sends, through the public
/// `kdstorage::Log` API (append, then read back by offset — over a file
/// store for tiered workloads) and through the `kdwire` encode/decode of
/// the produce request and the fetch response that would carry it. Each
/// timing is the median of a few rounds.
pub fn replay(w: &Workload, inputs: &Inputs, work_dir: &Path) -> Replay {
    let measured: Vec<&kafkadirect::Record> =
        inputs.records.iter().flat_map(|r| &r[w.warmup..]).collect();
    let sample: Vec<Vec<u8>> = measured
        .iter()
        .cycle()
        .take(REPLAY_SAMPLE)
        .map(|r| {
            let mut b = BatchBuilder::new(1);
            b.append(r);
            b.build().expect("replay batch")
        })
        .collect();
    let n = sample.len() as f64;
    let config = LogConfig::default().with_segment_size(w.segment_size);
    let (mut append, mut read, mut codec) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..REPLAY_ROUNDS {
        let dir = work_dir.join(format!("replay-{}-{round}", std::process::id()));
        let log = if w.tiered {
            let _ = std::fs::remove_dir_all(&dir);
            let cfg = StorageConfig::tiered(&dir);
            let store = FileStore::create(&dir, &cfg).expect("replay file store");
            Log::with_store(config.clone(), Rc::new(store))
        } else {
            Log::new(config.clone())
        };
        let t = Instant::now();
        for b in &sample {
            log.append_batch(b).expect("replay append");
        }
        append.push(t.elapsed().as_nanos() as f64 / n);

        let mut buf = Vec::new();
        let t = Instant::now();
        for offset in 0..sample.len() as u64 {
            log.read_from_into(offset, w.fetch_size.max(16 * 1024 + 256), false, &mut buf);
            assert!(!buf.is_empty(), "replay read at offset {offset}");
        }
        read.push(t.elapsed().as_nanos() as f64 / n);
        drop(log);
        let _ = std::fs::remove_dir_all(&dir);

        let t = Instant::now();
        for (i, b) in sample.iter().enumerate() {
            let req = Request::Produce {
                topic: crate::rep::TOPIC.to_string(),
                partition: (i % w.partitions as usize) as u32,
                acks: 1,
                batch: b.clone(),
            };
            let decoded = Request::decode(&req.encode()).expect("replay request decode");
            assert!(matches!(decoded, Request::Produce { .. }));
            let resp = Response::Fetch(FetchResp {
                error: ErrorCode::None,
                high_watermark: i as u64 + 1,
                log_end: i as u64 + 1,
                start_offset: i as u64,
                next_offset: i as u64 + 1,
                bytes: b.clone(),
            });
            let decoded = Response::decode(&resp.encode()).expect("replay response decode");
            assert!(matches!(decoded, Response::Fetch(_)));
        }
        codec.push(t.elapsed().as_nanos() as f64 / n);
    }
    Replay {
        append_ns: median(&append),
        read_ns: median(&read),
        codec_ns: median(&codec),
    }
}

/// Every per-layer metric of a traced repetition.
pub fn metrics(
    w: &Workload,
    raw: &LayerRaw,
    trace: &TraceAnalysis,
    replay: &Replay,
    (untraced_rate, traced_rate): (f64, f64),
    error_rate: f64,
    fingerprint: u64,
) -> Vec<Metric> {
    let records = raw.records.max(1) as f64;
    let virtual_ns = raw.virtual_ns.max(1) as f64;
    let c = &raw.client;
    let chains = c.chains.max(1) as f64;
    let mut m = vec![
        Metric::new("sim.records_per_cpu_s", untraced_rate, "1/s"),
        Metric::new("sim.polls", raw.polls as f64, "count"),
        Metric::new("sim.virtual_s", raw.virtual_ns as f64 / 1e9, "s"),
        Metric::new(
            "sim.wall_to_cpu",
            raw.wall_ns as f64 / raw.cpu_ns.max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "kdclient.produce_self_ns",
            c.produce_self_ns as f64 / records,
            "ns",
        ),
        Metric::new(
            "kdclient.post_wait_us",
            c.post_wait_ns as f64 / chains / 1e3,
            "us",
        ),
        Metric::new("kdclient.window_fill", c.window_fill_sum / chains, "ratio"),
        Metric::new(
            "kdclient.chain_len",
            c.chain_records as f64 / chains,
            "count",
        ),
        Metric::new(
            "kdclient.fetch_self_ns",
            c.fetch_self_ns as f64 / c.fetch_records.max(1) as f64,
            "ns",
        ),
        Metric::new(
            "kdclient.fetch_empty_ratio",
            c.fetch_empty as f64 / c.fetch_polls.max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "kdclient.consumer.slot_reads",
            raw.consumers.iter().map(|s| s.0).sum::<u64>() as f64,
            "count",
        ),
        Metric::new(
            "kdclient.consumer.data_reads",
            raw.consumers.iter().map(|s| s.1).sum::<u64>() as f64,
            "count",
        ),
        Metric::new(
            "kdclient.consumer.access_requests",
            raw.consumers.iter().map(|s| s.2).sum::<u64>() as f64,
            "count",
        ),
        Metric::new("gen.late_us_max", c.late_max_ns as f64 / 1e3, "us"),
        Metric::new("gen.backlog_max", c.backlog_max as f64, "count"),
    ];

    // rnic: broker NICs for the context / receive-memory peaks.
    let nics = raw.brokers.iter().map(|b| b.inner().nic.clone());
    let (mut ctx_peak, mut recv_peak, mut miss) = (0u64, 0u64, 0f64);
    for nic in nics {
        ctx_peak = ctx_peak.max(nic.qp_contexts_peak());
        recv_peak = recv_peak.max(nic.recv_buffer_bytes_peak());
        miss = miss.max(nic.cache_miss_rate());
    }
    m.extend([
        Metric::new("rnic.qp.posts", raw.delta("rnic", "qp.posts"), "count"),
        Metric::new("rnic.cq.cqes", raw.delta("rnic", "cq.cqes"), "count"),
        Metric::new(
            "rnic.cq.overflows",
            raw.delta("rnic", "cq.overflows"),
            "count",
        ),
        Metric::new(
            "rnic.qp.post_to_comp_p99_ns",
            raw.p99("rnic", "qp.post_to_comp_ns"),
            "ns",
        ),
        Metric::new(
            "rnic.srq.rnr_dry",
            raw.delta("rnic", "srq.rnr_dry"),
            "count",
        ),
        Metric::new(
            "rnic.srq.depth_peak",
            raw.peak("rnic", "srq.depth"),
            "count",
        ),
        Metric::new(
            "rnic.qpmux.active_peak",
            raw.peak("rnic", "qpmux.active"),
            "count",
        ),
        Metric::new("rnic.qp_contexts_peak", ctx_peak as f64, "count"),
        Metric::new("rnic.recv_buffer_bytes_peak", recv_peak as f64, "bytes"),
        Metric::new("rnic.cache_miss_rate", miss, "ratio"),
        Metric::new(
            "rnic.reads_served",
            raw.after
                .reads_served
                .saturating_sub(raw.before.reads_served) as f64,
            "count",
        ),
        Metric::new(
            "rnic.atomics_served",
            raw.after
                .atomics_served
                .saturating_sub(raw.before.atomics_served) as f64,
            "count",
        ),
    ]);

    // netsim: the busiest link's busy share of the measured phase.
    let busiest = raw
        .after
        .link_busy
        .iter()
        .enumerate()
        .map(|(i, a)| a.saturating_sub(raw.before.link_busy.get(i).copied().unwrap_or(0)))
        .max()
        .unwrap_or(0);
    m.extend([
        Metric::new(
            "netsim.link.bytes",
            raw.delta("netsim", "link.bytes"),
            "bytes",
        ),
        Metric::new("netsim.link.util", busiest as f64 / virtual_ns, "ratio"),
        Metric::new(
            "netsim.link.queue_delay_p99_ns",
            raw.p99("netsim", "link.queue_delay_ns"),
            "ns",
        ),
        Metric::new(
            "netsim.link.backlog_peak_ns",
            raw.peak("netsim", "link.backlog_ns"),
            "ns",
        ),
        Metric::new(
            "netsim.link.drops",
            raw.delta("netsim", "link.drops"),
            "count",
        ),
        Metric::new(
            "netsim.atomic.ops",
            raw.delta("netsim", "atomic.ops"),
            "count",
        ),
        Metric::new(
            "netsim.atomic.stall_p99_ns",
            raw.p99("netsim", "atomic.stall_ns"),
            "ns",
        ),
    ]);

    // kdbroker: utilisations over every broker's threads.
    let cfg = w.system.broker_config();
    let brokers = raw.brokers.len().max(1) as f64;
    let fetches = raw.delta("kdbroker", "fetch.requests");
    m.extend([
        Metric::new(
            "kdbroker.rdma.commits",
            raw.delta("kdbroker", "rdma.commits"),
            "count",
        ),
        Metric::new(
            "kdbroker.cq.batch_mean",
            raw.hist_mean("kdbroker", "cq.batch"),
            "count",
        ),
        Metric::new(
            "kdbroker.rdma.commit_p99_ns",
            raw.p99("kdbroker", "rdma.commit_ns"),
            "ns",
        ),
        Metric::new(
            "kdbroker.api.produce_p99_ns",
            raw.p99("kdbroker", "api.produce_ns"),
            "ns",
        ),
        Metric::new(
            "kdbroker.api.fetch_p99_ns",
            raw.p99("kdbroker", "api.fetch_ns"),
            "ns",
        ),
        Metric::new(
            "kdbroker.cpu.worker_util",
            raw.delta("kdbroker", "cpu.worker_busy_ns")
                / (virtual_ns * cfg.api_workers as f64 * brokers),
            "ratio",
        ),
        Metric::new(
            "kdbroker.cpu.net_util",
            raw.delta("kdbroker", "cpu.net_busy_ns")
                / (virtual_ns * cfg.net_threads as f64 * brokers),
            "ratio",
        ),
        Metric::new(
            "kdbroker.copy.heap_bytes_per_record",
            raw.delta("kdbroker", "copy.heap_bytes") / records,
            "bytes",
        ),
        Metric::new(
            "kdbroker.repl.replicate_p99_ns",
            raw.p99("kdbroker", "repl.replicate_ns"),
            "ns",
        ),
        Metric::new(
            "kdbroker.repl.lag_peak",
            raw.peak("kdbroker", "repl.lag"),
            "count",
        ),
        Metric::new(
            "kdbroker.fetch.empty_ratio",
            raw.delta("kdbroker", "fetch.empty") / fetches.max(1.0),
            "ratio",
        ),
        Metric::new(
            "kdbroker.produce.aborts",
            raw.delta("kdbroker", "produce.aborts"),
            "count",
        ),
    ]);

    // kdstorage: the brokers' storage counters, plus the isolated replay.
    let hits = raw.delta("kdbroker", "storage.hot_hits");
    let misses = raw.delta("kdbroker", "storage.hot_misses");
    m.extend([
        Metric::new(
            "kdstorage.bytes_flushed",
            raw.delta("kdbroker", "storage.bytes_flushed"),
            "bytes",
        ),
        Metric::new(
            "kdstorage.segments_rotated",
            raw.delta("kdbroker", "storage.segments_rotated"),
            "count",
        ),
        Metric::new(
            "kdstorage.hot_hit_ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                1.0
            },
            "ratio",
        ),
        Metric::new(
            "kdstorage.cold_read_bytes",
            raw.delta("kdbroker", "storage.cold_read_bytes"),
            "bytes",
        ),
        Metric::new(
            "kdstorage.fsync_p99_ns",
            raw.p99("kdbroker", "storage.fsync_ns"),
            "ns",
        ),
        Metric::new("kdstorage.append_ns_per_record", replay.append_ns, "ns"),
        Metric::new("kdstorage.read_ns_per_record", replay.read_ns, "ns"),
        Metric::new("kdwire.codec_ns_per_record", replay.codec_ns, "ns"),
    ]);

    // kdtelem critical path: mean µs per committing lifeline, per stage.
    let cp = &trace.critpath;
    let lifelines = cp.lifelines.len().max(1) as f64;
    for s in STAGES {
        m.push(Metric::new(
            format!("critpath.{}_us", s.name()),
            cp.stage_total(s) as f64 / lifelines / 1e3,
            "us",
        ));
    }
    let dominant = cp
        .dominant()
        .and_then(|(s, _)| STAGES.iter().position(|&x| x == s))
        .map_or(-1.0, |i| i as f64);
    m.extend([
        Metric::new("critpath.dominant", dominant, "index"),
        Metric::new("critpath.lifelines", cp.lifelines.len() as f64, "count"),
        Metric::new("trace.events", raw.events.len() as f64, "count"),
        Metric::new("trace.dropped", raw.dropped as f64, "count"),
        Metric::new(
            "trace.check_violations",
            trace.violations.len() as f64,
            "count",
        ),
        Metric::new("trace.overhead", traced_rate / untraced_rate, "ratio"),
        Metric::new("error_rate", error_rate, "ratio"),
        // 52 bits, so the JSON number is exact.
        Metric::new("config.fingerprint", (fingerprint >> 12) as f64, "hash"),
    ]);
    m
}

/// Lifelines written to the Chrome trace artifact.
const CHROME_LIFELINES: usize = 2048;

/// Writes the traced-run artifacts of one workload into `dir`: the Chrome
/// trace (first lifelines), the critical-path table and folded stacks, the
/// check report, and the per-layer metrics file.
pub fn write_artifacts(
    dir: &Path,
    w: &Workload,
    raw: &LayerRaw,
    trace: &TraceAnalysis,
    layer_metrics: &[Metric],
    fingerprint: u64,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    // The Chrome trace keeps the first lifelines only: a full repetition's
    // log would make a file too large for a trace viewer.
    let mut kept = std::collections::HashSet::new();
    let sample: Vec<TraceEvent> = raw
        .events
        .iter()
        .filter(|e| {
            kept.contains(&e.trace_id) || (kept.len() < CHROME_LIFELINES && kept.insert(e.trace_id))
        })
        .copied()
        .collect();
    std::fs::write(
        dir.join("trace.json"),
        kdtelem::chrome::to_chrome_json(&sample),
    )?;
    std::fs::write(dir.join("critpath.txt"), trace.critpath.to_table())?;
    std::fs::write(dir.join("critpath.folded"), trace.critpath.folded(w.name))?;
    let mut check = format!(
        "{} events, {} dropped, {} violations\n",
        raw.events.len(),
        raw.dropped,
        trace.violations.len()
    );
    for v in &trace.violations {
        check.push_str(v);
        check.push('\n');
    }
    std::fs::write(dir.join("check.txt"), check)?;
    std::fs::write(
        dir.join("layers.json"),
        format!(
            "{{\"workload\": \"{}\", \"fingerprint\": \"{fingerprint:016x}\", \"metrics\": {}}}\n",
            w.name,
            crate::stats::metrics_json(layer_metrics)
        ),
    )
}
