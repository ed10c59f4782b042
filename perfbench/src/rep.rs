//! One repetition of a workload: boot and warm up (timed as set-up), run
//! the measured phase, run the catch-up consumer, check every record, and
//! tear down. Every repetition builds a fresh `sim::Runtime::with_seed`,
//! so two repetitions with one seed replay bit-identically in virtual time.

use std::cell::{Cell, RefCell};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::{Duration, Instant};

use kafkadirect::{ClusterOptions, Record, SimCluster};
use kdclient::{RdmaConsumer, RdmaProducer, TcpConsumer, TcpProducer};
use kdstorage::{RetentionConfig, StorageConfig, SyncMode};
use kdtelem::TraceEvent;
use kdwire::BrokerAddr;

use crate::drive::{self, CatchUp, Consumer, Producer, Role, Schedule, Shared, St};
use crate::host;
use crate::layers::{LayerRaw, Probe};
use crate::stats::percentile;
use crate::workload::{fingerprint, Inputs, Workload};

pub const TOPIC: &str = "bench";

/// Read size of the RDMA catch-up consumer (one Fig 20-style bulk read).
const CATCHUP_FETCH: u32 = 64 * 1024;

/// Trace-ring drain period of a traced repetition: short enough that the
/// ring (`kdtelem::EVENT_RING_CAPACITY` events) never fills in between.
const DRAIN_EVERY: Duration = Duration::from_micros(50);

/// Virtual-time results. For one seed they are identical on every run;
/// a repetition that disagrees with the first is a determinism failure.
#[derive(Debug, Clone, PartialEq)]
pub struct Modeled {
    pub goodput_mib_s: f64,
    pub ack_p50_us: f64,
    pub ack_p99_us: f64,
    pub deliver_p50_us: f64,
    pub deliver_p99_us: f64,
    pub catchup_mib_s: f64,
    /// Executor polls of the measured phase.
    pub polls: u64,
    /// Virtual duration of the measured phase.
    pub virtual_ns: u64,
    /// Records acked in the measured phase.
    pub records: u64,
    /// Digest of every record the tailing consumers delivered.
    pub consumed_digest: u64,
}

impl Modeled {
    pub fn polls_per_record(&self) -> f64 {
        self.polls as f64 / self.records.max(1) as f64
    }
}

/// Everything one repetition measured.
pub struct RepOut {
    pub modeled: Modeled,
    pub setup_s: f64,
    /// Process CPU time and wall time of the measured phase.
    pub cpu_ns: u64,
    pub wall_ns: u64,
    /// Allocations of the measured phase.
    pub allocs: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub fingerprint: u64,
    /// Traced repetitions only.
    pub layers: Option<LayerRaw>,
}

impl RepOut {
    /// Acked records per second of process CPU time.
    pub fn records_per_cpu_s(&self) -> f64 {
        self.modeled.records as f64 * 1e9 / self.cpu_ns.max(1) as f64
    }
}

/// The running system between phases.
struct Env {
    cluster: SimCluster,
    leaders: Vec<BrokerAddr>,
    producers: Vec<Producer>,
    tails: Vec<sim::JoinHandle<(Consumer, CatchUp)>>,
    tail_consumers: Vec<Consumer>,
    /// Concurrent catch-up workloads: connected during set-up.
    catchup: Option<Consumer>,
    catchup_result: Option<(Consumer, CatchUp)>,
}

type Records = Rc<Vec<Rc<Vec<Record>>>>;

async fn setup(w: Workload, records: Records, st: St, storage: Option<PathBuf>) -> Env {
    let mut opts = ClusterOptions {
        conn_mode: Some(w.conn_mode),
        ..Default::default()
    };
    opts.log.segment_size = w.segment_size;
    if let Some(dir) = storage {
        // The retention sweep is what spills sealed, synced segments out of
        // memory on the TCP path; its budget is never reached, so nothing
        // is reclaimed and catch-up reads go through the file tier.
        let sweep = RetentionConfig {
            max_segments: Some(u32::MAX),
            max_age_ms: None,
            check_every_ms: 1,
        };
        opts.storage = Some(
            StorageConfig::tiered(dir)
                .with_sync(SyncMode::EveryMs(5))
                .with_physical_fsync(false)
                .with_retention(sweep),
        );
    }
    let cluster = SimCluster::start_with(w.system, w.brokers, opts);
    cluster
        .create_topic(TOPIC, w.partitions, w.replication)
        .await;
    let mut leaders = Vec::new();
    for p in 0..w.partitions {
        leaders.push(cluster.leader_of(TOPIC, p).await);
    }
    let transport = w.system.client_transport();

    let mut connects = Vec::with_capacity(w.producers);
    for i in 0..w.producers {
        let node = cluster.add_client_node(&format!("producer{i}"));
        let part = w.partition_of(i);
        let leader = leaders[part as usize];
        let (rdma, shared, depth) = (w.rdma(), w.shared, w.ack_depth);
        connects.push(sim::spawn(async move {
            if rdma {
                RdmaProducer::connect_with_ack_depth(&node, leader, TOPIC, part, shared, depth)
                    .await
                    .map(Producer::Rdma)
            } else {
                TcpProducer::connect(&node, leader, transport, TOPIC, part)
                    .await
                    .map(Producer::Tcp)
            }
        }));
    }
    let mut producers = Vec::with_capacity(w.producers);
    for c in connects {
        producers.push(c.await.expect("connect task").expect("producer connect"));
    }

    let mut tails = Vec::new();
    for p in 0..w.partitions {
        let node = cluster.add_client_node(&format!("consumer{p}"));
        let consumer = connect_consumer(&w, &node, leaders[p as usize], p, w.fetch_size).await;
        tails.push(sim::spawn(drive::consume(
            st.clone(),
            consumer,
            p,
            Role::Tail,
            records.clone(),
            0,
        )));
    }
    let catchup = if w.concurrent_catchup {
        let node = cluster.add_client_node("catchup");
        Some(connect_consumer(&w, &node, leaders[0], 0, CATCHUP_FETCH).await)
    } else {
        None
    };

    // Warm-up: every producer sends its set-up records closed loop, and
    // the tailing consumers read them, so pools, rings and grants are hot
    // when the measured phase starts.
    let mut warm = Vec::with_capacity(w.producers);
    for (i, mut producer) in producers.into_iter().enumerate() {
        let (st, recs, part, window, warmup) = (
            st.clone(),
            records[i].clone(),
            w.partition_of(i),
            w.window,
            w.warmup,
        );
        warm.push(sim::spawn(async move {
            drive::produce(
                st,
                &mut producer,
                i,
                part,
                recs,
                0..warmup,
                None,
                window,
                false,
            )
            .await;
            producer
        }));
    }
    let mut producers = Vec::with_capacity(w.producers);
    for h in warm {
        producers.push(h.await.expect("warm-up task"));
    }
    loop {
        let caught_up = {
            let s = st.borrow();
            s.tail_delivered
                .iter()
                .zip(&s.acked_per_partition)
                .all(|(d, a)| d >= a)
                || s.failed > 0
        };
        if caught_up {
            break;
        }
        sim::time::sleep(Duration::from_micros(10)).await;
    }
    Env {
        cluster,
        leaders,
        producers,
        tails,
        tail_consumers: Vec::new(),
        catchup,
        catchup_result: None,
    }
}

async fn connect_consumer(
    w: &Workload,
    node: &netsim::NodeHandle,
    leader: BrokerAddr,
    partition: u32,
    fetch_size: u32,
) -> Consumer {
    if w.system.rdma_consume() {
        let mut c = RdmaConsumer::connect(node, leader, TOPIC, partition, 0)
            .await
            .expect("rdma consumer connect");
        c.fetch_size = fetch_size;
        Consumer::Rdma(c)
    } else {
        let c = TcpConsumer::connect(
            node,
            leader,
            w.system.client_transport(),
            TOPIC,
            partition,
            0,
        )
        .await
        .expect("tcp consumer connect");
        Consumer::Tcp(c)
    }
}

/// The measured phase: every producer sends its measured records (closed
/// loop or on its open-loop schedule) while the tailing consumers deliver,
/// and — for concurrent catch-up workloads — the catch-up consumer reads
/// the partition from offset 0.
async fn measure(
    w: Workload,
    mut env: Env,
    records: Records,
    due: Rc<Vec<Vec<u64>>>,
    st: St,
) -> Env {
    let base_ns = sim::now().as_nanos();
    let mut gens = Vec::with_capacity(w.producers);
    for (i, mut producer) in env.producers.drain(..).enumerate() {
        let (st, recs, part, window) =
            (st.clone(), records[i].clone(), w.partition_of(i), w.window);
        let range = w.warmup..recs.len();
        let due = due.clone();
        let open = w.open_loop.is_some();
        gens.push(sim::spawn(async move {
            let schedule = open.then(|| Schedule {
                due_ns: &due[i],
                base_ns,
            });
            drive::produce(
                st.clone(),
                &mut producer,
                i,
                part,
                recs,
                range,
                schedule,
                window,
                true,
            )
            .await;
            st.borrow_mut().producers_done += 1;
            producer
        }));
    }
    let catchup = env.catchup.take().map(|c| {
        let target = st.borrow().acked_per_partition[0];
        sim::spawn(drive::consume(
            st.clone(),
            c,
            0,
            Role::CatchUp,
            records.clone(),
            target,
        ))
    });
    for g in gens {
        env.producers.push(g.await.expect("generator task"));
    }
    for t in env.tails.drain(..) {
        env.tail_consumers.push(t.await.expect("consumer task").0);
    }
    if let Some(c) = catchup {
        env.catchup_result = Some(c.await.expect("catch-up task"));
    }
    env
}

/// Catch-up after the measured phase (RDMA workloads): a fresh consumer
/// reads partition 0 from offset 0 through everything written.
async fn catchup_after(w: Workload, mut env: Env, records: Records, st: St) -> Env {
    let node = env.cluster.add_client_node("catchup");
    let consumer = connect_consumer(&w, &node, env.leaders[0], 0, CATCHUP_FETCH).await;
    let target = st.borrow().acked_per_partition[0];
    env.catchup_result =
        Some(drive::consume(st.clone(), consumer, 0, Role::CatchUp, records, target).await);
    env
}

/// Options of one repetition.
pub struct RepOpts<'a> {
    pub seed: u64,
    pub traced: bool,
    /// Scratch directory for tiered segment files (removed afterwards).
    pub work_dir: &'a Path,
}

/// Runs one repetition in a fresh runtime seeded with the run's seed.
pub fn run(w: &Workload, inputs: &Inputs, opts: &RepOpts) -> RepOut {
    let (seed, traced, work_dir) = (opts.seed, opts.traced, opts.work_dir);
    let registry = kdtelem::Registry::new();
    let _scope = kdtelem::enter(&registry);
    kdtelem::reset_trace_ids();
    let st = Shared::new(w, inputs, traced);
    let records: Records = inputs.records.clone();
    let due = Rc::new(inputs.due_ns.clone());
    let storage = w
        .tiered
        .then(|| work_dir.join(format!("{}-{}", w.name, std::process::id())));
    if let Some(dir) = &storage {
        let _ = std::fs::remove_dir_all(dir);
    }

    let rt = sim::Runtime::with_seed(seed);
    let events: Rc<RefCell<Vec<TraceEvent>>> = Rc::new(RefCell::new(Vec::new()));
    let stop_drain = Rc::new(Cell::new(false));

    // Set-up: boot, topic, connects, warm-up.
    let t0 = Instant::now();
    let env = {
        let (w, records, st, storage) = (w.clone(), records.clone(), st.clone(), storage.clone());
        let (events, stop, reg, traced) =
            (events.clone(), stop_drain.clone(), registry.clone(), traced);
        rt.block_on(async move {
            if traced {
                sim::spawn_detached(async move {
                    while !stop.get() {
                        sim::time::sleep(DRAIN_EVERY).await;
                        events.borrow_mut().extend(reg.drain_trace_events());
                    }
                });
            }
            setup(w, records, st, storage).await
        })
    };
    let setup_s = t0.elapsed().as_secs_f64();
    let fp = fingerprint(&env.cluster, w);

    // Measured phase.
    let before = traced.then(|| Probe::take(&registry, &env.cluster));
    let polls0 = rt.poll_count();
    let v0 = rt.now();
    let allocs0 = host::allocs();
    let cpu0 = host::cpu_ns();
    let wall0 = Instant::now();
    let env = rt.block_on(measure(w.clone(), env, records.clone(), due, st.clone()));
    let wall_ns = wall0.elapsed().as_nanos() as u64;
    let cpu_ns = host::cpu_ns() - cpu0;
    let allocs = host::allocs() - allocs0;
    let polls = rt.poll_count() - polls0;
    let virtual_ns = (rt.now() - v0).as_nanos() as u64;
    let after = traced.then(|| Probe::take(&registry, &env.cluster));

    let env = if w.concurrent_catchup {
        env
    } else {
        rt.block_on(catchup_after(w.clone(), env, records.clone(), st.clone()))
    };
    stop_drain.set(true);
    events.borrow_mut().extend(registry.drain_trace_events());

    drive::verify(&st, Some(0));
    let heap_copied = registry
        .snapshot()
        .counter("kdbroker", "copy.heap_bytes")
        .unwrap_or(0);
    if w.rdma() && heap_copied != 0 {
        st.borrow_mut().fail(format!(
            "{heap_copied} bytes copied by broker CPUs on an RDMA workload"
        ));
    }

    let mut env = env;
    let (catchup_consumer, catchup) = env.catchup_result.take().expect("catch-up ran");
    let layers = match (before, after) {
        (Some(before), Some(after)) => Some(LayerRaw {
            before,
            after,
            brokers: env.cluster.brokers(),
            consumers: env.tail_consumers.iter().map(|c| c.rdma_stats()).collect(),
            client: st.borrow().client.clone(),
            polls,
            virtual_ns,
            cpu_ns,
            wall_ns,
            records: st.borrow().acked_records,
            events: std::mem::take(&mut *events.borrow_mut()),
            dropped: registry.trace_events_dropped(),
        }),
        _ => None,
    };
    // Tear down inside the runtime: disconnects talk to the fabric.
    rt.block_on(async move { drop((env, catchup_consumer)) });
    drop(rt);
    if let Some(dir) = &storage {
        let _ = std::fs::remove_dir_all(dir);
    }

    let mut s = st.borrow_mut();
    let us = |ns: u64| ns as f64 / 1_000.0;
    let mib_s = |bytes: u64, ns: u64| bytes as f64 / (1024.0 * 1024.0) / (ns.max(1) as f64 / 1e9);
    let active_ns = s.last_ack_ns.saturating_sub(v0.as_nanos());
    let modeled = Modeled {
        goodput_mib_s: mib_s(s.acked_bytes, active_ns),
        ack_p50_us: us(percentile(&mut s.ack_lat_ns, 0.50)),
        ack_p99_us: us(percentile(&mut s.ack_lat_ns, 0.99)),
        deliver_p50_us: us(percentile(&mut s.deliver_ns, 0.50)),
        deliver_p99_us: us(percentile(&mut s.deliver_ns, 0.99)),
        catchup_mib_s: mib_s(
            catchup.bytes,
            catchup.done_ns.saturating_sub(catchup.start_ns),
        ),
        polls,
        virtual_ns,
        records: s.acked_records,
        consumed_digest: s
            .consumed_digest
            .iter()
            .fold(crate::workload::FNV_INIT, |h, d| {
                crate::workload::fnv(h, &d.to_le_bytes())
            }),
    };
    RepOut {
        modeled,
        setup_s,
        cpu_ns,
        wall_ns,
        allocs,
        attempted: s.attempted,
        failed: s.failed,
        failures: std::mem::take(&mut s.failures),
        fingerprint: fp,
        layers,
    }
}
