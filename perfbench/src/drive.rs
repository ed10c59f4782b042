//! The load generator, the consumers, and the exactly-once output check.
//!
//! One generator task per producer keeps that producer's window full: every
//! ready ack is retired and the freed slots are reposted as one
//! `send_pipelined_chain` (closed loop), or every record that has come due
//! is posted as one chain while the window has room (open loop). Open-loop
//! latencies are timed from the record's due time, so a stall that delays
//! later records counts against them; the generator's lateness is
//! reported.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

use kafkadirect::Record;
use kdclient::{ClientError, RdmaConsumer, RdmaProducer, TcpConsumer, TcpProducer};
use kdstorage::RecordView;
use kdwire::ErrorCode;
use sim::sync::oneshot;

use crate::workload::{payload_id, Inputs, Workload};

/// Sentinel for "no value" in the per-record tables.
pub const NONE: u64 = u64::MAX;

/// Failure messages kept verbatim (the count is always exact).
const MAX_FAILURE_TEXTS: usize = 16;

/// Generator and client-side counters (the `kdclient` and `gen` layers).
#[derive(Debug, Default, Clone)]
pub struct ClientStats {
    /// `send_pipelined_chain` calls and the records they carried.
    pub chains: u64,
    pub chain_records: u64,
    /// Σ (in flight after a post ÷ window), one term per post.
    pub window_fill_sum: f64,
    /// Virtual ns spent inside post calls.
    pub post_wait_ns: u64,
    /// Wall ns inside the producer call futures' `poll` (traced runs).
    pub produce_self_ns: u64,
    /// Wall ns inside the consumer poll futures' `poll` (traced runs).
    pub fetch_self_ns: u64,
    pub fetch_polls: u64,
    pub fetch_empty: u64,
    pub fetch_records: u64,
    /// Open loop: worst lateness of a post behind its due time, and the
    /// most records due but not yet posted.
    pub late_max_ns: u64,
    pub backlog_max: u64,
}

/// State shared by every generator and consumer task of one repetition.
pub struct Shared {
    pub producers: usize,
    pub partitions: u32,
    /// Per producer, per record: publish time (post time in a closed loop,
    /// due time in an open loop); `NONE` for set-up records.
    pub pub_ns: Vec<Vec<u64>>,
    /// Per producer, per record: acked offset, or `NONE`.
    pub acked: Vec<Vec<u64>>,
    /// Per producer, per record: times seen by the tailing consumers and
    /// by the catch-up consumer, and the offset the tailing consumer saw.
    pub tail_seen: Vec<Vec<u32>>,
    pub tail_offset: Vec<Vec<u64>>,
    pub catchup_seen: Vec<Vec<u32>>,
    pub acked_per_partition: Vec<u64>,
    /// Records the tailing consumer of each partition has delivered.
    pub tail_delivered: Vec<u64>,
    pub producers_done: usize,
    /// Measured-phase results.
    pub ack_lat_ns: Vec<u64>,
    pub deliver_ns: Vec<u64>,
    pub acked_bytes: u64,
    pub acked_records: u64,
    pub last_ack_ns: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// FNV-1a over `(partition, offset, producer, seq)` of every record the
    /// tailing consumers delivered, in delivery order per partition.
    pub consumed_digest: Vec<u64>,
    pub client: ClientStats,
    /// Time the per-call wall-clock spans (traced runs only).
    pub traced: bool,
}

pub type St = Rc<RefCell<Shared>>;

impl Shared {
    pub fn new(w: &Workload, inputs: &Inputs, traced: bool) -> St {
        let table =
            |v| -> Vec<Vec<u64>> { inputs.records.iter().map(|r| vec![v; r.len()]).collect() };
        let counts =
            || -> Vec<Vec<u32>> { inputs.records.iter().map(|r| vec![0; r.len()]).collect() };
        Rc::new(RefCell::new(Shared {
            producers: w.producers,
            partitions: w.partitions,
            pub_ns: table(NONE),
            acked: table(NONE),
            tail_seen: counts(),
            tail_offset: table(NONE),
            catchup_seen: counts(),
            acked_per_partition: vec![0; w.partitions as usize],
            tail_delivered: vec![0; w.partitions as usize],
            producers_done: 0,
            ack_lat_ns: Vec::new(),
            deliver_ns: Vec::new(),
            acked_bytes: 0,
            acked_records: 0,
            last_ack_ns: 0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            consumed_digest: vec![crate::workload::FNV_INIT; w.partitions as usize],
            client: ClientStats::default(),
            traced,
        }))
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < MAX_FAILURE_TEXTS {
            self.failures.push(what);
        }
    }
}

/// Awaits `f`, adding the wall time spent inside its `poll` calls to
/// `acc` when `on` — the benchmark's own span around a call into a layer.
pub async fn timed<F: Future>(on: bool, acc: &Cell<u64>, f: F) -> F::Output {
    if !on {
        return f.await;
    }
    let mut f = std::pin::pin!(f);
    std::future::poll_fn(|cx| {
        let t = Instant::now();
        let r = f.as_mut().poll(cx);
        acc.set(acc.get() + t.elapsed().as_nanos() as u64);
        r
    })
    .await
}

// ---------------------------------------------------------------------------
// Producers.
// ---------------------------------------------------------------------------

/// A producer of either transport.
#[allow(clippy::large_enum_variant)]
pub enum Producer {
    Rdma(RdmaProducer),
    Tcp(TcpProducer),
}

/// One produce in flight.
pub enum Pending {
    Rdma(oneshot::Receiver<(ErrorCode, u64)>),
    Tcp(sim::JoinHandle<Result<u64, ClientError>>),
}

impl Pending {
    fn poll_ack(&mut self, cx: &mut Context<'_>) -> Poll<Result<u64, String>> {
        match self {
            Pending::Rdma(rx) => Pin::new(rx).poll(cx).map(|r| match r {
                Ok((err, off)) if err.is_ok() => Ok(off),
                Ok((err, _)) => Err(format!("produce error {err:?}")),
                Err(_) => Err("ack channel closed".to_string()),
            }),
            Pending::Tcp(h) => Pin::new(h).poll(cx).map(|r| match r {
                Ok(Ok(off)) => Ok(off),
                Ok(Err(e)) => Err(format!("produce error {e:?}")),
                Err(e) => Err(format!("produce task failed: {e:?}")),
            }),
        }
    }

    /// The ack, if it has already arrived.
    fn try_ack(&mut self) -> Option<Result<u64, String>> {
        let mut cx = Context::from_waker(Waker::noop());
        match self.poll_ack(&mut cx) {
            Poll::Ready(r) => Some(r),
            Poll::Pending => None,
        }
    }
}

async fn ack(p: &mut Pending) -> Result<u64, String> {
    std::future::poll_fn(|cx| p.poll_ack(cx)).await
}

impl Producer {
    /// Posts `records` as one chain, appending their pending acks.
    async fn post(
        &mut self,
        records: &[Record],
        first_seq: usize,
        out: &mut VecDeque<(usize, Pending)>,
        scratch: &mut Vec<oneshot::Receiver<(ErrorCode, u64)>>,
    ) -> Result<(), String> {
        match self {
            Producer::Rdma(p) => {
                let r = p.send_pipelined_chain(records, scratch).await;
                for (i, rx) in scratch.drain(..).enumerate() {
                    out.push_back((first_seq + i, Pending::Rdma(rx)));
                }
                r.map_err(|e| format!("post error {e:?}"))
            }
            Producer::Tcp(p) => {
                for (i, r) in records.iter().enumerate() {
                    out.push_back((first_seq + i, Pending::Tcp(p.send_pipelined(r))));
                }
                Ok(())
            }
        }
    }
}

/// Records the outcome of one produce.
fn retire(st: &St, g: &Gen, seq: usize, r: Result<u64, String>) {
    let now = sim::now().as_nanos();
    let mut s = st.borrow_mut();
    match r {
        Ok(offset) => {
            s.acked[g.producer][seq] = offset;
            s.acked_per_partition[g.partition as usize] += 1;
            let published = s.pub_ns[g.producer][seq];
            if published != NONE {
                s.ack_lat_ns.push(now.saturating_sub(published));
                s.acked_bytes += g.records[seq].value.len() as u64;
                s.acked_records += 1;
                s.last_ack_ns = s.last_ack_ns.max(now);
            }
        }
        Err(e) => {
            let p = g.producer;
            s.fail(format!("producer {p} record {seq}: {e}"));
        }
    }
}

/// What one generator task knows about its producer.
struct Gen {
    producer: usize,
    partition: u32,
    records: Rc<Vec<Record>>,
}

/// Retires every ack already at the front of the window.
fn retire_ready(st: &St, g: &Gen, inflight: &mut VecDeque<(usize, Pending)>) {
    while let Some((_, front)) = inflight.front_mut() {
        let Some(r) = front.try_ack() else { break };
        let (seq, _) = inflight.pop_front().unwrap();
        retire(st, g, seq, r);
    }
}

/// Open-loop schedule of one producer: record `lo + i` is due at virtual
/// time `base_ns + due_ns[i]`.
#[derive(Clone, Copy)]
pub struct Schedule<'a> {
    pub due_ns: &'a [u64],
    pub base_ns: u64,
}

/// Sends records `range` of one producer. Closed loop when `schedule` is
/// `None` (post time is the publish time); otherwise each record is posted
/// once it is due. `measured` stamps publish times for the latency metrics.
#[allow(clippy::too_many_arguments)]
pub async fn produce(
    st: St,
    producer: &mut Producer,
    index: usize,
    partition: u32,
    records: Rc<Vec<Record>>,
    range: std::ops::Range<usize>,
    schedule: Option<Schedule<'_>>,
    window: usize,
    measured: bool,
) {
    let g = Gen {
        producer: index,
        partition,
        records,
    };
    let traced = st.borrow().traced;
    let self_ns = Cell::new(0u64);
    let mut inflight: VecDeque<(usize, Pending)> = VecDeque::with_capacity(window);
    let mut scratch = Vec::with_capacity(window);
    let (lo, hi) = (range.start, range.end);
    let due = schedule.map(|sc| move |i: usize| sc.base_ns + sc.due_ns[i - lo]);
    let mut next = lo;
    loop {
        retire_ready(&st, &g, &mut inflight);
        let now = sim::now().as_nanos();
        let room = window - inflight.len().min(window);
        let n = match due {
            None => room.min(hi - next),
            Some(d) => (next..hi).take(room).take_while(|&i| d(i) <= now).count(),
        };
        if n > 0 {
            {
                let mut s = st.borrow_mut();
                s.attempted += n as u64;
                if measured {
                    for i in next..next + n {
                        s.pub_ns[index][i] = match due {
                            None => now,
                            Some(d) => d(i),
                        };
                    }
                }
                if let Some(d) = due {
                    let late = now - d(next);
                    s.client.late_max_ns = s.client.late_max_ns.max(late);
                }
            }
            let posted = timed(
                traced,
                &self_ns,
                producer.post(
                    &g.records[next..next + n],
                    next,
                    &mut inflight,
                    &mut scratch,
                ),
            )
            .await;
            let mut s = st.borrow_mut();
            if measured {
                s.client.chains += 1;
                s.client.chain_records += n as u64;
                s.client.window_fill_sum += inflight.len() as f64 / window as f64;
                s.client.post_wait_ns += sim::now().as_nanos() - now;
            }
            if let Err(e) = posted {
                // Records of the chain that got no pending ack failed.
                let queued = inflight.iter().filter(|(q, _)| *q >= next).count();
                for seq in next + queued..next + n {
                    s.fail(format!("producer {index} record {seq}: {e}"));
                }
            }
            next += n;
        }
        if let Some(d) = due {
            let now = sim::now().as_nanos();
            let backlog = (next..hi).take_while(|&i| d(i) <= now).count() as u64;
            let mut s = st.borrow_mut();
            s.client.backlog_max = s.client.backlog_max.max(backlog);
        }
        if next == hi && inflight.is_empty() {
            break;
        }
        let waiting_on_ack = next == hi || inflight.len() >= window;
        match due {
            Some(d) if !waiting_on_ack => {
                let at = sim::SimTime::from_nanos(d(next));
                if let Some((_, front)) = inflight.front_mut() {
                    if let sim::future::Either::Left(r) =
                        sim::future::race(ack(front), sim::time::sleep_until(at)).await
                    {
                        let (seq, _) = inflight.pop_front().unwrap();
                        retire(&st, &g, seq, r);
                    }
                } else {
                    sim::time::sleep_until(at).await;
                }
            }
            None if !waiting_on_ack => {}
            _ => {
                let (seq, mut front) = inflight.pop_front().unwrap();
                let r = ack(&mut front).await;
                retire(&st, &g, seq, r);
            }
        }
    }
    st.borrow_mut().client.produce_self_ns += self_ns.get();
}

// ---------------------------------------------------------------------------
// Consumers.
// ---------------------------------------------------------------------------

/// A consumer of either transport.
#[allow(clippy::large_enum_variant)]
pub enum Consumer {
    Rdma(RdmaConsumer),
    Tcp(TcpConsumer),
}

impl Consumer {
    async fn poll(&mut self) -> Result<Vec<RecordView>, ClientError> {
        match self {
            Consumer::Rdma(c) => c.poll().await,
            Consumer::Tcp(c) => c.poll().await,
        }
    }

    /// `(slot_reads, data_reads, access_requests)` of an RDMA consumer.
    pub fn rdma_stats(&self) -> (u64, u64, u64) {
        match self {
            Consumer::Rdma(c) => (
                c.stats.slot_reads,
                c.stats.data_reads,
                c.stats.access_requests,
            ),
            Consumer::Tcp(_) => (0, 0, 0),
        }
    }

    fn backoff(&self) -> Duration {
        match self {
            Consumer::Rdma(_) => Duration::from_micros(5),
            Consumer::Tcp(_) => Duration::from_micros(50),
        }
    }
}

/// Which role a consumer plays in the output check.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Reads the partition as it is written; its deliveries give the
    /// publish→consume delay.
    Tail,
    /// Reads the partition from offset 0.
    CatchUp,
}

/// Progress of a catch-up consumer: bytes read below `target` offset and
/// the virtual time at which it got there.
#[derive(Debug, Default, Clone, Copy)]
pub struct CatchUp {
    pub bytes: u64,
    pub start_ns: u64,
    pub done_ns: u64,
}

/// Virtual time a consumer waits for more data once every producer is done
/// before it declares the partition stalled.
const STALL_LIMIT: Duration = Duration::from_secs(2);

/// Consumes one partition from offset 0 until every acked record of it has
/// been delivered, checking each record as it arrives: offsets dense and in
/// order, payload byte-equal to its seeded input. `target` (catch-up only)
/// is the offset whose arrival ends the timed catch-up.
pub async fn consume(
    st: St,
    mut consumer: Consumer,
    partition: u32,
    role: Role,
    inputs: Rc<Vec<Rc<Vec<Record>>>>,
    target: u64,
) -> (Consumer, CatchUp) {
    let traced = st.borrow().traced;
    let self_ns = Cell::new(0u64);
    let mut expect = 0u64;
    let mut catchup = CatchUp {
        start_ns: sim::now().as_nanos(),
        ..CatchUp::default()
    };
    let mut idle_since: Option<sim::SimTime> = None;
    loop {
        let polled = timed(traced, &self_ns, consumer.poll()).await;
        {
            let mut s = st.borrow_mut();
            s.attempted += 1;
            if role == Role::Tail {
                s.client.fetch_polls += 1;
            }
        }
        let records = match polled {
            Ok(r) => r,
            Err(e) => {
                st.borrow_mut()
                    .fail(format!("partition {partition} fetch error {e:?}"));
                sim::time::sleep(consumer.backoff()).await;
                continue;
            }
        };
        if records.is_empty() {
            let (finished, all_done) = {
                let mut s = st.borrow_mut();
                if role == Role::Tail {
                    s.client.fetch_empty += 1;
                }
                let all_done = s.producers_done == s.producers;
                (
                    all_done && expect >= s.acked_per_partition[partition as usize],
                    all_done,
                )
            };
            if finished {
                break;
            }
            if all_done {
                let since = *idle_since.get_or_insert_with(sim::now);
                if sim::now() - since > STALL_LIMIT {
                    st.borrow_mut().fail(format!(
                        "partition {partition}: consumer stalled at offset {expect}"
                    ));
                    break;
                }
            }
            sim::time::sleep(consumer.backoff()).await;
            continue;
        }
        idle_since = None;
        let now = sim::now().as_nanos();
        let mut s = st.borrow_mut();
        if role == Role::Tail {
            s.client.fetch_records += records.len() as u64;
        }
        for rv in records {
            s.attempted += 1;
            if rv.offset != expect {
                s.fail(format!(
                    "partition {partition}: offset {} delivered, {expect} expected",
                    rv.offset
                ));
            }
            expect = rv.offset + 1;
            let id = payload_id(&rv.record.value).filter(|&(p, q)| {
                p < inputs.len()
                    && q < inputs[p].len()
                    && p % s.partitions as usize == partition as usize
            });
            let Some((p, q)) = id else {
                s.fail(format!(
                    "partition {partition} offset {}: unknown payload",
                    rv.offset
                ));
                continue;
            };
            if rv.record.value != inputs[p][q].value {
                s.fail(format!(
                    "partition {partition} offset {}: payload differs from producer {p} record {q}",
                    rv.offset
                ));
            }
            match role {
                Role::Tail => {
                    s.tail_seen[p][q] += 1;
                    s.tail_delivered[partition as usize] += 1;
                    s.tail_offset[p][q] = rv.offset;
                    let published = s.pub_ns[p][q];
                    if published != NONE {
                        s.deliver_ns.push(now.saturating_sub(published));
                    }
                    let d = &mut s.consumed_digest[partition as usize];
                    for v in [rv.offset, p as u64, q as u64] {
                        *d = crate::workload::fnv(*d, &v.to_le_bytes());
                    }
                }
                Role::CatchUp => {
                    s.catchup_seen[p][q] += 1;
                    if rv.offset < target {
                        catchup.bytes += rv.record.value.len() as u64;
                        if rv.offset + 1 == target {
                            catchup.done_ns = now;
                        }
                    }
                }
            }
        }
    }
    if role == Role::Tail {
        st.borrow_mut().client.fetch_self_ns += self_ns.get();
    }
    (consumer, catchup)
}

/// Post-run exactly-once check: every produced record was acked, and every
/// acked record was delivered exactly once by its partition's tailing
/// consumer (at its acked offset) and, for `catchup_partition`, exactly
/// once by the catch-up consumer.
pub fn verify(st: &St, catchup_partition: Option<u32>) {
    let mut s = st.borrow_mut();
    let mut problems = Vec::new();
    for p in 0..s.producers {
        let part = (p % s.partitions as usize) as u32;
        for q in 0..s.acked[p].len() {
            let off = s.acked[p][q];
            if off == NONE {
                problems.push(format!("producer {p} record {q} never acked"));
                continue;
            }
            if s.tail_seen[p][q] != 1 || s.tail_offset[p][q] != off {
                problems.push(format!(
                    "producer {p} record {q} (offset {off}) delivered {} times, at offset {}",
                    s.tail_seen[p][q], s.tail_offset[p][q] as i64
                ));
            }
            if catchup_partition == Some(part) && s.catchup_seen[p][q] != 1 {
                problems.push(format!(
                    "producer {p} record {q} read {} times by the catch-up consumer",
                    s.catchup_seen[p][q]
                ));
            }
        }
    }
    s.attempted += s.acked.iter().map(|a| a.len() as u64).sum::<u64>();
    for e in problems {
        s.fail(e);
    }
}
