//! The KafkaDirect RDMA consumer (§4.4.2): fetches records with one-sided
//! RDMA Reads — the broker's CPU is never involved.
//!
//! Mechanics reproduced from the paper:
//! * **Getting access**: a TCP request returns the file's region, its last
//!   readable byte, and whether it is mutable.
//! * **Metadata slots**: for mutable files the consumer polls an
//!   RDMA-readable slot (one read covers all of its active slots) to learn
//!   about new records without broker involvement.
//! * **Fetch size**: RDMA Reads fetch a configurable number of bytes
//!   (default 2 KiB); partially fetched batches are kept until complete.
//! * **File roll**: when a slot reports the file immutable and fully read,
//!   the consumer releases it and requests access to the next file.

use kdstorage::record::{decode_batch, peek_total_len, RecordView, LENGTH_PREFIX_LEN};
use kdwire::slots::{SlotView, SLOT_SIZE};
use kdwire::{BrokerAddr, ConsumeAccessResp, Request, Response};
use netsim::profile::copy_time;
use netsim::NodeHandle;
use rnic::{CompletionQueue, QpOptions, QueuePair, RNic, SendWr, ShmBuf, WorkRequest};

use crate::conn::{ClientTransport, Conn};
use crate::error::{check, ClientError};

/// Default fetch size: "2 KiB as it provides a good trade-off between
/// latency ... and bandwidth" (§4.4.2).
pub const DEFAULT_FETCH_SIZE: u32 = 2048;

/// Telemetry counters of one consumer.
#[derive(Debug, Default, Clone, Copy)]
pub struct ConsumerStats {
    pub data_reads: u64,
    pub data_bytes: u64,
    pub slot_reads: u64,
    pub access_requests: u64,
    pub releases: u64,
    pub rdma_offset_commits: u64,
}

struct FileState {
    grant: ConsumeAccessResp,
    /// Next byte to fetch from the file.
    read_pos: u32,
    /// First unreadable byte (refreshed from the metadata slot).
    last_readable: u32,
    mutable: bool,
}

/// The RDMA consumer.
pub struct RdmaConsumer {
    node: NodeHandle,
    ctrl: Conn,
    #[allow(dead_code)]
    nic: RNic,
    qp: QueuePair,
    send_cq: CompletionQueue,
    topic: String,
    partition: u32,
    consumer_id: u64,
    /// Next record offset to deliver to the application.
    pub offset: u64,
    pub fetch_size: u32,
    file: Option<FileState>,
    /// Partially fetched batch bytes (§4.4.2 "the partially read records
    /// are kept until all their bytes are fetched").
    partial: Vec<u8>,
    ready: std::collections::VecDeque<RecordView>,
    fetch_buf: ShmBuf,
    slot_buf: ShmBuf,
    /// EXTENSION (§4.4.2 alternative): size RDMA Reads from the parsed batch
    /// headers instead of a fixed fetch size.
    pub adaptive_fetch: bool,
    /// EWMA of recent batch sizes (adaptive mode).
    avg_batch: f64,
    /// EXTENSION (§5.4 future work): RDMA-writable offset slot for one-sided
    /// offset commits.
    offset_slot: Option<kdwire::RemoteRegion>,
    commit_buf: ShmBuf,
    pub stats: ConsumerStats,
    telem: kdtelem::Registry,
    /// End-to-end fetch latency: data-carrying `poll` entry → records parsed.
    fetch_e2e_ns: kdtelem::Histogram,
}

impl RdmaConsumer {
    pub async fn connect(
        node: &NodeHandle,
        broker: BrokerAddr,
        topic: &str,
        partition: u32,
        offset: u64,
    ) -> Result<RdmaConsumer, ClientError> {
        let ctrl = Conn::connect(node, broker, ClientTransport::Tcp).await?;
        let nic = RNic::new(node);
        let send_cq = nic.create_cq(256);
        let recv_cq = nic.create_cq(16);
        let qp = nic
            .connect(
                netsim::NodeId(broker.node),
                broker.rdma_port + 2, // CONSUME_PORT_OFF
                send_cq.clone(),
                recv_cq,
                QpOptions::default(),
            )
            .await
            .map_err(|_| ClientError::Disconnected)?;
        let telem = kdtelem::current();
        let fetch_e2e_ns = telem.histogram("kdclient", "fetch.e2e_ns");
        Ok(RdmaConsumer {
            node: node.clone(),
            ctrl,
            nic,
            qp,
            send_cq,
            topic: topic.to_string(),
            partition,
            consumer_id: sim::rng::range_u64(1..u64::MAX),
            offset,
            fetch_size: DEFAULT_FETCH_SIZE,
            file: None,
            partial: Vec::new(),
            ready: std::collections::VecDeque::new(),
            fetch_buf: ShmBuf::zeroed(DEFAULT_FETCH_SIZE as usize),
            slot_buf: ShmBuf::zeroed(64 * SLOT_SIZE),
            adaptive_fetch: false,
            avg_batch: f64::from(DEFAULT_FETCH_SIZE),
            offset_slot: None,
            commit_buf: ShmBuf::zeroed(8),
            stats: ConsumerStats::default(),
            telem,
            fetch_e2e_ns,
        })
    }

    /// One RDMA Read into `local`, awaiting its completion.
    async fn rdma_read(
        &mut self,
        local: rnic::BufSlice,
        remote_addr: u64,
        rkey: u32,
        trace: Option<kdtelem::TraceCtx>,
    ) -> Result<(), ClientError> {
        self.qp
            .post_send(
                SendWr::new(
                    7,
                    WorkRequest::Read {
                        local,
                        remote_addr,
                        rkey,
                    },
                )
                .with_trace(trace),
            )
            .map_err(|_| ClientError::Disconnected)?;
        let cqe = self
            .send_cq
            .next()
            .await
            .ok_or(ClientError::Disconnected)?;
        if !cqe.ok() {
            return Err(ClientError::Disconnected);
        }
        Ok(())
    }

    /// Requests RDMA access to the file containing the consumer's offset.
    async fn acquire_file(&mut self) -> Result<(), ClientError> {
        self.stats.access_requests += 1;
        let resp = self
            .ctrl
            .call(&Request::ConsumeAccess {
                topic: self.topic.clone(),
                partition: self.partition,
                offset: self.offset,
                consumer_id: self.consumer_id,
            })
            .await?;
        let grant = match resp {
            Response::ConsumeAccess(g) => g,
            _ => return Err(ClientError::Protocol),
        };
        check(grant.error)?;
        self.partial.clear();
        self.file = Some(FileState {
            read_pos: grant.start_pos,
            last_readable: grant.last_readable,
            mutable: grant.mutable,
            grant,
        });
        Ok(())
    }

    /// Releases a fully-consumed file so the broker can unregister it.
    async fn release_file(&mut self) -> Result<(), ClientError> {
        let Some(f) = self.file.take() else {
            return Ok(());
        };
        self.stats.releases += 1;
        let _ = self
            .ctrl
            .call(&Request::ConsumeRelease {
                topic: self.topic.clone(),
                partition: self.partition,
                consumer_id: self.consumer_id,
                segment: f.grant.segment,
            })
            .await?;
        Ok(())
    }

    /// Refreshes `last_readable`/`mutable` by reading the metadata slot
    /// region with a single RDMA Read (§4.4.2, Fig 9).
    async fn refresh_metadata(&mut self) -> Result<(), ClientError> {
        let Some(slot) = self.file.as_ref().and_then(|f| f.grant.slot) else {
            return Ok(());
        };
        // Read the smallest contiguous region containing all active slots.
        let span = (slot.active_span.max(slot.index + 1) as usize) * SLOT_SIZE;
        let span = span.min(self.slot_buf.len());
        self.stats.slot_reads += 1;
        let local = self.slot_buf.slice(0, span);
        self.rdma_read(local, slot.region.addr, slot.region.rkey, None)
            .await?;
        let at = slot.index as usize * SLOT_SIZE;
        let view = self.slot_buf.with(|s| SlotView::decode(&s[at..at + SLOT_SIZE]));
        let f = self.file.as_mut().expect("file present");
        f.last_readable = view.last_readable;
        f.mutable = view.mutable;
        Ok(())
    }

    /// One fetch iteration. Returns any records that became ready; an empty
    /// result means no new committed data was visible.
    pub async fn poll(&mut self) -> Result<Vec<RecordView>, ClientError> {
        let start = sim::now();
        if !self.ready.is_empty() {
            return Ok(self.drain_ready());
        }
        if self.file.is_none() {
            self.acquire_file().await?;
        }
        // Exhausted the readable part?
        let (read_pos, last_readable, mutable) = {
            let f = self.file.as_ref().unwrap();
            (f.read_pos, f.last_readable, f.mutable)
        };
        if read_pos >= last_readable {
            if !mutable {
                // Fully read an immutable file: move to the next one.
                self.release_file().await?;
                self.acquire_file().await?;
                return Ok(Vec::new());
            }
            self.refresh_metadata().await?;
            let f = self.file.as_ref().unwrap();
            if f.read_pos >= f.last_readable {
                return Ok(Vec::new()); // nothing new yet
            }
        }
        // Fetch up to fetch_size readable bytes; in adaptive mode, size the
        // read from what we already know: the partial batch's own header if
        // fetched, otherwise a moving estimate of recent batch sizes
        // (§4.4.2's two suggested dynamic-tuning strategies).
        let want = if self.adaptive_fetch {
            let from_header = if self.partial.len() >= LENGTH_PREFIX_LEN {
                peek_total_len(&self.partial)
                    .ok()
                    .map(|total| total.saturating_sub(self.partial.len()) as u32)
            } else {
                None
            };
            from_header
                .unwrap_or(self.avg_batch as u32 + LENGTH_PREFIX_LEN as u32)
                .clamp(256, 1024 * 1024)
        } else {
            self.fetch_size
        };
        let f = self.file.as_ref().unwrap();
        let n = (f.last_readable - f.read_pos).min(want) as usize;
        let addr = f.grant.region.addr + u64::from(f.read_pos);
        let rkey = f.grant.region.rkey;
        if self.fetch_buf.len() < n {
            self.fetch_buf = ShmBuf::zeroed(n);
        }
        self.stats.data_reads += 1;
        self.stats.data_bytes += n as u64;
        // Root of this fetch's lifeline. The broker CPU never sees one-sided
        // Reads, so the client both carries the ctx on the Read WR and emits
        // the FetchServed event itself once records are parsed.
        let tspan = self.telem.trace_span("client.fetch", None);
        let ctx = tspan.ctx();
        let local = self.fetch_buf.slice(0, n);
        self.rdma_read(local, addr, rkey, Some(ctx)).await?;
        self.fetch_buf.with(|s| self.partial.extend_from_slice(&s[..n]));
        self.file.as_mut().unwrap().read_pos += n as u32;
        // Client-side integrity check + copy into "native" buffers — the
        // 2 µs overhead §5.3 attributes to the consumer API.
        let cpu = &self.node.profile().cpu;
        sim::time::sleep(
            copy_time(n as u64, cpu.crc_bandwidth) + copy_time(n as u64, cpu.memcpy_bandwidth),
        )
        .await;
        let first_offset = self.offset;
        self.parse_partial()?;
        if self.offset > first_offset {
            self.telem.trace_event_now(
                ctx,
                kdtelem::EventKind::FetchServed {
                    stream: kdtelem::stream_key(self.topic.as_str(), self.partition),
                    start_offset: first_offset,
                    next_offset: self.offset,
                    bytes: n as u64,
                },
            );
        }
        // A data-carrying poll is one end-to-end fetch (empty metadata-only
        // polls are deliberately excluded — they're "empty fetches", §5.3).
        self.fetch_e2e_ns.record_since(start);
        tspan.end();
        Ok(self.drain_ready())
    }

    /// Parses complete batches out of the partial buffer; incomplete tails
    /// stay for the next read.
    fn parse_partial(&mut self) -> Result<(), ClientError> {
        let mut at = 0usize;
        while self.partial.len() - at >= LENGTH_PREFIX_LEN {
            let total =
                peek_total_len(&self.partial[at..]).map_err(|_| ClientError::Corrupt)?;
            if self.partial.len() - at < total {
                break;
            }
            self.avg_batch = 0.8 * self.avg_batch + 0.2 * total as f64;
            let records = decode_batch(&self.partial[at..at + total])
                .map_err(|_| ClientError::Corrupt)?;
            for rv in records {
                if rv.offset >= self.offset {
                    self.offset = rv.offset + 1;
                    self.ready.push_back(rv);
                }
            }
            at += total;
        }
        self.partial.drain(..at);
        Ok(())
    }

    fn drain_ready(&mut self) -> Vec<RecordView> {
        self.ready.drain(..).collect()
    }

    /// Polls until at least one record is available.
    pub async fn next_records(&mut self) -> Result<Vec<RecordView>, ClientError> {
        loop {
            let records = self.poll().await?;
            if !records.is_empty() {
                return Ok(records);
            }
        }
    }

    /// Checks for new records with a single metadata-slot read — the "empty
    /// fetch" of §5.3, fully offloaded to the NICs. Returns the last
    /// readable byte currently visible.
    pub async fn check_new_data(&mut self) -> Result<u32, ClientError> {
        if self.file.is_none() {
            self.acquire_file().await?;
        }
        self.refresh_metadata().await?;
        Ok(self.file.as_ref().unwrap().last_readable)
    }

    /// EXTENSION (§5.4 future work): acquires an RDMA-writable offset slot
    /// so [`commit_offset_rdma`](Self::commit_offset_rdma) can commit with a
    /// single one-sided write — no broker CPU, no TCP round trip.
    pub async fn enable_rdma_offset_commit(&mut self, group: &str) -> Result<(), ClientError> {
        let resp = self
            .ctrl
            .call(&Request::OffsetSlotAccess {
                group: group.to_string(),
                topic: self.topic.clone(),
                partition: self.partition,
            })
            .await?;
        match resp {
            Response::OffsetSlotAccess { error, region } => {
                check(error)?;
                self.offset_slot = Some(region);
                Ok(())
            }
            _ => Err(ClientError::Protocol),
        }
    }

    /// Commits the current offset with one RDMA Write into the offset slot.
    pub async fn commit_offset_rdma(&mut self) -> Result<(), ClientError> {
        let slot = self.offset_slot.ok_or(ClientError::Protocol)?;
        self.commit_buf.write_u64(0, self.offset);
        self.qp
            .post_send(SendWr::new(
                8,
                WorkRequest::Write {
                    local: self.commit_buf.as_slice(),
                    remote_addr: slot.addr,
                    rkey: slot.rkey,
                },
            ))
            .map_err(|_| ClientError::Disconnected)?;
        let cqe = self
            .send_cq
            .next()
            .await
            .ok_or(ClientError::Disconnected)?;
        if !cqe.ok() {
            return Err(ClientError::Disconnected);
        }
        self.stats.rdma_offset_commits += 1;
        Ok(())
    }

    /// Commits this consumer's offset for `group` over TCP (§5.4).
    pub async fn commit_offset(&self, group: &str) -> Result<(), ClientError> {
        let resp = self
            .ctrl
            .call(&Request::OffsetCommit {
                group: group.to_string(),
                topic: self.topic.clone(),
                partition: self.partition,
                offset: self.offset,
            })
            .await?;
        match resp {
            Response::OffsetCommit { error } => check(error),
            _ => Err(ClientError::Protocol),
        }
    }
}
