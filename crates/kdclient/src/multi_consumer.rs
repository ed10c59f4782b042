//! A multi-subscription RDMA consumer — the full Fig 9 design.
//!
//! "Since a consumer can be subscribed to several TPs, a naive reading of a
//! single metadata slot at a time could waste CPU and RNIC resources. Thus,
//! for each RDMA consumer, KafkaDirect brokers allocate a contiguous
//! RDMA-accessible region that is used for storing metadata slots of all
//! mutable files requested by the consumer. As the metadata region is
//! contiguous, a consumer only needs a single RDMA Read to update the
//! metadata for all files from which it is actively reading." (§4.4.2)
//!
//! [`MultiRdmaConsumer`] subscribes to several partitions of one broker
//! under one consumer id; every poll refreshes *all* subscriptions with one
//! RDMA Read of the slot region, then fetches new bytes per partition.

use std::collections::VecDeque;

use kdstorage::record::{decode_batch, peek_total_len, RecordView, LENGTH_PREFIX_LEN};
use kdstorage::TopicPartition;
use kdwire::slots::{SlotView, SLOT_SIZE};
use kdwire::{BrokerAddr, ConsumeAccessResp, Request, Response};
use netsim::profile::copy_time;
use netsim::NodeHandle;
use rnic::{CompletionQueue, QpOptions, QueuePair, RNic, SendWr, ShmBuf, WorkRequest};

use crate::conn::{ClientTransport, Conn};
use crate::error::{check, ClientError};
use crate::rdma_consumer::DEFAULT_FETCH_SIZE;

struct Subscription {
    tp: TopicPartition,
    /// Next record offset to deliver.
    offset: u64,
    grant: Option<ConsumeAccessResp>,
    read_pos: u32,
    last_readable: u32,
    mutable: bool,
    partial: Vec<u8>,
}

/// Telemetry of a multi-consumer.
#[derive(Debug, Default, Clone, Copy)]
pub struct MultiConsumerStats {
    /// RDMA Reads of the shared slot region — ONE per poll regardless of
    /// subscription count (the Fig 9 property).
    pub slot_reads: u64,
    pub data_reads: u64,
    pub data_bytes: u64,
    pub access_requests: u64,
}

/// An RDMA consumer subscribed to several topic partitions of one broker.
pub struct MultiRdmaConsumer {
    node: NodeHandle,
    ctrl: Conn,
    #[allow(dead_code)] // owns the registrations backing the QP
    nic: RNic,
    qp: QueuePair,
    send_cq: CompletionQueue,
    consumer_id: u64,
    subs: Vec<Subscription>,
    pub fetch_size: u32,
    fetch_buf: ShmBuf,
    slot_buf: ShmBuf,
    ready: VecDeque<(TopicPartition, RecordView)>,
    pub stats: MultiConsumerStats,
}

impl MultiRdmaConsumer {
    pub async fn connect(
        node: &NodeHandle,
        broker: BrokerAddr,
    ) -> Result<MultiRdmaConsumer, ClientError> {
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
        Ok(MultiRdmaConsumer {
            node: node.clone(),
            ctrl,
            nic,
            qp,
            send_cq,
            consumer_id: sim::rng::range_u64(1..u64::MAX),
            subs: Vec::new(),
            fetch_size: DEFAULT_FETCH_SIZE,
            fetch_buf: ShmBuf::zeroed(DEFAULT_FETCH_SIZE as usize),
            slot_buf: ShmBuf::zeroed(64 * SLOT_SIZE),
            ready: VecDeque::new(),
            stats: MultiConsumerStats::default(),
        })
    }

    /// Adds a subscription starting at `offset`.
    pub async fn subscribe(
        &mut self,
        topic: &str,
        partition: u32,
        offset: u64,
    ) -> Result<(), ClientError> {
        let mut sub = Subscription {
            tp: TopicPartition::new(topic, partition),
            offset,
            grant: None,
            read_pos: 0,
            last_readable: 0,
            mutable: true,
            partial: Vec::new(),
        };
        self.acquire(&mut sub).await?;
        self.subs.push(sub);
        Ok(())
    }

    pub fn subscriptions(&self) -> usize {
        self.subs.len()
    }

    async fn acquire(&mut self, sub: &mut Subscription) -> Result<(), ClientError> {
        self.stats.access_requests += 1;
        let resp = self
            .ctrl
            .call(&Request::ConsumeAccess {
                topic: sub.tp.topic.as_str().to_string(),
                partition: sub.tp.partition,
                offset: sub.offset,
                consumer_id: self.consumer_id,
            })
            .await?;
        let grant = match resp {
            Response::ConsumeAccess(g) => g,
            _ => return Err(ClientError::Protocol),
        };
        check(grant.error)?;
        sub.read_pos = grant.start_pos;
        sub.last_readable = grant.last_readable;
        sub.mutable = grant.mutable;
        sub.partial.clear();
        sub.grant = Some(grant);
        Ok(())
    }

    async fn release(&mut self, idx: usize) -> Result<(), ClientError> {
        let (tp, segment) = {
            let sub = &self.subs[idx];
            let Some(grant) = &sub.grant else {
                return Ok(());
            };
            (sub.tp.clone(), grant.segment)
        };
        let _ = self
            .ctrl
            .call(&Request::ConsumeRelease {
                topic: tp.topic.as_str().to_string(),
                partition: tp.partition,
                consumer_id: self.consumer_id,
                segment,
            })
            .await?;
        self.subs[idx].grant = None;
        Ok(())
    }

    async fn rdma_read(
        &self,
        local: rnic::BufSlice,
        remote_addr: u64,
        rkey: u32,
    ) -> Result<(), ClientError> {
        self.qp
            .post_send(SendWr::new(
                7,
                WorkRequest::Read {
                    local,
                    remote_addr,
                    rkey,
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
        Ok(())
    }

    /// Refreshes every subscription's `last_readable`/`mutable` with a
    /// single RDMA Read spanning all active slots (Fig 9).
    async fn refresh_all_metadata(&mut self) -> Result<(), ClientError> {
        // The slot region is the same for all of this consumer's grants;
        // read the widest active span any grant reports.
        let mut region = None;
        let mut span_slots: u32 = 0;
        for sub in &self.subs {
            if let Some(slot) = sub.grant.as_ref().and_then(|g| g.slot) {
                span_slots = span_slots.max(slot.active_span).max(slot.index + 1);
                region = Some(slot.region);
            }
        }
        let Some(region) = region else {
            return Ok(()); // only immutable files right now
        };
        let span = (span_slots as usize * SLOT_SIZE).min(self.slot_buf.len());
        self.stats.slot_reads += 1;
        let local = self.slot_buf.slice(0, span);
        self.rdma_read(local, region.addr, region.rkey).await?;
        for sub in &mut self.subs {
            if let Some(slot) = sub.grant.as_ref().and_then(|g| g.slot) {
                let at = slot.index as usize * SLOT_SIZE;
                if at + SLOT_SIZE <= span {
                    let view = self.slot_buf.with(|s| SlotView::decode(&s[at..at + SLOT_SIZE]));
                    sub.last_readable = view.last_readable;
                    sub.mutable = view.mutable;
                }
            }
        }
        Ok(())
    }

    /// One poll iteration across all subscriptions: a single metadata read,
    /// then one data read per subscription with new bytes. Returns the
    /// records that became ready, tagged with their partition.
    pub async fn poll(&mut self) -> Result<Vec<(TopicPartition, RecordView)>, ClientError> {
        if !self.ready.is_empty() {
            return Ok(self.ready.drain(..).collect());
        }
        // Roll any exhausted immutable files.
        for idx in 0..self.subs.len() {
            let needs_roll = {
                let s = &self.subs[idx];
                s.grant.is_some() && !s.mutable && s.read_pos >= s.last_readable
            };
            if needs_roll {
                self.release(idx).await?;
                let mut sub = std::mem::replace(
                    &mut self.subs[idx],
                    Subscription {
                        tp: TopicPartition::new("", 0),
                        offset: 0,
                        grant: None,
                        read_pos: 0,
                        last_readable: 0,
                        mutable: true,
                        partial: Vec::new(),
                    },
                );
                self.acquire(&mut sub).await?;
                self.subs[idx] = sub;
            }
        }
        // One read refreshes every mutable file's metadata.
        self.refresh_all_metadata().await?;
        // Fetch per subscription with new readable bytes.
        for idx in 0..self.subs.len() {
            let (addr, rkey, n, pos) = {
                let s = &self.subs[idx];
                if s.grant.is_none() || s.read_pos >= s.last_readable {
                    continue;
                }
                let g = s.grant.as_ref().unwrap();
                let n = (s.last_readable - s.read_pos).min(self.fetch_size) as usize;
                (g.region.addr + u64::from(s.read_pos), g.region.rkey, n, s.read_pos)
            };
            let _ = pos;
            if self.fetch_buf.len() < n {
                self.fetch_buf = ShmBuf::zeroed(n);
            }
            self.stats.data_reads += 1;
            self.stats.data_bytes += n as u64;
            let local = self.fetch_buf.slice(0, n);
            self.rdma_read(local, addr, rkey).await?;
            let cpu = &self.node.profile().cpu;
            sim::time::sleep(
                copy_time(n as u64, cpu.crc_bandwidth) + copy_time(n as u64, cpu.memcpy_bandwidth),
            )
            .await;
            let sub = &mut self.subs[idx];
            self.fetch_buf.with(|s| sub.partial.extend_from_slice(&s[..n]));
            sub.read_pos += n as u32;
            // Parse complete batches.
            let mut at = 0usize;
            while sub.partial.len() - at >= LENGTH_PREFIX_LEN {
                let total =
                    peek_total_len(&sub.partial[at..]).map_err(|_| ClientError::Corrupt)?;
                if sub.partial.len() - at < total {
                    break;
                }
                let records = decode_batch(&sub.partial[at..at + total])
                    .map_err(|_| ClientError::Corrupt)?;
                for rv in records {
                    if rv.offset >= sub.offset {
                        sub.offset = rv.offset + 1;
                        self.ready.push_back((sub.tp.clone(), rv));
                    }
                }
                at += total;
            }
            sub.partial.drain(..at);
        }
        Ok(self.ready.drain(..).collect())
    }

    /// Polls until at least one record arrives on any subscription.
    pub async fn next_records(
        &mut self,
    ) -> Result<Vec<(TopicPartition, RecordView)>, ClientError> {
        loop {
            let records = self.poll().await?;
            if !records.is_empty() {
                return Ok(records);
            }
        }
    }
}
