//! Reliably-connected queue pairs.
//!
//! Each posted work request is simulated by its own task, but two FIFO
//! ticket chains per QP enforce the RC ordering guarantees the paper's
//! protocols depend on (§4.1, §4.2.2):
//!
//! * the **delivery chain** — remote effects (memory writes, receive
//!   consumption, atomics) happen strictly in post order;
//! * the **completion chain** — initiator completions are delivered to the
//!   send CQ strictly in post order.
//!
//! Timing comes from the fabric's link reservations, made synchronously at
//! post time (the NIC pipelines; the link model serialises).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::{Rc, Weak};
use std::time::Duration;

use netsim::NodeId;
use sim::sync::{Notify, TicketChain};
use sim::SimTime;

use crate::cq::CompletionQueue;
use crate::mr::{Access, BufSlice, MrInner};
use crate::nic::{NicInner, WQE_BYTES};
use crate::srq::Srq;
use crate::verbs::{CqOpcode, CqStatus, Cqe, PostError, RecvWr, SendWr, WorkRequest};

/// QP configuration.
#[derive(Debug, Clone)]
pub struct QpOptions {
    /// How long a Send/WriteWithImm waits for the receiver to post a receive
    /// before failing with `RnrRetryExceeded`. `None` waits forever
    /// (infinite RNR retry, the common datacenter setting).
    pub rnr_timeout: Option<Duration>,
    /// Receive-queue depth: posting more receives than this panics (it is a
    /// program bug in the simulation, not a runtime condition).
    pub max_recv_wr: usize,
    /// Attach this endpoint to a shared receive queue: incoming
    /// Send/WriteWithImm consume the SRQ's buffers instead of a per-QP
    /// receive queue (posting per-QP receives on such an endpoint is a
    /// bug and panics). Completions still land in this QP's receive CQ
    /// with this QP's number.
    pub srq: Option<Srq>,
    /// DCT-style multiplexed endpoint: this logical connection borrows a
    /// QP from a small lent pool instead of pinning its own NIC context,
    /// so it does not count toward the device's QP-context cache
    /// footprint (the pool pins its contexts once — see
    /// [`MuxPool`](crate::MuxPool)).
    pub multiplexed: bool,
}

impl Default for QpOptions {
    fn default() -> Self {
        QpOptions {
            rnr_timeout: None,
            max_recv_wr: 4096,
            srq: None,
            multiplexed: false,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QpState {
    Connected,
    Error,
}

pub(crate) struct QpShared {
    pub(crate) qpn: u32,
    nic: Rc<NicInner>,
    peer: RefCell<Weak<QpShared>>,
    state: Cell<QpState>,
    send_cq: CompletionQueue,
    recv_cq: CompletionQueue,
    recv_queue: RefCell<VecDeque<RecvWr>>,
    recv_posted: Notify,
    opts: QpOptions,
    next_ticket: Cell<u64>,
    delivery: TicketChain,
    completion: TicketChain,
    error_notify: Notify,
    /// Fault injection: posted receives on this endpoint are invisible to
    /// the peer until this virtual time — a receiver-not-ready storm.
    rnr_storm_until: Cell<Option<SimTime>>,
}

impl QpShared {
    fn new(
        qpn: u32,
        nic: Rc<NicInner>,
        send_cq: CompletionQueue,
        recv_cq: CompletionQueue,
        opts: QpOptions,
    ) -> Rc<QpShared> {
        if !opts.multiplexed {
            nic.pin_contexts(1);
        }
        let qp = Rc::new(QpShared {
            qpn,
            nic,
            peer: RefCell::new(Weak::new()),
            state: Cell::new(QpState::Connected),
            send_cq: send_cq.clone(),
            recv_cq: recv_cq.clone(),
            recv_queue: RefCell::new(VecDeque::new()),
            recv_posted: Notify::new(),
            opts,
            next_ticket: Cell::new(0),
            delivery: TicketChain::new(),
            completion: TicketChain::new(),
            error_notify: Notify::new(),
            rnr_storm_until: Cell::new(None),
        });
        send_cq.attach(&qp);
        recv_cq.attach(&qp);
        qp
    }

    fn peer(&self) -> Option<Rc<QpShared>> {
        self.peer.borrow().upgrade()
    }

    fn is_alive(&self) -> bool {
        self.state.get() == QpState::Connected
    }

    /// Transitions this QP (and its peer) to the error state, flushing
    /// posted receives.
    pub(crate) fn fail(qp: &Rc<QpShared>, status: CqStatus) {
        if qp.state.get() == QpState::Error {
            return;
        }
        qp.state.set(QpState::Error);
        if !qp.opts.multiplexed {
            qp.nic.unpin_contexts(1);
        }
        // Flush posted receives. Only this QP's own queue: buffers on an
        // attached SRQ belong to the SRQ and stay available to every
        // other attached QP — an error flush must not strand them.
        let recvs: Vec<RecvWr> = qp.recv_queue.borrow_mut().drain(..).collect();
        for wr in recvs {
            qp.nic
                .recv_buf_sub(WQE_BYTES + wr.buf.as_ref().map_or(0, |b| b.len() as u64));
            qp.recv_cq.push(Cqe {
                wr_id: wr.wr_id,
                qpn: qp.qpn,
                status: CqStatus::FlushError,
                opcode: CqOpcode::Recv,
                byte_len: 0,
                imm: None,
                atomic_old: None,
                trace: None,
            });
        }
        let _ = status;
        qp.recv_posted.notify_waiters();
        // Liveness does not depend on these two wakes (`run_wr` advances
        // the chains even on a dead QP); they only hurry the flush along.
        qp.delivery.wake_all();
        qp.completion.wake_all();
        qp.error_notify.notify_waiters();
        if let Some(peer) = qp.peer() {
            QpShared::fail(&peer, CqStatus::FlushError);
        }
    }

    fn pop_recv(&self) -> Option<RecvWr> {
        if let Some(srq) = &self.opts.srq {
            return srq.pop();
        }
        let wr = self.recv_queue.borrow_mut().pop_front();
        if let Some(wr) = &wr {
            self.nic
                .recv_buf_sub(WQE_BYTES + wr.buf.as_ref().map_or(0, |b| b.len() as u64));
        }
        wr
    }

    /// The notify a sender parks on while this endpoint has no receive
    /// posted: the attached SRQ's, or this QP's own.
    fn recv_notify(&self) -> &Notify {
        match &self.opts.srq {
            Some(srq) => &srq.inner.posted_notify,
            None => &self.recv_posted,
        }
    }
}

/// One endpoint of a reliably-connected queue pair.
#[derive(Clone)]
pub struct QueuePair {
    pub(crate) shared: Rc<QpShared>,
}

impl QueuePair {
    pub(crate) fn create_connected_pair(
        a_nic: &Rc<NicInner>,
        b_nic: &Rc<NicInner>,
        a_cqs: (CompletionQueue, CompletionQueue),
        b_cqs: (CompletionQueue, CompletionQueue),
        a_opts: QpOptions,
        b_opts: QpOptions,
    ) -> (QueuePair, QueuePair) {
        let registry = &a_nic.registry;
        let a = QpShared::new(
            registry.alloc_qpn(),
            Rc::clone(a_nic),
            a_cqs.0,
            a_cqs.1,
            a_opts,
        );
        let b = QpShared::new(
            registry.alloc_qpn(),
            Rc::clone(b_nic),
            b_cqs.0,
            b_cqs.1,
            b_opts,
        );
        *a.peer.borrow_mut() = Rc::downgrade(&b);
        *b.peer.borrow_mut() = Rc::downgrade(&a);
        (QueuePair { shared: a }, QueuePair { shared: b })
    }

    /// QP number (used to demultiplex completions on shared CQs).
    pub fn qpn(&self) -> u32 {
        self.shared.qpn
    }

    /// Node this endpoint lives on.
    pub fn local_node(&self) -> NodeId {
        self.shared.nic.node.id
    }

    /// Node of the remote endpoint (if still connected).
    pub fn remote_node(&self) -> Option<NodeId> {
        self.shared.peer().map(|p| p.nic.node.id)
    }

    pub fn is_alive(&self) -> bool {
        self.shared.is_alive()
    }

    /// Resolves when the QP enters the error state (peer failure/close) —
    /// §4.2.2: "Client failure can be detected from QP disconnection
    /// events."
    pub async fn disconnected(&self) {
        while self.shared.is_alive() {
            self.shared.error_notify.notified().await;
        }
    }

    /// Tears the connection down; the peer observes a disconnect.
    pub fn close(&self) {
        QpShared::fail(&self.shared, CqStatus::FlushError);
    }

    /// Fault injection: receiver-not-ready storm. For `duration` (virtual
    /// time), receives posted on *this* endpoint are invisible to the peer,
    /// so the peer's Send/WriteWithImm stall in RNR retry — and fail with
    /// `RnrRetryExceeded` if their [`QpOptions::rnr_timeout`] elapses first
    /// (§4.3.2's slow-follower scenario on demand).
    pub fn inject_rnr_storm(&self, duration: Duration) {
        self.shared.rnr_storm_until.set(Some(sim::now() + duration));
    }

    /// Posts a receive work request (`ibv_post_recv`).
    pub fn post_recv(&self, wr: RecvWr) -> Result<(), PostError> {
        if !self.shared.is_alive() {
            return Err(PostError::QpError);
        }
        assert!(
            self.shared.opts.srq.is_none(),
            "post_recv on an SRQ-attached QP: post to the SRQ instead"
        );
        let mut q = self.shared.recv_queue.borrow_mut();
        assert!(
            q.len() < self.shared.opts.max_recv_wr,
            "receive queue overflow (max_recv_wr={})",
            self.shared.opts.max_recv_wr
        );
        self.shared
            .nic
            .recv_buf_add(WQE_BYTES + wr.buf.as_ref().map_or(0, |b| b.len() as u64));
        q.push_back(wr);
        drop(q);
        self.shared.recv_posted.notify_one();
        Ok(())
    }

    /// Posts a list of receive work requests (`ibv_post_recv` with a chained
    /// WR list): one receive-queue lock for the whole chain. Receives carry
    /// no initiator timing, so the only difference from repeated
    /// [`post_recv`](Self::post_recv) calls is the amortised bookkeeping.
    pub fn post_recv_list(&self, wrs: impl IntoIterator<Item = RecvWr>) -> Result<(), PostError> {
        if !self.shared.is_alive() {
            return Err(PostError::QpError);
        }
        assert!(
            self.shared.opts.srq.is_none(),
            "post_recv_list on an SRQ-attached QP: post to the SRQ instead"
        );
        let mut posted = 0usize;
        {
            let mut q = self.shared.recv_queue.borrow_mut();
            for wr in wrs {
                assert!(
                    q.len() < self.shared.opts.max_recv_wr,
                    "receive queue overflow (max_recv_wr={})",
                    self.shared.opts.max_recv_wr
                );
                self.shared
                    .nic
                    .recv_buf_add(WQE_BYTES + wr.buf.as_ref().map_or(0, |b| b.len() as u64));
                q.push_back(wr);
                posted += 1;
            }
        }
        // One permit per WR: each may satisfy a distinct RNR waiter.
        for _ in 0..posted {
            self.shared.recv_posted.notify_one();
        }
        Ok(())
    }

    /// Posts a chained send WR list (`ibv_post_send` postlist): the head WR
    /// pays the full doorbell/WQE-fetch overhead, each linked WR only the
    /// marginal `doorbell_overhead` — the initiator-side amortisation real
    /// verbs applications batch for. Requests execute remotely in list
    /// order; a one-element list is exactly [`post_send`](Self::post_send).
    ///
    /// A chain of two or more WRs runs on one simulation task (`run_wr_chain`)
    /// instead of one task per WR: the chain holds consecutive tickets on
    /// both FIFO chains, so a single task stepping through them in order
    /// produces the same remote effects and CQEs at the same virtual times,
    /// without per-WR park/wake churn.
    pub fn post_send_list(&self, wrs: impl IntoIterator<Item = SendWr>) -> Result<(), PostError> {
        if !self.shared.is_alive() {
            return Err(PostError::QpError);
        }
        let peer = self.shared.peer().ok_or(PostError::QpError)?;
        let doorbell = self.shared.nic.node.fabric.profile().net.doorbell_overhead;
        let mut extra = Duration::ZERO;
        let mut prepared: Vec<(SendWr, u64, Timing)> = Vec::new();
        for (i, wr) in wrs.into_iter().enumerate() {
            if i > 0 {
                extra += doorbell;
            }
            prepared.push(self.prepare(wr, &peer, extra));
        }
        match prepared.len() {
            0 => {}
            1 => {
                let (wr, ticket, timing) = prepared.pop().unwrap();
                let qp = Rc::clone(&self.shared);
                sim::spawn_detached(async move {
                    run_wr(qp, peer, wr, ticket, timing).await;
                });
            }
            _ => {
                let qp = Rc::clone(&self.shared);
                sim::spawn_detached(async move {
                    run_wr_chain(qp, peer, prepared).await;
                });
            }
        }
        Ok(())
    }

    /// Posts a single send work request — the one-doorbell-per-WR entry
    /// point; see [`post_send_list`](Self::post_send_list) for chains.
    pub fn post_send(&self, wr: SendWr) -> Result<(), PostError> {
        if !self.shared.is_alive() {
            return Err(PostError::QpError);
        }
        let peer = self.shared.peer().ok_or(PostError::QpError)?;
        let (wr, ticket, timing) = self.prepare(wr, &peer, Duration::ZERO);
        let qp = Rc::clone(&self.shared);
        sim::spawn_detached(async move {
            run_wr(qp, peer, wr, ticket, timing).await;
        });
        Ok(())
    }

    /// Allocates a ticket and computes the timing of `wr` against the
    /// fabric (all link reservations commit now, at post time). `extra_post`
    /// delays the doorbell/WQE fetch — the position-dependent cost of a
    /// linked WR in a posted list.
    fn prepare(&self, wr: SendWr, peer: &Rc<QpShared>, extra_post: Duration) -> (SendWr, u64, Timing) {
        let qp = &self.shared;
        let ticket = qp.next_ticket.get();
        qp.next_ticket.set(ticket + 1);
        qp.nic.qp_posts.inc();
        let posted = sim::now();
        if let Some(ctx) = wr.trace {
            qp.nic.telem.record_trace_event(
                ctx,
                posted.as_nanos(),
                kdtelem::EventKind::WqePosted {
                    qpn: qp.qpn,
                    ticket,
                },
            );
        }
        // The reservation calls below are synchronous, so the ambient trace
        // context is sound here: the fabric tags each link hop it reserves
        // with this WR's lifeline.
        let _trace_scope = wr.trace.map(kdtelem::enter_ctx);

        let fabric = qp.nic.node.fabric.clone();
        let profile = fabric.profile();
        let net = &profile.net;
        let src = qp.nic.node.id;
        let dst = peer.nic.node.id;

        // All link reservations are committed now (post time): the NIC
        // pipelines WRs and the links serialise them. Each endpoint's
        // per-op gap widens by its NIC's QP-context cache miss penalty —
        // occupancy, not latency, so past the connection-count knee the
        // affected port's aggregate op rate collapses (RDMAvisor §2).
        let src_gap = net.rdma_min_op_gap + qp.nic.cache_penalty(net);
        let dst_gap = net.rdma_min_op_gap + peer.nic.cache_penalty(net);
        let post_done = sim::now() + net.rdma_post_overhead + extra_post;
        let req_arrival = fabric.reserve_path_with(
            post_done,
            src,
            dst,
            wr.op.request_bytes(),
            src_gap,
            dst_gap,
        );
        let timing = match &wr.op {
            WorkRequest::CompareSwap { remote_addr, .. }
            | WorkRequest::FetchAdd { remote_addr, .. } => {
                let exec = fabric.reserve_atomic(dst, *remote_addr, req_arrival);
                let resp = fabric.reserve_path_with(
                    exec,
                    dst,
                    src,
                    wr.op.response_bytes(),
                    dst_gap,
                    src_gap,
                );
                Timing {
                    posted,
                    req_arrival,
                    exec,
                    comp: resp + net.rdma_completion_overhead,
                }
            }
            WorkRequest::Read { .. } => {
                let exec = req_arrival + net.read_response_overhead;
                let resp = fabric.reserve_path_with(
                    exec,
                    dst,
                    src,
                    wr.op.response_bytes(),
                    dst_gap,
                    src_gap,
                );
                Timing {
                    posted,
                    req_arrival,
                    exec,
                    comp: resp + net.rdma_completion_overhead,
                }
            }
            _ => Timing {
                posted,
                req_arrival,
                exec: req_arrival,
                // Hardware ack + initiator CQE.
                comp: req_arrival + net.propagation + net.rdma_completion_overhead,
            },
        };

        (wr, ticket, timing)
    }
}

#[derive(Clone, Copy)]
struct Timing {
    /// When the initiator posted the work request.
    posted: SimTime,
    /// When the request fully arrives at the responder.
    req_arrival: SimTime,
    /// When the responder executes it (atomics serialise; reads pay the DMA
    /// fetch).
    exec: SimTime,
    /// When the initiator completion is visible.
    comp: SimTime,
}

async fn run_wr(qp: Rc<QpShared>, peer: Rc<QpShared>, wr: SendWr, ticket: u64, t: Timing) {
    qp.delivery.wait_turn(ticket).await;

    if !qp.is_alive() {
        qp.delivery.advance(ticket);
        complete(&qp, &wr, ticket, CqStatus::FlushError, 0, None).await;
        return;
    }

    sim::time::sleep_until(t.req_arrival).await;

    // Execute the remote effect.
    let outcome = execute_remote(&qp, &peer, &wr, t).await;

    qp.delivery.advance(ticket);

    let (status, old) = match outcome {
        Ok(old) => (CqStatus::Success, old),
        Err(status) => {
            // Access/protocol errors break the connection (RC semantics).
            QpShared::fail(&qp, status);
            (status, None)
        }
    };

    // Response / ack travel time. An unsignaled success produces no
    // initiator CQE — nothing observable happens at `comp`, so the task
    // does not stay alive just to sleep until then. The completion chain
    // still advances in ticket order, and a later signaled WR waits for
    // its own `comp` before pushing its CQE, so CQE times are unchanged.
    if status != CqStatus::Success || wr.signaled {
        sim::time::sleep_until(t.comp).await;
    }
    if status == CqStatus::Success && wr.signaled {
        qp.nic
            .post_to_comp_ns
            .record(t.comp.saturating_since(t.posted).as_nanos() as u64);
    }
    let byte_len = wr.op.request_bytes().max(wr.op.response_bytes()) as u32;
    complete(&qp, &wr, ticket, status, byte_len, old).await;
}

/// A completion owed by a chain runner, delivered strictly in ticket order.
struct PendingComp {
    wr: SendWr,
    ticket: u64,
    status: CqStatus,
    byte_len: u32,
    old: Option<u64>,
    /// CQE delivery time for signaled/failed WRs; `None` for unsignaled
    /// successes (no CQE — complete as soon as predecessors have).
    due: Option<SimTime>,
    posted: SimTime,
}

/// Completes owed CQEs from the front of `pending`, in ticket order.
/// Immediate entries (`due == None`) complete without sleeping; timed
/// entries sleep to their delivery time first. With `horizon` set, timed
/// entries due after it stay queued (they belong after the caller's next
/// arrival); with `None` everything flushes.
async fn flush_comps(qp: &Rc<QpShared>, pending: &mut VecDeque<PendingComp>, horizon: Option<SimTime>) {
    while let Some(front) = pending.front() {
        if let (Some(due), Some(h)) = (front.due, horizon) {
            if due > h {
                break;
            }
        }
        let c = pending.pop_front().unwrap();
        if let Some(due) = c.due {
            sim::time::sleep_until(due).await;
        }
        if c.status == CqStatus::Success && c.wr.signaled {
            qp.nic
                .post_to_comp_ns
                .record(c.due.unwrap_or(c.posted).saturating_since(c.posted).as_nanos() as u64);
        }
        complete(qp, &c.wr, c.ticket, c.status, c.byte_len, c.old).await;
    }
}

/// Runs a whole posted WR list on one task. The list owns consecutive
/// tickets on both FIFO chains, so stepping through it in order replicates
/// the per-task path: each WR's remote effect lands at its reserved
/// `req_arrival`, the delivery chain advances per WR, and completions are
/// deferred through [`flush_comps`] so CQEs still surface in ticket order at
/// their reserved times. What the merge removes is the per-WR park/wake on
/// the two chains — the executor-poll churn doorbell batching exists to
/// amortise.
async fn run_wr_chain(qp: Rc<QpShared>, peer: Rc<QpShared>, items: Vec<(SendWr, u64, Timing)>) {
    let mut pending: VecDeque<PendingComp> = VecDeque::with_capacity(items.len());
    let first_ticket = items[0].1;
    qp.delivery.wait_turn(first_ticket).await;
    for (wr, ticket, t) in items {
        if !qp.is_alive() {
            // Same as the per-task path: advance and owe an immediate flush
            // completion, no sleeps.
            qp.delivery.advance(ticket);
            pending.push_back(PendingComp {
                wr,
                ticket,
                status: CqStatus::FlushError,
                byte_len: 0,
                old: None,
                due: None,
                posted: t.posted,
            });
            continue;
        }
        // Deliver CQEs that fall before this WR's arrival while the wire is
        // "in flight" — exactly when their stand-alone tasks would have.
        flush_comps(&qp, &mut pending, Some(t.req_arrival)).await;
        sim::time::sleep_until(t.req_arrival).await;
        let outcome = execute_remote(&qp, &peer, &wr, t).await;
        qp.delivery.advance(ticket);
        let (status, old) = match outcome {
            Ok(old) => (CqStatus::Success, old),
            Err(status) => {
                QpShared::fail(&qp, status);
                (status, None)
            }
        };
        let byte_len = wr.op.request_bytes().max(wr.op.response_bytes()) as u32;
        let due = if status != CqStatus::Success || wr.signaled {
            Some(t.comp)
        } else {
            None
        };
        pending.push_back(PendingComp {
            wr,
            ticket,
            status,
            byte_len,
            old,
            due,
            posted: t.posted,
        });
        // Unsignaled successes complete right after advancing delivery on
        // the per-task path; match that whenever nothing timed is owed
        // ahead of them.
        flush_comps(&qp, &mut pending, Some(sim::now())).await;
    }
    flush_comps(&qp, &mut pending, None).await;
}

async fn complete(
    qp: &Rc<QpShared>,
    wr: &SendWr,
    ticket: u64,
    status: CqStatus,
    byte_len: u32,
    atomic_old: Option<u64>,
) {
    qp.completion.wait_turn(ticket).await;
    if wr.signaled || status != CqStatus::Success {
        if let Some(ctx) = wr.trace {
            qp.nic.telem.trace_event_now(
                ctx,
                kdtelem::EventKind::Completion {
                    qpn: qp.qpn,
                    ticket,
                    opcode: wr.op.opcode_name(),
                    ok: status.is_ok(),
                },
            );
        }
        qp.send_cq.push(Cqe {
            wr_id: wr.wr_id,
            qpn: qp.qpn,
            status,
            opcode: wr.op.opcode(),
            byte_len,
            imm: None,
            atomic_old,
            trace: wr.trace,
        });
    }
    qp.completion.advance(ticket);
}

/// Validates and applies the remote effect of `wr`. Returns the old value
/// for atomics.
async fn execute_remote(
    qp: &Rc<QpShared>,
    peer: &Rc<QpShared>,
    wr: &SendWr,
    t: Timing,
) -> Result<Option<u64>, CqStatus> {
    if !peer.is_alive() {
        return Err(CqStatus::FlushError);
    }
    match &wr.op {
        WorkRequest::Write {
            local,
            remote_addr,
            rkey,
        } => {
            let mr = check_remote(peer, *rkey, *remote_addr, local.len() as u64, Access::REMOTE_WRITE)?;
            write_region(&mr, *remote_addr, local);
            peer.nic.writes_in.set(peer.nic.writes_in.get() + 1);
            peer.nic.one_sided_in.inc();
            Ok(None)
        }
        WorkRequest::WriteImm {
            local,
            remote_addr,
            rkey,
            imm,
        } => {
            let mr = check_remote(peer, *rkey, *remote_addr, local.len() as u64, Access::REMOTE_WRITE)?;
            write_region(&mr, *remote_addr, local);
            peer.nic.writes_in.set(peer.nic.writes_in.get() + 1);
            peer.nic.one_sided_in.inc();
            let recv = wait_recv(qp, peer).await?;
            peer.recv_cq.push(Cqe {
                wr_id: recv.wr_id,
                qpn: peer.qpn,
                status: CqStatus::Success,
                opcode: CqOpcode::RecvRdmaWithImm,
                byte_len: local.len() as u32,
                imm: Some(*imm),
                atomic_old: None,
                // WR context crosses to the target with the notification —
                // the immediate stays free for the file-ID/order word.
                trace: wr.trace,
            });
            Ok(None)
        }
        WorkRequest::Send { local } | WorkRequest::SendImm { local, .. } => {
            let recv = wait_recv(qp, peer).await?;
            match &recv.buf {
                Some(buf) if buf.len() >= local.len() => local.copy_to(buf),
                Some(_) => return Err(CqStatus::LocalLengthError),
                None if local.is_empty() => {}
                None => return Err(CqStatus::LocalLengthError),
            }
            peer.nic.sends_in.set(peer.nic.sends_in.get() + 1);
            let imm = match &wr.op {
                WorkRequest::SendImm { imm, .. } => Some(*imm),
                _ => None,
            };
            peer.recv_cq.push(Cqe {
                wr_id: recv.wr_id,
                qpn: peer.qpn,
                status: CqStatus::Success,
                opcode: CqOpcode::Recv,
                byte_len: local.len() as u32,
                imm,
                atomic_old: None,
                trace: wr.trace,
            });
            Ok(None)
        }
        WorkRequest::Read {
            local,
            remote_addr,
            rkey,
        } => {
            let mr = check_remote(peer, *rkey, *remote_addr, local.len() as u64, Access::REMOTE_READ)?;
            // Snapshot at execution time; deliver after response travel.
            let offset = (*remote_addr - mr.addr) as usize;
            peer.nic.reads_served.set(peer.nic.reads_served.get() + 1);
            peer.nic.one_sided_in.inc();
            mr.buf.slice(offset, local.len()).copy_to(local);
            Ok(None)
        }
        WorkRequest::CompareSwap {
            local,
            remote_addr,
            rkey,
            compare,
            swap,
        } => {
            let mr = check_atomic(peer, *rkey, *remote_addr)?;
            sim::time::sleep_until(t.exec).await;
            let offset = (*remote_addr - mr.addr) as usize;
            let old = mr.buf.read_u64(offset);
            if old == *compare {
                mr.buf.write_u64(offset, *swap);
            }
            peer.nic.atomics_served.set(peer.nic.atomics_served.get() + 1);
            peer.nic.one_sided_in.inc();
            local.copy_from(&old.to_le_bytes());
            Ok(Some(old))
        }
        WorkRequest::FetchAdd {
            local,
            remote_addr,
            rkey,
            add,
        } => {
            let mr = check_atomic(peer, *rkey, *remote_addr)?;
            sim::time::sleep_until(t.exec).await;
            let offset = (*remote_addr - mr.addr) as usize;
            let old = mr.buf.read_u64(offset);
            mr.buf.write_u64(offset, old.wrapping_add(*add));
            peer.nic.atomics_served.set(peer.nic.atomics_served.get() + 1);
            peer.nic.one_sided_in.inc();
            local.copy_from(&old.to_le_bytes());
            Ok(Some(old))
        }
    }
}

fn write_region(mr: &Rc<MrInner>, remote_addr: u64, local: &BufSlice) {
    let offset = (remote_addr - mr.addr) as usize;
    // Borrowed-slice copy straight into the region; alias-safe when the
    // source slice lives in the same ShmBuf (loopback writes).
    local.copy_to(&mr.buf.slice(offset, local.len()));
}

fn check_remote(
    peer: &Rc<QpShared>,
    rkey: u32,
    addr: u64,
    len: u64,
    needed: Access,
) -> Result<Rc<MrInner>, CqStatus> {
    let mr = peer.nic.find_mr(rkey).ok_or(CqStatus::RemoteAccessError)?;
    if !mr.access.allows(needed) {
        return Err(CqStatus::RemoteAccessError);
    }
    let end = addr.checked_add(len).ok_or(CqStatus::RemoteAccessError)?;
    if addr < mr.addr || end > mr.addr + mr.buf.len() as u64 {
        return Err(CqStatus::RemoteAccessError);
    }
    Ok(mr)
}

fn check_atomic(peer: &Rc<QpShared>, rkey: u32, addr: u64) -> Result<Rc<MrInner>, CqStatus> {
    let mr = check_remote(peer, rkey, addr, 8, Access::REMOTE_ATOMIC)?;
    if !addr.is_multiple_of(8) {
        return Err(CqStatus::RemoteOpError);
    }
    Ok(mr)
}

/// Waits for a posted receive at the peer (RNR behaviour). An injected RNR
/// storm at the peer makes posted receives invisible until it passes.
async fn wait_recv(qp: &Rc<QpShared>, peer: &Rc<QpShared>) -> Result<RecvWr, CqStatus> {
    let storming = |p: &QpShared| p.rnr_storm_until.get().is_some_and(|u| sim::now() < u);
    if !storming(peer) {
        if let Some(r) = peer.pop_recv() {
            return Ok(r);
        }
    }
    let deadline = qp
        .opts
        .rnr_timeout
        .map(|d| sim::now() + d);
    loop {
        if !peer.is_alive() || !qp.is_alive() {
            return Err(CqStatus::FlushError);
        }
        if storming(peer) {
            let until = peer.rnr_storm_until.get().unwrap();
            match deadline {
                Some(dl) if dl <= until => {
                    sim::time::sleep_until(dl).await;
                    return Err(CqStatus::RnrRetryExceeded);
                }
                _ => sim::time::sleep_until(until).await,
            }
            continue;
        }
        if let Some(r) = peer.pop_recv() {
            return Ok(r);
        }
        // Telemetry: the receiver's SRQ ran dry and this sender parks on
        // RNR semantics until a buffer is replenished.
        if let Some(srq) = &peer.opts.srq {
            srq.inner.rnr_dry.inc();
        }
        match deadline {
            None => peer.recv_notify().notified().await,
            Some(dl) => {
                let remaining = dl.saturating_since(sim::now());
                if remaining.is_zero() {
                    return Err(CqStatus::RnrRetryExceeded);
                }
                let _ = sim::time::timeout(remaining, peer.recv_notify().notified()).await;
            }
        }
    }
}
