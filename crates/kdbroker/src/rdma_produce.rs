//! The RDMA produce module (paper Fig 2 ➎, §4.2.2).
//!
//! Owns the 16-bit file-ID namespace (Fig 4), produce grants (exclusive /
//! shared / replication), the shared-mode order machinery (Fig 5), and
//! access revocation.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use kdstorage::TopicPartition;
use kdwire::messages::ProduceMode;
use netsim::NodeId;
use rnic::{Access, MemoryRegion, RNic, ShmBuf};
use sim::sync::TicketChain;

use crate::requests::{AckRoute, WorkItem};

/// Shared-mode coordination state.
pub struct SharedState {
    /// The 8-byte order/offset word (Fig 5), FAA-able by producers and by
    /// the broker itself for TCP produce into the same file.
    pub word_buf: ShmBuf,
    pub word_mr: MemoryRegion,
    /// Next producer order expected to commit.
    pub expected_order: Cell<u16>,
    /// Out-of-order arrivals parked until their predecessors commit,
    /// keyed by order number.
    pub pending: RefCell<HashMap<u16, PendingShared>>,
    /// Bumped on abort so stale timeout watchers do nothing.
    pub generation: Cell<u64>,
}

/// A parked out-of-order produce completion.
pub struct PendingShared {
    pub byte_len: u32,
    pub ack: AckRoute,
    pub trace: Option<kdtelem::TraceCtx>,
}

/// An active produce grant on one head file.
pub struct Grant {
    pub file_id: u16,
    pub segment: u32,
    pub mode: ProduceMode,
    pub mr: MemoryRegion,
    /// Node the grant was issued to (exclusive/replication revocation on
    /// disconnect).
    pub owner: NodeId,
    /// Set when the grant is revoked/rolled; late completions get errors.
    pub closed: Cell<bool>,
    /// Completion-order processing chain (§4.2.2: requests are processed
    /// "in the same order as the corresponding completion events").
    pub chain: TicketChain,
    /// Ticket counter used by the CQ pollers.
    pub next_seq: Cell<u64>,
    /// Reorder stage: commit items enter the shared request queue strictly
    /// in sequence order, even when several poller threads interleave.
    enqueue_next: Cell<u64>,
    enqueue_buf: RefCell<HashMap<u64, WorkItem>>,
    pub shared: Option<SharedState>,
}

impl Grant {
    /// Stages a commit item for enqueueing and emits the consecutive run now
    /// ready, in sequence order. A poller that finishes handling a later
    /// completion first parks its item here until its predecessors flush.
    pub fn stage_enqueue(&self, seq: u64, item: WorkItem, emit: &mut dyn FnMut(WorkItem)) {
        // In-order fast path: nothing parked, this is the next sequence —
        // skip the reorder map entirely (no allocation on the hot path).
        if seq == self.enqueue_next.get() && self.enqueue_buf.borrow().is_empty() {
            self.enqueue_next.set(seq + 1);
            emit(item);
            return;
        }
        self.enqueue_buf.borrow_mut().insert(seq, item);
        let mut next = self.enqueue_next.get();
        while let Some(item) = self.enqueue_buf.borrow_mut().remove(&next) {
            emit(item);
            next += 1;
        }
        self.enqueue_next.set(next);
    }

    /// Shared-mode in-order fast path: when this completion carries the
    /// expected order and nothing is parked, claims the order (bumping
    /// `expected_order`) and returns `true` — the caller commits inline,
    /// exactly like an exclusive grant, with no `ready` vector. Mirrors
    /// the [`stage_enqueue`](Self::stage_enqueue) fast path one level up.
    pub fn shared_fast_path(&self, order: u16) -> bool {
        let shared = self.shared.as_ref().expect("shared grant");
        if order == shared.expected_order.get() && shared.pending.borrow().is_empty() {
            shared.expected_order.set(order.wrapping_add(1));
            true
        } else {
            false
        }
    }

    /// Outcome of an arriving completion in shared mode: which spans are
    /// now committable, in order.
    pub fn on_shared_arrival(
        &self,
        order: u16,
        byte_len: u32,
        ack: AckRoute,
        trace: Option<kdtelem::TraceCtx>,
    ) -> Vec<(u32, AckRoute, Option<kdtelem::TraceCtx>)> {
        let shared = self.shared.as_ref().expect("shared grant");
        let expected = shared.expected_order.get();
        if order != expected {
            // Duplicate / ancient orders are protocol errors; park the rest.
            shared
                .pending
                .borrow_mut()
                .insert(order, PendingShared { byte_len, ack, trace });
            return Vec::new();
        }
        let mut ready = vec![(byte_len, ack, trace)];
        let mut next = expected.wrapping_add(1);
        while let Some(p) = shared.pending.borrow_mut().remove(&next) {
            ready.push((p.byte_len, p.ack, p.trace));
            next = next.wrapping_add(1);
        }
        shared.expected_order.set(next);
        ready
    }

    /// True if `order` is still parked (used by timeout watchers).
    pub fn is_pending(&self, order: u16, generation: u64) -> bool {
        match &self.shared {
            Some(s) => s.generation.get() == generation && s.pending.borrow().contains_key(&order),
            None => false,
        }
    }
}

/// The produce module: file-ID table + grant construction.
#[derive(Default)]
pub struct ProduceModule {
    files: RefCell<HashMap<u16, (TopicPartition, Rc<Grant>)>>,
    next_file_id: Cell<u16>,
}

impl ProduceModule {
    /// Resolves the file ID from a WriteWithImm's immediate data to its
    /// partition and grant (Fig 2 ➎: "maps the file ID to the requested
    /// TP").
    pub fn lookup(&self, file_id: u16) -> Option<(TopicPartition, Rc<Grant>)> {
        self.files.borrow().get(&file_id).cloned()
    }

    fn alloc_file_id(&self) -> u16 {
        let id = self.next_file_id.get();
        self.next_file_id.set(id.wrapping_add(1));
        id
    }

    /// Creates and registers a grant for `segment` of `tp`.
    pub fn create_grant(
        &self,
        nic: &RNic,
        tp: &TopicPartition,
        segment: u32,
        seg_buf: std::rc::Rc<std::cell::RefCell<Vec<u8>>>,
        mode: ProduceMode,
        owner: NodeId,
    ) -> Rc<Grant> {
        let access = Access::REMOTE_WRITE | Access::REMOTE_READ;
        let mr = nic.reg_mr(ShmBuf::from_shared(seg_buf), access);
        let shared = match mode {
            ProduceMode::Shared => {
                let word_buf = ShmBuf::zeroed(8);
                let word_mr = nic.reg_mr(word_buf.clone(), Access::all());
                Some(SharedState {
                    word_buf,
                    word_mr,
                    expected_order: Cell::new(0),
                    pending: RefCell::new(HashMap::new()),
                    generation: Cell::new(0),
                })
            }
            _ => None,
        };
        let grant = Rc::new(Grant {
            file_id: self.alloc_file_id(),
            segment,
            mode,
            mr,
            owner,
            closed: Cell::new(false),
            chain: TicketChain::new(),
            next_seq: Cell::new(0),
            enqueue_next: Cell::new(0),
            enqueue_buf: RefCell::new(HashMap::new()),
            shared,
        });
        self.files
            .borrow_mut()
            .insert(grant.file_id, (tp.clone(), Rc::clone(&grant)));
        grant
    }

    /// Closes a grant: deregisters its memory (in-flight writes fault, as
    /// §4.2.2's revocation requires) and fails parked completions. The file
    /// ID stays mapped so late completions can be answered with errors.
    pub fn revoke(&self, nic: &RNic, grant: &Rc<Grant>) -> Vec<AckRoute> {
        if grant.closed.get() {
            return Vec::new();
        }
        grant.closed.set(true);
        nic.dereg_mr(&grant.mr);
        let mut failed = Vec::new();
        if let Some(shared) = &grant.shared {
            nic.dereg_mr(&shared.word_mr);
            shared.generation.set(shared.generation.get() + 1);
            for (_, p) in shared.pending.borrow_mut().drain() {
                failed.push(p.ack);
            }
        }
        failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdwire::slots::{pack_shared_word, SharedWord};
    use netsim::profile::Profile;
    use netsim::Fabric;

    fn setup() -> (RNic, ProduceModule, TopicPartition) {
        let f = Fabric::new(Profile::fast_test());
        let node = f.add_node("b");
        (RNic::new(&node), ProduceModule::default(), TopicPartition::new("t", 0))
    }

    fn seg_buf() -> std::rc::Rc<std::cell::RefCell<Vec<u8>>> {
        std::rc::Rc::new(std::cell::RefCell::new(vec![0u8; 4096]))
    }

    #[test]
    fn grant_lookup_by_file_id() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let (nic, m, tp) = setup();
            let g = m.create_grant(&nic, &tp, 0, seg_buf(), ProduceMode::Exclusive, NodeId(5));
            let (tp2, g2) = m.lookup(g.file_id).unwrap();
            assert_eq!(tp2, tp);
            assert_eq!(g2.file_id, g.file_id);
            assert!(m.lookup(g.file_id.wrapping_add(1)).is_none());
        });
    }

    #[test]
    fn shared_orders_drain_in_sequence() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let (nic, m, tp) = setup();
            let g = m.create_grant(&nic, &tp, 0, seg_buf(), ProduceMode::Shared, NodeId(5));
            // Orders 1 and 2 arrive before 0.
            assert!(g.on_shared_arrival(1, 10, AckRoute::None, None).is_empty());
            assert!(g.on_shared_arrival(2, 20, AckRoute::None, None).is_empty());
            let ready = g.on_shared_arrival(0, 5, AckRoute::None, None);
            let lens: Vec<u32> = ready.iter().map(|(l, _, _)| *l).collect();
            assert_eq!(lens, vec![5, 10, 20]);
            assert_eq!(g.shared.as_ref().unwrap().expected_order.get(), 3);
        });
    }

    #[test]
    fn shared_order_wraps_past_u16() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let (nic, m, tp) = setup();
            let g = m.create_grant(&nic, &tp, 0, seg_buf(), ProduceMode::Shared, NodeId(5));
            let s = g.shared.as_ref().unwrap();
            s.expected_order.set(0xffff);
            assert!(g.on_shared_arrival(0, 8, AckRoute::None, None).is_empty());
            let ready = g.on_shared_arrival(0xffff, 4, AckRoute::None, None);
            assert_eq!(ready.len(), 2);
            assert_eq!(s.expected_order.get(), 1);
        });
    }

    #[test]
    fn revoke_invalidates_memory_and_fails_pending() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let (nic, m, tp) = setup();
            let g = m.create_grant(&nic, &tp, 0, seg_buf(), ProduceMode::Shared, NodeId(5));
            g.on_shared_arrival(3, 10, AckRoute::None, None);
            assert!(g.is_pending(3, 0));
            let failed = m.revoke(&nic, &g);
            assert_eq!(failed.len(), 1);
            assert!(g.closed.get());
            assert!(!g.mr.is_valid());
            assert!(!g.is_pending(3, 0), "generation bumped");
            // Idempotent.
            assert!(m.revoke(&nic, &g).is_empty());
        });
    }

    #[test]
    fn shared_word_readable_by_design() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let (nic, m, tp) = setup();
            let g = m.create_grant(&nic, &tp, 0, seg_buf(), ProduceMode::Shared, NodeId(5));
            let s = g.shared.as_ref().unwrap();
            s.word_buf.write_u64(
                0,
                pack_shared_word(SharedWord { order: 2, offset: 64 }),
            );
            assert_eq!(s.word_buf.read_u64(0) & ((1 << 48) - 1), 64);
        });
    }
}
