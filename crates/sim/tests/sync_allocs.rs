//! The per-event bookkeeping of the wake primitives must not allocate.
//!
//! The broker wakes a task on every high-watermark advance (`watch`), every
//! replication credit (`Semaphore`) and every queued request (`WorkQueue`).
//! A counting global allocator pins that, once warm, each of these
//! handoffs to a parked task reuses retained capacity instead of building a
//! fresh waker list.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use sim::sync::mpmc::WorkQueue;
use sim::sync::{watch, Semaphore};

struct CountingAlloc;

thread_local! {
    /// Per thread, so that tests running in parallel do not count each
    /// other's allocations.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|a| a.set(a.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|a| a.set(a.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const WARM_UP: u64 = 16;
const CYCLES: u64 = 256;

/// Builds a cycle with `setup`, runs it for warm-up and then measured rounds
/// on a fresh runtime, and returns the allocations made by the measured rounds. Each cycle
/// hands one event to a task parked by `setup`, then yields so that the
/// task runs and parks again.
fn measured_allocs<S, C>(setup: S) -> u64
where
    S: FnOnce() -> C + 'static,
    C: AsyncFnMut(u64) + 'static,
{
    let rt = sim::Runtime::new();
    rt.block_on(async move {
        let mut cycle = setup();
        sim::time::yield_now().await;
        for i in 0..WARM_UP {
            cycle(i).await;
        }
        let before = allocs();
        for i in WARM_UP..WARM_UP + CYCLES {
            cycle(i).await;
        }
        allocs() - before
    })
}

#[test]
fn watch_send_to_parked_receiver_allocates_nothing() {
    let seen = Rc::new(Cell::new(0u64));
    let s = Rc::clone(&seen);
    let n = measured_allocs(move || {
        let (tx, mut rx) = watch::channel(0u64);
        sim::spawn_detached(async move {
            while rx.changed().await.is_ok() {
                s.set(rx.borrow_and_update(|v| *v));
            }
        });
        async move |i| {
            tx.send(i + 1);
            sim::time::yield_now().await;
        }
    });
    assert_eq!(seen.get(), WARM_UP + CYCLES, "receiver saw every send");
    assert_eq!(n, 0, "{n} allocations over {CYCLES} send/changed cycles");
}

#[test]
fn add_permits_to_parked_acquire_allocates_nothing() {
    let got = Rc::new(Cell::new(0u64));
    let g = Rc::clone(&got);
    let n = measured_allocs(move || {
        let sem = Semaphore::new(0);
        let waiter = sem.clone();
        sim::spawn_detached(async move {
            while let Ok(permit) = waiter.acquire(1).await {
                permit.forget();
                g.set(g.get() + 1);
            }
        });
        async move |_| {
            sem.add_permits(1);
            sim::time::yield_now().await;
        }
    });
    assert_eq!(got.get(), WARM_UP + CYCLES, "every permit was taken");
    assert_eq!(n, 0, "{n} allocations over {CYCLES} add_permits wakes");
}

#[test]
fn work_queue_handoff_to_parked_receiver_allocates_nothing() {
    let sum = Rc::new(Cell::new(0u64));
    let s = Rc::clone(&sum);
    let n = measured_allocs(move || {
        let q: WorkQueue<u64> = WorkQueue::new(4);
        let rx = q.clone();
        sim::spawn_detached(async move {
            while let Some(v) = rx.recv().await {
                s.set(s.get() + v);
            }
        });
        async move |i| {
            q.send(i).await.unwrap();
            sim::time::yield_now().await;
        }
    });
    let total = WARM_UP + CYCLES;
    assert_eq!(
        sum.get(),
        total * (total - 1) / 2,
        "every item was received"
    );
    assert_eq!(n, 0, "{n} allocations over {CYCLES} send/recv handoffs");
}
