//! A FIFO ticket chain: imposes a strict processing order on tasks that
//! hold consecutive tickets.
//!
//! The RC queue pairs use one per QP for delivery and one for completion
//! (post order), and the broker uses one per produce file to commit in
//! completion order (paper §4.2.2). Advancing wakes only the task that owns
//! the next ticket: with k tasks parked in the chain a broadcast would cost
//! O(k²) no-op polls over k advances, which is what a per-record path must
//! never pay.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};

/// Tickets `0..done` have passed; parked owners of later tickets wait in
/// `waiters`.
#[derive(Default)]
pub struct TicketChain {
    done: Cell<u64>,
    /// Parked wakers by ticket (tickets are unique within a chain).
    waiters: RefCell<Vec<(u64, Waker)>>,
}

impl TicketChain {
    pub fn new() -> Self {
        Self::default()
    }

    /// Waits until every ticket before `ticket` has been advanced past.
    pub fn wait_turn(&self, ticket: u64) -> Turn<'_> {
        Turn {
            chain: self,
            ticket,
            parked: false,
        }
    }

    /// Passes `ticket`, which the caller owns, and wakes the next owner.
    pub fn advance(&self, ticket: u64) {
        debug_assert_eq!(self.done.get(), ticket);
        self.advance_to(ticket + 1);
    }

    /// Passes a whole run of consecutive tickets in one step. The caller
    /// must own every ticket in `done..next`, i.e. have passed `wait_turn`
    /// for the first.
    pub fn advance_to(&self, next: u64) {
        debug_assert!(next > self.done.get());
        self.done.set(next);
        // Only the owner of `next` can proceed: no parked task holds a
        // passed ticket, since a run passes only tickets its caller owns.
        let woken = {
            let mut ws = self.waiters.borrow_mut();
            ws.iter()
                .position(|(t, _)| *t <= next)
                .map(|i| ws.swap_remove(i).1)
        };
        if let Some(w) = woken {
            w.wake();
        }
    }

    /// Wakes every parked task, turn or not (QP teardown hurries flushed
    /// work along; tasks not yet at their turn park again).
    pub fn wake_all(&self) {
        let ws = std::mem::take(&mut *self.waiters.borrow_mut());
        for (_, w) in ws {
            w.wake();
        }
    }
}

/// Future returned by [`TicketChain::wait_turn`].
pub struct Turn<'a> {
    chain: &'a TicketChain,
    ticket: u64,
    parked: bool,
}

impl Future for Turn<'_> {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let chain = self.chain;
        if chain.done.get() >= self.ticket {
            // Whatever advanced past us also removed our entry.
            self.parked = false;
            return Poll::Ready(());
        }
        let mut ws = chain.waiters.borrow_mut();
        if let Some(slot) = ws.iter_mut().find(|(t, _)| *t == self.ticket) {
            slot.1.clone_from(cx.waker());
        } else {
            ws.push((self.ticket, cx.waker().clone()));
        }
        drop(ws);
        self.parked = true;
        Poll::Pending
    }
}

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        if self.parked && self.chain.done.get() < self.ticket {
            self.chain
                .waiters
                .borrow_mut()
                .retain(|(t, _)| *t != self.ticket);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runtime;
    use std::rc::Rc;
    use std::time::Duration;

    /// Spawns owners of tickets `1..=k`, last ticket first, each recording
    /// when its turn comes.
    fn park_owners(chain: &Rc<TicketChain>, k: u64, order: &Rc<RefCell<Vec<u64>>>) {
        for t in (1..=k).rev() {
            let chain = Rc::clone(chain);
            let order = Rc::clone(order);
            crate::spawn_detached(async move {
                chain.wait_turn(t).await;
                order.borrow_mut().push(t);
            });
        }
    }

    #[test]
    fn single_advances_wake_only_the_next_owner() {
        let k = 32u64;
        let rt = Runtime::new();
        let before = rt.poll_count();
        let order = Rc::new(RefCell::new(Vec::new()));
        let seen = Rc::clone(&order);
        rt.block_on(async move {
            let chain = Rc::new(TicketChain::new());
            park_owners(&chain, k, &seen);
            crate::time::sleep(Duration::from_nanos(1)).await;
            for t in 0..k {
                chain.advance(t);
                crate::time::sleep(Duration::from_nanos(1)).await;
            }
        });
        assert_eq!(*order.borrow(), (1..=k).collect::<Vec<_>>());
        // The root is polled once to start and once per sleep (k + 1); the
        // owners at most twice each: one park, one turn. A broadcast would
        // re-poll every still-parked owner on every advance.
        let root = k + 2;
        assert!(
            rt.poll_count() - before <= 2 * k + root,
            "{} polls for {k} owners",
            rt.poll_count() - before
        );
    }

    #[test]
    fn advance_to_wakes_the_next_owner_once() {
        let rt = Runtime::new();
        rt.block_on(async {
            let chain = Rc::new(TicketChain::new());
            let polls = Rc::new(Cell::new(0u32));
            // The owner of ticket 5 counts its polls; the caller owns the
            // run 0..5; the owner of ticket 6 must stay parked.
            for t in [5u64, 6] {
                let chain = Rc::clone(&chain);
                let polls = Rc::clone(&polls);
                crate::spawn_detached(async move {
                    let mut turn = std::pin::pin!(chain.wait_turn(t));
                    std::future::poll_fn(|cx| {
                        if t == 5 {
                            polls.set(polls.get() + 1);
                        }
                        turn.as_mut().poll(cx)
                    })
                    .await;
                });
            }
            crate::time::sleep(Duration::from_nanos(1)).await;
            assert_eq!(polls.get(), 1);
            chain.advance_to(5);
            crate::time::sleep(Duration::from_nanos(1)).await;
            assert_eq!(polls.get(), 2, "parked once, woken exactly once");
            let ws = chain.waiters.borrow();
            assert_eq!(ws.iter().map(|(t, _)| *t).collect::<Vec<_>>(), vec![6]);
        });
    }

    #[test]
    fn wake_all_releases_every_parked_task() {
        let rt = Runtime::new();
        rt.block_on(async {
            let chain = Rc::new(TicketChain::new());
            let woken = Rc::new(Cell::new(0u32));
            for t in 1..=4 {
                let chain = Rc::clone(&chain);
                let woken = Rc::clone(&woken);
                crate::spawn_detached(async move {
                    let mut turn = std::pin::pin!(chain.wait_turn(t));
                    let mut first = true;
                    std::future::poll_fn(|cx| {
                        if !std::mem::take(&mut first) {
                            woken.set(woken.get() + 1);
                        }
                        turn.as_mut().poll(cx)
                    })
                    .await;
                });
            }
            crate::time::sleep(Duration::from_nanos(1)).await;
            assert_eq!(chain.waiters.borrow().len(), 4);
            chain.wake_all();
            crate::time::sleep(Duration::from_nanos(1)).await;
            assert_eq!(woken.get(), 4, "every parked task was polled again");
            // Not their turn: they parked again, and advancing still works.
            assert_eq!(chain.waiters.borrow().len(), 4);
            for t in 0..4 {
                chain.advance(t);
                crate::time::sleep(Duration::from_nanos(1)).await;
            }
            assert!(chain.waiters.borrow().is_empty());
        });
    }

    #[test]
    fn dropped_turn_leaves_no_waiter() {
        let rt = Runtime::new();
        rt.block_on(async {
            let chain = TicketChain::new();
            let mut turn = Box::pin(chain.wait_turn(3));
            let waker = Waker::noop();
            assert!(turn
                .as_mut()
                .poll(&mut Context::from_waker(waker))
                .is_pending());
            assert_eq!(chain.waiters.borrow().len(), 1);
            drop(turn);
            assert!(chain.waiters.borrow().is_empty());
        });
    }
}
