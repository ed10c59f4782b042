//! A single-value broadcast channel ("watch"), modelled on
//! `tokio::sync::watch`.
//!
//! The broker publishes each partition's log end and high watermark (HW)
//! on one. Every send wakes every parked receiver, so a watch suits a few
//! long-lived listeners (a partition's ack releaser, its push-replication
//! tasks), never one waiter per record: per-record waits go in an
//! offset-ordered queue drained by one listener (the broker's ack
//! purgatory) or on a [`TicketChain`](super::TicketChain). The broker's
//! TCP `acks=all` path is the one exception left: it still parks a task
//! per request on the HW watch. Steady-state sends allocate nothing.

use std::cell::RefCell;
use std::rc::Rc;
use std::task::{Poll, Waker};

struct Shared<T> {
    value: T,
    version: u64,
    sender_alive: bool,
    wakers: Vec<Waker>,
}

/// Sending half: replaces the value and notifies receivers.
pub struct Sender<T> {
    shared: Rc<RefCell<Shared<T>>>,
}

/// Receiving half: observes the latest value and awaits changes.
pub struct Receiver<T> {
    shared: Rc<RefCell<Shared<T>>>,
    seen: u64,
}

/// Creates a watch channel with an initial value.
pub fn channel<T>(initial: T) -> (Sender<T>, Receiver<T>) {
    let shared = Rc::new(RefCell::new(Shared {
        value: initial,
        version: 0,
        sender_alive: true,
        wakers: Vec::new(),
    }));
    (
        Sender {
            shared: Rc::clone(&shared),
        },
        Receiver { shared, seen: 0 },
    )
}

impl<T> Sender<T> {
    /// Replaces the value and wakes all waiting receivers.
    pub fn send(&self, value: T) {
        self.send_modify(|v| *v = value);
    }

    /// Mutates the value in place and notifies.
    pub fn send_modify(&self, f: impl FnOnce(&mut T)) {
        let mut s = self.shared.borrow_mut();
        f(&mut s.value);
        s.version += 1;
        // Take the waker list out of the borrow so wakes can't re-enter the
        // RefCell, then hand it back: its capacity is retained, so a
        // steady-state send never allocates (as `Notify::notify_waiters`).
        let mut wakers = std::mem::take(&mut s.wakers);
        drop(s);
        for w in wakers.drain(..) {
            w.wake();
        }
        let mut s = self.shared.borrow_mut();
        if s.wakers.is_empty() {
            s.wakers = wakers;
        }
    }

    /// Reads the current value.
    pub fn borrow_value<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        f(&self.shared.borrow().value)
    }

    /// Creates an additional receiver that has not yet observed the current
    /// version (its first `changed().await` returns immediately).
    pub fn subscribe(&self) -> Receiver<T> {
        Receiver {
            shared: Rc::clone(&self.shared),
            seen: 0,
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut s = self.shared.borrow_mut();
        s.sender_alive = false;
        let wakers = std::mem::take(&mut s.wakers);
        drop(s);
        for w in wakers {
            w.wake();
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        Receiver {
            shared: Rc::clone(&self.shared),
            seen: self.seen,
        }
    }
}

impl<T> Receiver<T> {
    /// Reads the current value (marking it seen).
    pub fn borrow_and_update<R>(&mut self, f: impl FnOnce(&T) -> R) -> R {
        let s = self.shared.borrow();
        self.seen = s.version;
        f(&s.value)
    }

    /// Reads the current value without marking it seen.
    pub fn borrow_value<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        f(&self.shared.borrow().value)
    }

    /// Waits until the value changes past the last version this receiver
    /// observed. Returns `Err(())` if the sender is gone.
    pub async fn changed(&mut self) -> Result<(), ()> {
        std::future::poll_fn(|cx| {
            let mut s = self.shared.borrow_mut();
            if s.version != self.seen {
                self.seen = s.version;
                return Poll::Ready(Ok(()));
            }
            if !s.sender_alive {
                return Poll::Ready(Err(()));
            }
            s.wakers.push(cx.waker().clone());
            Poll::Pending
        })
        .await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runtime;
    use std::time::Duration;

    #[test]
    fn receives_latest_value() {
        let rt = Runtime::new();
        rt.block_on(async {
            let (tx, mut rx) = channel(0u64);
            tx.send(1);
            tx.send(2);
            rx.changed().await.unwrap();
            assert_eq!(rx.borrow_and_update(|v| *v), 2);
        });
    }

    #[test]
    fn changed_waits() {
        let rt = Runtime::new();
        rt.block_on(async {
            let (tx, mut rx) = channel(0u64);
            rx.borrow_and_update(|_| ());
            crate::spawn(async move {
                crate::time::sleep(Duration::from_micros(7)).await;
                tx.send(5);
                // Keep the sender alive until after the assertion.
                crate::time::sleep(Duration::from_micros(7)).await;
            });
            rx.changed().await.unwrap();
            assert_eq!(crate::now().as_nanos(), 7_000);
            assert_eq!(rx.borrow_value(|v| *v), 5);
        });
    }

    #[test]
    fn sender_drop_errors() {
        let rt = Runtime::new();
        rt.block_on(async {
            let (tx, mut rx) = channel(0u64);
            rx.borrow_and_update(|_| ());
            drop(tx);
            assert_eq!(rx.changed().await, Err(()));
        });
    }
}
