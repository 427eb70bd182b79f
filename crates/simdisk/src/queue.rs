//! Completion bookkeeping for [`Disk`]'s submission queue.
//!
//! [`Disk::submit`] hands out a token per request and spawns the request;
//! [`IoQueue`] remembers each finished result until its submitter claims it
//! with [`Disk::wait`], and counts what is outstanding. It is deliberately
//! dumb — *when* a request finishes is entirely the disk's business; the
//! queue only routes the result back to the submitter.
//!
//! [`Disk`]: crate::Disk
//! [`Disk::submit`]: crate::Disk::submit
//! [`Disk::wait`]: crate::Disk::wait

use std::cell::{Cell, RefCell};
use std::collections::HashMap;

use rapilog_simcore::bytes::SectorBuf;
use rapilog_simcore::sync::Notify;

use crate::{IoResult, ReqToken};

/// Token allocator plus completion mailbox for one device instance.
///
/// Single-threaded (sim tasks are cooperative), so plain `Cell`/`RefCell`
/// interior mutability is enough. The disk calls [`issue`](IoQueue::issue)
/// on submission and [`finish`](IoQueue::finish) when the spawned request
/// task resolves; submitters call [`wait`](IoQueue::wait).
#[derive(Default)]
pub(crate) struct IoQueue {
    next_token: Cell<u64>,
    done: RefCell<HashMap<u64, IoResult<Option<SectorBuf>>>>,
    outstanding: Cell<u32>,
    max_outstanding: Cell<u32>,
    notify: Notify,
}

impl IoQueue {
    /// Allocates the token for a freshly submitted request and counts it
    /// as outstanding.
    pub(crate) fn issue(&self) -> ReqToken {
        let t = self.next_token.get();
        self.next_token.set(t + 1);
        let out = self.outstanding.get() + 1;
        self.outstanding.set(out);
        if out > self.max_outstanding.get() {
            self.max_outstanding.set(out);
        }
        ReqToken(t)
    }

    /// Records the result of a request and wakes every waiter.
    pub(crate) fn finish(&self, token: ReqToken, result: IoResult<Option<SectorBuf>>) {
        self.done.borrow_mut().insert(token.0, result);
        self.outstanding
            .set(self.outstanding.get().saturating_sub(1));
        self.notify.notify_all();
    }

    /// Requests submitted but not yet finished.
    pub(crate) fn outstanding(&self) -> u32 {
        self.outstanding.get()
    }

    /// High-water mark of [`outstanding`](IoQueue::outstanding) over the
    /// queue's lifetime.
    pub(crate) fn max_outstanding(&self) -> u32 {
        self.max_outstanding.get()
    }

    /// Waits for the request identified by `token` and takes its result.
    /// Each token must be claimed exactly once.
    pub(crate) async fn wait(&self, token: ReqToken) -> IoResult<Option<SectorBuf>> {
        loop {
            if let Some(result) = self.done.borrow_mut().remove(&token.0) {
                return result;
            }
            self.notify.notified().await;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IoError;
    use rapilog_simcore::Sim;
    use std::rc::Rc;

    #[test]
    fn wait_returns_result_for_its_own_token() {
        let mut sim = Sim::new(7);
        let q = Rc::new(IoQueue::default());
        let a = q.issue();
        let b = q.issue();
        assert_ne!(a, b);
        assert_eq!(q.outstanding(), 2);
        let q2 = Rc::clone(&q);
        sim.spawn(async move {
            let got = q2.wait(b).await;
            assert_eq!(got, Err(IoError::Transient));
            let got = q2.wait(a).await;
            assert_eq!(got, Ok(None));
        });
        q.finish(b, Err(IoError::Transient));
        q.finish(a, Ok(None));
        sim.run();
        assert_eq!(q.outstanding(), 0);
        assert_eq!(q.max_outstanding(), 2);
    }
}
