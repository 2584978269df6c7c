//! The one inbound queue: a node's merged mailbox, with an empty poll
//! that costs two loads and a depth its senders can see.
//!
//! Both live transports hand a node its messages through this type:
//! [`crate::thread_net`] gives every peer an [`InboxSender`] straight
//! into it, [`crate::tcp`] gives one to each reader thread and to the
//! self-loopback. The queue itself is `std::sync::mpsc` — unbounded,
//! per-sender FIFO, disconnects when the last sender half is dropped —
//! and what is added is two counts on two cache lines: messages
//! **announced**, bumped by senders, and messages **taken**, kept by
//! the receiver. A worker polls its inbox once per operation and almost
//! always finds it empty; std's list channel answers an empty
//! `try_recv` with a `SeqCst` fence, this answers it by comparing the
//! two counts: one `Acquire` load of a line only inbound senders write,
//! one load of a line the receiver itself owns. Their difference is the
//! inbox's depth, which a sender may read ([`InboxSender::backlog`]):
//! [`crate::thread_net`] uses it to stop a node that is descheduled
//! from being buried.
//!
//! ## Ordering
//!
//! A sender announces **before** it pushes (`fetch_add(Release)`, then
//! the channel send), so `announced ≥ taken + queued` always holds and
//! the count can only over-report: a poll that sees an announcement
//! whose push has not landed yet falls through to the channel and
//! reports empty, exactly as the bare channel would. What it can never
//! do is under-report a message whose send has *completed*: the
//! announcement is sequenced before the push, so anything ordered after
//! the send — a flag the sender stores afterwards, the TCP reader's
//! marker bump (`Release`) — carries the announcement with it, and a
//! poll made after observing that flag or marker sees the count and
//! then the message. The drain rendezvous's nack decision ("what has
//! not arrived after every peer's cut is lost") leans on exactly that.
//! Announce-after-push would make the empty poll exact instead of
//! conservative, but a blocking [`Inbox::recv`] could then take a
//! message before its announcement, and the next poll would miss a
//! *different*, fully sent message behind it.
//!
//! `taken` has one writer, the receiver, and publishes nothing: it is
//! read and written `Relaxed`, and a sender's view of the depth is a
//! scheduling hint, never a synchronisation.

use crate::NodeId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;

/// A count on a cache line of its own: the receiver's poll must not
/// share a line with a neighbouring inbox's senders, nor the senders'
/// count with the receiver's.
#[repr(align(64))]
struct Line(AtomicU64);

struct Counts {
    /// Messages announced by senders.
    announced: Line,
    /// Messages received; written by the receiver only.
    taken: Line,
}

/// A sending half; clone one per sender. Dropping the last one
/// disconnects the inbox.
pub(crate) struct InboxSender<M> {
    tx: Sender<(NodeId, M)>,
    counts: Arc<Counts>,
}

/// The receiving half: one node's merged inbound queue. Also what a
/// shut-down endpoint leaves behind (it is both transports'
/// [`crate::endpoint::Drain`]).
pub struct Inbox<M> {
    rx: Receiver<(NodeId, M)>,
    counts: Arc<Counts>,
}

/// A connected sender/inbox pair.
pub(crate) fn inbox<M>() -> (InboxSender<M>, Inbox<M>) {
    let (tx, rx) = mpsc::channel();
    let counts = Arc::new(Counts {
        announced: Line(AtomicU64::new(0)),
        taken: Line(AtomicU64::new(0)),
    });
    let sender = InboxSender {
        tx,
        counts: Arc::clone(&counts),
    };
    (sender, Inbox { rx, counts })
}

impl<M> Clone for InboxSender<M> {
    fn clone(&self) -> Self {
        InboxSender {
            tx: self.tx.clone(),
            counts: Arc::clone(&self.counts),
        }
    }
}

impl<M> InboxSender<M> {
    /// Queue `msg` as coming from `from`; `false` if the inbox is gone
    /// (the message is lost, like a send to a crashed node).
    pub(crate) fn send(&self, from: NodeId, msg: M) -> bool {
        // Release pairs with the Acquire in `Inbox::pending`; see the
        // module docs for why the announcement goes first
        self.counts.announced.0.fetch_add(1, Ordering::Release);
        self.tx.send((from, msg)).is_ok()
    }

    /// The inbox's depth as a sender sees it: messages announced and
    /// not yet received. A hint (both counts are read `Relaxed` and may
    /// be a moment stale), good for deciding to get out of a lagging
    /// receiver's way and for nothing stronger.
    pub(crate) fn backlog(&self) -> u64 {
        let announced = self.counts.announced.0.load(Ordering::Relaxed);
        announced.saturating_sub(self.counts.taken.0.load(Ordering::Relaxed))
    }
}

impl<M> Inbox<M> {
    /// Messages announced and not yet received (an upper bound on what
    /// is queued; exact once senders are quiescent).
    pub(crate) fn pending(&self) -> u64 {
        self.counts.announced.0.load(Ordering::Acquire) - self.taken()
    }

    fn taken(&self) -> u64 {
        self.counts.taken.0.load(Ordering::Relaxed)
    }

    fn took(&self, got: Option<(NodeId, M)>) -> Option<(NodeId, M)> {
        if got.is_some() {
            // the only writer: a load and a store, not a locked add
            self.counts
                .taken
                .0
                .store(self.taken() + 1, Ordering::Relaxed);
        }
        got
    }

    /// Non-blocking receive.
    #[inline]
    pub(crate) fn try_recv(&self) -> Option<(NodeId, M)> {
        if self.pending() == 0 {
            return None;
        }
        self.took(self.rx.try_recv().ok())
    }

    /// Blocking receive; `None` once the queue is empty and every
    /// sender half is gone.
    pub(crate) fn recv(&self) -> Option<(NodeId, M)> {
        self.took(self.rx.recv().ok())
    }

    /// Everything queued right now, without blocking.
    pub(crate) fn drain_now(&self) -> Vec<(NodeId, M)> {
        std::iter::from_fn(|| self.try_recv()).collect()
    }
}

impl<M> crate::endpoint::Drain<M> for Inbox<M> {
    fn recv(&self) -> Option<(NodeId, M)> {
        Inbox::recv(self)
    }

    fn drain_now(&self) -> Vec<(NodeId, M)> {
        Inbox::drain_now(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::{Drain as _, Endpoint};
    use crate::tcp::TcpNet;
    use crate::thread_net::ThreadNet;
    use std::sync::Barrier;

    #[test]
    fn queued_messages_outlive_their_senders_then_recv_ends() {
        let (tx, rx) = inbox::<u32>();
        let tx2 = tx.clone();
        assert!(tx.send(0, 1));
        assert!(tx2.send(1, 2));
        assert_eq!((rx.pending(), tx.backlog()), (2, 2));
        drop((tx, tx2));
        assert_eq!(rx.recv(), Some((0, 1)));
        assert_eq!(rx.try_recv(), Some((1, 2)));
        assert_eq!(rx.pending(), 0);
        assert_eq!(rx.recv(), None);

        let (tx, rx) = inbox::<u32>();
        drop(rx);
        assert!(
            !tx.send(0, 1),
            "a send to a dropped inbox is lost, and says so"
        );
    }

    /// What the engine's teardown leans on, on both transports: a
    /// shut-down node still receives what was queued for it, and once
    /// every node has shut down its drain ends instead of blocking.
    fn drains_queued_then_disconnects<E: Endpoint<u32>>(mut eps: Vec<E>) {
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        a.send_sized(1, 1, 0);
        a.send_sized(1, 2, 0);
        let drain_b = b.shutdown();
        let drain_a = a.shutdown();
        assert_eq!(drain_b.recv(), Some((0, 1)));
        assert_eq!(drain_b.recv(), Some((0, 2)));
        assert_eq!(drain_b.recv(), None);
        assert_eq!(drain_a.recv(), None);
        assert!(drain_b.drain_now().is_empty());
    }

    #[test]
    fn shutdown_drains_queued_then_disconnects() {
        drains_queued_then_disconnects(ThreadNet::<u32>::new(2).into_endpoints());
        drains_queued_then_disconnects(TcpNet::<u32>::new(2).expect("mesh").into_endpoints());
    }

    /// `SENDERS` threads race a receiver that mixes empty-biased polls
    /// with blocking receives: every message arrives exactly once, in
    /// its sender's order, nothing is stranded behind the count, and
    /// the count returns to zero.
    #[test]
    fn racing_senders_lose_duplicate_and_strand_nothing() {
        const SENDERS: usize = 4;
        const EACH: u64 = 20_000;
        let (tx, rx) = inbox::<u64>();
        let start = Barrier::new(SENDERS + 1);
        let mut next = [0u64; SENDERS];
        let mut got = 0u64;
        let mut take = |(from, seq): (NodeId, u64)| {
            assert_eq!(
                seq, next[from],
                "sender {from}: lost, duplicated or reordered"
            );
            next[from] += 1;
        };
        std::thread::scope(|s| {
            let senders: Vec<_> = (0..SENDERS)
                .map(|me| {
                    let (tx, start) = (tx.clone(), &start);
                    s.spawn(move || {
                        start.wait();
                        for seq in 0..EACH {
                            assert!(tx.send(me, seq));
                        }
                    })
                })
                .collect();
            start.wait();
            // while the senders run: a blocking receive every seventh
            // turn (safe: at least half the messages are still to come),
            // polls otherwise
            let mut turn = 0u64;
            while got < SENDERS as u64 * EACH / 2 {
                turn += 1;
                let m = if turn.is_multiple_of(7) {
                    rx.recv()
                } else {
                    rx.try_recv()
                };
                if let Some(m) = m {
                    take(m);
                    got += 1;
                }
            }
            for h in senders {
                h.join().unwrap();
            }
            // the senders are done: every remaining message must be
            // reachable by polling alone
            for m in rx.drain_now() {
                take(m);
                got += 1;
            }
        });
        assert_eq!(got, SENDERS as u64 * EACH);
        assert_eq!(next, [EACH; SENDERS]);
        assert_eq!((rx.pending(), tx.backlog()), (0, 0));
        assert_eq!(rx.try_recv(), None);
        drop(tx);
        assert_eq!(rx.recv(), None);
    }

    /// The drain's nack decision, thread transport: a sender publishes
    /// its cut (here a `SeqCst` counter) after its sends; a receiver
    /// that has observed the cut and then polls until empty has every
    /// message sent before it — a poll never reports empty over one.
    #[test]
    fn a_poll_after_the_senders_flag_sees_the_message() {
        const MSGS: u64 = 50_000;
        let mut eps = ThreadNet::<u64>::new(2).into_endpoints();
        let (rx, tx) = (eps.pop().unwrap(), eps.pop().unwrap());
        let sent = &AtomicU64::new(0);
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..MSGS {
                    tx.send(1, i);
                    sent.store(i + 1, Ordering::SeqCst);
                }
            });
            let mut got = 0u64;
            while got < MSGS {
                let cut = sent.load(Ordering::SeqCst);
                while let Some((_, i)) = rx.try_recv() {
                    assert_eq!(i, got);
                    got += 1;
                }
                assert!(
                    got >= cut,
                    "polled empty with {got} of {cut} published messages"
                );
            }
        });
    }

    /// The same over TCP, where the cut is the flush marker: the reader
    /// thread bumps the marker count behind the data frames it queued,
    /// so a poll after observing the bump sees them all.
    #[test]
    fn a_poll_after_the_readers_marker_sees_the_message() {
        const ROUNDS: u64 = 300;
        const PER_ROUND: u64 = 20;
        let mut eps = TcpNet::<u64>::new(2).expect("mesh").into_endpoints();
        let (rx, tx) = (eps.pop().unwrap(), eps.pop().unwrap());
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..ROUNDS * PER_ROUND {
                    tx.send_sized(1, i, 8);
                    if (i + 1) % PER_ROUND == 0 {
                        tx.send_marker();
                    }
                }
            });
            let mut got = 0u64;
            while got < ROUNDS * PER_ROUND {
                let cut = rx.marker_count(0) * PER_ROUND;
                while let Some((_, i)) = rx.try_recv() {
                    assert_eq!(i, got);
                    got += 1;
                }
                assert!(
                    got >= cut,
                    "polled empty with {got} of {cut} messages behind a marker"
                );
            }
        });
    }
}
