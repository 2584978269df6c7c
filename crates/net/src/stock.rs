//! [`Stock`]: the emptied buffers a protocol endpoint keeps so that the
//! next envelope it stamps leaves in memory an earlier one arrived in,
//! and [`SharedStock`]: the one a whole cluster's endpoints share.
//!
//! An envelope's payload vector and header arrays are allocated by the
//! sending worker and, without this, freed by the receiving one — for
//! a 1.5 KB payload (above glibc's per-thread cache limit) that free
//! takes the *sender's* arena lock while the sender is allocating from
//! it. Handing delivered buffers back to the receiver's own endpoint
//! ([`crate::broadcast::InterestBatchCausalBroadcast::recycle`]) keeps
//! them on the thread that touched them last. A private stock alone is
//! not enough, though: with fewer cores than workers a worker wakes to
//! a backlog far deeper than its stock, so it frees most of what it
//! received while the peers that sent it allocate again (4 workers on
//! 2 cores reused about 28% of envelope buffers and spent a quarter of
//! their samples in glibc's allocator). So the endpoints of one engine keep two tiers:
//! their own LIFO stock first, and behind it one [`SharedStock`] that
//! a full private stock spills into and an empty one draws from. The
//! shared tier is reached with `try_lock` only — a contended access
//! falls back to the allocator, so no worker waits behind a
//! descheduled holder.

use std::sync::Mutex;

/// Most heap bytes one endpoint's [`Stock`] holds; what is handed back
/// past it spills to the cluster's [`SharedStock`] (bounded at the
/// cluster size times this) or, past that too, is freed. Bounded in
/// bytes, not entries, so the cost is the same whatever the batch size
/// or cluster size (a 256-node full-refresh header is a megabyte; a
/// 4-node one is 300 bytes).
///
/// Chosen by measurement on the benchmark (4 workers on 2 cores, seed
/// 42, `--seconds 12`, three runs a step; the parent of this change:
/// `write_fanout` 2.6 M ops/s, `sharded_routed` 4.7 – 5.0 MB peak RSS).
/// With fewer cores than workers a worker wakes to a backlog of
/// hundreds of envelopes, so a deeper stock keeps hitting and every
/// doubling buys `write_fanout` throughput — but the stock is resident
/// memory on top of that backlog, and `sharded_routed`'s whole process
/// is under 5 MB against a 25% regression bound: 32 KiB 4.4 – 4.6 M
/// ops/s at 4.9 – 5.0 MB, 48 KiB 4.4 – 4.6 M at 5.2 – 5.5 MB, 64 KiB
/// 4.7 – 5.0 M at 5.0 – 5.1 MB, 96 KiB 4.8 – 4.9 M at 5.4 – 5.9 MB;
/// in 4 s runs 192 KiB 5.6 – 5.7 M at 5.8 – 6.4 MB and 384 KiB 5.4 –
/// 6.2 M at 7.7 – 7.8 MB. 64 KiB (42 payloads of 32 counter ops) is
/// the largest step whose `sharded_routed` memory stays clear of the
/// bound — worst case two full stocks on each of four workers, 512 KB —
/// and most of the throughput is already there: what the moves, the
/// pre-sizing and the two-array header give needs no stock at all.
pub(crate) const STOCK_BYTES: usize = 64 * 1024;

/// A buffer that can be emptied and refilled in place.
pub(crate) trait Recycle {
    /// Drop the contents, keep the capacity.
    fn empty(&mut self);
    /// Heap bytes owned (capacity, not length).
    fn heap_bytes(&self) -> usize;
}

impl<P> Recycle for Vec<P> {
    fn empty(&mut self) {
        self.clear();
    }
    fn heap_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<P>()
    }
}

/// Emptied buffers, LIFO (the most recently touched one is the one
/// most likely still in cache), at most [`STOCK_BYTES`] of them unless
/// built [`bounded`](Stock::bounded).
#[derive(Debug, Clone)]
pub(crate) struct Stock<B> {
    bufs: Vec<B>,
    bytes: usize,
    limit: usize,
}

impl<B> Default for Stock<B> {
    fn default() -> Self {
        Stock::bounded(STOCK_BYTES)
    }
}

impl<B> Stock<B> {
    /// An empty stock holding at most `limit` heap bytes.
    pub(crate) fn bounded(limit: usize) -> Self {
        Stock {
            bufs: Vec::new(),
            bytes: 0,
            limit,
        }
    }
}

impl<B: Recycle> Stock<B> {
    /// The most recently stowed buffer, empty.
    pub(crate) fn draw(&mut self) -> Option<B> {
        let buf = self.bufs.pop()?;
        self.bytes -= buf.heap_bytes();
        Some(buf)
    }

    /// Empty `buf` and keep it, unless it would take the stock past its
    /// bound: then it is handed back as it came, for the caller to
    /// spill or drop. A buffer that owns no memory is dropped. Emptying
    /// happens here and nowhere else, so nothing a buffer once carried
    /// can ride along with what it carries next.
    #[must_use = "a buffer the stock could not keep is the caller's to spill or drop"]
    pub(crate) fn stow(&mut self, mut buf: B) -> Option<B> {
        let bytes = buf.heap_bytes();
        if bytes == 0 {
            return None;
        }
        if self.bytes + bytes > self.limit {
            return Some(buf);
        }
        buf.empty();
        self.bytes += bytes;
        self.bufs.push(buf);
        None
    }

    /// Buffers held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.bufs.len()
    }

    /// Heap bytes held (never more than its bound).
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }
}

/// A [`Stock`] every endpoint of one cluster reaches, for what their
/// own stocks cannot hold. Never waited for: a draw or stow that finds
/// it locked (or poisoned) gives up, and the caller allocates or frees
/// as it would without it.
#[derive(Debug)]
pub(crate) struct SharedStock<B>(Mutex<Stock<B>>);

impl<B: Recycle> SharedStock<B> {
    /// An empty shared stock holding at most `limit` heap bytes.
    pub(crate) fn bounded(limit: usize) -> Self {
        SharedStock(Mutex::new(Stock::bounded(limit)))
    }

    /// An emptied buffer, if the stock is free and has one.
    pub(crate) fn draw(&self) -> Option<B> {
        self.0.try_lock().ok()?.draw()
    }

    /// Keep `buf` if the stock is free and has room; otherwise it is
    /// freed — after the lock is released.
    pub(crate) fn stow(&self, buf: B) {
        let Ok(mut stock) = self.0.try_lock() else {
            return;
        };
        let left = stock.stow(buf);
        drop(stock);
        drop(left);
    }

    /// `(buffers, heap bytes)` held.
    #[cfg(test)]
    pub(crate) fn held(&self) -> (usize, usize) {
        let stock = self.0.lock().expect("unpoisoned");
        (stock.len(), stock.bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_newest_first_and_always_empty() {
        let mut s: Stock<Vec<u64>> = Stock::default();
        assert!(s.draw().is_none());
        let (a, b) = (vec![1u64; 8], vec![2u64; 8]);
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        assert!(s.stow(a).is_none() && s.stow(b).is_none());
        assert_eq!((s.len(), s.bytes()), (2, 128));
        let got = s.draw().unwrap();
        assert_eq!((got.as_ptr(), got.len()), (pb, 0), "LIFO, emptied");
        let got = s.draw().unwrap();
        assert_eq!(got.as_ptr(), pa);
        assert_eq!((s.len(), s.bytes()), (0, 0));
    }

    #[test]
    fn never_exceeds_its_bound_and_skips_unallocated() {
        let mut s: Stock<Vec<u8>> = Stock::default();
        assert!(s.stow(Vec::new()).is_none());
        assert_eq!(s.len(), 0, "nothing to keep in an unallocated vector");
        for _ in 0..1000 {
            let _ = s.stow(Vec::with_capacity(1000));
            assert!(s.bytes() <= STOCK_BYTES);
        }
        assert_eq!(s.len(), STOCK_BYTES / 1000);
        let big = s.stow(Vec::with_capacity(2 * STOCK_BYTES));
        assert_eq!(
            s.len(),
            STOCK_BYTES / 1000,
            "an oversized buffer is not kept"
        );
        assert_eq!(
            big.map(|v| v.capacity()),
            Some(2 * STOCK_BYTES),
            "it is handed back"
        );
    }
}
