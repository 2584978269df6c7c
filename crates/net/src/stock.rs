//! [`Stock`]: the emptied buffers a protocol endpoint keeps so that the
//! next envelope it stamps leaves in memory an earlier one arrived in.
//!
//! An envelope's payload vector and header arrays are allocated by the
//! sending worker and, without this, freed by the receiving one — for
//! a 1.5 KB payload (above glibc's per-thread cache limit) that free
//! takes the *sender's* arena lock while the sender is allocating from
//! it. Handing delivered buffers back to the receiver's own endpoint
//! ([`crate::broadcast::InterestBatchCausalBroadcast::recycle`]) keeps
//! them on the thread that touched them last: replicas send about as
//! many envelopes as they receive, so in steady state nothing is
//! allocated and nothing is freed across threads.

/// Most heap bytes one [`Stock`] holds; what is handed back past it is
/// freed. Bounded in bytes, not entries, so the cost is the same
/// whatever the batch size or cluster size (a 256-node full-refresh
/// header is a megabyte; a 4-node one is 300 bytes).
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
/// most likely still in cache), at most [`STOCK_BYTES`] of them.
#[derive(Debug, Clone)]
pub(crate) struct Stock<B> {
    bufs: Vec<B>,
    bytes: usize,
}

impl<B> Default for Stock<B> {
    fn default() -> Self {
        Stock {
            bufs: Vec::new(),
            bytes: 0,
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

    /// Empty `buf` and keep it, unless it owns no memory or would take
    /// the stock past its bound (then it is dropped). Emptying happens
    /// here and nowhere else, so nothing a buffer once carried can ride
    /// along with what it carries next.
    pub(crate) fn stow(&mut self, mut buf: B) {
        let bytes = buf.heap_bytes();
        if bytes > 0 && self.bytes + bytes <= STOCK_BYTES {
            buf.empty();
            self.bytes += bytes;
            self.bufs.push(buf);
        }
    }

    /// Buffers held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.bufs.len()
    }

    /// Heap bytes held (never more than [`STOCK_BYTES`]).
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
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
        s.stow(a);
        s.stow(b);
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
        s.stow(Vec::new());
        assert_eq!(s.len(), 0, "nothing to keep in an unallocated vector");
        for _ in 0..1000 {
            s.stow(Vec::with_capacity(1000));
            assert!(s.bytes() <= STOCK_BYTES);
        }
        assert_eq!(s.len(), STOCK_BYTES / 1000);
        s.stow(Vec::with_capacity(2 * STOCK_BYTES));
        assert_eq!(s.len(), STOCK_BYTES / 1000, "an oversized buffer is freed");
    }
}
