//! [`KnowledgeDelta`]: the compressed causal-metadata header of an
//! interest envelope, with its exact varint wire codec.
//!
//! The interest multicast owes every envelope an n×n edge-knowledge
//! matrix — the honest metadata cost of partially replicated causal
//! consistency (Xiang & Vaidya). Shipping the matrix dense costs
//! `8·n²` bytes per envelope, which at 256 workers is half a megabyte
//! of header per batch. But the matrix a sender stamps is almost
//! entirely unchanged from the previous envelope it stamped *on the
//! same edge*, and per-edge FIFO delivery means the receiver still
//! holds that previous stamp's view — so an envelope only needs the
//! **rows that changed since the edge's last envelope** (the sender
//! tracks per-row change versions, see
//! [`crate::broadcast::InterestBatchCausalBroadcast`]), and within a row
//! only the non-zero cells (edge counts are monotone non-decreasing,
//! so a cell that is zero now was zero in every earlier stamp too —
//! sparseness is exact, not approximate).
//!
//! The wire layout is LEB128 varints throughout (sequence numbers and
//! matrix entries are small early and grow slowly; column indices are
//! gap-coded within a row):
//!
//! ```text
//! header  := varint sender, varint seq, varint row_count
//! row     := varint row_index, varint cell_count, cell*
//! cell    := varint col_gap, varint value     (first gap = col)
//! ```
//!
//! [`wire_len`](KnowledgeDelta::wire_len) computes the exact encoded
//! size without building the buffer — the deterministic byte
//! accounting the store's transport statistics and CI byte gates rely
//! on — and `encode`/`decode` round-trip the header so the exactness
//! is testable rather than asserted.

use crate::stock::Recycle;
use crate::NodeId;
use cbm_adt::wire::{put_slice, Wire};

/// Bytes of the LEB128 encoding of `v` (1 byte per 7 bits, ≥ 1).
pub(crate) fn varint_len(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).div_ceil(7).max(1)
}

/// Append the LEB128 encoding of `v`.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read one LEB128 varint at `*pos`, advancing it. `None` on
/// truncation or a value overflowing 64 bits.
pub(crate) fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte & 0x7E != 0) {
            return None;
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// The dirty-row delta an interest envelope carries instead of a full
/// edge-knowledge matrix: for each row of the sender's matrix that
/// changed since the edge's previous envelope, the row index and the
/// row's non-zero cells `(column, value)` in ascending column order.
/// Rows are in ascending row order. A receiver reconstructs the full
/// matrix view it needs by overlaying these rows on the view carried
/// over from the edge's previous envelope (per-edge FIFO delivery
/// makes that view well-defined).
///
/// Stored compressed-sparse-row, like the checker kernel's relations:
/// one index of `(row, end of its cells)` and one flat cell array, so a
/// header is **two allocations whatever its dirty-row count** (the
/// nested `Vec` per row it replaces was one per dirty row per
/// recipient on the multicast hot path) and both arrays can be
/// emptied and refilled in place. Both wire forms —
/// the varint header below and the [`Wire`] record — are byte-identical
/// to the nested form's.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct KnowledgeDelta {
    /// `(row index, end of the row's cells in `cells`)` per dirty row;
    /// a row's cells start where the previous row's end.
    index: Vec<(u32, u32)>,
    /// Every dirty row's non-zero `(column, value)` cells, row after row.
    cells: Vec<(u32, u64)>,
}

impl KnowledgeDelta {
    /// Build from the nested form `(row, cells)`, in the given order
    /// (both levels ascending in every delta the protocol stamps).
    pub fn from_rows<C: AsRef<[(u32, u64)]>>(rows: impl IntoIterator<Item = (u32, C)>) -> Self {
        let mut d = KnowledgeDelta::default();
        for (row, cells) in rows {
            d.push_row(row, cells.as_ref().iter().copied());
        }
        d
    }

    /// Append dirty row `row` with the given cells.
    pub(crate) fn push_row(&mut self, row: u32, cells: impl IntoIterator<Item = (u32, u64)>) {
        self.cells.extend(cells);
        self.end_row(row)
            .expect("a delta holds fewer than 2^32 cells");
    }

    /// Close row `row` over the cells pushed since the previous row's
    /// end; `None` if the cell array has outgrown a `u32` offset.
    fn end_row(&mut self, row: u32) -> Option<()> {
        self.index
            .push((row, u32::try_from(self.cells.len()).ok()?));
        Some(())
    }

    /// Make room for `rows` more rows holding `cells` more cells.
    pub(crate) fn reserve(&mut self, rows: usize, cells: usize) {
        self.index.reserve(rows);
        self.cells.reserve(cells);
    }

    /// The dirty rows `(row index, cells)`, in stamped order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = (u32, &[(u32, u64)])> + '_ {
        let mut start = 0usize;
        self.index.iter().map(move |&(row, end)| {
            let cells = &self.cells[start..end as usize];
            start = end as usize;
            (row, cells)
        })
    }

    /// The value of `cells` at `col` (0 when absent — exact, because
    /// absent cells were never non-zero).
    pub fn cell(cells: &[(u32, u64)], col: usize) -> u64 {
        cells
            .iter()
            .find(|(c, _)| *c as usize == col)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Exact byte length of [`encode`](Self::encode)'s output for this
    /// delta under envelope header `(sender, seq)`.
    pub fn wire_len(&self, sender: NodeId, seq: u64) -> usize {
        let mut len =
            varint_len(sender as u64) + varint_len(seq) + varint_len(self.index.len() as u64);
        for (row, cells) in self.rows() {
            len += varint_len(u64::from(row)) + varint_len(cells.len() as u64);
            let mut prev: Option<u32> = None;
            for (col, v) in cells {
                let gap = match prev {
                    None => u64::from(*col),
                    Some(p) => u64::from(col - p - 1),
                };
                prev = Some(*col);
                len += varint_len(gap) + varint_len(*v);
            }
        }
        len
    }

    /// Encode the envelope header `(sender, seq, delta)` to bytes.
    pub fn encode(&self, sender: NodeId, seq: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len(sender, seq));
        put_varint(&mut out, sender as u64);
        put_varint(&mut out, seq);
        put_varint(&mut out, self.index.len() as u64);
        for (row, cells) in self.rows() {
            put_varint(&mut out, u64::from(row));
            put_varint(&mut out, cells.len() as u64);
            let mut prev: Option<u32> = None;
            for (col, v) in cells {
                let gap = match prev {
                    None => u64::from(*col),
                    Some(p) => u64::from(col - p - 1),
                };
                prev = Some(*col);
                put_varint(&mut out, gap);
                put_varint(&mut out, *v);
            }
        }
        out
    }

    /// Decode an envelope header produced by [`encode`](Self::encode).
    /// `None` on truncation, overflow, or trailing bytes.
    pub fn decode(buf: &[u8]) -> Option<(NodeId, u64, KnowledgeDelta)> {
        let mut pos = 0usize;
        let sender = get_varint(buf, &mut pos)? as NodeId;
        let seq = get_varint(buf, &mut pos)?;
        let n_rows = get_varint(buf, &mut pos)?;
        // every row and every cell is at least two bytes of input
        let mut delta = KnowledgeDelta {
            index: Vec::with_capacity(n_rows.min(1024) as usize),
            cells: Vec::with_capacity((buf.len() / 2).min(1024)),
        };
        for _ in 0..n_rows {
            let row = u32::try_from(get_varint(buf, &mut pos)?).ok()?;
            let n_cells = get_varint(buf, &mut pos)?;
            let mut prev: Option<u32> = None;
            for _ in 0..n_cells {
                let gap = u32::try_from(get_varint(buf, &mut pos)?).ok()?;
                let col = match prev {
                    None => gap,
                    Some(p) => p.checked_add(gap)?.checked_add(1)?,
                };
                prev = Some(col);
                delta.cells.push((col, get_varint(buf, &mut pos)?));
            }
            delta.end_row(row)?;
        }
        (pos == buf.len()).then_some((sender, seq, delta))
    }
}

impl Recycle for KnowledgeDelta {
    fn empty(&mut self) {
        self.index.clear();
        self.cells.clear();
    }
    fn heap_bytes(&self) -> usize {
        self.index.heap_bytes() + self.cells.heap_bytes()
    }
}

/// The nested form's record, field for field: a `Vec` of
/// `(row, Vec<(column, value)>)`.
impl Wire for KnowledgeDelta {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.index.len().put(out);
        for (row, cells) in self.rows() {
            row.put(out);
            put_slice(cells, out);
        }
    }

    #[inline]
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let n_rows = usize::get(buf, pos)?;
        // cap preallocation by what the buffer could possibly hold
        // (12 bytes a row, 12 a cell), like `Vec<T>`'s decoder
        let room = |pos: usize| buf.len().saturating_sub(pos) / 12;
        let mut delta = KnowledgeDelta {
            index: Vec::with_capacity(n_rows.min(room(*pos))),
            cells: Vec::new(),
        };
        for _ in 0..n_rows {
            let row = u32::get(buf, pos)?;
            let n_cells = usize::get(buf, pos)?;
            delta.cells.reserve(n_cells.min(room(*pos)));
            for _ in 0..n_cells {
                delta.cells.push(Wire::get(buf, pos)?);
            }
            delta.end_row(row)?;
        }
        Some(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrips_and_lengths_are_exact() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "length of {v}");
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
        assert_eq!(varint_len(0), 1);
        assert_eq!(varint_len(u64::MAX), 10);
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        assert_eq!(get_varint(&[], &mut 0), None);
        assert_eq!(get_varint(&[0x80], &mut 0), None, "truncated continuation");
        // 11 continuation bytes overflow 64 bits
        let too_long = [0xFFu8; 11];
        assert_eq!(get_varint(&too_long, &mut 0), None);
    }

    #[test]
    fn delta_roundtrips_with_exact_wire_len() {
        let d = KnowledgeDelta::from_rows([
            (0, vec![(3, 1), (7, 200), (255, u64::MAX)]),
            (5, vec![]),
            (250, vec![(0, 1)]),
        ]);
        let bytes = d.encode(42, 1_000_000);
        assert_eq!(bytes.len(), d.wire_len(42, 1_000_000), "wire_len is exact");
        assert_eq!(KnowledgeDelta::decode(&bytes), Some((42, 1_000_000, d)));
    }

    #[test]
    fn empty_delta_is_three_bytes_for_small_headers() {
        let d = KnowledgeDelta::default();
        assert_eq!(d.wire_len(1, 5), 3, "sender + seq + zero row count");
        assert_eq!(d.encode(1, 5), vec![1, 5, 0]);
    }

    #[test]
    fn decode_rejects_trailing_and_truncated_input() {
        let d = KnowledgeDelta::from_rows([(1, [(2, 9)])]);
        let mut bytes = d.encode(0, 1);
        let whole = bytes.clone();
        bytes.push(0);
        assert_eq!(KnowledgeDelta::decode(&bytes), None, "trailing byte");
        assert_eq!(KnowledgeDelta::decode(&whole[..whole.len() - 1]), None);
    }

    #[test]
    fn row_and_cell_lookups() {
        let d = KnowledgeDelta::from_rows([(2, [(0, 5), (9, 1)])]);
        let rows: Vec<_> = d.rows().collect();
        assert_eq!(rows, vec![(2, &[(0, 5), (9, 1)][..])]);
        assert_eq!(KnowledgeDelta::cell(rows[0].1, 0), 5);
        assert_eq!(KnowledgeDelta::cell(rows[0].1, 9), 1);
        assert_eq!(KnowledgeDelta::cell(rows[0].1, 4), 0, "absent = 0");
    }
}
