//! The compressed-sparse-row [`KnowledgeDelta`] against the nested
//! `(row, Vec<(column, value)>)` form it replaced: same bytes on both
//! wire forms, same lengths, same lookups — for every delta the old
//! form could express, empty dirty rows included (the decoders accept
//! them).
//!
//! The nested form's codecs are restated here as the oracle: the
//! varint header layout from `cbm_net::delta`'s module docs, and the
//! `Wire` record as the generic `Vec` / pair impls write it.

use cbm_net::delta::{put_varint, KnowledgeDelta};
use cbm_net::wire::{from_bytes, to_bytes};
use proptest::prelude::*;

type Nested = Vec<(u32, Vec<(u32, u64)>)>;

/// Ascending rows of ascending cells from per-level gaps; values are
/// small, mid and full-width so every varint length occurs.
fn nested() -> impl Strategy<Value = Nested> {
    let value = (0u32..3, 0u64..u64::MAX).prop_map(|(width, v)| match width {
        0 => v % 128,
        1 => v % (1 << 20),
        _ => v,
    });
    let cells = prop::collection::vec((0u32..5, value), 0..6);
    prop::collection::vec((0u32..5, cells), 0..6).prop_map(|rows| {
        let mut next_row = 0u32;
        rows.into_iter()
            .map(|(gap, cells)| {
                let row = next_row + gap;
                next_row = row + 1;
                let mut next_col = 0u32;
                let cells = cells
                    .into_iter()
                    .map(|(gap, v)| {
                        let col = next_col + gap;
                        next_col = col + 1;
                        (col, v)
                    })
                    .collect();
                (row, cells)
            })
            .collect()
    })
}

/// The nested form's varint header, as `KnowledgeDelta::encode` wrote
/// it before the CSR layout.
fn nested_encode(rows: &Nested, sender: usize, seq: u64) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, sender as u64);
    put_varint(&mut out, seq);
    put_varint(&mut out, rows.len() as u64);
    for (row, cells) in rows {
        put_varint(&mut out, u64::from(*row));
        put_varint(&mut out, cells.len() as u64);
        let mut prev: Option<u32> = None;
        for (col, v) in cells {
            put_varint(&mut out, u64::from(prev.map_or(*col, |p| col - p - 1)));
            put_varint(&mut out, *v);
            prev = Some(*col);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn csr_delta_is_the_nested_delta(rows in nested(), sender in 0usize..300, seq in 0u64..1 << 40) {
        let delta = KnowledgeDelta::from_rows(rows.clone());

        // the varint header: identical bytes, exact length, round trip
        let bytes = delta.encode(sender, seq);
        prop_assert_eq!(&bytes, &nested_encode(&rows, sender, seq));
        prop_assert_eq!(delta.wire_len(sender, seq), bytes.len());
        prop_assert_eq!(KnowledgeDelta::decode(&bytes), Some((sender, seq, delta.clone())));

        // the `Wire` record (TCP frames, golden fixtures): identical
        // bytes, round trip
        let record = to_bytes(&delta);
        prop_assert_eq!(&record, &to_bytes(&rows));
        prop_assert_eq!(from_bytes::<KnowledgeDelta>(&record), Some(delta.clone()));

        // lookups
        prop_assert_eq!(delta.rows().len(), rows.len());
        let listed: Nested = delta.rows().map(|(r, cells)| (r, cells.to_vec())).collect();
        prop_assert_eq!(&listed, &rows);
        let last_row = rows.last().map_or(0, |(r, _)| *r as usize);
        for j in 0..last_row + 2 {
            let want = rows.iter().find(|(r, _)| *r as usize == j).map(|(_, c)| c.as_slice());
            let got = delta.rows().find(|(r, _)| *r as usize == j).map(|(_, c)| c);
            prop_assert_eq!(got, want);
            for col in 0..32 {
                let cell = want.map_or(0, |c| {
                    c.iter().find(|(k, _)| *k as usize == col).map_or(0, |(_, v)| *v)
                });
                prop_assert_eq!(KnowledgeDelta::cell(got.unwrap_or(&[]), col), cell);
            }
        }
    }
}
