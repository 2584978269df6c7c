//! Wire codec for the window-stream-array messages of Figs. 4 and 5.
//!
//! The generic replicas in `cbm-core` move typed payloads in memory
//! (the simulator is a same-process transport), but the specialized
//! window-stream implementations also encode their messages in the
//! exact shape the paper's algorithms send — `Mess(x, v)` for Fig. 4
//! and `Mess(x, v, vt, j)` for Fig. 5, prefixed by the causal
//! broadcast's vector clock — so message sizes reported by the benches
//! are real byte counts, not guesses.

use crate::clock::{Timestamp, VectorClock};
use crate::NodeId;
use cbm_adt::wire::Wire;

/// A Fig. 4 message: `Mess(x, v)` plus causal metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CcWire {
    /// Broadcasting process.
    pub sender: NodeId,
    /// Vector clock of the causal broadcast.
    pub vc: VectorClock,
    /// Stream index `x`.
    pub x: u32,
    /// Written value `v`.
    pub v: u64,
}

/// A Fig. 5 message: `Mess(x, v, vt, j)` plus causal metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CcvWire {
    /// Broadcasting process.
    pub sender: NodeId,
    /// Vector clock of the causal broadcast.
    pub vc: VectorClock,
    /// Stream index `x`.
    pub x: u32,
    /// Written value `v`.
    pub v: u64,
    /// Timestamp `(vt, j)`.
    pub ts: Timestamp,
}

// Process ids and vector lengths travel as `u16` here — the widths the
// paper's message shapes are sized for — not as the `u64` a bare
// `usize: Wire` would use, so these impls spell the narrowing out.

fn put_vc(out: &mut Vec<u8>, vc: &VectorClock) {
    (vc.len() as u16).put(out);
    for &c in vc.components() {
        c.put(out);
    }
}

fn get_vc(buf: &[u8], pos: &mut usize) -> Option<VectorClock> {
    let n = usize::from(u16::get(buf, pos)?);
    let mut vc = VectorClock::new(n);
    for i in 0..n {
        vc.set(i, u64::get(buf, pos)?);
    }
    Some(vc)
}

impl Wire for CcWire {
    fn put(&self, out: &mut Vec<u8>) {
        (self.sender as u16).put(out);
        put_vc(out, &self.vc);
        self.x.put(out);
        self.v.put(out);
    }
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(CcWire {
            sender: NodeId::from(u16::get(buf, pos)?),
            vc: get_vc(buf, pos)?,
            x: u32::get(buf, pos)?,
            v: u64::get(buf, pos)?,
        })
    }
}

impl CcWire {
    /// Encoded size in bytes.
    pub fn wire_size(&self) -> usize {
        2 + 2 + 8 * self.vc.len() + 4 + 8
    }
}

impl Wire for CcvWire {
    fn put(&self, out: &mut Vec<u8>) {
        (self.sender as u16).put(out);
        put_vc(out, &self.vc);
        self.x.put(out);
        self.v.put(out);
        self.ts.time.put(out);
        (self.ts.pid as u16).put(out);
    }
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(CcvWire {
            sender: NodeId::from(u16::get(buf, pos)?),
            vc: get_vc(buf, pos)?,
            x: u32::get(buf, pos)?,
            v: u64::get(buf, pos)?,
            ts: Timestamp::new(u64::get(buf, pos)?, NodeId::from(u16::get(buf, pos)?)),
        })
    }
}

impl CcvWire {
    /// Encoded size in bytes.
    pub fn wire_size(&self) -> usize {
        2 + 2 + 8 * self.vc.len() + 4 + 8 + 8 + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbm_adt::wire::{from_bytes, to_bytes};

    fn cc() -> CcWire {
        let mut vc = VectorClock::new(3);
        vc.set(0, 5);
        vc.set(2, 9);
        CcWire {
            sender: 2,
            vc,
            x: 7,
            v: 123456789,
        }
    }

    fn ccv() -> CcvWire {
        let mut vc = VectorClock::new(2);
        vc.set(1, 3);
        CcvWire {
            sender: 1,
            vc,
            x: 0,
            v: 42,
            ts: Timestamp::new(17, 1),
        }
    }

    #[test]
    fn cc_roundtrip() {
        let m = cc();
        let enc = to_bytes(&m);
        assert_eq!(enc.len(), m.wire_size());
        assert_eq!(from_bytes::<CcWire>(&enc), Some(m));
    }

    #[test]
    fn ccv_roundtrip() {
        let m = ccv();
        let enc = to_bytes(&m);
        assert_eq!(enc.len(), m.wire_size());
        assert_eq!(from_bytes::<CcvWire>(&enc), Some(m));
    }

    #[test]
    fn truncated_messages_decode_to_none() {
        let (cc, ccv) = (to_bytes(&cc()), to_bytes(&ccv()));
        for cut in 0..cc.len() {
            assert_eq!(from_bytes::<CcWire>(&cc[..cut]), None, "cc cut {cut}");
        }
        for cut in 0..ccv.len() {
            assert_eq!(from_bytes::<CcvWire>(&ccv[..cut]), None, "ccv cut {cut}");
        }
    }

    #[test]
    fn ccv_messages_are_larger_than_cc() {
        // Fig. 5 pays 10 extra bytes per message for the timestamp —
        // the price of convergence.
        let vc = VectorClock::new(4);
        let cc = CcWire {
            sender: 0,
            vc: vc.clone(),
            x: 0,
            v: 0,
        };
        let ccv = CcvWire {
            sender: 0,
            vc,
            x: 0,
            v: 0,
            ts: Timestamp::ZERO,
        };
        assert_eq!(ccv.wire_size() - cc.wire_size(), 10);
    }
}
