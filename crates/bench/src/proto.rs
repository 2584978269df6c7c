//! Control protocol between a multi-process driver (`loadgen --procs`)
//! and its `cbm-node` worker processes.
//!
//! Framing reuses the transport's length-prefixed CRC frames
//! ([`cbm_net::tcp::write_frame`] / [`cbm_net::tcp::read_frame`]) over
//! one TCP stream per node; bodies are
//! [`Wire`](cbm_adt::wire::Wire)-encoded [`Ctrl`] messages. The driver
//! listens, each spawned node dials back and
//! announces itself with [`Ctrl::Hello`], then serves [`Ctrl::Run`]
//! requests until [`Ctrl::Shutdown`] (or EOF — a dead driver must
//! never leave orphaned node processes computing).
//!
//! Reports cross the wire **without** their flight records
//! ([`cbm_store::codec`] encodes `trace` as absent): traces are dumped
//! node-side into the leg's `trace_dir`, which on a loopback fleet is
//! the same filesystem the driver's CI step uploads from.

use cbm_adt::{wire_enum, wire_struct};
use cbm_net::tcp::{read_frame, write_frame, MAX_FRAME};
use cbm_net::wire::{from_bytes, to_bytes};
use cbm_store::{StoreConfig, StoreReport};
use std::io::{self, Read, Write};

use crate::Workload;

/// One dispatched matrix cell: everything a node needs to reproduce
/// the driver's in-process run bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct LegSpec {
    /// Leg name (keys the gate baseline and trace filenames).
    pub name: String,
    /// Full engine configuration, seed included.
    pub cfg: StoreConfig,
    /// Which shared generator drives the ops ([`crate::run_workload`]).
    pub workload: Workload,
    /// Force a trace dump even for a green leg (`--trace`).
    pub trace: bool,
    /// Where the node writes flight-record dumps.
    pub trace_dir: String,
}

/// A control-stream message. Driver → node: `Run`, `Shutdown`;
/// node → driver: `Hello`, `Report`, `Error`.
#[derive(Debug)]
pub enum Ctrl {
    /// Announce this node's id right after connecting.
    Hello(u32),
    /// Run one leg and reply with `Report` (or `Error`).
    Run(Box<LegSpec>),
    /// The finished leg's report (flight record stays node-side).
    Report(Box<StoreReport>),
    /// The leg could not run; the driver fails the leg with this text.
    Error(String),
    /// Exit cleanly.
    Shutdown,
}

wire_enum!(Workload {
    0 => Register { read_ratio, remote_read_ratio },
    1 => Counter,
});

wire_struct!(LegSpec {
    name,
    cfg,
    workload,
    trace,
    trace_dir
});

wire_enum!(Ctrl {
    0 => Hello(id),
    1 => Run(spec),
    2 => Report(report),
    3 => Error(text),
    4 => Shutdown,
});

/// Write one control message as a CRC frame.
pub fn send_ctrl<W: Write>(w: &mut W, msg: &Ctrl) -> io::Result<()> {
    write_frame(w, &to_bytes(msg))
}

/// Read one control message; `Ok(None)` on clean EOF at a frame
/// boundary (peer gone), `Err` on corruption or an undecodable body.
pub fn recv_ctrl<R: Read>(r: &mut R) -> io::Result<Option<Ctrl>> {
    match read_frame(r, MAX_FRAME)? {
        None => Ok(None),
        Some(body) => from_bytes::<Ctrl>(&body).map(Some).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "undecodable control message")
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> LegSpec {
        LegSpec {
            name: "cc-4w-64o-b8-r50-quick".into(),
            cfg: StoreConfig::default(),
            workload: Workload::Register {
                read_ratio: 0.5,
                remote_read_ratio: 0.05,
            },
            trace: false,
            trace_dir: "traces".into(),
        }
    }

    #[test]
    fn leg_spec_roundtrips() {
        let s = spec();
        let bytes = to_bytes(&s);
        assert_eq!(from_bytes::<LegSpec>(&bytes), Some(s));
    }

    #[test]
    fn ctrl_messages_roundtrip_over_a_stream() {
        let mut buf = Vec::new();
        send_ctrl(&mut buf, &Ctrl::Hello(3)).unwrap();
        send_ctrl(&mut buf, &Ctrl::Run(Box::new(spec()))).unwrap();
        send_ctrl(&mut buf, &Ctrl::Shutdown).unwrap();
        let mut r = &buf[..];
        assert!(matches!(recv_ctrl(&mut r).unwrap(), Some(Ctrl::Hello(3))));
        match recv_ctrl(&mut r).unwrap() {
            Some(Ctrl::Run(s)) => assert_eq!(*s, spec()),
            other => panic!("expected Run, got {other:?}"),
        }
        assert!(matches!(recv_ctrl(&mut r).unwrap(), Some(Ctrl::Shutdown)));
        assert!(recv_ctrl(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_control_stream_errors() {
        let mut buf = Vec::new();
        send_ctrl(&mut buf, &Ctrl::Hello(1)).unwrap();
        let mut r = &buf[..buf.len() - 1];
        assert!(recv_ctrl(&mut r).is_err(), "mid-frame EOF is an error");
    }
}
