//! The binary codec every socket transport speaks — a re-export of
//! [`cbm_adt::wire`], the workspace's one codec trait (see that module
//! for the format conventions and the `wire_struct!` field-list
//! helper).
//!
//! Engine messages over [`crate::tcp`], the bench control protocol and
//! the durable epoch log all bound on this [`Wire`]. Impls live next
//! to their types: [`crate::clock::Timestamp`],
//! [`crate::delta::KnowledgeDelta`], [`crate::broadcast::InterestMsg`],
//! the [`crate::fault`] vocabulary (so a `FaultPlan` can ride a control
//! socket) in this crate;
//! `StoreMsg` and the report chain in `cbm-store`; leg specs in
//! `cbm-bench`.

pub use cbm_adt::wire::{from_bytes, to_bytes, Wire};
