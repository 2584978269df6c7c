//! # cbm-net — Wait-free asynchronous message-passing substrate
//!
//! Implements Section 6.1 of Perrin, Mostéfaoui & Jard, *Causal
//! Consistency: Beyond Memory* (PPoPP 2016): a message-passing system of
//! `n` sequential processes, asynchronous (no bound on delivery delay),
//! with crash faults, communicating through a **reliable causal
//! broadcast** with the four properties of §6.1:
//!
//! 1. every received message was broadcast;
//! 2. a received message is eventually received by all non-faulty
//!    processes;
//! 3. a non-faulty broadcaster receives its own message immediately;
//! 4. causal order: a message broadcast after a reception is never
//!    delivered before the received message.
//!
//! The causal broadcast is [`broadcast::InterestBatchCausalBroadcast`]
//! with every process interested ([`broadcast::full_interest`]): the
//! library's Fig. 4/5 replicas flush one update per envelope, one
//! edge-stamped copy per peer. The live store engine runs the same
//! protocol batched and interest-filtered: payloads that share a
//! recipient set coalesce into one envelope per flush, cutting message
//! counts by the mean batch size while preserving causal order, and
//! under partial replication a replica receives only what it stores.
//!
//! Alongside the causal broadcast we provide the weaker and stronger
//! layers the baselines in `cbm-core` need: FIFO broadcast (PRAM) and
//! a sequencer-based total-order broadcast (sequential consistency —
//! *not* wait-free; its latency is the motivation metric of §1). Every
//! protocol releases through one per-sender reorder buffer, so stale
//! and duplicated envelopes are dropped the same way everywhere.
//!
//! Three transports run the protocols:
//!
//! * [`sim::SimNet`] — a deterministic, seeded discrete-event simulator
//!   with pluggable latency models and crash injection; every test and
//!   figure harness runs on it so executions are replayable;
//! * [`thread_net::ThreadNet`] — real threads over in-process queues
//!   with lock-free message/byte accounting and graceful drain, used
//!   by the live store engine (`cbm-store`);
//! * [`tcp::TcpNet`] — real sockets: a CRC-framed, length-prefixed TCP
//!   mesh over loopback with the same accounting and drain semantics,
//!   behind the shared [`endpoint::Endpoint`] trait (messages encode
//!   via [`wire::Wire`]), so the engine and the chaos layer run
//!   unchanged over actual connections.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod broadcast;
pub mod chaos;
pub mod clock;
pub mod crc;
pub mod delta;
pub mod endpoint;
pub mod fault;
pub(crate) mod inbox;
pub mod latency;
pub(crate) mod mask;
pub mod sim;
mod stock;
pub mod tcp;
pub mod thread_net;
pub mod wire;

/// Identifier of a process/replica in a cluster of known size `n`
/// (process ids are "unique and totally ordered", §6.3).
pub type NodeId = usize;
