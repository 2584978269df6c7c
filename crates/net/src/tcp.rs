//! Real-socket transport: a TCP mesh behind the same
//! [`Endpoint`](crate::endpoint::Endpoint) surface as
//! [`crate::thread_net::ThreadNet`].
//!
//! ## Wire format
//!
//! Every message is one **length-prefixed, CRC-protected frame** on a
//! per-peer ordered stream:
//!
//! ```text
//! [ len: u32 LE ][ crc32(body): u32 LE ][ body: len bytes ]
//! ```
//!
//! `body` opens with a one-byte tag: `0x00` for a data frame (the rest
//! is the message's [`Wire`] encoding) or `0x01` for a **flush
//! marker** — a transport-internal, uncounted cut token the engine's
//! drain rendezvous uses to tell "in flight" from "lost" (see
//! [`Endpoint::send_marker`](crate::endpoint::Endpoint::send_marker)).
//! `len` is bounded by [`MAX_FRAME`]; a frame claiming more is a
//! protocol error, not an allocation. The CRC is IEEE 802.3 (the
//! polynomial every `crc32` tool speaks, computed by [`crate::crc`]),
//! so captures are checkable with standard tooling. The
//! framing codec is a pure state machine ([`FrameDecoder`]) fed by
//! arbitrary byte chunks, so split reads, coalesced writes, and
//! corruption handling are testable without sockets
//! (`tests/tcp_framing.rs`).
//!
//! ## Mesh topology and handshake
//!
//! [`TcpNet::new`] builds a full mesh over loopback: one listener per
//! node, one full-duplex TCP stream per node pair (the higher id
//! connects, the lower id accepts), `TCP_NODELAY` set. Each stream
//! opens with a 12-byte handshake — magic, protocol version, node id —
//! so accept order never matters: the acceptor slots the stream by the
//! id the peer announced, and both sides reject a bad magic or
//! version.
//!
//! ## Threads and delivery semantics
//!
//! Per endpoint: one **reader thread per peer stream** and one
//! **writer thread**.
//!
//! A reader lets the socket write straight into its [`FrameDecoder`]'s
//! buffer, checks each frame's CRC where it lies, decodes the message
//! from that borrowed slice, and pushes it onto the endpoint's merged
//! inbox (per-peer FIFO, no cross-peer order — exactly
//! `ThreadNet`'s contract, and the same type). The inbox is unbounded and a
//! reader does nothing else, so **readers always drain their
//! sockets**, whatever the worker that owns the endpoint is doing. A
//! frame a reader cannot trust or understand (CRC mismatch, oversized
//! length, unknown tag, undecodable body) is counted in
//! [`TcpStats::frames_rejected`] and ends that stream, like a dead
//! peer.
//!
//! [`send_sized`] encodes the message once, in place behind its
//! reserved header ([`frame_into`]), in the endpoint's reusable frame
//! buffer — no per-message allocation, no separate body — and appends
//! the sealed frame to the recipient's outbound queue, the only copy
//! on the send side and the one coalescing needs. The writer takes
//! everything queued for every peer per wake-up and issues **one
//! `write` per peer per pass**, so frames coalesce exactly when the
//! writer is the bottleneck. The outbound backlog — bytes accepted and
//! not yet handed to the kernel — is bounded by a fixed 256 KiB per
//! endpoint (the bound, plus at most the one frame that crossed it):
//! at the bound `send_sized` **blocks** until the writer finishes a
//! pass.
//!
//! What an update can therefore wait on, precisely: its own endpoint's
//! writer thread, which waits only on the kernel's send buffers, which
//! drain as fast as the **peers' reader threads** read — and those
//! never wait on anything but their sockets. No link of that chain is
//! a peer's *worker*: a peer that is busy, blocked in its own
//! `send_sized`, or parked at a drain rendezvous still has its sockets
//! read, so two nodes flooding each other (or all nodes flooding all
//! others) cannot deadlock, and an update's delay is bounded by
//! transport work, never by another replica's operations. The two
//! failure shapes differ: a **dead** peer (stream reset or closed)
//! fails the write, and its copies are dropped silently — exactly a
//! send to a dropped `ThreadNet` endpoint — so nothing waits on it; a
//! **stalled** peer (process alive, sockets open, readers not running:
//! `SIGSTOP`, a machine-wide pause) fills its kernel buffers, the
//! writer blocks in `write` — which also delays the frames queued for
//! every *other* peer behind it — and once the backlog reaches the
//! bound so does the sender, until the peer resumes or its connection
//! dies. Before the bound existed the sender would instead have queued
//! without limit; blocking is the same stall made visible, in bounded
//! memory ([`TcpStats::backpressure_waits`],
//! [`TcpStats::backlog_peak_bytes`]).
//!
//! The accounting contract is `ThreadNet`'s, verbatim: the shared
//! [`ThreadNetStats`] count a message (and its **declared** byte size
//! — the protocol layer's exact wire estimate, not the frame bytes)
//! when the copy enters the outbound queue, which on a live mesh is
//! exactly when it will reach the peer's queue. Deterministic columns
//! (msgs/batches/payloads) therefore reproduce the committed
//! `ThreadNet` baselines bit-for-bit; see `docs/DEPLOYMENT.md`.
//!
//! ## Shutdown
//!
//! [`shutdown`](crate::endpoint::Endpoint::shutdown) (or dropping the
//! endpoint) closes the outbound queue: the writer finishes the
//! backlog, then half-closes every stream (`FIN`). Peers' readers see
//! EOF **after** all sent data (TCP ordering), exit, and drop their
//! inbound handles — so once every node has shut down,
//! [`Drain::recv`](crate::endpoint::Drain::recv) returns `None` after
//! the queue empties, the same coordination-free termination the
//! thread transport provides.
//!
//! [`send_sized`]: crate::endpoint::Endpoint::send_sized
//! [`Wire`]: crate::wire::Wire

pub use crate::crc::crc32;
use crate::inbox::{inbox, Inbox, InboxSender};
use crate::thread_net::ThreadNetStats;
use crate::wire::{from_bytes, Wire};
use crate::NodeId;
use std::cell::RefCell;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Body tag of a data frame (tag byte + `Wire`-encoded message).
const TAG_DATA: u8 = 0;
/// Body tag of a flush-marker frame (tag byte only).
const TAG_MARKER: u8 = 1;

/// Hard bound on one frame's body (64 MiB): larger is a protocol
/// error. Far above any engine message — a full-replication repair of
/// a whole epoch stays in the low megabytes — while keeping a
/// corrupted length prefix from looking like an allocation request.
pub const MAX_FRAME: usize = 64 << 20;

/// Stream opener: magic + version + announced node id.
const MAGIC: [u8; 4] = *b"CBMT";
const VERSION: u32 = 1;

/// Frame header: length prefix + body CRC.
pub const FRAME_HEADER: usize = 8;

/// Spare room a reader keeps at the tail of its [`FrameDecoder`] for
/// one `read` (64 KiB: loopback TCP hands over up to a socket buffer
/// per call, and a coalesced peer write is rarely larger).
const READ_CHUNK: usize = 64 * 1024;

/// Buffer size a [`FrameDecoder`] returns to once an oversized frame
/// has been consumed: one read's spare room plus a pending partial
/// frame of ordinary size, so steady-state traffic never reallocates.
const DECODER_KEEP: usize = 2 * READ_CHUNK;

/// Byte bound on one endpoint's outbound backlog (frames accepted by
/// `send_sized` and not yet handed to the kernel), all peers together;
/// at or above it `send_sized` blocks until the writer catches up. It
/// is also the coalescing cap: one writer pass never carries more than
/// the bound plus one frame.
///
/// Chosen by measurement on the benchmark's `write_fanout_tcp`
/// (4 workers on 2 cores, 4–6 s runs, seed 42; the path this replaced,
/// a per-frame writer behind a queue with no bound: 1.6–1.7 M ops/s at
/// 22–23 MB peak RSS). A worker outruns its writer whenever the writer
/// is off-core, so the backlog reaches any bound it is given and peak
/// RSS follows it (buffers on both sides of the swap here, decoded
/// bursts in the receivers' queues there): never reached (4 MiB) 3.5 M
/// ops/s at 47 MB, 1 MiB 3.3–3.7 M at 29–35 MB, 512 KiB 3.3–3.5 M at
/// 21–25 MB, 256 KiB 3.1–3.5 M at 17–19 MB, 128 KiB 3.1–3.3 M at
/// 16 MB, 64 KiB 2.8 M at 14.5 MB, 16 KiB 2.1 M at 12.6 MB. 256 KiB
/// (~230 envelopes of 32 ops) is the largest bound whose memory stays
/// under the old path's with margin, and throughput is flat from there
/// up.
const OUTBOUND_BOUND: usize = 256 << 10;

/// The one framing primitive: append `[len][crc][body]` to `out`,
/// where `encode` writes the body straight behind the reserved header
/// and `len`/`crc` are patched in place afterwards — no intermediate
/// body buffer, no copy. Socket frames, control-plane frames and
/// durable log records all come from here. Returns the frame's total
/// length.
///
/// Panics if the body exceeds [`MAX_FRAME`] — a message that large is
/// a protocol-layer bug, not a runtime condition.
pub fn frame_into(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) -> usize {
    let at = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    encode(out);
    let (header, body) = out[at..].split_at_mut(FRAME_HEADER);
    assert!(body.len() <= MAX_FRAME, "frame body exceeds MAX_FRAME");
    header[..4].copy_from_slice(&(body.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(body).to_le_bytes());
    FRAME_HEADER + body.len()
}

/// Encode one frame: `[len][crc][body]`.
///
/// Panics if `body` exceeds [`MAX_FRAME`] (see [`frame_into`]).
pub fn frame(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + body.len());
    frame_into(&mut out, |b| b.extend_from_slice(body));
    out
}

/// Why a [`FrameDecoder`] rejected its stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeds the decoder's max frame size.
    TooLarge {
        /// Claimed body length.
        len: usize,
        /// The decoder's bound.
        max: usize,
    },
    /// The body failed its CRC.
    Corrupt {
        /// CRC carried by the frame header.
        expect: u32,
        /// CRC computed over the received body.
        got: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLarge { len, max } => {
                write!(f, "frame body of {len} bytes exceeds the {max}-byte bound")
            }
            FrameError::Corrupt { expect, got } => {
                write!(
                    f,
                    "frame CRC mismatch: header {expect:#010x}, body {got:#010x}"
                )
            }
        }
    }
}

impl From<FrameError> for std::io::Error {
    fn from(e: FrameError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
    }
}

/// Parse a frame header: `(body length, expected CRC)`, with the
/// length already checked against `max`.
fn parse_header(header: &[u8], max: usize) -> Result<(usize, u32), FrameError> {
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
    if len > max {
        return Err(FrameError::TooLarge { len, max });
    }
    let expect = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    Ok((len, expect))
}

fn check_crc(body: &[u8], expect: u32) -> Result<(), FrameError> {
    let got = crc32(body);
    if got == expect {
        Ok(())
    } else {
        Err(FrameError::Corrupt { expect, got })
    }
}

/// The one deframing step: the body of the frame at the start of
/// `buf` (it spans `FRAME_HEADER + body.len()` bytes), `Ok(None)` if
/// `buf` holds less than one whole frame, or why the frame there is
/// not one — a length above `max`, or a body that fails its CRC. The
/// stream decoder and the epoch log's scan both step with this.
pub fn next_frame_in(buf: &[u8], max: usize) -> Result<Option<&[u8]>, FrameError> {
    if buf.len() < FRAME_HEADER {
        return Ok(None);
    }
    let (len, expect) = parse_header(buf, max)?;
    let Some(body) = buf.get(FRAME_HEADER..FRAME_HEADER + len) else {
        return Ok(None);
    };
    check_crc(body, expect)?;
    Ok(Some(body))
}

/// Incremental frame reassembly: feed arbitrary byte chunks with
/// [`push`](FrameDecoder::push) (or let a socket write straight into
/// the buffer with `read_from`), pull
/// complete bodies with `next_body` /
/// [`next_frame`](FrameDecoder::next_frame). A pure state machine, so
/// the framing contract is testable byte by byte.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Backing store, every byte initialised: `buf[start..end]` is
    /// received-but-unconsumed stream, `buf[end..]` is spare room that
    /// reads land in directly.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    max: usize,
}

impl FrameDecoder {
    /// Decoder enforcing the default [`MAX_FRAME`] bound.
    pub fn new() -> Self {
        Self::with_max(MAX_FRAME)
    }

    /// Decoder enforcing a custom body-size bound.
    pub fn with_max(max: usize) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            start: 0,
            end: 0,
            max,
        }
    }

    /// Make `buf[end..]` at least `need` bytes long. Compacts the
    /// pending bytes to the front only when room has run out, and
    /// gives memory back: once what must be held fits in
    /// [`DECODER_KEEP`] again, a buffer grown for an oversized frame
    /// shrinks to that size.
    fn make_room(&mut self, need: usize) {
        let want = self.pending() + need;
        let oversized = self.buf.len() > DECODER_KEEP && want <= DECODER_KEEP;
        if self.buf.len() - self.end >= need && !oversized {
            return;
        }
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        if oversized {
            self.buf.truncate(DECODER_KEEP);
            self.buf.shrink_to_fit();
        } else if self.buf.len() < want {
            self.buf.resize(want, 0);
        }
    }

    /// Feed received bytes (any split: one byte at a time, many frames
    /// coalesced, anything between).
    pub fn push(&mut self, bytes: &[u8]) {
        self.make_room(bytes.len());
        self.buf[self.end..self.end + bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// One `read` from `r` straight into the decoder's spare room — no
    /// bounce buffer. Returns the byte count; `0` is EOF.
    pub(crate) fn read_from(&mut self, mut r: impl Read) -> std::io::Result<usize> {
        self.make_room(READ_CHUNK);
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Bytes of memory the decoder currently holds.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Bytes buffered but not yet returned as a frame.
    pub fn pending(&self) -> usize {
        self.end - self.start
    }

    /// Next complete body, borrowed from the decoder's buffer (valid
    /// until the next call); `Ok(None)` if more bytes are needed.
    /// After an `Err` the stream is poisoned garbage: resynchronising
    /// inside a corrupted byte stream is guesswork, so callers drop
    /// the connection instead.
    pub(crate) fn next_body(&mut self) -> Result<Option<&[u8]>, FrameError> {
        let body = next_frame_in(&self.buf[self.start..self.end], self.max)?;
        self.start += body.map_or(0, |b| FRAME_HEADER + b.len());
        Ok(body)
    }

    /// `next_body`, copied out.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        Ok(self.next_body()?.map(<[u8]>::to_vec))
    }
}

/// Write one frame-delimited message to a stream.
pub fn write_frame(mut w: impl Write, body: &[u8]) -> std::io::Result<()> {
    w.write_all(&frame(body))
}

/// Blocking-read one frame-delimited message from a stream; `None` on
/// clean EOF at a frame boundary, `Err` on corruption or I/O error.
///
/// Reads exactly one frame's bytes and nothing past it, so callers may
/// interleave this with other reads of the same stream and a message
/// arriving in the same TCP segment as its predecessor is never
/// swallowed. (The chunked data-plane reader uses [`FrameDecoder`]
/// directly and keeps it alive across reads instead.)
pub fn read_frame(mut r: impl Read, max: usize) -> std::io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; FRAME_HEADER];
    let mut got = 0;
    while got < FRAME_HEADER {
        let n = r.read(&mut header[got..])?;
        if n == 0 {
            return if got == 0 {
                Ok(None)
            } else {
                Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "EOF inside a frame",
                ))
            };
        }
        got += n;
    }
    let (len, expect) = parse_header(&header, max)?;
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    check_crc(&body, expect)?;
    Ok(Some(body))
}

fn handshake_bytes(id: NodeId) -> [u8; 12] {
    let mut b = [0u8; 12];
    b[0..4].copy_from_slice(&MAGIC);
    b[4..8].copy_from_slice(&VERSION.to_le_bytes());
    b[8..12].copy_from_slice(&(id as u32).to_le_bytes());
    b
}

fn read_handshake(stream: &mut TcpStream) -> std::io::Result<NodeId> {
    let mut b = [0u8; 12];
    stream.read_exact(&mut b)?;
    if b[0..4] != MAGIC {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "bad transport magic",
        ));
    }
    let version = u32::from_le_bytes(b[4..8].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("transport version {version}, expected {VERSION}"),
        ));
    }
    Ok(u32::from_le_bytes(b[8..12].try_into().expect("4 bytes")) as NodeId)
}

/// Per-mesh transport counters, shared by every endpoint's threads.
/// Informational — scheduling decides how frames coalesce — so nothing
/// gates on them; [`TcpStats::snapshot`] names them for a metrics
/// table.
#[derive(Debug, Default)]
pub struct TcpStats {
    /// Inbound frames a reader refused: CRC mismatch, oversized length
    /// prefix, unknown tag, or a body that does not decode. Each one
    /// also ends that peer stream.
    pub frames_rejected: AtomicU64,
    /// High-water mark of any one endpoint's outbound backlog, bytes.
    pub backlog_peak_bytes: AtomicU64,
    /// Times a sender found the backlog at its bound and had to wait
    /// for the writer.
    pub backpressure_waits: AtomicU64,
    /// Frames handed to the kernel.
    pub frames_written: AtomicU64,
    /// `write` calls that carried them.
    pub write_syscalls: AtomicU64,
}

impl TcpStats {
    /// Every counter under its metric name.
    pub fn snapshot(&self) -> [(&'static str, u64); 5] {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        [
            ("tcp_frames_rejected_total", get(&self.frames_rejected)),
            ("tcp_backlog_peak_bytes", get(&self.backlog_peak_bytes)),
            (
                "tcp_backpressure_waits_total",
                get(&self.backpressure_waits),
            ),
            ("tcp_frames_written_total", get(&self.frames_written)),
            ("tcp_write_syscalls_total", get(&self.write_syscalls)),
        ]
    }
}

/// Frames queued for one peer, already framed and back to back.
#[derive(Default)]
struct PeerQueue {
    bytes: Vec<u8>,
    frames: u64,
}

/// An endpoint's outbound state, shared between its senders and its
/// writer thread.
struct Outbound {
    /// `queues[peer]`: what the writer's next pass will carry.
    queues: Vec<PeerQueue>,
    /// Bytes in `queues`.
    queued: usize,
    /// Bytes the writer has taken and not yet finished writing.
    writing: usize,
    /// High-water mark of `queued + writing`.
    peak: usize,
    /// The writer is parked on `ready`.
    writer_idle: bool,
    /// Senders parked on `space`.
    senders_waiting: usize,
    /// The endpoint is gone: flush, `FIN`, exit.
    closed: bool,
}

struct OutboundShared {
    state: Mutex<Outbound>,
    /// Signalled when an idle writer gets work (or the close).
    ready: Condvar,
    /// Signalled when a pass finishes and senders are waiting.
    space: Condvar,
    stats: Arc<TcpStats>,
}

/// `Condvar::wait`, poison-tolerant for the reason [`OutboundShared::lock`] gives.
fn wait<'a>(cv: &Condvar, guard: MutexGuard<'a, Outbound>) -> MutexGuard<'a, Outbound> {
    cv.wait(guard)
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl OutboundShared {
    fn lock(&self) -> MutexGuard<'_, Outbound> {
        // every critical section appends whole frames and adjusts
        // counters, so the state is valid at every step and a holder
        // that panicked left nothing worth propagating
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// The sending half of an endpoint. Dropping it (endpoint shut down or
/// dropped) closes the queue; the writer flushes the backlog first.
struct OutboundHandle {
    shared: Arc<OutboundShared>,
    /// Where a frame is encoded before it joins the queues, reused
    /// across sends. Encoding (and its CRC) happens outside the lock:
    /// the lock is held for one `memcpy` per recipient, the writer
    /// never waits behind an encoder, and an encoder that panics
    /// leaves no half-written frame in a queue.
    frame: RefCell<Vec<u8>>,
}

impl OutboundHandle {
    /// Frame one body — encoded once, in place behind its header — and
    /// append it to each recipient's queue. Blocks while the backlog is
    /// at [`OUTBOUND_BOUND`].
    fn enqueue(
        &self,
        to: impl Iterator<Item = NodeId>,
        size_hint: usize,
        encode: impl FnOnce(&mut Vec<u8>),
    ) {
        let mut frame = self.frame.borrow_mut();
        frame.clear();
        frame.reserve(FRAME_HEADER + size_hint);
        frame_into(&mut frame, encode);

        let shared = &*self.shared;
        let mut st = shared.lock();
        if st.queued + st.writing >= OUTBOUND_BOUND {
            shared
                .stats
                .backpressure_waits
                .fetch_add(1, Ordering::Relaxed);
            st.senders_waiting += 1;
            while st.queued + st.writing >= OUTBOUND_BOUND {
                st = wait(&shared.space, st);
            }
            st.senders_waiting -= 1;
        }
        for peer in to {
            let q = &mut st.queues[peer];
            q.bytes.extend_from_slice(&frame);
            q.frames += 1;
            st.queued += frame.len();
        }
        st.peak = st.peak.max(st.queued + st.writing);
        // a busy writer re-checks the queues before it parks; a parked
        // one is woken once, by whoever clears the flag
        let wake = std::mem::take(&mut st.writer_idle);
        drop(st);
        if wake {
            shared.ready.notify_one();
        }
    }
}

impl Drop for OutboundHandle {
    fn drop(&mut self) {
        self.shared.lock().closed = true;
        self.shared.ready.notify_one();
    }
}

/// A fully connected loopback TCP mesh of `n` nodes, pre-handshaken
/// and ready to split into endpoints.
pub struct TcpNet<M> {
    /// `streams[me][peer]`, `None` on the diagonal.
    streams: Vec<Vec<Option<TcpStream>>>,
    stats: Arc<ThreadNetStats>,
    tcp_stats: Arc<TcpStats>,
    _msg: std::marker::PhantomData<fn() -> M>,
}

/// A node's endpoint on a [`TcpNet`] mesh. Implements
/// [`crate::endpoint::Endpoint`]; see the module docs for semantics.
pub struct TcpEndpoint<M> {
    me: NodeId,
    n: usize,
    out: OutboundHandle,
    /// Loopback for self-sends (peers arrive via reader threads).
    self_tx: InboxSender<M>,
    in_rx: Inbox<M>,
    /// Flush markers observed per peer, bumped by the reader threads
    /// (see [`crate::endpoint::Endpoint::send_marker`]).
    markers: Arc<Vec<AtomicU64>>,
    stats: Arc<ThreadNetStats>,
}

impl<M: Wire + Send + 'static> TcpNet<M> {
    /// Build and handshake a full loopback mesh of `n` nodes.
    pub fn new(n: usize) -> std::io::Result<Self> {
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<std::io::Result<_>>()?;
        let addrs: Vec<SocketAddr> = listeners
            .iter()
            .map(|l| l.local_addr())
            .collect::<std::io::Result<_>>()?;

        // one full-duplex stream per pair: the higher id dials the
        // lower id's listener, each thread owns one node's connections
        let meshed: Vec<std::io::Result<Vec<Option<TcpStream>>>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|me| {
                    let addrs = &addrs;
                    let listener = &listeners[me];
                    s.spawn(move || -> std::io::Result<Vec<Option<TcpStream>>> {
                        let mut row: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();
                        for peer in 0..me {
                            let mut stream = TcpStream::connect(addrs[peer])?;
                            stream.set_nodelay(true)?;
                            stream.write_all(&handshake_bytes(me))?;
                            let got = read_handshake(&mut stream)?;
                            if got != peer {
                                return Err(std::io::Error::new(
                                    std::io::ErrorKind::InvalidData,
                                    format!("dialed node {peer}, got {got}"),
                                ));
                            }
                            row[peer] = Some(stream);
                        }
                        for _ in me + 1..n {
                            let (mut stream, _) = listener.accept()?;
                            stream.set_nodelay(true)?;
                            let peer = read_handshake(&mut stream)?;
                            if peer <= me || peer >= n || row[peer].is_some() {
                                return Err(std::io::Error::new(
                                    std::io::ErrorKind::InvalidData,
                                    format!("unexpected peer id {peer} at node {me}"),
                                ));
                            }
                            stream.write_all(&handshake_bytes(me))?;
                            row[peer] = Some(stream);
                        }
                        Ok(row)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("mesh handshake thread panicked"))
                .collect()
        });
        let streams = meshed.into_iter().collect::<std::io::Result<Vec<_>>>()?;
        Ok(TcpNet {
            streams,
            stats: Arc::new(ThreadNetStats::new(n)),
            tcp_stats: Arc::new(TcpStats::default()),
            _msg: std::marker::PhantomData,
        })
    }

    /// The mesh's shared statistics handle.
    pub fn stats(&self) -> Arc<ThreadNetStats> {
        Arc::clone(&self.stats)
    }

    /// The mesh's transport counters (see [`TcpStats`]).
    pub fn tcp_stats(&self) -> Arc<TcpStats> {
        Arc::clone(&self.tcp_stats)
    }

    /// Consume the mesh into all `n` endpoints, spawning each
    /// endpoint's reader threads (one per peer stream, small stacks —
    /// they mostly block in `read`) and writer thread.
    pub fn into_endpoints(self) -> Vec<TcpEndpoint<M>> {
        let n = self.streams.len();
        self.streams
            .into_iter()
            .enumerate()
            .map(|(me, row)| {
                let (in_tx, in_rx) = inbox::<M>();
                let markers: Arc<Vec<AtomicU64>> =
                    Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
                let shared: Vec<Option<Arc<TcpStream>>> =
                    row.into_iter().map(|s| s.map(Arc::new)).collect();
                for (peer, stream) in shared.iter().enumerate() {
                    let Some(stream) = stream else { continue };
                    let stream = Arc::clone(stream);
                    let in_tx = in_tx.clone();
                    let markers = Arc::clone(&markers);
                    let tcp_stats = Arc::clone(&self.tcp_stats);
                    std::thread::Builder::new()
                        .name(format!("tcp-read-{me}-{peer}"))
                        .stack_size(128 * 1024)
                        .spawn(move || {
                            reader_loop(&stream, peer, &in_tx, &markers[peer], &tcp_stats)
                        })
                        .expect("spawn reader thread");
                }
                let out = Arc::new(OutboundShared {
                    state: Mutex::new(Outbound {
                        queues: (0..n).map(|_| PeerQueue::default()).collect(),
                        queued: 0,
                        writing: 0,
                        peak: 0,
                        writer_idle: false,
                        senders_waiting: 0,
                        closed: false,
                    }),
                    ready: Condvar::new(),
                    space: Condvar::new(),
                    stats: Arc::clone(&self.tcp_stats),
                });
                let writer_out = Arc::clone(&out);
                std::thread::Builder::new()
                    .name(format!("tcp-write-{me}"))
                    .stack_size(128 * 1024)
                    .spawn(move || writer_loop(&shared, &writer_out))
                    .expect("spawn writer thread");
                TcpEndpoint {
                    me,
                    n,
                    out: OutboundHandle {
                        shared: out,
                        frame: RefCell::new(Vec::new()),
                    },
                    // the endpoint keeps the last inbound handle for
                    // self-sends; shutdown drops it alongside `out`
                    self_tx: in_tx,
                    in_rx,
                    markers,
                    stats: Arc::clone(&self.stats),
                }
            })
            .collect()
    }
}

/// Decode frames off one peer stream into the endpoint's inbox:
/// the socket reads land in the decoder's own buffer and each message
/// decodes from a body slice borrowed from it. Exits on EOF (peer shut
/// down), a transport error, or a rejected frame (counted in
/// [`TcpStats::frames_rejected`]) — in every case dropping its inbound
/// handle, which is what lets drains terminate.
fn reader_loop<M: Wire>(
    stream: &TcpStream,
    peer: NodeId,
    in_tx: &InboxSender<M>,
    markers: &AtomicU64,
    stats: &TcpStats,
) {
    let mut dec = FrameDecoder::new();
    // a frame this reader cannot trust or understand is peer death:
    // count it and drop the connection
    let reject = || {
        stats.frames_rejected.fetch_add(1, Ordering::Relaxed);
    };
    loop {
        loop {
            match dec.next_body() {
                Ok(Some(body)) => match body.split_first() {
                    Some((&TAG_DATA, rest)) => {
                        let Some(msg) = from_bytes::<M>(rest) else {
                            return reject();
                        };
                        if !in_tx.send(peer, msg) {
                            return; // receiver gone: endpoint fully dropped
                        }
                    }
                    Some((&TAG_MARKER, [])) => {
                        // Release pairs with marker_count's Acquire:
                        // whoever observes this marker also observes
                        // every data frame enqueued (and announced to
                        // the inbox) before it
                        markers.fetch_add(1, Ordering::Release);
                    }
                    _ => return reject(),
                },
                Ok(None) => break,
                Err(_) => return reject(),
            }
        }
        match dec.read_from(stream) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Carry the outbound queues onto the sockets: each pass takes
/// everything queued for every peer and issues one `write` per peer
/// (more only when the kernel accepts part of a buffer). After the
/// endpoint closes, finish the backlog, then `FIN` every stream.
fn writer_loop(streams: &[Option<Arc<TcpStream>>], out: &OutboundShared) {
    // double buffer: senders fill `Outbound::queues` while the writer
    // empties these; the two sets swap under the lock at each pass
    let mut pass: Vec<PeerQueue> = streams.iter().map(|_| PeerQueue::default()).collect();
    let mut st = out.lock();
    loop {
        // the previous pass is on the wire: its bytes leave the backlog
        st.writing = 0;
        if st.senders_waiting > 0 {
            out.space.notify_all();
        }
        while st.queued == 0 && !st.closed {
            st.writer_idle = true;
            st = wait(&out.ready, st);
            st.writer_idle = false;
        }
        if st.queued == 0 {
            break; // closed and flushed
        }
        std::mem::swap(&mut st.queues, &mut pass);
        st.writing = std::mem::take(&mut st.queued);
        let peak = st.peak as u64;
        drop(st);

        let (mut frames, mut syscalls) = (0u64, 0u64);
        for (q, stream) in pass.iter_mut().zip(streams) {
            let Some(stream) = stream else { continue };
            if q.bytes.is_empty() {
                continue;
            }
            // a failed write models a dead peer: the copies are
            // silently lost, exactly like a send to a dropped
            // ThreadNet endpoint
            if write_counted(stream, &q.bytes, &mut syscalls).is_ok() {
                frames += q.frames;
            }
            q.bytes.clear();
            q.frames = 0;
            // one oversized frame must not pin its capacity for good
            if q.bytes.capacity() > OUTBOUND_BOUND {
                q.bytes.shrink_to(OUTBOUND_BOUND);
            }
        }
        out.stats
            .frames_written
            .fetch_add(frames, Ordering::Relaxed);
        out.stats
            .write_syscalls
            .fetch_add(syscalls, Ordering::Relaxed);
        out.stats
            .backlog_peak_bytes
            .fetch_max(peak, Ordering::Relaxed);
        st = out.lock();
    }
    drop(st);
    for stream in streams.iter().flatten() {
        let _ = stream.shutdown(Shutdown::Write);
    }
}

/// `write_all`, counting the `write` calls it takes.
fn write_counted(mut w: &TcpStream, mut bytes: &[u8], syscalls: &mut u64) -> std::io::Result<()> {
    while !bytes.is_empty() {
        *syscalls += 1;
        match w.write(bytes) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

impl<M: Wire + Clone + Send + 'static> crate::endpoint::Endpoint<M> for TcpEndpoint<M> {
    type Drain = Inbox<M>;

    fn me(&self) -> NodeId {
        self.me
    }

    fn cluster_size(&self) -> usize {
        self.n
    }

    fn stats(&self) -> Arc<ThreadNetStats> {
        Arc::clone(&self.stats)
    }

    fn send_sized(&self, to: NodeId, msg: M, bytes: usize) {
        if to == self.me {
            if !self.self_tx.send(self.me, msg) {
                return;
            }
        } else {
            // `bytes` (the protocol's own estimate) sizes the frame
            // buffer's reservation
            self.out.enqueue(std::iter::once(to), 1 + bytes, |b| {
                b.push(TAG_DATA);
                msg.put(b);
            });
        }
        self.stats.msgs_sent.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_sent
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    fn recv(&self) -> Option<(NodeId, M)> {
        self.in_rx.recv()
    }

    #[inline]
    fn try_recv(&self) -> Option<(NodeId, M)> {
        self.in_rx.try_recv()
    }

    fn send_marker(&self) {
        // uncounted and below the fault layer: a cut token, not traffic
        let peers = (0..self.n).filter(|&to| to != self.me);
        self.out.enqueue(peers, 1, |b| b.push(TAG_MARKER));
    }

    fn marker_count(&self, peer: NodeId) -> u64 {
        if peer == self.me {
            u64::MAX // self-edge is synchronous
        } else {
            self.markers[peer].load(Ordering::Acquire)
        }
    }

    fn shutdown(self) -> Inbox<M> {
        // dropping `out` and `self_tx` closes the outbound queue: the
        // writer flushes the backlog and FINs the streams
        self.in_rx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::Endpoint as _;

    #[test]
    fn frame_into_appends_behind_existing_bytes() {
        let mut out = b"prefix".to_vec();
        let n = frame_into(&mut out, |b| b.extend_from_slice(b"body"));
        assert_eq!(n, FRAME_HEADER + 4);
        assert_eq!(&out[..6], b"prefix");
        assert_eq!(&out[6..], &frame(b"body")[..]);
    }

    #[test]
    fn decoder_gives_memory_back_after_an_oversized_frame() {
        let mut dec = FrameDecoder::new();
        let small = frame(b"ordinary traffic");
        let big = frame(&vec![0xAB; 4 << 20]);
        dec.push(&small);
        assert!(dec.next_frame().unwrap().is_some());
        // the oversized frame arrives with the next one already behind
        // it, so the buffer is never empty when it is consumed
        dec.push(&big);
        dec.push(&small[..5]);
        assert!(dec.capacity() >= 4 << 20);
        assert_eq!(dec.next_body().unwrap().map(<[u8]>::len), Some(4 << 20));
        dec.push(&small[5..]);
        assert!(
            dec.capacity() <= DECODER_KEEP,
            "capacity {} still holds the oversized frame",
            dec.capacity()
        );
        assert_eq!(
            dec.next_frame().unwrap(),
            Some(b"ordinary traffic".to_vec())
        );
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn read_from_fills_the_decoder_without_a_bounce_buffer() {
        let mut stream = Vec::new();
        for i in 0..50u8 {
            stream.extend_from_slice(&frame(&vec![i; 3000]));
        }
        let mut src = &stream[..];
        let mut dec = FrameDecoder::new();
        let mut got = 0u8;
        loop {
            while let Some(body) = dec.next_body().unwrap() {
                assert_eq!(body, &vec![got; 3000][..]);
                got += 1;
            }
            if dec.read_from(&mut src).unwrap() == 0 {
                break;
            }
        }
        assert_eq!(got, 50);
        assert!(dec.capacity() <= DECODER_KEEP + READ_CHUNK);
    }

    #[test]
    fn frame_roundtrips_through_decoder() {
        let body = b"hello frames".to_vec();
        let mut dec = FrameDecoder::new();
        dec.push(&frame(&body));
        assert_eq!(dec.next_frame().unwrap(), Some(body));
        assert_eq!(dec.next_frame().unwrap(), None);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn corrupt_body_is_rejected() {
        let mut bytes = frame(b"payload");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        assert!(matches!(dec.next_frame(), Err(FrameError::Corrupt { .. })));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_buffering() {
        let mut dec = FrameDecoder::with_max(16);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&17u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        dec.push(&bytes);
        assert_eq!(
            dec.next_frame(),
            Err(FrameError::TooLarge { len: 17, max: 16 })
        );
    }

    #[test]
    fn mesh_delivers_across_real_sockets() {
        let net = TcpNet::<u64>::new(3).expect("mesh");
        let stats = net.stats();
        let eps = net.into_endpoints();
        eps[0].send_sized(1, 41, 8);
        eps[0].send_sized(2, 42, 8);
        eps[2].send_sized(2, 99, 8); // self-send
        assert_eq!(eps[1].recv(), Some((0, 41)));
        // no ordering across senders: node 2 merges 0's TCP copy with
        // its own loopback copy in either order
        let mut got = vec![eps[2].recv().unwrap(), eps[2].recv().unwrap()];
        got.sort_unstable();
        assert_eq!(got, vec![(0, 42), (2, 99)]);
        let snap = stats.snapshot();
        assert_eq!(snap.msgs_sent, 3);
        assert_eq!(snap.bytes_sent, 24);
    }

    #[test]
    fn per_peer_order_is_preserved() {
        let net = TcpNet::<u64>::new(2).expect("mesh");
        let eps = net.into_endpoints();
        for i in 0..100u64 {
            eps[0].send_sized(1, i, 1);
        }
        for i in 0..100u64 {
            assert_eq!(eps[1].recv(), Some((0, i)));
        }
    }

    #[test]
    fn single_node_mesh_works() {
        let net = TcpNet::<u64>::new(1).expect("mesh");
        let eps = net.into_endpoints();
        eps[0].send_sized(0, 5, 1);
        assert_eq!(eps[0].recv(), Some((0, 5)));
        let d = eps.into_iter().next().unwrap().shutdown();
        assert_eq!(d.recv(), None);
    }

    /// Messages of 8192 words: 64 KiB frames, four to the bound.
    fn big(i: u64) -> Vec<u64> {
        vec![i; 8192]
    }

    #[test]
    fn backpressure_bounds_the_backlog_and_shutdown_flushes_it() {
        const MIN_MSGS: u64 = 1024; // 64 MiB
        let net = TcpNet::<Vec<u64>>::new(2).expect("mesh");
        let tcp = net.tcp_stats();
        let mut eps = net.into_endpoints();
        let rx = eps.pop().unwrap();
        let tx = eps.pop().unwrap();
        let sender_tcp = Arc::clone(&tcp);
        let sender = std::thread::spawn(move || {
            // whether the sender ever gets four frames ahead of its
            // writer is the scheduler's call, so flood until it has
            // happened (in practice: well inside the first 64 MiB)
            let mut sent = 0;
            while sent < MIN_MSGS
                || (sender_tcp.backpressure_waits.load(Ordering::Relaxed) == 0
                    && sent < 16 * MIN_MSGS)
            {
                tx.send_sized(1, big(sent), 8 * 8192);
                sent += 1;
            }
            tx.send_sized(1, Vec::new(), 0); // end of flood

            // shut down on the heels of the last send: whatever is
            // still queued must reach the peer before the FIN
            (sent, tx.shutdown())
        });
        let mut got = 0;
        loop {
            if got < 64 {
                // a slow consumer slows nobody: the reader thread
                // keeps draining the socket into the inbound queue
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let (from, msg) = rx.recv().expect("every message arrives");
            if msg.is_empty() {
                break;
            }
            assert_eq!((from, msg.len(), msg[0]), (0, 8192, got), "per-peer order");
            got += 1;
        }
        let (sent, _tx_drain) = sender.join().unwrap();
        assert_eq!(got, sent);
        assert_eq!(rx.shutdown().recv(), None, "FIN follows the last frame");

        let frame_len = FRAME_HEADER + 1 + 8 + 8 * 8192;
        let peak = tcp.backlog_peak_bytes.load(Ordering::Relaxed) as usize;
        assert!(peak <= OUTBOUND_BOUND + frame_len, "peak backlog {peak}");
        assert!(tcp.backpressure_waits.load(Ordering::Relaxed) > 0);
        assert_eq!(tcp.frames_written.load(Ordering::Relaxed), sent + 1);
        assert_eq!(tcp.frames_rejected.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn all_to_all_burst_past_the_bound_terminates() {
        // every node sends 8 MiB to every other before receiving
        // anything — 32x the bound per stream, and more than the
        // kernel's buffers would absorb unread — so progress rests on
        // the reader threads alone
        const PER_PEER: u64 = 128;
        let net = TcpNet::<Vec<u64>>::new(4).expect("mesh");
        let tcp = net.tcp_stats();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        for ep in net.into_endpoints() {
            let done_tx = done_tx.clone();
            std::thread::spawn(move || {
                let me = ep.me();
                for i in 0..PER_PEER {
                    for to in (0..4).filter(|&to| to != me) {
                        ep.send_sized(to, big(i), 8 * 8192);
                    }
                }
                let mut next = [0u64; 4];
                for _ in 0..3 * PER_PEER {
                    let (from, msg) = ep.recv().expect("peers are alive");
                    assert_eq!(msg[0], next[from], "per-peer order");
                    next[from] += 1;
                }
                done_tx.send(me).unwrap();
                ep // alive until every node is done
            });
        }
        for _ in 0..4 {
            done_rx
                .recv_timeout(std::time::Duration::from_secs(120))
                .expect("all-to-all burst deadlocked");
        }
        assert_eq!(tcp.frames_rejected.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_rejected_frame_is_counted_and_ends_the_stream() {
        let net = TcpNet::<u64>::new(2).expect("mesh");
        let tcp = net.tcp_stats();
        let mut eps = net.into_endpoints();
        let e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        e0.send_sized(1, 7, 8);
        // an unknown tag, framed correctly
        e0.out.enqueue(std::iter::once(1), 1, |b| b.push(0x7F));
        e0.send_sized(1, 8, 8);
        assert_eq!(e1.recv(), Some((0, 7)));
        // node 1's reader for node 0 is gone; once node 1 shuts down
        // too, its drain terminates without ever seeing the 8
        drop(e0);
        assert_eq!(e1.shutdown().recv(), None);
        assert_eq!(tcp.frames_rejected.load(Ordering::Relaxed), 1);
    }
}
