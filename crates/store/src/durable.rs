//! The per-worker durable epoch log: crash recovery that survives a
//! process restart (see `docs/DURABILITY.md`).
//!
//! Each worker appends to its own file, `worker-{id}.log`, in the
//! configured [`crate::DurableConfig::log_dir`]: one record per
//! **applied** event — an own update at invocation, a delivered
//! envelope batch at delivery — plus a *seal* record at every drain
//! cut, followed by one `fdatasync`. The cut is the durability unit:
//! replaying the log to its last seal reconstructs exactly the replica
//! state the fleet agreed on at that cut (drain invariant: in
//! convergent mode every post-cut timestamp exceeds every pre-cut one,
//! so the replayed fold equals the live fold even though compactions
//! are not replayed).
//!
//! Because nothing ever reads past the last seal, records are written
//! by **group commit**: [`EpochLog`] frames each record onto the end of
//! one in-memory group and hands the group to the file in a single
//! `write(2)` once it holds [`GROUP_BYTES`]; a seal writes whatever is
//! left and then runs its one `fdatasync`. The bytes on disk at every
//! seal are exactly what a write per record would have left there.
//! What a crash loses is only ever unsealed — records still in the
//! group die with the process, which is the same residue recovery
//! already discards — so dropping an `EpochLog` writes nothing.
//!
//! Every record is framed exactly like a socket frame
//! ([`cbm_net::tcp`]): `[len u32 LE][crc32 u32 LE][body]`, with bodies
//! in the canonical fixed-width little-endian [`Wire`] encoding.
//! Periodically ([`snapshot_every`
//! boundary seals](crate::DurableConfig::snapshot_every)) the worker
//! writes a compacted snapshot — full state vector + delivered
//! frontier + Lamport clock + monitor shadow seeds, as one framed
//! record in `worker-{id}.snap`, written to a temp file and renamed so
//! it is atomic — and truncates the log prefix it replaces. A crash
//! between the rename and the truncation leaves that prefix behind;
//! [`recover`] recognises it by its seals and does not apply it twice.
//!
//! [`recover`] is strict about what it trusts: a torn or corrupt tail
//! *past* the last seal is the expected shape of a crash mid-write and
//! is silently discarded; anything wrong at or before the last seal —
//! an unreadable snapshot, a record that fails its CRC or decode, a
//! replayed state that disagrees with the seal's recorded hash —
//! surfaces as a typed [`LogError`] and installs nothing. Callers walk
//! the recovery ladder: replay from disk, fetch the op delta past the
//! replayed cut from co-replicas, or fall back to the full state
//! transfer.

use crate::config::Mode;
use crate::objects::ObjectTable;
use crate::wire::WireOp;
use cbm_adt::wire::{put_slice, Wire};
use cbm_adt::{wire_struct, Adt};
use cbm_check::monitor::MonitorStats;
use cbm_net::clock::Timestamp;
use cbm_net::tcp::{frame_into, next_frame_in, FRAME_HEADER, MAX_FRAME};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// Record tag: one own update applied at invocation.
pub(crate) const TAG_OWN: u8 = 0;
/// Record tag: one delivered envelope batch.
pub(crate) const TAG_BATCH: u8 = 1;
/// Record tag: a sealed drain cut (followed by `fdatasync`).
pub(crate) const TAG_SEAL: u8 = 2;

/// Framed records an [`EpochLog`] gathers before handing them to the
/// file in one `write(2)` (group commit; see the [module docs](self)).
/// A group goes out once it holds at least this much, so one write
/// carries the bound plus at most one record.
///
/// Chosen by measurement on the benchmark's `durable_crash` (4 workers
/// on 2 cores, seed 42, `--seconds 12`, runs rotating over the sizes;
/// the write per record this replaced: 1.6–2.0 M ops/s). Medians: 4 KiB
/// 3.17 M ops/s (3 runs), 16 KiB 3.26 M (3), 64 KiB 3.45 M (8), 256
/// KiB 3.74 M (8), 1 MiB 3.82 M (8), 4 MiB 3.64 M (5) — the last at
/// 156–170 MB peak RSS where every smaller size stays at 131–156 MB,
/// since each worker keeps its group resident (and a `Vec` past 4 MiB
/// holds 8). 256 KiB is the smallest size on the plateau.
pub const GROUP_BYTES: usize = 256 << 10;

/// What a seal record pins: the identity of the cut and everything a
/// restart needs besides the replayed object states.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SealInfo {
    /// The cut's epoch: boundary seals carry the epoch whose opening
    /// drain this is; the final drain seals `n_epochs`.
    pub epoch: u64,
    /// `true` for epoch-boundary (and final) drains — the cuts
    /// snapshots and restarts anchor to; `false` for the mid-epoch
    /// window-close drain.
    pub boundary: bool,
    /// Ops this worker had issued at the cut (script position).
    pub issued: u64,
    /// The worker's Lamport clock at the cut.
    pub lamport: u64,
    /// Delivered-envelope frontier per origin worker at the cut.
    pub delivered: Vec<u64>,
    /// Order-sensitive hash of the full object table at the cut —
    /// cross-checked against the replayed state on recovery.
    pub state_hash: u64,
    /// The streaming monitor's counters at the cut (shadow states
    /// reseed from the replayed object states; the counters carry the
    /// certified-ops accounting across the restart).
    pub monitor: MonitorStats,
}

wire_struct!(SealInfo {
    epoch,
    boundary,
    issued,
    lamport,
    delivered,
    state_hash,
    monitor
});

/// Why a disk recovery refused to install anything. Every variant is a
/// clean fallback signal — the caller drops to the next rung of the
/// recovery ladder (full co-replica transfer, or a fresh run on cold
/// start); none of them can panic the engine or install partial state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogError {
    /// Filesystem error opening or reading the log/snapshot.
    Io(String),
    /// No sealed cut on disk at all (fresh directory, or a crash
    /// before the first drain): nothing to restore.
    NoSeal,
    /// The snapshot file exists but fails its CRC or decode.
    CorruptSnapshot,
    /// The snapshot's state vector does not match the configured
    /// object count.
    Arity,
    /// A record at or before the last seal passed its CRC but failed
    /// to decode — the committed prefix itself is damaged.
    CorruptRecord {
        /// Byte offset of the offending frame in the log file.
        offset: u64,
    },
    /// The replayed state's hash disagrees with the hash the seal
    /// recorded at the live cut.
    StateHash,
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::Io(e) => write!(f, "durable log io: {e}"),
            LogError::NoSeal => write!(f, "no sealed cut on disk"),
            LogError::CorruptSnapshot => write!(f, "snapshot fails CRC or decode"),
            LogError::Arity => write!(f, "snapshot arity mismatch"),
            LogError::CorruptRecord { offset } => {
                write!(f, "corrupt record at byte {offset} of the committed prefix")
            }
            LogError::StateHash => write!(f, "replayed state disagrees with sealed hash"),
        }
    }
}

/// A successful disk replay: the object states at the last sealed cut
/// plus everything else the seal pinned.
pub struct Recovered<T: Adt> {
    /// Every object's state at the cut (arity = configured objects).
    pub states: Vec<T::State>,
    /// The last seal — the cut the replay landed on.
    pub seal: SealInfo,
    /// Records replayed (snapshot counts as one).
    pub replayed_records: u64,
    /// Bytes read from disk for the replay (snapshot file + committed
    /// log prefix).
    pub log_bytes: u64,
}

fn log_path(dir: &Path, me: usize) -> PathBuf {
    dir.join(format!("worker-{me}.log"))
}

fn snap_path(dir: &Path, me: usize) -> PathBuf {
    dir.join(format!("worker-{me}.snap"))
}

/// What an [`EpochLog`] has done since it was opened, cumulative (the
/// engine's counter block reads it off the log, like it reads batch
/// counts off the causal layer).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogCounts {
    /// Records framed into the log: own updates, delivered batches,
    /// seals.
    pub records: u64,
    /// Bytes of those records.
    pub bytes: u64,
    /// `write_all` calls: one per full group, one per seal that finds
    /// the group non-empty, one per snapshot file.
    pub write_syscalls: u64,
    /// `fdatasync`/`fsync` calls: one per seal, three per snapshot.
    pub syncs: u64,
}

/// One worker's append-side handle: the open log file plus the paths
/// and the group every record is framed onto
/// ([`cbm_net::tcp::frame_into`]: body encoded once behind its header,
/// `len`/`crc` patched in place).
pub struct EpochLog {
    file: File,
    dir: PathBuf,
    snap_path: PathBuf,
    /// Framed records not yet written (group commit: see
    /// [`GROUP_BYTES`]). Never written on drop — an unsealed group is
    /// crash residue by definition.
    group: Vec<u8>,
    /// Boundary seals since the last snapshot (snapshot cadence).
    boundary_seals: u64,
    /// Bytes appended to the log since open or last truncation
    /// (whether or not their group has been written yet).
    pub appended: u64,
    /// Cumulative record / write / sync counts.
    pub counts: LogCounts,
}

impl EpochLog {
    /// Open this worker's log for appending. `fresh` truncates the log
    /// and deletes any snapshot (a new run); otherwise both survive
    /// (resuming after [`recover`]).
    pub fn open(dir: &Path, me: usize, fresh: bool) -> std::io::Result<EpochLog> {
        fs::create_dir_all(dir)?;
        let log_path = log_path(dir, me);
        let snap_path = snap_path(dir, me);
        let file = if fresh {
            match fs::remove_file(&snap_path) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
                _ => {}
            }
            File::create(&log_path)?
        } else {
            OpenOptions::new()
                .append(true)
                .create(true)
                .open(&log_path)?
        };
        Ok(EpochLog {
            file,
            dir: dir.to_path_buf(),
            snap_path,
            group: Vec::new(),
            boundary_seals: 0,
            appended: 0,
            counts: LogCounts::default(),
        })
    }

    /// Frame one record (`encode` writes the body) onto the group, and
    /// write the group out if that fills it.
    fn append(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> std::io::Result<()> {
        let len = frame_into(&mut self.group, encode) as u64;
        self.appended += len;
        self.counts.records += 1;
        self.counts.bytes += len;
        if self.group.len() >= GROUP_BYTES {
            self.write_group()?;
        }
        Ok(())
    }

    /// Hand the group (if any) to the file in one write.
    fn write_group(&mut self) -> std::io::Result<()> {
        if !self.group.is_empty() {
            self.file.write_all(&self.group)?;
            self.counts.write_syscalls += 1;
            self.group.clear();
        }
        Ok(())
    }

    /// Record one own update, applied at invocation.
    pub fn log_own<I: Wire>(&mut self, obj: u32, ts: Timestamp, input: &I) -> std::io::Result<()> {
        self.append(|b| {
            b.push(TAG_OWN);
            obj.put(b);
            ts.put(b);
            input.put(b);
        })
    }

    /// Record one delivered envelope batch.
    pub fn log_batch<I: Wire>(
        &mut self,
        sender: usize,
        seq: u64,
        ops: &[WireOp<I>],
    ) -> std::io::Result<()> {
        self.append(|b| {
            b.push(TAG_BATCH);
            sender.put(b);
            seq.put(b);
            put_slice(ops, b);
        })
    }

    /// Seal a drain cut and make everything up to it durable: the rest
    /// of the group goes out, then one `fdatasync`. Returns whether the
    /// snapshot cadence says this boundary should compact next.
    pub fn seal(&mut self, seal: &SealInfo, snapshot_every: u64) -> std::io::Result<bool> {
        self.append(|b| {
            b.push(TAG_SEAL);
            seal.put(b);
        })?;
        self.write_group()?;
        self.file.sync_data()?;
        self.counts.syncs += 1;
        if seal.boundary {
            self.boundary_seals += 1;
            return Ok(snapshot_every != 0 && self.boundary_seals >= snapshot_every);
        }
        Ok(false)
    }

    /// Write a compacted snapshot of the cut `seal` describes and
    /// truncate the log prefix it replaces. The snapshot goes to a
    /// temp file first and is renamed into place, so a crash leaves
    /// either the old snapshot or the new one — never a torn mix.
    /// Records appended since the last seal are dropped unwritten: the
    /// truncation would discard them anyway.
    pub fn snapshot<S: Wire>(&mut self, seal: &SealInfo, states: &[S]) -> std::io::Result<()> {
        // the group doubles as the snapshot frame's scratch buffer
        self.group.clear();
        frame_into(&mut self.group, |b| {
            seal.put(b);
            put_slice(states, b);
        });
        let tmp = self.snap_path.with_extension("snap.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&self.group)?;
            f.sync_data()?;
        }
        self.group.clear();
        fs::rename(&tmp, &self.snap_path)?;
        // the rename and the truncation below are directory metadata;
        // sync it so the snapshot's existence is as durable as its
        // bytes
        File::open(&self.dir)?.sync_all()?;
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.sync_data()?;
        self.appended = 0;
        self.boundary_seals = 0;
        self.counts.write_syscalls += 1;
        self.counts.syncs += 3;
        Ok(())
    }
}

/// Scan the framed records of `buf`, stopping at the first frame that
/// is torn (header or body past EOF, oversized length) or fails its
/// CRC. Returns the record ranges `(offset, body_range)` of the clean
/// prefix.
fn scan_frames(buf: &[u8]) -> Vec<(u64, std::ops::Range<usize>)> {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    while let Ok(Some(body)) = next_frame_in(&buf[pos..], MAX_FRAME) {
        let start = pos + FRAME_HEADER;
        frames.push((pos as u64, start..start + body.len()));
        pos = start + body.len();
    }
    frames
}

/// Is `body` a seal record of a cut at or before `snap`'s? Cuts run in
/// epoch order, and within an epoch the boundary drain comes before the
/// window-close drain.
fn sealed_by(snap: &SealInfo, body: &[u8]) -> bool {
    let cut = |s: &SealInfo| (s.epoch, !s.boundary);
    let mut pos = 1usize;
    body.first() == Some(&TAG_SEAL)
        && SealInfo::get(body, &mut pos).is_some_and(|s| cut(&s) <= cut(snap))
}

/// Replay this worker's snapshot + log tail to the last sealed cut.
///
/// On success the returned states are exactly the replica's states at
/// that cut and the seal's hash has been re-verified against them.
/// Anything short of that is a typed [`LogError`]; nothing is ever
/// installed from a failed replay. A torn or corrupt tail *past* the
/// last seal is not an error — it is the expected residue of a crash
/// mid-write, and the replay simply lands on the seal before it.
pub fn recover<T: Adt>(
    adt: &T,
    dir: &Path,
    me: usize,
    objects: usize,
    mode: Mode,
) -> Result<Recovered<T>, LogError>
where
    T::Input: Wire,
    T::State: Wire,
{
    let mut table = ObjectTable::new(adt, objects, mode);
    let mut base: Option<SealInfo> = None;
    let mut replayed_records = 0u64;
    let mut log_bytes = 0u64;

    // rung 0: the compacted snapshot, if one exists
    let snap = snap_path(dir, me);
    match fs::read(&snap) {
        Ok(bytes) => {
            let frames = scan_frames(&bytes);
            let (_, body) = frames.first().ok_or(LogError::CorruptSnapshot)?;
            let buf = &bytes[body.clone()];
            let mut pos = 0usize;
            let seal = SealInfo::get(buf, &mut pos).ok_or(LogError::CorruptSnapshot)?;
            let states: Vec<T::State> = Vec::get(buf, &mut pos).ok_or(LogError::CorruptSnapshot)?;
            if pos != buf.len() {
                return Err(LogError::CorruptSnapshot);
            }
            if states.len() != objects {
                return Err(LogError::Arity);
            }
            table.install(&states);
            log_bytes += bytes.len() as u64;
            replayed_records += 1;
            base = Some(seal);
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(LogError::Io(e.to_string())),
    }

    // rung 1: the log tail, committed only up to its last valid seal
    let log = match fs::read(log_path(dir, me)) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(LogError::Io(e.to_string())),
    };
    let frames = scan_frames(&log);
    let last_seal = frames
        .iter()
        .rposition(|(_, body)| log[body.clone()].first() == Some(&TAG_SEAL));
    let mut seal = None;
    if let Some(last) = last_seal {
        // a crash between a snapshot's rename and the truncation of the
        // log it replaces leaves that log behind, and its records are
        // already in the snapshot: replay starts past its last seal at
        // or before the snapshot's cut (a truncated log has none)
        let first = base.as_ref().map_or(0, |snap| {
            frames[..=last]
                .iter()
                .rposition(|(_, body)| sealed_by(snap, &log[body.clone()]))
                .map_or(0, |i| i + 1)
        });
        for (offset, body) in &frames[first..=last] {
            let buf = &log[body.clone()];
            let corrupt = LogError::CorruptRecord { offset: *offset };
            let mut pos = 1usize;
            match buf.first() {
                Some(&TAG_OWN) => {
                    let obj = u32::get(buf, &mut pos).ok_or(corrupt.clone())?;
                    let ts = Timestamp::get(buf, &mut pos).ok_or(corrupt.clone())?;
                    let input = T::Input::get(buf, &mut pos).ok_or(corrupt)?;
                    table.apply_update(adt, obj, ts, &input);
                }
                Some(&TAG_BATCH) => {
                    let _sender = usize::get(buf, &mut pos).ok_or(corrupt.clone())?;
                    let _seq = u64::get(buf, &mut pos).ok_or(corrupt.clone())?;
                    let n = usize::get(buf, &mut pos).ok_or(corrupt.clone())?;
                    for _ in 0..n {
                        let op: WireOp<T::Input> =
                            WireOp::get(buf, &mut pos).ok_or(corrupt.clone())?;
                        table.apply_update(adt, op.obj, op.ts, &op.input);
                    }
                }
                Some(&TAG_SEAL) => {
                    seal = Some(SealInfo::get(buf, &mut pos).ok_or(corrupt)?);
                }
                _ => return Err(corrupt),
            }
            replayed_records += 1;
        }
        let (_, last_body) = &frames[last];
        log_bytes += last_body.end as u64;
    }

    let seal = match (seal, base) {
        (Some(s), _) => s,
        (None, Some(b)) => b,
        (None, None) => return Err(LogError::NoSeal),
    };
    // the drain invariant makes the replayed fold equal the live one;
    // the sealed hash is the end-to-end witness that it actually did
    table.compact();
    if table.state_hash() != seal.state_hash {
        return Err(LogError::StateHash);
    }
    Ok(Recovered {
        states: table.snapshot(),
        seal,
        replayed_records,
        log_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbm_adt::counter::{Counter, CtInput};
    use cbm_adt::register::{RegInput, Register};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cbm-durable-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn ts(t: u64, p: usize) -> Timestamp {
        Timestamp::new(t, p)
    }

    fn seal_of<T: Adt>(table: &ObjectTable<T>, epoch: u64, issued: u64) -> SealInfo {
        SealInfo {
            epoch,
            boundary: true,
            issued,
            lamport: 10 * epoch,
            delivered: vec![epoch, epoch + 1],
            state_hash: table.state_hash(),
            monitor: MonitorStats::default(),
        }
    }

    #[test]
    fn replay_lands_on_last_seal_and_matches_live_state() {
        let dir = tmpdir("roundtrip");
        let adt = Register;
        let mut live = ObjectTable::new(&adt, 4, Mode::Convergent);
        let mut log = EpochLog::open(&dir, 0, true).unwrap();

        live.apply_update(&adt, 1, ts(1, 0), &RegInput::Write(5));
        log.log_own(1, ts(1, 0), &RegInput::Write(5)).unwrap();
        let batch = vec![WireOp {
            obj: 2,
            input: RegInput::Write(9),
            ts: ts(2, 1),
            wseq: None,
        }];
        for op in &batch {
            live.apply_update(&adt, op.obj, op.ts, &op.input);
        }
        log.log_batch(1, 0, &batch).unwrap();
        live.compact();
        let s1 = seal_of(&live, 1, 1);
        log.seal(&s1, 0).unwrap();

        // records past the last seal must be discarded by the replay
        log.log_own(3, ts(7, 0), &RegInput::Write(77)).unwrap();

        let rec = recover::<Register>(&adt, &dir, 0, 4, Mode::Convergent).unwrap();
        assert_eq!(rec.seal, s1);
        assert_eq!(rec.replayed_records, 3);
        let mut replayed = ObjectTable::new(&adt, 4, Mode::Convergent);
        replayed.install(&rec.states);
        assert_eq!(replayed.state_hash(), s1.state_hash);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_truncates_and_survives_restart() {
        let dir = tmpdir("snapshot");
        let adt = Counter;
        let mut live = ObjectTable::new(&adt, 2, Mode::Causal);
        let mut log = EpochLog::open(&dir, 3, true).unwrap();
        live.apply_update(&adt, 0, ts(1, 3), &CtInput::Add(4));
        log.log_own(0, ts(1, 3), &CtInput::Add(4)).unwrap();
        let s1 = seal_of(&live, 1, 1);
        assert!(log.seal(&s1, 1).unwrap(), "cadence of 1 compacts");
        log.snapshot(&s1, &live.snapshot()).unwrap();
        assert_eq!(fs::metadata(log_path(&dir, 3)).unwrap().len(), 0);

        // the tail past the snapshot replays on top of it
        live.apply_update(&adt, 1, ts(2, 3), &CtInput::Add(-2));
        log.log_own(1, ts(2, 3), &CtInput::Add(-2)).unwrap();
        let s2 = seal_of(&live, 2, 2);
        log.seal(&s2, 1).unwrap();

        let rec = recover::<Counter>(&adt, &dir, 3, 2, Mode::Causal).unwrap();
        assert_eq!(rec.seal, s2);
        assert_eq!(rec.replayed_records, 3); // snapshot + own + seal
        assert_eq!(rec.states, vec![4, -2]);

        // reopening non-fresh appends; reopening fresh wipes
        drop(log);
        let log = EpochLog::open(&dir, 3, false).unwrap();
        drop(log);
        let rec = recover::<Counter>(&adt, &dir, 3, 2, Mode::Causal).unwrap();
        assert_eq!(rec.seal, s2);
        let _ = EpochLog::open(&dir, 3, true).unwrap();
        assert!(matches!(
            recover::<Counter>(&adt, &dir, 3, 2, Mode::Causal),
            Err(LogError::NoSeal)
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_clean_but_damaged_prefix_is_typed() {
        let dir = tmpdir("torn");
        let adt = Counter;
        let mut live = ObjectTable::new(&adt, 2, Mode::Causal);
        let mut log = EpochLog::open(&dir, 0, true).unwrap();
        live.apply_update(&adt, 0, ts(1, 0), &CtInput::Add(1));
        log.log_own(0, ts(1, 0), &CtInput::Add(1)).unwrap();
        let s1 = seal_of(&live, 1, 1);
        log.seal(&s1, 0).unwrap();
        let committed = fs::read(log_path(&dir, 0)).unwrap();

        // a half-written record after the seal: clean replay to the seal
        let mut torn = committed.clone();
        torn.extend_from_slice(&[9, 0, 0, 0, 1, 2, 3]); // header cut short
        fs::write(log_path(&dir, 0), &torn).unwrap();
        let rec = recover::<Counter>(&adt, &dir, 0, 2, Mode::Causal).unwrap();
        assert_eq!(rec.seal, s1);
        assert_eq!(rec.log_bytes, committed.len() as u64);

        // a flipped byte inside the committed prefix: the CRC cuts the
        // scan before the seal, so nothing sealed remains -> typed error
        let mut flipped = committed.clone();
        flipped[FRAME_HEADER] ^= 0xff;
        fs::write(log_path(&dir, 0), &flipped).unwrap();
        assert!(matches!(
            recover::<Counter>(&adt, &dir, 0, 2, Mode::Causal),
            Err(LogError::NoSeal)
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_is_typed_not_fatal() {
        let dir = tmpdir("badsnap");
        let adt = Counter;
        let live = ObjectTable::new(&adt, 2, Mode::Causal);
        let mut log = EpochLog::open(&dir, 0, true).unwrap();
        let s1 = seal_of(&live, 1, 0);
        log.seal(&s1, 1).unwrap();
        log.snapshot(&s1, &live.snapshot()).unwrap();
        let snap = snap_path(&dir, 0);
        let mut bytes = fs::read(&snap).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&snap, &bytes).unwrap();
        assert!(matches!(
            recover::<Counter>(&adt, &dir, 0, 2, Mode::Causal),
            Err(LogError::CorruptSnapshot)
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A crash between a snapshot's rename and the log truncation
    /// leaves the log the snapshot replaced, whose records the snapshot
    /// already holds: replaying them on top of it would add every
    /// counter delta twice. Both snapshot shapes — a cadence compaction
    /// of the seal just logged, and a recovery's compaction of a later
    /// cut the log never sealed.
    #[test]
    fn a_stale_log_is_not_replayed_onto_its_snapshot() {
        let dir = tmpdir("stale");
        let adt = Counter;
        let mut live = ObjectTable::new(&adt, 2, Mode::Causal);
        let mut log = EpochLog::open(&dir, 0, true).unwrap();
        live.apply_update(&adt, 0, ts(1, 0), &CtInput::Add(4));
        log.log_own(0, ts(1, 0), &CtInput::Add(4)).unwrap();
        let s1 = seal_of(&live, 1, 1);
        log.seal(&s1, 1).unwrap();
        let stale = fs::read(log_path(&dir, 0)).unwrap();

        log.snapshot(&s1, &live.snapshot()).unwrap();
        fs::write(log_path(&dir, 0), &stale).unwrap();
        let rec = recover::<Counter>(&adt, &dir, 0, 2, Mode::Causal).unwrap();
        assert_eq!((&rec.seal, &rec.states), (&s1, &vec![4, 0]));
        assert_eq!(rec.replayed_records, 1, "the snapshot alone");

        // a recovered cut: the co-replica delta applied past the seal
        live.apply_update(&adt, 1, ts(5, 1), &CtInput::Add(7));
        let s3 = seal_of(&live, 3, 1);
        log.snapshot(&s3, &live.snapshot()).unwrap();
        fs::write(log_path(&dir, 0), &stale).unwrap();
        let rec = recover::<Counter>(&adt, &dir, 0, 2, Mode::Causal).unwrap();
        assert_eq!((&rec.seal, &rec.states), (&s3, &vec![4, 7]));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Group commit is invisible at every seal. Seeded random runs of
    /// own records, batches (some several groups long), seals and
    /// snapshots, checked against what a write per record leaves: every
    /// record's `frame_into` output since the last truncation, in
    /// order. The file is always a prefix of that stream and equals it
    /// after every seal; `appended` is its length; writes stay within
    /// one per full group, per seal and per snapshot; syncs are one per
    /// seal and three per snapshot.
    #[test]
    fn group_commit_leaves_a_write_per_record_bytes_at_every_seal() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let dir = tmpdir("group");
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut log = EpochLog::open(&dir, 0, true).unwrap();
            let mut stream = Vec::new();
            let (steps, mut seals, mut snapshots) = (300u64, 0u64, 0u64);
            for step in 0..steps {
                let roll = rng.gen_range(0u32..100);
                if roll < 55 {
                    let obj = rng.gen_range(0u32..64);
                    let input = CtInput::Add(rng.gen_range(-9i64..9));
                    log.log_own(obj, ts(step, 0), &input).unwrap();
                    frame_into(&mut stream, |b| {
                        b.push(TAG_OWN);
                        obj.put(b);
                        ts(step, 0).put(b);
                        input.put(b);
                    });
                } else if roll < 85 {
                    // one batch in six is up to a few groups long (an
                    // op encodes to some 30 bytes)
                    let n = if rng.gen_range(0u32..6) == 0 {
                        rng.gen_range(GROUP_BYTES / 32..GROUP_BYTES / 8)
                    } else {
                        rng.gen_range(0usize..40)
                    };
                    let ops: Vec<WireOp<CtInput>> = (0..n)
                        .map(|i| WireOp {
                            obj: i as u32 % 64,
                            input: CtInput::Add(i as i64),
                            ts: ts(step, 1),
                            wseq: None,
                        })
                        .collect();
                    log.log_batch(1, step, &ops).unwrap();
                    frame_into(&mut stream, |b| {
                        b.push(TAG_BATCH);
                        1usize.put(b);
                        step.put(b);
                        put_slice(&ops, b);
                    });
                } else if roll < 97 {
                    let s = SealInfo {
                        epoch: step,
                        ..SealInfo::default()
                    };
                    log.seal(&s, 0).unwrap();
                    frame_into(&mut stream, |b| {
                        b.push(TAG_SEAL);
                        s.put(b);
                    });
                    seals += 1;
                    let file = fs::read(log_path(&dir, 0)).unwrap();
                    assert!(
                        file == stream,
                        "seed {seed} step {step}: sealed bytes differ"
                    );
                } else {
                    log.snapshot(&SealInfo::default(), &[0i64; 4]).unwrap();
                    stream.clear();
                    snapshots += 1;
                }
                let file = fs::read(log_path(&dir, 0)).unwrap();
                assert!(
                    stream.starts_with(&file),
                    "seed {seed} step {step}: not a prefix"
                );
                assert_eq!(log.appended, stream.len() as u64);
            }
            let c = log.counts;
            assert_eq!(
                (c.records, c.syncs),
                (steps - snapshots, seals + 3 * snapshots)
            );
            let bound = c.bytes.div_ceil(GROUP_BYTES as u64) + seals + snapshots;
            assert!(c.write_syscalls <= bound, "seed {seed}: {c:?} > {bound}");
            assert!(c.write_syscalls < c.records, "seed {seed}: nothing grouped");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
