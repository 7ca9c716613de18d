//! Crash-safe tenant state: a write-ahead log of accepted requests plus
//! periodic snapshots of every resident tenant.
//!
//! # Why replay is exact
//!
//! The server is deterministic given its inputs: a tenant is built from
//! `(switches, budget, seed)` ([`build_tenant`])
//! and mutated only by churn batches, applied in WAL order with
//! apply-until-first-error semantics. The WAL records exactly those inputs —
//! **before** they touch the instance — so replaying the surviving prefix
//! reproduces the pre-crash state bit-for-bit, and every post-recovery solve
//! is bit-identical to one from an uninterrupted run.
//!
//! # On-disk layout
//!
//! A snapshot and up to two WAL segments in the state dir, each a sequence
//! of CRC-checked records ([`soar_dataplane::framing::write_record`]):
//!
//! ```text
//! snapshot.soar   header { version, wal_next }
//!                 one record per tenant: params + last_seq + InstanceImage
//! wal.prev.soar   the retired segment, while a snapshot job is in flight
//! wal.soar        the live segment
//!                 header { version, first_index }
//!                 data records: Register | Evict | Churn{tenant, seq, events}
//! ```
//!
//! Every WAL data record has a monotonically increasing **global index**
//! (persisted across rotations via each segment's `first_index`). A
//! snapshot stores `wal_next` — the index of the first record it does *not*
//! cover. [`recover`] reads the snapshot, then `wal.prev.soar`, then
//! `wal.soar`, skips every record below the index it expects next, and
//! stops at a segment that starts past it (a gap).
//!
//! # Rotation
//!
//! A snapshot has two halves. [`WalWriter::cut`] runs on the dispatcher,
//! between batches, while the caller captures the tenant images: it renames
//! `wal.soar` to `wal.prev.soar` and opens a fresh `wal.soar` at the cut
//! index (tmp file + rename). The returned [`SnapshotJob`] does the I/O off
//! the dispatcher: it fsyncs the fresh segment's header, writes
//! `snapshot.tmp`, fsyncs it, renames it to `snapshot.soar`, and only then
//! deletes `wal.prev.soar`. The invariant: **a segment is deleted or
//! overwritten only after a durable snapshot covers every record in it.**
//! So at most one job runs at a time, and a cut that finds `wal.prev.soar`
//! still present (its job failed) does not rotate.
//!
//! A crash at any step recovers every flushed record:
//!
//! | crash after                         | recovery reads                     |
//! |-------------------------------------|------------------------------------|
//! | `wal.soar` → `wal.prev.soar`        | old snapshot + prev                |
//! | fresh `wal.soar`, more appends      | old snapshot + prev + wal          |
//! | `snapshot.tmp` written, not renamed | old snapshot + prev + wal (tmp ignored) |
//! | snapshot rename, prev not deleted   | new snapshot + wal (prev skipped by index) |
//! | prev deleted                        | new snapshot + wal                 |
//!
//! [`WalWriter::begin`] makes its snapshot durable before it deletes a
//! stale `wal.prev.soar` or replaces `wal.soar`.
//!
//! # Torn tails and corruption
//!
//! Appends are flushed per record but not fsynced: the target failure model
//! is process death (the chaos harness SIGKILLs the daemon), where flushed
//! bytes survive. A crash mid-append leaves a torn tail; recovery stops at
//! the first bad record — torn, CRC-corrupt, zero-length, out-of-order
//! duplicate sequence number, or undecodable — keeps everything before it,
//! and reports what it discarded. It never panics on file bytes.

use crate::protocol::{self, Cursor, DecodeError};
use crate::server::build_tenant;
use soar_dataplane::framing::{read_record, write_record, RecordError};
use soar_multitenant::churn::ChurnEvent;
use soar_online::{DynamicInstance, InstanceImage};
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Cap on one durable record. Larger than the wire-frame cap because one
/// snapshot record carries a whole tenant image (~17 bytes per switch).
pub const MAX_RECORD_LEN: usize = 256 << 20;

const WAL_FILE: &str = "wal.soar";
const PREV_FILE: &str = "wal.prev.soar";
const WAL_TMP: &str = "wal.tmp";
const SNAPSHOT_FILE: &str = "snapshot.soar";
const SNAPSHOT_TMP: &str = "snapshot.tmp";
const VERSION: u32 = 1;

/// Record tags inside the WAL / snapshot files.
const TAG_WAL_HEADER: u8 = 0xA0;
const TAG_SNAP_HEADER: u8 = 0xA1;
const TAG_TENANT: u8 = 0xA2;
const TAG_REGISTER: u8 = 1;
const TAG_EVICT: u8 = 2;
const TAG_CHURN: u8 = 3;

/// The deterministic build parameters of one tenant, remembered so snapshots
/// can rebuild the tree shape and seeded base loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantParams {
    /// `BT(n)` size parameter of the register.
    pub switches: u32,
    /// Budget at register time (churn may have moved it since; the image
    /// carries the current value).
    pub budget: u32,
    /// Leaf-load seed of the register.
    pub seed: u64,
}

/// One tenant as written to / read from a snapshot.
#[derive(Debug, Clone)]
pub struct TenantRecord {
    /// The tenant id.
    pub tenant: u64,
    /// Deterministic build parameters.
    pub params: TenantParams,
    /// Churn-batch high-water mark (idempotent-replay dedupe state).
    pub last_seq: u64,
    /// The mutable instance state at capture time.
    pub image: InstanceImage,
}

/// One tenant reconstructed by [`recover`].
#[derive(Debug)]
pub struct RecoveredTenant {
    /// The tenant id.
    pub tenant: u64,
    /// Deterministic build parameters (kept for the next snapshot).
    pub params: TenantParams,
    /// Churn-batch high-water mark.
    pub last_seq: u64,
    /// The rebuilt instance, bit-identical to the pre-crash state.
    pub instance: DynamicInstance,
}

/// What [`recover`] found and did.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Tenants restored from the snapshot file.
    pub snapshot_tenants: u64,
    /// WAL data records replayed (not covered by the snapshot).
    pub replayed_records: u64,
    /// WAL data records skipped because the snapshot already covered them.
    pub skipped_records: u64,
    /// `true` when either file had a bad tail (torn, corrupt, or undecodable
    /// record); everything before it was kept.
    pub truncated: bool,
}

/// A WAL failure, wrapping IO and record-codec errors.
#[derive(Debug)]
pub enum WalError {
    /// File IO failed.
    Io(io::Error),
    /// A record failed its framing/CRC check.
    Record(RecordError),
    /// A CRC-valid record failed payload decoding.
    Decode(DecodeError),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::Record(e) => write!(f, "wal record error: {e}"),
            WalError::Decode(e) => write!(f, "wal decode error: {e}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<RecordError> for WalError {
    fn from(e: RecordError) -> Self {
        WalError::Record(e)
    }
}

impl From<DecodeError> for WalError {
    fn from(e: DecodeError) -> Self {
        WalError::Decode(e)
    }
}

// ---------------------------------------------------------------------------
// Payload codecs (record framing/CRC handled by soar_dataplane::framing).
// ---------------------------------------------------------------------------

fn encode_wal_header(out: &mut Vec<u8>, first_index: u64) {
    out.push(TAG_WAL_HEADER);
    protocol::put_u32(out, VERSION);
    protocol::put_u64(out, first_index);
}

fn encode_snap_header(out: &mut Vec<u8>, wal_next: u64) {
    out.push(TAG_SNAP_HEADER);
    protocol::put_u32(out, VERSION);
    protocol::put_u64(out, wal_next);
}

fn decode_header(buf: &[u8], tag: u8) -> Result<u64, WalError> {
    let mut cur = Cursor::new(buf);
    let got = cur.u8()?;
    if got != tag {
        return Err(DecodeError::UnknownTag(got).into());
    }
    let version = cur.u32()?;
    if version != VERSION {
        return Err(DecodeError::BadLength(u64::from(version)).into());
    }
    Ok(cur.u64()?)
}

/// Encodes one register WAL record.
pub(crate) fn encode_register(out: &mut Vec<u8>, tenant: u64, params: TenantParams) {
    out.push(TAG_REGISTER);
    protocol::put_u64(out, tenant);
    protocol::put_u32(out, params.switches);
    protocol::put_u32(out, params.budget);
    protocol::put_u64(out, params.seed);
}

/// Encodes one evict WAL record.
pub(crate) fn encode_evict(out: &mut Vec<u8>, tenant: u64) {
    out.push(TAG_EVICT);
    protocol::put_u64(out, tenant);
}

/// Encodes one churn WAL record (same event codec as the wire protocol).
pub(crate) fn encode_churn(out: &mut Vec<u8>, tenant: u64, seq: u64, events: &[ChurnEvent]) {
    out.push(TAG_CHURN);
    protocol::put_u64(out, tenant);
    protocol::put_u64(out, seq);
    protocol::put_u32(out, events.len() as u32);
    for event in events {
        protocol::encode_event(out, event);
    }
}

fn encode_tenant_record(out: &mut Vec<u8>, rec: &TenantRecord) {
    out.push(TAG_TENANT);
    protocol::put_u64(out, rec.tenant);
    protocol::put_u32(out, rec.params.switches);
    protocol::put_u32(out, rec.params.budget);
    protocol::put_u64(out, rec.params.seed);
    protocol::put_u64(out, rec.last_seq);
    let image = &rec.image;
    protocol::put_u64(out, image.budget as u64);
    let n = image.base_loads.len();
    protocol::put_u32(out, n as u32);
    for &load in &image.base_loads {
        protocol::put_u64(out, load);
    }
    for &rate in &image.rates {
        protocol::put_u64(out, rate.to_bits());
    }
    for &a in &image.available {
        out.push(u8::from(a));
    }
    protocol::put_u32(out, image.tenants.len() as u32);
    for (id, loads) in &image.tenants {
        protocol::put_u64(out, *id);
        protocol::put_u32(out, loads.len() as u32);
        for &(v, load) in loads {
            protocol::put_u32(out, v as u32);
            protocol::put_u64(out, load);
        }
    }
}

fn decode_tenant_record(buf: &[u8]) -> Result<TenantRecord, WalError> {
    let mut cur = Cursor::new(buf);
    let tag = cur.u8()?;
    if tag != TAG_TENANT {
        return Err(DecodeError::UnknownTag(tag).into());
    }
    let tenant = cur.u64()?;
    let params = TenantParams {
        switches: cur.u32()?,
        budget: cur.u32()?,
        seed: cur.u64()?,
    };
    let last_seq = cur.u64()?;
    let budget = cur.u64()? as usize;
    let declared_n = cur.u32()?;
    let n = cur.check_count(u64::from(declared_n), 17)?;
    let mut base_loads = Vec::with_capacity(n);
    for _ in 0..n {
        base_loads.push(cur.u64()?);
    }
    let mut rates = Vec::with_capacity(n);
    for _ in 0..n {
        let rate = cur.f64()?;
        if !(rate.is_finite() && rate > 0.0) {
            return Err(DecodeError::BadLength(rate.to_bits()).into());
        }
        rates.push(rate);
    }
    let mut available = Vec::with_capacity(n);
    for _ in 0..n {
        match cur.u8()? {
            0 => available.push(false),
            1 => available.push(true),
            other => return Err(DecodeError::UnknownTag(other).into()),
        }
    }
    let declared_tenants = cur.u32()?;
    let n_tenants = cur.check_count(u64::from(declared_tenants), 12)?;
    let mut tenants = Vec::with_capacity(n_tenants);
    for _ in 0..n_tenants {
        let id = cur.u64()?;
        let declared = cur.u32()?;
        let count = cur.check_count(u64::from(declared), 12)?;
        let mut loads = Vec::with_capacity(count);
        for _ in 0..count {
            let v = cur.u32()? as usize;
            if v >= n {
                return Err(DecodeError::BadLength(v as u64).into());
            }
            loads.push((v, cur.u64()?));
        }
        tenants.push((id, loads));
    }
    Ok(TenantRecord {
        tenant,
        params,
        last_seq,
        image: InstanceImage {
            budget,
            base_loads,
            rates,
            available,
            tenants,
        },
    })
}

/// One decoded WAL data record.
enum WalRecord {
    Register {
        tenant: u64,
        params: TenantParams,
    },
    Evict {
        tenant: u64,
    },
    Churn {
        tenant: u64,
        seq: u64,
        events: Vec<ChurnEvent>,
    },
}

fn decode_wal_record(buf: &[u8]) -> Result<WalRecord, WalError> {
    let mut cur = Cursor::new(buf);
    match cur.u8()? {
        TAG_REGISTER => Ok(WalRecord::Register {
            tenant: cur.u64()?,
            params: TenantParams {
                switches: cur.u32()?,
                budget: cur.u32()?,
                seed: cur.u64()?,
            },
        }),
        TAG_EVICT => Ok(WalRecord::Evict { tenant: cur.u64()? }),
        TAG_CHURN => {
            let tenant = cur.u64()?;
            let seq = cur.u64()?;
            let declared = cur.u32()?;
            let count = cur.check_count(u64::from(declared), protocol::MIN_EVENT_BYTES)?;
            let mut events = Vec::with_capacity(count);
            for _ in 0..count {
                events.push(protocol::decode_event(&mut cur)?);
            }
            Ok(WalRecord::Churn {
                tenant,
                seq,
                events,
            })
        }
        other => Err(DecodeError::UnknownTag(other).into()),
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// The append side of the WAL: one per daemon, behind a mutex.
#[derive(Debug)]
pub struct WalWriter {
    dir: PathBuf,
    /// The live segment, `wal.soar`.
    file: BufWriter<File>,
    /// Global index of the next data record to append.
    next_index: u64,
    /// Data records appended since the last cut.
    records_since_snapshot: u64,
    /// Scratch buffer for record payloads.
    scratch: Vec<u8>,
}

impl WalWriter {
    /// Starts durable logging in `dir`: writes a snapshot of `tenants` (the
    /// recovered set, or empty on a fresh start) and opens a fresh WAL.
    /// Replaces whatever state files were there.
    ///
    /// The snapshot is durable before either segment is touched: a stale
    /// `wal.prev.soar` (a crash mid-rotation) may hold the only copy of
    /// records that `tenants` include.
    pub fn begin(
        dir: &Path,
        next_index: u64,
        tenants: &[TenantRecord],
    ) -> Result<WalWriter, WalError> {
        fs::create_dir_all(dir)?;
        let mut scratch = Vec::new();
        write_snapshot_file(dir, next_index, tenants, &mut scratch)?;
        match fs::remove_file(dir.join(PREV_FILE)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e.into()),
            _ => {}
        }
        let file = new_segment(dir, next_index, &mut scratch)?;
        file.get_ref().sync_all()?;
        fs::rename(dir.join(WAL_TMP), dir.join(WAL_FILE))?;
        Ok(WalWriter {
            dir: dir.to_path_buf(),
            file,
            next_index,
            records_since_snapshot: 0,
            scratch,
        })
    }

    /// Data records appended since the last cut — the caller's snapshot
    /// cadence trigger.
    pub fn records_since_snapshot(&self) -> u64 {
        self.records_since_snapshot
    }

    fn append(&mut self) -> Result<(), WalError> {
        write_record(&mut self.file, &self.scratch)?;
        // Flush to the OS so the record survives process death (the chaos
        // model); power-loss durability would additionally need sync_all.
        self.file.flush()?;
        self.next_index += 1;
        self.records_since_snapshot += 1;
        Ok(())
    }

    /// Logs a register. Call **before** inserting the tenant.
    pub fn append_register(&mut self, tenant: u64, params: TenantParams) -> Result<(), WalError> {
        self.scratch.clear();
        encode_register(&mut self.scratch, tenant, params);
        self.append()
    }

    /// Logs an evict. Call **before** removing the tenant.
    pub fn append_evict(&mut self, tenant: u64) -> Result<(), WalError> {
        self.scratch.clear();
        encode_evict(&mut self.scratch, tenant);
        self.append()
    }

    /// Logs a churn batch. Call **after** seq dedupe (a duplicate must never
    /// reach the log — replay treats one as corruption) and **before**
    /// applying any event.
    pub fn append_churn(
        &mut self,
        tenant: u64,
        seq: u64,
        events: &[ChurnEvent],
    ) -> Result<(), WalError> {
        self.scratch.clear();
        encode_churn(&mut self.scratch, tenant, seq, events);
        self.append()
    }

    /// Cuts the log for a snapshot at the current index and returns the job
    /// that writes it. The caller must capture the tenant images at the same
    /// point (no concurrent appliers) and hand them to
    /// [`SnapshotJob::write`].
    ///
    /// The cut retires the live segment to `wal.prev.soar` and opens a fresh
    /// `wal.soar` at the cut index (tmp file, header, flush, rename; its
    /// fsync is left to the job). When `wal.prev.soar` still exists — the
    /// previous job failed — the cut does not rotate: that segment is the
    /// only copy of records no durable snapshot covers, so appends stay in
    /// the live segment and the job retires the old one once its own
    /// snapshot covers both.
    pub fn cut(&mut self) -> Result<SnapshotJob, WalError> {
        let wal = self.dir.join(WAL_FILE);
        let prev = self.dir.join(PREV_FILE);
        let mut job = SnapshotJob {
            dir: self.dir.clone(),
            wal_next: self.next_index,
            segment: None,
            // A failed rollback below leaves the live segment at `prev` and
            // no `wal.soar`; then `prev` must never be deleted.
            retire: wal.exists(),
        };
        if !prev.exists() {
            let fresh = new_segment(&self.dir, self.next_index, &mut self.scratch)?;
            let handle = fresh.get_ref().try_clone()?;
            fs::rename(&wal, &prev)?;
            if let Err(e) = fs::rename(self.dir.join(WAL_TMP), &wal) {
                let _ = fs::rename(&prev, &wal);
                return Err(e.into());
            }
            self.file = fresh;
            job.segment = Some(handle);
        }
        self.records_since_snapshot = 0;
        Ok(job)
    }

    /// Writes a snapshot of the full tenant set and rotates the WAL, inline:
    /// [`Self::cut`] then [`SnapshotJob::write`]. The caller must pass a
    /// consistent cut (no concurrent appliers).
    pub fn write_snapshot(&mut self, tenants: &[TenantRecord]) -> Result<(), WalError> {
        self.cut()?.write(tenants)
    }
}

/// The I/O half of a snapshot, cut by [`WalWriter::cut`]; it may run on any
/// thread while appends continue into the fresh segment.
#[derive(Debug)]
pub struct SnapshotJob {
    dir: PathBuf,
    /// Index of the first record the snapshot does not cover.
    wal_next: u64,
    /// The fresh live segment, whose header this job makes durable (`None`
    /// when the cut did not rotate).
    segment: Option<File>,
    /// Delete `wal.prev.soar` once the snapshot is durable.
    retire: bool,
}

impl SnapshotJob {
    /// Makes the fresh segment's header durable, writes `tenants` (the images
    /// captured at the cut) to `snapshot.tmp`, fsyncs and renames it to
    /// `snapshot.soar`, and only then deletes `wal.prev.soar`. On an error
    /// the retired segment stays, so no record is lost.
    pub fn write(self, tenants: &[TenantRecord]) -> Result<(), WalError> {
        if let Some(segment) = &self.segment {
            segment.sync_all()?;
        }
        write_snapshot_file(&self.dir, self.wal_next, tenants, &mut Vec::new())?;
        if self.retire {
            fs::remove_file(self.dir.join(PREV_FILE))?;
        }
        Ok(())
    }
}

/// Writes `snapshot.tmp`, fsyncs it and renames it to `snapshot.soar`.
fn write_snapshot_file(
    dir: &Path,
    wal_next: u64,
    tenants: &[TenantRecord],
    scratch: &mut Vec<u8>,
) -> Result<(), WalError> {
    let tmp = dir.join(SNAPSHOT_TMP);
    let mut out = BufWriter::new(File::create(&tmp)?);
    scratch.clear();
    encode_snap_header(scratch, wal_next);
    write_record(&mut out, scratch)?;
    for rec in tenants {
        scratch.clear();
        encode_tenant_record(scratch, rec);
        write_record(&mut out, scratch)?;
    }
    out.flush()?;
    out.get_ref().sync_all()?;
    fs::rename(&tmp, dir.join(SNAPSHOT_FILE))?;
    Ok(())
}

/// Creates `wal.tmp` holding a flushed segment header at `first_index`.
fn new_segment(
    dir: &Path,
    first_index: u64,
    scratch: &mut Vec<u8>,
) -> Result<BufWriter<File>, WalError> {
    let mut out = BufWriter::new(File::create(dir.join(WAL_TMP))?);
    scratch.clear();
    encode_wal_header(scratch, first_index);
    write_record(&mut out, scratch)?;
    out.flush()?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// The outcome of [`recover`]: the rebuilt tenants (in increasing id order),
/// the next WAL index, and what happened along the way.
#[derive(Debug)]
pub struct Recovery {
    /// Rebuilt tenants.
    pub tenants: Vec<RecoveredTenant>,
    /// Global index the next WAL append should use.
    pub next_index: u64,
    /// Counters for metrics/operators.
    pub stats: RecoveryStats,
}

type ReplayState = std::collections::BTreeMap<u64, RecoveredTenant>;

/// Rebuilds the tenant set from `dir`'s snapshot, then `wal.prev.soar`, then
/// `wal.soar`, stitched by global index.
///
/// Stops at the first bad record — torn tail, CRC mismatch, zero-length
/// record, undecodable payload, a churn record whose sequence number is at
/// or below the tenant's replayed high-water mark, or a churn record for a
/// tenant that does not exist at that point of the log — keeps everything
/// before it, and flags [`RecoveryStats::truncated`]. A segment whose header
/// starts past the next index replay expects (records are missing) stops
/// replay the same way. Missing files mean a fresh start, not an error.
pub fn recover(dir: &Path) -> Result<Recovery, WalError> {
    let mut tenants = ReplayState::new();
    let mut stats = RecoveryStats::default();
    let mut next_index = read_snapshot(&dir.join(SNAPSHOT_FILE), &mut tenants, &mut stats)?;
    for segment in [PREV_FILE, WAL_FILE] {
        let intact = replay_segment(
            &dir.join(segment),
            &mut tenants,
            &mut stats,
            &mut next_index,
        )?;
        if !intact {
            break;
        }
    }
    Ok(Recovery {
        tenants: tenants.into_values().collect(),
        next_index,
        stats,
    })
}

/// Restores the snapshot's tenants; returns its `wal_next` (0 without one).
fn read_snapshot(
    path: &Path,
    tenants: &mut ReplayState,
    stats: &mut RecoveryStats,
) -> Result<u64, WalError> {
    if !path.exists() {
        return Ok(0);
    }
    let mut r = BufReader::new(File::open(path)?);
    let mut buf = Vec::new();
    let wal_next = match read_record(&mut r, &mut buf, MAX_RECORD_LEN) {
        Ok(true) => decode_header(&buf, TAG_SNAP_HEADER)?,
        Ok(false) => return Ok(0),
        Err(_) => {
            stats.truncated = true;
            return Ok(0);
        }
    };
    loop {
        let rec = match read_record(&mut r, &mut buf, MAX_RECORD_LEN) {
            Ok(false) => break,
            Ok(true) => decode_tenant_record(&buf),
            Err(e) => Err(e.into()),
        };
        let Ok(rec) = rec else {
            stats.truncated = true;
            break;
        };
        let mut instance = build_tenant(rec.params.switches, rec.params.budget, rec.params.seed);
        instance.restore_image(&rec.image);
        stats.snapshot_tenants += 1;
        tenants.insert(
            rec.tenant,
            RecoveredTenant {
                tenant: rec.tenant,
                params: rec.params,
                last_seq: rec.last_seq,
                instance,
            },
        );
    }
    Ok(wal_next)
}

/// Replays the records of one WAL segment at or past `next_index`, advancing
/// it. Returns `false` when replay must stop here (a bad record or a gap
/// before the segment's first index).
fn replay_segment(
    path: &Path,
    tenants: &mut ReplayState,
    stats: &mut RecoveryStats,
    next_index: &mut u64,
) -> Result<bool, WalError> {
    if !path.exists() {
        return Ok(true);
    }
    let mut r = BufReader::new(File::open(path)?);
    let mut buf = Vec::new();
    let mut index = match read_record(&mut r, &mut buf, MAX_RECORD_LEN) {
        Ok(true) => decode_header(&buf, TAG_WAL_HEADER)?,
        Ok(false) => return Ok(true),
        Err(_) => {
            stats.truncated = true;
            return Ok(false);
        }
    };
    if index > *next_index {
        stats.truncated = true;
        return Ok(false);
    }
    loop {
        match read_record(&mut r, &mut buf, MAX_RECORD_LEN) {
            Ok(false) => return Ok(true),
            Ok(true) => {
                let covered = index < *next_index;
                index += 1;
                if covered {
                    stats.skipped_records += 1;
                    continue;
                }
                if !decode_wal_record(&buf).is_ok_and(|rec| replay(tenants, rec)) {
                    stats.truncated = true;
                    return Ok(false);
                }
                stats.replayed_records += 1;
                *next_index = index;
            }
            Err(_) => {
                stats.truncated = true;
                return Ok(false);
            }
        }
    }
}

/// Applies one WAL record to the replay state. Returns `false` when the
/// record is inconsistent with the log so far (recovery stops there).
fn replay(tenants: &mut ReplayState, rec: WalRecord) -> bool {
    match rec {
        WalRecord::Register { tenant, params } => {
            if tenants.contains_key(&tenant) {
                return false;
            }
            let instance = build_tenant(params.switches, params.budget, params.seed);
            tenants.insert(
                tenant,
                RecoveredTenant {
                    tenant,
                    params,
                    last_seq: 0,
                    instance,
                },
            );
            true
        }
        WalRecord::Evict { tenant } => tenants.remove(&tenant).is_some(),
        WalRecord::Churn {
            tenant,
            seq,
            events,
        } => {
            let Some(entry) = tenants.get_mut(&tenant) else {
                return false;
            };
            // A duplicate seq can never legally reach the log (the server
            // dedupes before appending): treat it as corruption.
            if seq != 0 && seq <= entry.last_seq {
                return false;
            }
            if seq != 0 {
                entry.last_seq = seq;
            }
            // Apply-until-first-error, exactly like the live server: a batch
            // that failed partway was partially applied live too.
            for event in &events {
                if entry.instance.apply(event).is_err() {
                    break;
                }
            }
            true
        }
    }
}
