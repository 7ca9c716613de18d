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
//! Two files in the state dir, both sequences of CRC-checked records
//! ([`soar_dataplane::framing::write_record`]):
//!
//! ```text
//! snapshot.soar   header { version, wal_next }
//!                 one record per tenant: params + last_seq + InstanceImage
//! wal.soar        header { version, first_index }
//!                 data records: Register | Evict | Churn{tenant, seq, events}
//! ```
//!
//! Every WAL data record has a monotonically increasing **global index**
//! (persisted across rotations via the header's `first_index`). A snapshot
//! stores `wal_next` — the index of the first record it does *not* cover —
//! and the WAL is rewritten fresh right after a snapshot lands. Both writes
//! are tmp-file + atomic rename, so a crash between the two renames merely
//! leaves a WAL whose covered prefix the next recovery skips by index.
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
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Cap on one durable record. Larger than the wire-frame cap because one
/// snapshot record carries a whole tenant image (~17 bytes per switch).
pub const MAX_RECORD_LEN: usize = 256 << 20;

const WAL_FILE: &str = "wal.soar";
const SNAPSHOT_FILE: &str = "snapshot.soar";
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
    file: BufWriter<File>,
    /// Global index of the next data record to append.
    next_index: u64,
    /// Data records appended since the last snapshot.
    records_since_snapshot: u64,
    /// Scratch buffer for record payloads.
    scratch: Vec<u8>,
}

impl WalWriter {
    /// Starts durable logging in `dir`: writes a snapshot of `tenants` (the
    /// recovered set, or empty on a fresh start) and opens a fresh WAL.
    /// Replaces whatever state files were there.
    pub fn begin(
        dir: &Path,
        next_index: u64,
        tenants: &[TenantRecord],
    ) -> Result<WalWriter, WalError> {
        fs::create_dir_all(dir)?;
        let mut writer = WalWriter {
            dir: dir.to_path_buf(),
            // Placeholder; `rotate` below installs the real file.
            file: BufWriter::new(tempfile(dir)?),
            next_index,
            records_since_snapshot: 0,
            scratch: Vec::new(),
        };
        writer.write_snapshot(tenants)?;
        Ok(writer)
    }

    /// Data records appended since the last snapshot — the caller's snapshot
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

    /// Writes a snapshot of the full tenant set and rotates the WAL. The
    /// caller must pass a consistent cut (no concurrent appliers).
    pub fn write_snapshot(&mut self, tenants: &[TenantRecord]) -> Result<(), WalError> {
        // 1. Snapshot to tmp, fsync, atomic rename.
        let snap_tmp = self.dir.join("snapshot.tmp");
        {
            let mut out = BufWriter::new(File::create(&snap_tmp)?);
            self.scratch.clear();
            encode_snap_header(&mut self.scratch, self.next_index);
            write_record(&mut out, &self.scratch)?;
            for rec in tenants {
                self.scratch.clear();
                encode_tenant_record(&mut self.scratch, rec);
                write_record(&mut out, &self.scratch)?;
            }
            out.flush()?;
            out.get_ref().sync_all()?;
        }
        fs::rename(&snap_tmp, self.dir.join(SNAPSHOT_FILE))?;

        // 2. Fresh WAL to tmp, fsync, atomic rename, swap the open handle.
        //    A crash between the renames leaves the old WAL; its records are
        //    all `< wal_next`, so recovery skips them by index.
        let wal_tmp = self.dir.join("wal.tmp");
        let mut out = BufWriter::new(File::create(&wal_tmp)?);
        self.scratch.clear();
        encode_wal_header(&mut self.scratch, self.next_index);
        write_record(&mut out, &self.scratch)?;
        out.flush()?;
        out.get_ref().sync_all()?;
        fs::rename(&wal_tmp, self.dir.join(WAL_FILE))?;
        self.file = out;
        self.records_since_snapshot = 0;
        Ok(())
    }
}

fn tempfile(dir: &Path) -> io::Result<File> {
    OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(dir.join("wal.tmp"))
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

/// Rebuilds the tenant set from `dir`'s snapshot + WAL.
///
/// Stops at the first bad record of either file — torn tail, CRC mismatch,
/// zero-length record, undecodable payload, a churn record whose sequence
/// number is at or below the tenant's replayed high-water mark, or a churn
/// record for a tenant that does not exist at that point of the log — keeps
/// everything before it, and flags [`RecoveryStats::truncated`]. Missing
/// files mean a fresh start, not an error.
pub fn recover(dir: &Path) -> Result<Recovery, WalError> {
    use std::collections::BTreeMap;
    let mut tenants: BTreeMap<u64, RecoveredTenant> = BTreeMap::new();
    let mut stats = RecoveryStats::default();
    let mut wal_next = 0u64;

    // ---- snapshot ----
    let snap_path = dir.join(SNAPSHOT_FILE);
    if snap_path.exists() {
        let mut r = BufReader::new(File::open(&snap_path)?);
        let mut buf = Vec::new();
        match read_record(&mut r, &mut buf, MAX_RECORD_LEN) {
            Ok(true) => {
                wal_next = decode_header(&buf, TAG_SNAP_HEADER)?;
                loop {
                    match read_record(&mut r, &mut buf, MAX_RECORD_LEN) {
                        Ok(false) => break,
                        Ok(true) => match decode_tenant_record(&buf) {
                            Ok(rec) => {
                                let mut instance = build_tenant(
                                    rec.params.switches,
                                    rec.params.budget,
                                    rec.params.seed,
                                );
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
                            Err(_) => {
                                stats.truncated = true;
                                break;
                            }
                        },
                        Err(_) => {
                            stats.truncated = true;
                            break;
                        }
                    }
                }
            }
            Ok(false) => {}
            Err(_) => stats.truncated = true,
        }
    }

    // ---- WAL ----
    let mut next_index = wal_next;
    let wal_path = dir.join(WAL_FILE);
    if wal_path.exists() {
        let mut r = BufReader::new(File::open(&wal_path)?);
        let mut buf = Vec::new();
        match read_record(&mut r, &mut buf, MAX_RECORD_LEN) {
            Ok(true) => {
                let first_index = decode_header(&buf, TAG_WAL_HEADER)?;
                let mut index = first_index;
                loop {
                    match read_record(&mut r, &mut buf, MAX_RECORD_LEN) {
                        Ok(false) => break,
                        Ok(true) => {
                            let covered = index < wal_next;
                            index += 1;
                            if covered {
                                stats.skipped_records += 1;
                                continue;
                            }
                            match decode_wal_record(&buf) {
                                Ok(rec) => {
                                    if !replay(&mut tenants, rec) {
                                        stats.truncated = true;
                                        break;
                                    }
                                    stats.replayed_records += 1;
                                    next_index = index;
                                }
                                Err(_) => {
                                    stats.truncated = true;
                                    break;
                                }
                            }
                        }
                        Err(_) => {
                            stats.truncated = true;
                            break;
                        }
                    }
                }
            }
            Ok(false) => {}
            Err(_) => stats.truncated = true,
        }
    }

    Ok(Recovery {
        tenants: tenants.into_values().collect(),
        next_index,
        stats,
    })
}

/// Applies one WAL record to the replay state. Returns `false` when the
/// record is inconsistent with the log so far (recovery stops there).
fn replay(tenants: &mut std::collections::BTreeMap<u64, RecoveredTenant>, rec: WalRecord) -> bool {
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
