//! Length-prefixed stream framing shared by the dataplane codec and the
//! `soar-serve` wire protocol.
//!
//! [`wire`](crate::wire) defines *message* encoding — what the bytes of one
//! frame mean. This module defines how frames travel over a byte stream: every
//! frame is a 4-byte big-endian length prefix followed by exactly that many
//! payload bytes. The reader is deliberately paranoid, because it faces the
//! network:
//!
//! * a declared length above the caller's cap is rejected **before any
//!   allocation** ([`FramingError::Oversized`]) — a hostile or corrupt peer
//!   cannot make the server reserve gigabytes with four bytes;
//! * a stream that ends mid-prefix or mid-payload is a typed
//!   [`FramingError::Truncated`], never a panic;
//! * end-of-stream exactly on a frame boundary is the clean-shutdown signal
//!   (`Ok(false)`), distinct from truncation.
//!
//! Payload *content* errors (garbage bytes) are the next layer's job: both
//! [`wire::Frame::decode`](crate::wire::Frame::decode) and the serve protocol
//! return typed errors for those, so no byte sequence on the wire can panic
//! the process. The malformed-frame corpus test at the bottom pins all three
//! failure classes.

use std::io::{self, Read, Write};

/// Size of the length prefix in bytes.
pub const LEN_PREFIX_BYTES: usize = 4;

/// Default cap on a declared frame length (16 MiB) — far above any legitimate
/// SOAR message, far below anything that could hurt the process.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// A stream-framing failure. `Io` carries transport errors; the other variants
/// are protocol violations by the peer.
#[derive(Debug)]
pub enum FramingError {
    /// The stream ended inside a length prefix or inside a payload.
    Truncated {
        /// Bytes the frame still owed when the stream ended.
        missing: usize,
    },
    /// The peer declared a frame longer than the reader's cap. Detected before
    /// any buffer is grown.
    Oversized {
        /// The declared payload length.
        declared: u64,
        /// The reader's cap.
        max: usize,
    },
    /// The underlying transport failed.
    Io(io::Error),
}

impl std::fmt::Display for FramingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FramingError::Truncated { missing } => {
                write!(f, "stream truncated mid-frame ({missing} byte(s) missing)")
            }
            FramingError::Oversized { declared, max } => {
                write!(f, "declared frame length {declared} exceeds cap {max}")
            }
            FramingError::Io(e) => write!(f, "frame transport error: {e}"),
        }
    }
}

impl std::error::Error for FramingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FramingError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FramingError {
    fn from(e: io::Error) -> Self {
        FramingError::Io(e)
    }
}

/// Appends one frame to `out`: a length prefix, then whatever `encode`
/// appends, with the prefix patched afterwards. The payload is encoded in
/// place, so a reused `out` frames messages without copying or allocating,
/// and any number of frames can be appended before one write sends them all.
///
/// A payload above `u32::MAX` bytes is an `InvalidInput` error and leaves
/// `out` as it was.
pub fn append_frame(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
    let start = out.len();
    out.extend_from_slice(&[0; LEN_PREFIX_BYTES]);
    encode(out);
    let payload_start = start + LEN_PREFIX_BYTES;
    let Ok(len) = u32::try_from(out.len() - payload_start) else {
        out.truncate(start);
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame payload exceeds u32::MAX bytes",
        ));
    };
    out[start..payload_start].copy_from_slice(&len.to_be_bytes());
    Ok(())
}

/// Writes one frame — 4-byte big-endian length prefix, then the payload — in
/// a single `write_all`, so a `TCP_NODELAY` socket sends it as one segment
/// rather than a prefix segment and a payload segment.
pub fn write_frame<W: Write + ?Sized>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(LEN_PREFIX_BYTES + payload.len());
    append_frame(&mut frame, |out| out.extend_from_slice(payload))?;
    w.write_all(&frame)
}

/// Reads one frame into `buf` (cleared and reused across calls — steady-state
/// reads allocate nothing once `buf` reached the high-water mark).
///
/// Every frame costs at least two `read` calls, so socket readers should wrap
/// the stream in a [`BufReader`](std::io::BufReader): one read syscall then
/// parses a whole pipelined burst of frames, and a frame larger than the
/// buffer is read straight into `buf`.
///
/// Returns `Ok(true)` with the payload in `buf`, or `Ok(false)` on a clean
/// end-of-stream at a frame boundary. Any other shortfall is
/// [`FramingError::Truncated`]; a declared length above `max_len` is
/// [`FramingError::Oversized`] and consumes nothing further.
pub fn read_frame<R: Read + ?Sized>(
    r: &mut R,
    buf: &mut Vec<u8>,
    max_len: usize,
) -> Result<bool, FramingError> {
    let mut prefix = [0u8; LEN_PREFIX_BYTES];
    let mut got = 0;
    while got < LEN_PREFIX_BYTES {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(false), // clean EOF between frames
            Ok(0) => {
                return Err(FramingError::Truncated {
                    missing: LEN_PREFIX_BYTES - got,
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > max_len {
        return Err(FramingError::Oversized {
            declared: len as u64,
            max: max_len,
        });
    }
    buf.clear();
    buf.resize(len, 0);
    let mut filled = 0;
    while filled < len {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(FramingError::Truncated {
                    missing: len - filled,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(true)
}

// ---------------------------------------------------------------------------
// Durable records: the CRC-checked on-disk variant of a frame.
// ---------------------------------------------------------------------------

/// CRC-32 (IEEE 802.3, reflected) slice-by-16 lookup tables, built at
/// compile time. `CRC32_TABLES[0]` is the classic bytewise table;
/// `CRC32_TABLES[k][x]` is the CRC register after byte `x` followed by `k`
/// zero bytes, so sixteen lookups fold sixteen input bytes at once.
const CRC32_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 16 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes` — the checksum guarding [`write_record`] payloads.
///
/// Slice-by-16: each 16-byte block costs sixteen independent table lookups
/// instead of sixteen dependent byte steps; the tail shorter than a block
/// runs bytewise. The result is bit-identical to the bytewise loop.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = !0u32;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let x = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(x & 0xFF) as usize]
            ^ t[14][((x >> 8) & 0xFF) as usize]
            ^ t[13][((x >> 16) & 0xFF) as usize]
            ^ t[12][(x >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// A failure reading a durable [`write_record`] record back.
///
/// `Truncated` on the **last** record of a file is the expected signature of a
/// crash mid-append (a torn tail); recovery stops there and keeps everything
/// before it. `Corrupt` means the bytes on disk are not what was written —
/// also a stop-here signal, never a panic.
#[derive(Debug)]
pub enum RecordError {
    /// The file ended inside a record header or payload — a torn tail.
    Truncated {
        /// Bytes the record still owed when the file ended.
        missing: usize,
    },
    /// The header declared a payload longer than the reader's cap.
    Oversized {
        /// The declared payload length.
        declared: u64,
        /// The reader's cap.
        max: usize,
    },
    /// The payload does not match its stored checksum, or the record is
    /// zero-length (no valid record is empty; an all-zeros tail from a
    /// partially flushed page reads as length 0 and lands here).
    Corrupt {
        /// The checksum stored in the header.
        stored: u32,
        /// The checksum of the bytes actually read.
        computed: u32,
    },
    /// The underlying file read failed.
    Io(io::Error),
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Truncated { missing } => {
                write!(f, "record truncated ({missing} byte(s) missing)")
            }
            RecordError::Oversized { declared, max } => {
                write!(f, "declared record length {declared} exceeds cap {max}")
            }
            RecordError::Corrupt { stored, computed } => {
                write!(
                    f,
                    "record checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
                )
            }
            RecordError::Io(e) => write!(f, "record transport error: {e}"),
        }
    }
}

impl std::error::Error for RecordError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecordError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for RecordError {
    fn from(e: io::Error) -> Self {
        RecordError::Io(e)
    }
}

/// Writes one durable record: 4-byte big-endian payload length, 4-byte
/// big-endian CRC-32 of the payload, then the payload. Empty payloads are
/// rejected ([`RecordError::Corrupt`] reserves length 0 for zero-filled
/// tails).
pub fn write_record<W: Write + ?Sized>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    assert!(!payload.is_empty(), "no valid record is empty");
    let len = u32::try_from(payload.len()).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "record payload exceeds u32::MAX bytes",
        )
    })?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(&crc32(payload).to_be_bytes())?;
    w.write_all(payload)
}

/// Reads one durable record into `buf` (cleared and reused). Returns
/// `Ok(true)` with the verified payload in `buf`, `Ok(false)` on clean
/// end-of-file at a record boundary, or the typed [`RecordError`] a WAL
/// recovery stops at. Like [`read_frame`], a declared length above `max_len`
/// is rejected before any allocation.
pub fn read_record<R: Read + ?Sized>(
    r: &mut R,
    buf: &mut Vec<u8>,
    max_len: usize,
) -> Result<bool, RecordError> {
    const HEADER: usize = 8;
    let mut header = [0u8; HEADER];
    let mut got = 0;
    while got < HEADER {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(false), // clean EOF between records
            Ok(0) => {
                return Err(RecordError::Truncated {
                    missing: HEADER - got,
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_be_bytes(header[..4].try_into().expect("4 bytes")) as usize;
    let stored = u32::from_be_bytes(header[4..].try_into().expect("4 bytes"));
    if len > max_len {
        return Err(RecordError::Oversized {
            declared: len as u64,
            max: max_len,
        });
    }
    if len == 0 {
        // An all-zeros page tail decodes as a zero-length record; no real
        // record is empty, so this is corruption, not a record.
        return Err(RecordError::Corrupt {
            stored,
            computed: crc32(&[]),
        });
    }
    buf.clear();
    buf.resize(len, 0);
    let mut filled = 0;
    while filled < len {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(RecordError::Truncated {
                    missing: len - filled,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let computed = crc32(buf);
    if computed != stored {
        return Err(RecordError::Corrupt { stored, computed });
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{Frame, WireError};
    use bytes::Bytes;

    fn read_all(stream: &[u8]) -> Result<Vec<Vec<u8>>, FramingError> {
        let mut r = stream;
        let mut buf = Vec::new();
        let mut frames = Vec::new();
        while read_frame(&mut r, &mut buf, MAX_FRAME_LEN)? {
            frames.push(buf.clone());
        }
        Ok(frames)
    }

    #[test]
    fn round_trips_multiple_frames() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"alpha").unwrap();
        write_frame(&mut stream, b"").unwrap();
        write_frame(&mut stream, &[7u8; 1000]).unwrap();
        let frames = read_all(&stream).unwrap();
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0], b"alpha");
        assert_eq!(frames[1], b"");
        assert_eq!(frames[2], vec![7u8; 1000]);
    }

    /// The malformed-frame corpus: every hostile shape a peer can put on the
    /// stream maps to a typed error, never a panic, never an allocation bomb.
    #[test]
    fn malformed_frame_corpus() {
        // 1. Truncated length prefix: stream dies after 2 of 4 prefix bytes.
        match read_all(&[0x00, 0x00]) {
            Err(FramingError::Truncated { missing: 2 }) => {}
            other => panic!("truncated prefix: {other:?}"),
        }

        // 2. Truncated payload: prefix promises 8 bytes, stream carries 3.
        let mut stream = Vec::new();
        stream.extend_from_slice(&8u32.to_be_bytes());
        stream.extend_from_slice(&[1, 2, 3]);
        match read_all(&stream) {
            Err(FramingError::Truncated { missing: 5 }) => {}
            other => panic!("truncated payload: {other:?}"),
        }

        // 3. Oversized declared length: a 4 GiB-minus-one claim is rejected
        //    before any buffer is touched (the stream has no payload at all,
        //    which would otherwise read as truncation).
        let stream = u32::MAX.to_be_bytes();
        match read_all(&stream) {
            Err(FramingError::Oversized {
                declared,
                max: MAX_FRAME_LEN,
            }) => assert_eq!(declared, u64::from(u32::MAX)),
            other => panic!("oversized: {other:?}"),
        }

        // 4. Garbage payload: frames fine, content rotten. The next layer
        //    (here the dataplane message codec) returns a typed error.
        let mut stream = Vec::new();
        write_frame(&mut stream, &[0xFF, 0xAA, 0x55]).unwrap();
        let frames = read_all(&stream).unwrap();
        assert_eq!(frames.len(), 1);
        match Frame::decode(Bytes::from(frames[0].clone())) {
            Err(WireError::UnknownKind(0xFF)) => {}
            other => panic!("garbage payload: {other:?}"),
        }

        // 5. Empty garbage: a zero-length frame is valid framing; decoding it
        //    as a message is a typed truncation, not a panic.
        let mut stream = Vec::new();
        write_frame(&mut stream, b"").unwrap();
        let frames = read_all(&stream).unwrap();
        match Frame::decode(Bytes::from(frames[0].clone())) {
            Err(WireError::Truncated) => {}
            other => panic!("empty payload decode: {other:?}"),
        }
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The standard check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The plain bytewise CRC-32 the slice-by-16 loop must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = CRC32_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    /// `len` bytes from a 64-bit LCG seeded with `seed` (top byte of each
    /// state), reproducible outside Rust for the zlib check below.
    fn lcg_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_slice_by_16_equals_the_bytewise_loop() {
        let buf = lcg_bytes(7, 16 + 300);
        for start in 0..16 {
            for len in 0..=300 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "start {start}, len {len}"
                );
            }
        }
    }

    #[test]
    fn crc32_of_a_seeded_mebibyte_matches_zlib() {
        // zlib.crc32 of the same 1 MiB LCG stream (seed 0x5EED).
        let buf = lcg_bytes(0x5EED, 1 << 20);
        assert_eq!(crc32(&buf), 0xD342_F651);
    }

    fn read_all_records(stream: &[u8]) -> Result<Vec<Vec<u8>>, RecordError> {
        let mut r = stream;
        let mut buf = Vec::new();
        let mut records = Vec::new();
        while read_record(&mut r, &mut buf, MAX_FRAME_LEN)? {
            records.push(buf.clone());
        }
        Ok(records)
    }

    #[test]
    fn records_round_trip_and_detect_flipped_bits() {
        let mut stream = Vec::new();
        write_record(&mut stream, b"alpha").unwrap();
        write_record(&mut stream, &[9u8; 300]).unwrap();
        let records = read_all_records(&stream).unwrap();
        assert_eq!(records, vec![b"alpha".to_vec(), vec![9u8; 300]]);

        // Flip one bit anywhere in a record's CRC or payload: the checksum
        // catches it. (A flipped *length* byte instead reads as truncation or
        // an oversized claim — covered by the corpus test below.)
        let mut single = Vec::new();
        write_record(&mut single, b"alpha").unwrap();
        for i in 4..single.len() {
            let mut bad = single.clone();
            bad[i] ^= 0x40;
            match read_all_records(&bad) {
                Err(RecordError::Corrupt { .. }) => {}
                other => panic!("flipped byte {i}: {other:?}"),
            }
        }
    }

    /// The malformed-record corpus: every way a crash or disk corruption can
    /// mangle a WAL tail maps to a typed error that stops recovery at the
    /// last good record — never a panic, never an allocation bomb.
    #[test]
    fn malformed_record_corpus() {
        let mut good = Vec::new();
        write_record(&mut good, b"first").unwrap();

        // 1. Torn tail inside the next record's header.
        let mut stream = good.clone();
        stream.extend_from_slice(&[0x00, 0x00, 0x01]);
        let mut r = &stream[..];
        let mut buf = Vec::new();
        assert!(read_record(&mut r, &mut buf, MAX_FRAME_LEN).unwrap());
        assert_eq!(buf, b"first");
        match read_record(&mut r, &mut buf, MAX_FRAME_LEN) {
            Err(RecordError::Truncated { missing: 5 }) => {}
            other => panic!("torn header: {other:?}"),
        }

        // 2. Torn tail inside a payload: header promises 8, file carries 3.
        let mut stream = good.clone();
        stream.extend_from_slice(&8u32.to_be_bytes());
        stream.extend_from_slice(&crc32(&[1, 2, 3]).to_be_bytes());
        stream.extend_from_slice(&[1, 2, 3]);
        match read_all_records(&stream) {
            Err(RecordError::Truncated { missing: 5 }) => {}
            other => panic!("torn payload: {other:?}"),
        }

        // 3. Bad CRC on a fully present record.
        let mut stream = good.clone();
        stream.extend_from_slice(&4u32.to_be_bytes());
        stream.extend_from_slice(&0xDEAD_BEEFu32.to_be_bytes());
        stream.extend_from_slice(&[7, 7, 7, 7]);
        match read_all_records(&stream) {
            Err(RecordError::Corrupt { stored, computed }) => {
                assert_eq!(stored, 0xDEAD_BEEF);
                assert_eq!(computed, crc32(&[7, 7, 7, 7]));
            }
            other => panic!("bad crc: {other:?}"),
        }

        // 4. Zero-length record — the signature of an all-zeros page tail.
        let mut stream = good.clone();
        stream.extend_from_slice(&[0u8; 32]);
        match read_all_records(&stream) {
            Err(RecordError::Corrupt { stored: 0, .. }) => {}
            other => panic!("zero-length record: {other:?}"),
        }

        // 5. Oversized declared length, rejected before any allocation.
        let mut stream = good;
        stream.extend_from_slice(&u32::MAX.to_be_bytes());
        stream.extend_from_slice(&[0u8; 4]);
        match read_all_records(&stream) {
            Err(RecordError::Oversized { declared, .. }) => {
                assert_eq!(declared, u64::from(u32::MAX));
            }
            other => panic!("oversized record: {other:?}"),
        }
    }

    #[test]
    fn oversized_respects_custom_cap() {
        let mut stream = Vec::new();
        write_frame(&mut stream, &[0u8; 100]).unwrap();
        let mut r = &stream[..];
        let mut buf = Vec::new();
        match read_frame(&mut r, &mut buf, 64) {
            Err(FramingError::Oversized {
                declared: 100,
                max: 64,
            }) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn one_frame_is_one_write_call() {
        /// Records the length of every `write` call.
        #[derive(Default)]
        struct Counting(Vec<usize>);
        impl Write for Counting {
            fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
                self.0.push(bytes.len());
                Ok(bytes.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = Counting::default();
        write_frame(&mut w, b"payload").unwrap();
        write_frame(&mut w, b"").unwrap();
        assert_eq!(w.0, vec![LEN_PREFIX_BYTES + 7, LEN_PREFIX_BYTES]);
    }

    #[test]
    fn buffered_reads_parse_bursts_including_frames_larger_than_the_buffer() {
        const CAP: usize = 64;
        let big = vec![5u8; CAP * 3 + 7];
        let mut stream = Vec::new();
        for payload in [&b"one"[..], &big, b"", b"three", &big, b"last"] {
            write_frame(&mut stream, payload).unwrap();
        }
        let mut r = io::BufReader::with_capacity(CAP, &stream[..]);
        let mut buf = Vec::new();
        let mut frames = Vec::new();
        while read_frame(&mut r, &mut buf, MAX_FRAME_LEN).unwrap() {
            frames.push(buf.clone());
        }
        let want: Vec<Vec<u8>> = vec![
            b"one".to_vec(),
            big.clone(),
            Vec::new(),
            b"three".to_vec(),
            big,
            b"last".to_vec(),
        ];
        assert_eq!(frames, want);

        // A torn tail behind a good frame is still typed truncation, whether
        // it tears the prefix or the payload.
        let mut good = Vec::new();
        write_frame(&mut good, b"whole").unwrap();
        for (tail, missing) in [(&[0u8, 0][..], 2), (&[0, 0, 0, 9, 1, 2][..], 7)] {
            let mut torn = good.clone();
            torn.extend_from_slice(tail);
            let mut r = io::BufReader::with_capacity(CAP, &torn[..]);
            assert!(read_frame(&mut r, &mut buf, MAX_FRAME_LEN).unwrap());
            assert_eq!(buf, b"whole");
            match read_frame(&mut r, &mut buf, MAX_FRAME_LEN) {
                Err(FramingError::Truncated { missing: m }) => assert_eq!(m, missing),
                other => panic!("torn tail {tail:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn interrupted_reads_are_retried() {
        /// A reader yielding one byte per call with an Interrupted error
        /// before each — the retry loop must absorb them.
        struct Choppy<'a>(&'a [u8], bool);
        impl Read for Choppy<'_> {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                if !self.1 {
                    self.1 = true;
                    return Err(io::Error::new(io::ErrorKind::Interrupted, "signal"));
                }
                self.1 = false;
                if self.0.is_empty() || out.is_empty() {
                    return Ok(0);
                }
                out[0] = self.0[0];
                self.0 = &self.0[1..];
                Ok(1)
            }
        }
        let mut stream = Vec::new();
        write_frame(&mut stream, b"chop").unwrap();
        let mut r = Choppy(&stream, false);
        let mut buf = Vec::new();
        assert!(read_frame(&mut r, &mut buf, MAX_FRAME_LEN).unwrap());
        assert_eq!(buf, b"chop");
        assert!(!read_frame(&mut r, &mut buf, MAX_FRAME_LEN).unwrap());
    }
}
