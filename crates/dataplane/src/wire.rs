//! Wire format for the control and data messages exchanged by switch actors.
//!
//! The distributed rendition of SOAR (Sec. 4.2 of the paper) exchanges three kinds of
//! messages, all flowing along tree links only:
//!
//! * **gather** (child → parent): the child's `X` table — `X_c(ℓ, i)` for every
//!   distance `ℓ` and budget `i`;
//! * **color** (parent → child): the pair `(i, ℓ*)` telling the child how many blue
//!   nodes to distribute in its subtree and how far it sits from its nearest barrier;
//! * **reduce** (child → parent): the application data of Algorithm 1 — individual
//!   worker reports forwarded by red switches and aggregates emitted by blue switches —
//!   followed by an end-of-stream marker so parents know when a child subtree is done.
//!
//! Frames are length-prefixed and encoded with [`bytes`]; the codec is exercised on
//! every hop of the simulated dataplane so that an actual transport (TCP, RDMA, a P4
//! control channel, ...) could be dropped in without touching the actor logic.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// A protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Child → parent: the child's gathered `X` table.
    XTable {
        /// The sender switch id.
        child: u32,
        /// Number of `ℓ` rows in the table.
        n_l: u32,
        /// Number of `i` columns: `min(k, s) + 1` for a sender whose subtree
        /// holds `s` switches.
        n_i: u32,
        /// Row-major values `X(ℓ, i)`.
        values: Vec<f64>,
    },
    /// Parent → child: the coloring-phase assignment `(budget, distance)`.
    Assign {
        /// Number of blue nodes to place in the receiver's subtree.
        budget: u32,
        /// Hop distance of the receiver from its closest blue ancestor (or `d`).
        distance: u32,
    },
    /// Child → parent: one Reduce message, carrying a partial aggregate.
    Data {
        /// Partial aggregate value (e.g. a partial sum) carried by this message.
        value: u64,
        /// Number of original worker reports folded into this message.
        contributors: u64,
    },
    /// Child → parent: the sender has forwarded everything from its subtree.
    Eos {
        /// The sender switch id.
        child: u32,
    },
}

/// Errors raised while decoding a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the frame was complete.
    Truncated,
    /// The frame type byte is unknown.
    UnknownKind(u8),
    /// A declared length is implausible (guards against corrupted frames).
    BadLength(u64),
    /// Bytes follow the end of a complete frame.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::BadLength(l) => write!(f, "implausible length field {l}"),
            WireError::TrailingBytes(n) => write!(f, "{n} bytes after the end of the frame"),
        }
    }
}

impl std::error::Error for WireError {}

const KIND_X_TABLE: u8 = 1;
const KIND_ASSIGN: u8 = 2;
const KIND_DATA: u8 = 3;
const KIND_EOS: u8 = 4;

/// Hard cap on the number of table cells a frame may declare (n · k tables of realistic
/// instances stay far below this).
const MAX_TABLE_CELLS: u64 = 64 * 1024 * 1024;

impl Frame {
    /// Encodes this frame (including its one-byte kind tag) into a byte buffer.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        match self {
            Frame::XTable {
                child,
                n_l,
                n_i,
                values,
            } => {
                buf.put_u8(KIND_X_TABLE);
                buf.put_u32(*child);
                buf.put_u32(*n_l);
                buf.put_u32(*n_i);
                buf.put_u64(values.len() as u64);
                for v in values {
                    buf.put_f64(*v);
                }
            }
            Frame::Assign { budget, distance } => {
                buf.put_u8(KIND_ASSIGN);
                buf.put_u32(*budget);
                buf.put_u32(*distance);
            }
            Frame::Data {
                value,
                contributors,
            } => {
                buf.put_u8(KIND_DATA);
                buf.put_u64(*value);
                buf.put_u64(*contributors);
            }
            Frame::Eos { child } => {
                buf.put_u8(KIND_EOS);
                buf.put_u32(*child);
            }
        }
        buf.freeze()
    }

    /// The exact encoded size of this frame in bytes.
    pub fn encoded_len(&self) -> usize {
        match self {
            Frame::XTable { values, .. } => 1 + 4 + 4 + 4 + 8 + 8 * values.len(),
            Frame::Assign { .. } => 1 + 4 + 4,
            Frame::Data { .. } => 1 + 8 + 8,
            Frame::Eos { .. } => 1 + 4,
        }
    }

    /// Decodes a frame from a byte buffer produced by [`Frame::encode`]. The
    /// buffer must hold exactly one frame, so whatever decodes re-encodes to
    /// the same bytes.
    pub fn decode(mut buf: Bytes) -> Result<Frame, WireError> {
        if buf.remaining() < 1 {
            return Err(WireError::Truncated);
        }
        let kind = buf.get_u8();
        let frame = match kind {
            KIND_X_TABLE => {
                if buf.remaining() < 4 + 4 + 4 + 8 {
                    return Err(WireError::Truncated);
                }
                let child = buf.get_u32();
                let n_l = buf.get_u32();
                let n_i = buf.get_u32();
                let len = buf.get_u64();
                if len > MAX_TABLE_CELLS || len != (n_l as u64) * (n_i as u64) {
                    return Err(WireError::BadLength(len));
                }
                if buf.remaining() < (len as usize) * 8 {
                    return Err(WireError::Truncated);
                }
                let values = (0..len).map(|_| buf.get_f64()).collect();
                Frame::XTable {
                    child,
                    n_l,
                    n_i,
                    values,
                }
            }
            KIND_ASSIGN => {
                if buf.remaining() < 8 {
                    return Err(WireError::Truncated);
                }
                Frame::Assign {
                    budget: buf.get_u32(),
                    distance: buf.get_u32(),
                }
            }
            KIND_DATA => {
                if buf.remaining() < 16 {
                    return Err(WireError::Truncated);
                }
                Frame::Data {
                    value: buf.get_u64(),
                    contributors: buf.get_u64(),
                }
            }
            KIND_EOS => {
                if buf.remaining() < 4 {
                    return Err(WireError::Truncated);
                }
                Frame::Eos {
                    child: buf.get_u32(),
                }
            }
            other => return Err(WireError::UnknownKind(other)),
        };
        match buf.remaining() {
            0 => Ok(frame),
            extra => Err(WireError::TrailingBytes(extra)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One frame of every kind.
    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::XTable {
                child: 7,
                n_l: 2,
                n_i: 3,
                values: vec![0.0, 1.5, f64::INFINITY, 2.25, 3.0, 4.0],
            },
            Frame::Assign {
                budget: 5,
                distance: 2,
            },
            Frame::Data {
                value: 123_456,
                contributors: 7,
            },
            Frame::Eos { child: 3 },
        ]
    }

    #[test]
    fn round_trip_all_frame_kinds() {
        for frame in sample_frames() {
            let encoded = frame.encode();
            assert_eq!(encoded.len(), frame.encoded_len());
            let decoded = Frame::decode(encoded).unwrap();
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn infinity_survives_the_wire() {
        let frame = Frame::XTable {
            child: 0,
            n_l: 1,
            n_i: 1,
            values: vec![f64::INFINITY],
        };
        match Frame::decode(frame.encode()).unwrap() {
            Frame::XTable { values, .. } => assert!(values[0].is_infinite()),
            _ => panic!("wrong frame kind"),
        }
    }

    #[test]
    fn truncated_frames_are_rejected() {
        for frame in sample_frames() {
            let encoded = frame.encode();
            for cut in 0..encoded.len() {
                let partial = encoded.slice(0..cut);
                assert_eq!(
                    Frame::decode(partial),
                    Err(WireError::Truncated),
                    "{frame:?} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(99);
        assert_eq!(Frame::decode(buf.freeze()), Err(WireError::UnknownKind(99)));
    }

    #[test]
    fn inconsistent_table_length_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(1); // XTable
        buf.put_u32(0);
        buf.put_u32(2);
        buf.put_u32(2);
        buf.put_u64(5); // declares 5 cells but 2 x 2 = 4
        for _ in 0..5 {
            buf.put_f64(0.0);
        }
        assert!(matches!(
            Frame::decode(buf.freeze()),
            Err(WireError::BadLength(5))
        ));
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(WireError::Truncated.to_string().contains("truncated"));
        assert!(WireError::UnknownKind(9).to_string().contains('9'));
        assert!(WireError::BadLength(3).to_string().contains('3'));
        assert!(WireError::TrailingBytes(4).to_string().contains('4'));
    }

    #[test]
    fn trailing_bytes_are_rejected_for_every_frame_kind() {
        for frame in sample_frames() {
            for extra in [1usize, 8] {
                let mut buf = BytesMut::new();
                buf.put_slice(&frame.encode());
                buf.put_slice(&vec![0u8; extra]);
                assert_eq!(
                    Frame::decode(buf.freeze()),
                    Err(WireError::TrailingBytes(extra)),
                    "{frame:?} followed by {extra} bytes"
                );
            }
        }
    }
}
