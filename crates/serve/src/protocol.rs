//! The `soar serve` wire protocol: compact binary request/response messages.
//!
//! Messages ride inside the length-prefixed stream frames of
//! [`soar_dataplane::framing`]; this module defines what one frame's payload
//! means. The encoding follows the dataplane's [`wire`](soar_dataplane::wire)
//! conventions — big-endian fixed-width integers, one tag byte per message
//! family, every length validated against the remaining payload **before**
//! any buffer is reserved — so no byte sequence a peer can send will panic
//! the server or make it allocate unboundedly; malformed payloads come back
//! as typed [`DecodeError`]s.
//!
//! Every message starts with a caller-chosen `req_id` that the server echoes
//! in the response, so clients may pipeline arbitrarily many requests per
//! connection and correlate out-of-order completions.
//!
//! ```
//! use soar_serve::protocol::{Request, RequestBody, Response};
//! use soar_multitenant::churn::ChurnEvent;
//!
//! // A churn batch for tenant 7, correlated as request 42.
//! let req = Request {
//!     req_id: 42,
//!     body: RequestBody::Churn {
//!         tenant: 7,
//!         seq: 1,
//!         events: vec![
//!             ChurnEvent::LeafRateChange { leaf: 3, load: 9 },
//!             ChurnEvent::TenantDepart { tenant: 1 },
//!         ],
//!     },
//! };
//! let mut payload = Vec::new();
//! req.encode(&mut payload);
//! let decoded = Request::decode(&payload).unwrap();
//! assert_eq!(decoded.req_id, 42);
//! assert_eq!(decoded, req);
//!
//! // Responses echo the id; a truncated payload is a typed error, not a panic.
//! let mut resp = Vec::new();
//! Response { req_id: 42, body: soar_serve::protocol::ResponseBody::Evicted { tenant: 7 } }
//!     .encode(&mut resp);
//! assert!(Response::decode(&resp[..resp.len() - 1]).is_err());
//! assert_eq!(Response::decode(&resp).unwrap().req_id, 42);
//! ```

use soar_multitenant::churn::ChurnEvent;

/// A malformed message payload. The framing layer already bounded the frame
/// size; these are content violations inside a well-framed payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended before the message did.
    Truncated,
    /// An unknown message or event tag.
    UnknownTag(u8),
    /// A declared element count larger than the payload could possibly hold.
    BadLength(u64),
    /// A string field was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "message payload truncated"),
            DecodeError::UnknownTag(t) => write!(f, "unknown message tag {t:#04x}"),
            DecodeError::BadLength(n) => write!(f, "declared length {n} exceeds the payload"),
            DecodeError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Checked big-endian read cursor. Unlike the `bytes` cursor (which panics on
/// underflow and allocates per read), every getter is fallible and
/// allocation-free — this is the server's untrusted-input path.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        if self.buf.len() < N {
            return Err(DecodeError::Truncated);
        }
        let (head, rest) = self.buf.split_at(N);
        self.buf = rest;
        Ok(head.try_into().unwrap())
    }

    pub(crate) fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take::<1>()?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_be_bytes(self.take()?))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(self.take()?))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(self.take()?))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Guards a declared element count: `count * min_bytes_each` must fit in
    /// the remaining payload, so a hostile count can never drive a huge
    /// `Vec::with_capacity`.
    pub(crate) fn check_count(
        &self,
        count: u64,
        min_bytes_each: usize,
    ) -> Result<usize, DecodeError> {
        if count.saturating_mul(min_bytes_each as u64) > self.remaining() as u64 {
            return Err(DecodeError::BadLength(count));
        }
        Ok(count as usize)
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let declared = self.u32()?;
        let len = self.check_count(u64::from(declared), 1)?;
        if self.buf.len() < len {
            return Err(DecodeError::Truncated);
        }
        let (head, rest) = self.buf.split_at(len);
        self.buf = rest;
        String::from_utf8(head.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }

    /// The payload must be fully consumed — trailing garbage is a framing bug
    /// on the peer's side and is rejected rather than silently ignored.
    fn finish(self) -> Result<(), DecodeError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::BadLength(self.buf.len() as u64))
        }
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Smallest possible encoded [`ChurnEvent`] (`BudgetChange`: tag + u32), the
/// per-event bound backing `check_count` on churn batches.
pub(crate) const MIN_EVENT_BYTES: usize = 5;

pub(crate) fn encode_event(out: &mut Vec<u8>, event: &ChurnEvent) {
    match event {
        ChurnEvent::LeafRateChange { leaf, load } => {
            out.push(0);
            put_u32(out, *leaf as u32);
            put_u64(out, *load);
        }
        ChurnEvent::TenantArrive { tenant, loads } => {
            out.push(1);
            put_u64(out, *tenant);
            put_u16(out, loads.len() as u16);
            for &(node, load) in loads {
                put_u32(out, node as u32);
                put_u64(out, load);
            }
        }
        ChurnEvent::TenantDepart { tenant } => {
            out.push(2);
            put_u64(out, *tenant);
        }
        ChurnEvent::BudgetChange { budget } => {
            out.push(3);
            put_u32(out, *budget as u32);
        }
        ChurnEvent::SwitchAvailability { switch, available } => {
            out.push(4);
            put_u32(out, *switch as u32);
            out.push(u8::from(*available));
        }
        ChurnEvent::LinkRateChange { switch, rate } => {
            out.push(5);
            put_u32(out, *switch as u32);
            put_f64(out, *rate);
        }
    }
}

pub(crate) fn decode_event(cur: &mut Cursor) -> Result<ChurnEvent, DecodeError> {
    match cur.u8()? {
        0 => Ok(ChurnEvent::LeafRateChange {
            leaf: cur.u32()? as usize,
            load: cur.u64()?,
        }),
        1 => {
            let tenant = cur.u64()?;
            let declared = cur.u16()?;
            let count = cur.check_count(u64::from(declared), 12)?;
            let mut loads = Vec::with_capacity(count);
            for _ in 0..count {
                loads.push((cur.u32()? as usize, cur.u64()?));
            }
            Ok(ChurnEvent::TenantArrive { tenant, loads })
        }
        2 => Ok(ChurnEvent::TenantDepart { tenant: cur.u64()? }),
        3 => Ok(ChurnEvent::BudgetChange {
            budget: cur.u32()? as usize,
        }),
        4 => {
            let switch = cur.u32()? as usize;
            let available = match cur.u8()? {
                0 => false,
                1 => true,
                t => return Err(DecodeError::UnknownTag(t)),
            };
            Ok(ChurnEvent::SwitchAvailability { switch, available })
        }
        5 => Ok(ChurnEvent::LinkRateChange {
            switch: cur.u32()? as usize,
            rate: cur.f64()?,
        }),
        t => Err(DecodeError::UnknownTag(t)),
    }
}

/// What a request asks the server to do.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// Create a resident tenant: a `BT(switches)` tree with seeded
    /// paper-uniform leaf loads wrapped in a
    /// [`DynamicInstance`](soar_online::DynamicInstance). Deterministic — the
    /// same `(switches, budget, seed)` always builds the same instance, which
    /// is what makes server responses replayable offline.
    Register {
        /// The new tenant's id (must not be resident).
        tenant: u64,
        /// `BT(n)` size parameter.
        switches: u32,
        /// The aggregation budget `k`.
        budget: u32,
        /// Leaf-load seed.
        seed: u64,
    },
    /// Drop a resident tenant and free its instance.
    Evict {
        /// The tenant to drop.
        tenant: u64,
    },
    /// Apply a batch of churn events to a tenant's instance.
    Churn {
        /// The target tenant.
        tenant: u64,
        /// Client-assigned batch sequence number, strictly increasing per
        /// tenant from 1. The server remembers each tenant's highest applied
        /// `seq` and answers a batch at or below it with
        /// [`ResponseBody::ChurnApplied`]`{ duplicate: true }` **without
        /// re-applying it** — the idempotent-replay guarantee that lets a
        /// client blindly resend unacknowledged batches after a reconnect.
        /// `seq == 0` opts out of deduplication (an unsequenced batch).
        seq: u64,
        /// The events, applied in order.
        events: Vec<ChurnEvent>,
    },
    /// Re-solve a tenant's instance on a warm workspace.
    Solve {
        /// The target tenant.
        tenant: u64,
    },
    /// Cost-vs-budget sweep over a tenant's current loads (one gather at the
    /// largest budget, traced per budget).
    Sweep {
        /// The target tenant.
        tenant: u64,
        /// The budgets to sweep.
        budgets: Vec<u32>,
    },
    /// Fetch the server's metrics snapshot.
    Metrics,
    /// Ask the server to shut down gracefully (drain, then exit).
    Shutdown,
}

impl RequestBody {
    /// The tenant this request operates on, if any.
    pub fn tenant(&self) -> Option<u64> {
        match self {
            RequestBody::Register { tenant, .. }
            | RequestBody::Evict { tenant }
            | RequestBody::Churn { tenant, .. }
            | RequestBody::Solve { tenant }
            | RequestBody::Sweep { tenant, .. } => Some(*tenant),
            RequestBody::Metrics | RequestBody::Shutdown => None,
        }
    }
}

/// One request frame: a correlation id plus the body.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Echoed verbatim in the response.
    pub req_id: u64,
    /// The operation.
    pub body: RequestBody,
}

impl Request {
    /// Appends the encoded message to `out` (the frame payload).
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.req_id);
        match &self.body {
            RequestBody::Register {
                tenant,
                switches,
                budget,
                seed,
            } => {
                out.push(1);
                put_u64(out, *tenant);
                put_u32(out, *switches);
                put_u32(out, *budget);
                put_u64(out, *seed);
            }
            RequestBody::Evict { tenant } => {
                out.push(2);
                put_u64(out, *tenant);
            }
            RequestBody::Churn {
                tenant,
                seq,
                events,
            } => {
                out.push(3);
                put_u64(out, *tenant);
                put_u64(out, *seq);
                put_u32(out, events.len() as u32);
                for event in events {
                    encode_event(out, event);
                }
            }
            RequestBody::Solve { tenant } => {
                out.push(4);
                put_u64(out, *tenant);
            }
            RequestBody::Sweep { tenant, budgets } => {
                out.push(5);
                put_u64(out, *tenant);
                put_u16(out, budgets.len() as u16);
                for &k in budgets {
                    put_u32(out, k);
                }
            }
            RequestBody::Metrics => out.push(6),
            RequestBody::Shutdown => out.push(7),
        }
    }

    /// Decodes one frame payload.
    pub fn decode(payload: &[u8]) -> Result<Request, DecodeError> {
        let mut cur = Cursor::new(payload);
        let req_id = cur.u64()?;
        let body = match cur.u8()? {
            1 => RequestBody::Register {
                tenant: cur.u64()?,
                switches: cur.u32()?,
                budget: cur.u32()?,
                seed: cur.u64()?,
            },
            2 => RequestBody::Evict { tenant: cur.u64()? },
            3 => {
                let tenant = cur.u64()?;
                let seq = cur.u64()?;
                let declared = cur.u32()?;
                let count = cur.check_count(u64::from(declared), MIN_EVENT_BYTES)?;
                let mut events = Vec::with_capacity(count);
                for _ in 0..count {
                    events.push(decode_event(&mut cur)?);
                }
                RequestBody::Churn {
                    tenant,
                    seq,
                    events,
                }
            }
            4 => RequestBody::Solve { tenant: cur.u64()? },
            5 => {
                let tenant = cur.u64()?;
                let declared = cur.u16()?;
                let count = cur.check_count(u64::from(declared), 4)?;
                let mut budgets = Vec::with_capacity(count);
                for _ in 0..count {
                    budgets.push(cur.u32()?);
                }
                RequestBody::Sweep { tenant, budgets }
            }
            6 => RequestBody::Metrics,
            7 => RequestBody::Shutdown,
            t => return Err(DecodeError::UnknownTag(t)),
        };
        cur.finish()?;
        Ok(Request { req_id, body })
    }
}

/// Which admission-control bound shed an [`Overloaded`](ResponseBody::Overloaded)
/// request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedScope {
    /// The global request queue was full.
    GlobalQueue,
    /// The per-tenant in-flight cap was reached.
    TenantInflight,
}

/// Typed request-level failures (transport stays up; the offending request
/// simply failed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The named tenant is not resident.
    UnknownTenant,
    /// `Register` for an already-resident tenant, or a churn event re-using an
    /// active intra-instance tenant id.
    DuplicateTenant,
    /// A churn event targeted an invalid switch.
    BadSwitch,
    /// The server's resident-tenant or instance-size limits were exceeded.
    Capacity,
    /// The request was malformed or semantically invalid.
    BadRequest,
    /// The server is shutting down and takes no new work.
    ShuttingDown,
    /// The server failed internally (e.g. its write-ahead log could not be
    /// appended); the request had no effect.
    Internal,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::UnknownTenant => 1,
            ErrorCode::DuplicateTenant => 2,
            ErrorCode::BadSwitch => 3,
            ErrorCode::Capacity => 4,
            ErrorCode::BadRequest => 5,
            ErrorCode::ShuttingDown => 6,
            ErrorCode::Internal => 7,
        }
    }

    fn from_u8(v: u8) -> Result<Self, DecodeError> {
        Ok(match v {
            1 => ErrorCode::UnknownTenant,
            2 => ErrorCode::DuplicateTenant,
            3 => ErrorCode::BadSwitch,
            4 => ErrorCode::Capacity,
            5 => ErrorCode::BadRequest,
            6 => ErrorCode::ShuttingDown,
            7 => ErrorCode::Internal,
            t => return Err(DecodeError::UnknownTag(t)),
        })
    }
}

/// The solver-facing payload of a [`ResponseBody::Solved`] — the wire form of
/// a `SolveReport`, plus the workspace counters the metrics pipeline tracks.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOutcome {
    /// The solved tenant.
    pub tenant: u64,
    /// The optimal utilization complexity `X_r(1, i*)`.
    pub cost: f64,
    /// The all-red cost `X_r(1, 0)` of the same tables (the paper's
    /// normalization baseline).
    pub all_red_cost: f64,
    /// Blue switches used by the optimum.
    pub blue_used: u32,
    /// Cells of the DP tables the answer was read from
    /// ([`DpStats::table_cells`](soar_core::api::DpStats::table_cells)). Warm
    /// and cold solves of one state agree on it, so it is part of the
    /// bit-identity check against an offline replay; the cells a warm solve
    /// actually refilled are counted in
    /// [`ServeMetrics::cells_written`](crate::metrics::ServeMetrics::cells_written).
    pub cells_written: u64,
    /// Heap allocation events during the solve: 0 on warm tables and on a
    /// warm per-thread workspace, more on the solve that builds a tenant's
    /// warm tables.
    pub alloc_events: u64,
    /// Server-side wall time of the solve itself.
    pub wall_ns: u64,
}

/// What a response carries back.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// `Register` succeeded.
    Registered {
        /// The now-resident tenant.
        tenant: u64,
        /// Switch count of the built tree.
        n_switches: u32,
    },
    /// `Evict` succeeded.
    Evicted {
        /// The dropped tenant.
        tenant: u64,
    },
    /// A churn batch was applied (or recognized as an already-applied replay).
    ChurnApplied {
        /// The target tenant.
        tenant: u64,
        /// Events applied (the full batch unless an event failed; `0` for a
        /// deduplicated replay).
        applied: u32,
        /// `true` when the batch's sequence number was at or below the
        /// tenant's high-water mark: the batch had already been applied and
        /// was **not** re-applied. The replaying client counts it as
        /// delivered exactly once.
        duplicate: bool,
    },
    /// A solve completed.
    Solved(SolveOutcome),
    /// A budget sweep completed.
    SweepResult {
        /// The target tenant.
        tenant: u64,
        /// `(budget, optimal cost)` per requested budget.
        costs: Vec<(u32, f64)>,
    },
    /// The metrics snapshot, as the JSON encoding of
    /// [`MetricsSnapshot`](crate::metrics::MetricsSnapshot).
    MetricsReport {
        /// The snapshot JSON.
        json: String,
    },
    /// Graceful-shutdown acknowledgement.
    ShuttingDown,
    /// The request was shed by admission control. Retry later, ideally with
    /// backoff — the server is explicitly refusing to buffer it.
    Overloaded {
        /// Which bound shed it.
        scope: ShedScope,
    },
    /// The request failed.
    Error {
        /// The failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// One response frame: the echoed correlation id plus the body.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The `req_id` of the request this answers.
    pub req_id: u64,
    /// The payload.
    pub body: ResponseBody,
}

impl Response {
    /// Appends the encoded message to `out` (the frame payload).
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.req_id);
        match &self.body {
            ResponseBody::Registered { tenant, n_switches } => {
                out.push(1);
                put_u64(out, *tenant);
                put_u32(out, *n_switches);
            }
            ResponseBody::Evicted { tenant } => {
                out.push(2);
                put_u64(out, *tenant);
            }
            ResponseBody::ChurnApplied {
                tenant,
                applied,
                duplicate,
            } => {
                out.push(3);
                put_u64(out, *tenant);
                put_u32(out, *applied);
                out.push(u8::from(*duplicate));
            }
            ResponseBody::Solved(o) => {
                out.push(4);
                put_u64(out, o.tenant);
                put_f64(out, o.cost);
                put_f64(out, o.all_red_cost);
                put_u32(out, o.blue_used);
                put_u64(out, o.cells_written);
                put_u64(out, o.alloc_events);
                put_u64(out, o.wall_ns);
            }
            ResponseBody::SweepResult { tenant, costs } => {
                out.push(5);
                put_u64(out, *tenant);
                put_u16(out, costs.len() as u16);
                for &(k, cost) in costs {
                    put_u32(out, k);
                    put_f64(out, cost);
                }
            }
            ResponseBody::MetricsReport { json } => {
                out.push(6);
                put_string(out, json);
            }
            ResponseBody::ShuttingDown => out.push(7),
            ResponseBody::Overloaded { scope } => {
                out.push(8);
                out.push(match scope {
                    ShedScope::GlobalQueue => 0,
                    ShedScope::TenantInflight => 1,
                });
            }
            ResponseBody::Error { code, message } => {
                out.push(9);
                out.push(code.to_u8());
                put_string(out, message);
            }
        }
    }

    /// Decodes one frame payload.
    pub fn decode(payload: &[u8]) -> Result<Response, DecodeError> {
        let mut cur = Cursor::new(payload);
        let req_id = cur.u64()?;
        let body = match cur.u8()? {
            1 => ResponseBody::Registered {
                tenant: cur.u64()?,
                n_switches: cur.u32()?,
            },
            2 => ResponseBody::Evicted { tenant: cur.u64()? },
            3 => ResponseBody::ChurnApplied {
                tenant: cur.u64()?,
                applied: cur.u32()?,
                duplicate: match cur.u8()? {
                    0 => false,
                    1 => true,
                    t => return Err(DecodeError::UnknownTag(t)),
                },
            },
            4 => ResponseBody::Solved(SolveOutcome {
                tenant: cur.u64()?,
                cost: cur.f64()?,
                all_red_cost: cur.f64()?,
                blue_used: cur.u32()?,
                cells_written: cur.u64()?,
                alloc_events: cur.u64()?,
                wall_ns: cur.u64()?,
            }),
            5 => {
                let tenant = cur.u64()?;
                let declared = cur.u16()?;
                let count = cur.check_count(u64::from(declared), 12)?;
                let mut costs = Vec::with_capacity(count);
                for _ in 0..count {
                    costs.push((cur.u32()?, cur.f64()?));
                }
                ResponseBody::SweepResult { tenant, costs }
            }
            6 => ResponseBody::MetricsReport {
                json: cur.string()?,
            },
            7 => ResponseBody::ShuttingDown,
            8 => ResponseBody::Overloaded {
                scope: match cur.u8()? {
                    0 => ShedScope::GlobalQueue,
                    1 => ShedScope::TenantInflight,
                    t => return Err(DecodeError::UnknownTag(t)),
                },
            },
            9 => ResponseBody::Error {
                code: ErrorCode::from_u8(cur.u8()?)?,
                message: cur.string()?,
            },
            t => return Err(DecodeError::UnknownTag(t)),
        };
        cur.finish()?;
        Ok(Response { req_id, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let mut buf = Vec::new();
        req.encode(&mut buf);
        assert_eq!(Request::decode(&buf).unwrap(), req);
        // Every strict prefix is Truncated or a length error, never a panic.
        for cut in 0..buf.len() {
            assert!(Request::decode(&buf[..cut]).is_err(), "prefix {cut}");
        }
    }

    fn round_trip_response(resp: Response) {
        let mut buf = Vec::new();
        resp.encode(&mut buf);
        assert_eq!(Response::decode(&buf).unwrap(), resp);
        for cut in 0..buf.len() {
            assert!(Response::decode(&buf[..cut]).is_err(), "prefix {cut}");
        }
    }

    #[test]
    fn requests_round_trip_and_reject_truncation() {
        round_trip_request(Request {
            req_id: 1,
            body: RequestBody::Register {
                tenant: 9,
                switches: 4096,
                budget: 16,
                seed: 77,
            },
        });
        round_trip_request(Request {
            req_id: u64::MAX,
            body: RequestBody::Churn {
                tenant: 3,
                seq: 17,
                events: vec![
                    ChurnEvent::LeafRateChange { leaf: 12, load: 99 },
                    ChurnEvent::TenantArrive {
                        tenant: 40,
                        loads: vec![(1, 2), (5, 6)],
                    },
                    ChurnEvent::TenantDepart { tenant: 40 },
                    ChurnEvent::BudgetChange { budget: 8 },
                    ChurnEvent::SwitchAvailability {
                        switch: 5,
                        available: false,
                    },
                    ChurnEvent::SwitchAvailability {
                        switch: 5,
                        available: true,
                    },
                    ChurnEvent::LinkRateChange {
                        switch: 2,
                        rate: 0.5,
                    },
                ],
            },
        });
        round_trip_request(Request {
            req_id: 0,
            body: RequestBody::Sweep {
                tenant: 5,
                budgets: vec![1, 2, 4, 8],
            },
        });
        round_trip_request(Request {
            req_id: 2,
            body: RequestBody::Metrics,
        });
        round_trip_request(Request {
            req_id: 3,
            body: RequestBody::Shutdown,
        });
    }

    #[test]
    fn responses_round_trip_and_reject_truncation() {
        round_trip_response(Response {
            req_id: 8,
            body: ResponseBody::Solved(SolveOutcome {
                tenant: 2,
                cost: 123.5,
                all_red_cost: 200.0,
                blue_used: 16,
                cells_written: 1 << 20,
                alloc_events: 0,
                wall_ns: 11_000_000,
            }),
        });
        round_trip_response(Response {
            req_id: 13,
            body: ResponseBody::ChurnApplied {
                tenant: 2,
                applied: 0,
                duplicate: true,
            },
        });
        round_trip_response(Response {
            req_id: 9,
            body: ResponseBody::SweepResult {
                tenant: 2,
                costs: vec![(1, 9.0), (2, 7.5)],
            },
        });
        round_trip_response(Response {
            req_id: 10,
            body: ResponseBody::Error {
                code: ErrorCode::UnknownTenant,
                message: "tenant 2 is not resident".into(),
            },
        });
        round_trip_response(Response {
            req_id: 11,
            body: ResponseBody::Overloaded {
                scope: ShedScope::GlobalQueue,
            },
        });
        round_trip_response(Response {
            req_id: 12,
            body: ResponseBody::MetricsReport {
                json: "{\"requests\":4}".into(),
            },
        });
    }

    #[test]
    fn hostile_lengths_are_rejected_before_allocation() {
        // A churn batch declaring 2^32-1 events in a 20-byte payload.
        let mut buf = Vec::new();
        put_u64(&mut buf, 1); // req_id
        buf.push(3); // Churn
        put_u64(&mut buf, 7); // tenant
        put_u64(&mut buf, 1); // seq
        put_u32(&mut buf, u32::MAX); // declared event count
        match Request::decode(&buf) {
            Err(DecodeError::BadLength(n)) => assert_eq!(n, u64::from(u32::MAX)),
            other => panic!("{other:?}"),
        }

        // A SwitchAvailability event with a flag byte that is neither 0 nor 1.
        let mut buf = Vec::new();
        put_u64(&mut buf, 2); // req_id
        buf.push(3); // Churn
        put_u64(&mut buf, 7); // tenant
        put_u64(&mut buf, 2); // seq
        put_u32(&mut buf, 1); // one event
        buf.push(4); // SwitchAvailability
        put_u32(&mut buf, 0); // switch
        buf.push(2); // bad flag
        buf.extend_from_slice(&[0u8; 8]); // padding past check_count
        assert_eq!(Request::decode(&buf), Err(DecodeError::UnknownTag(2)));

        // Trailing garbage after a valid message is rejected.
        let mut buf = Vec::new();
        Request {
            req_id: 4,
            body: RequestBody::Metrics,
        }
        .encode(&mut buf);
        buf.push(0xAB);
        assert!(matches!(
            Request::decode(&buf),
            Err(DecodeError::BadLength(1))
        ));

        // Unknown tags are typed errors.
        let mut buf = Vec::new();
        put_u64(&mut buf, 5);
        buf.push(0xEE);
        assert_eq!(Request::decode(&buf), Err(DecodeError::UnknownTag(0xEE)));
    }
}
