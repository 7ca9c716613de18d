//! # soar-serve
//!
//! The long-running SOAR service: a daemon that keeps thousands of tenants'
//! [`DynamicInstance`](soar_online::DynamicInstance)s resident, applies churn
//! and re-solves them incrementally on per-tenant warm tables (or on
//! persistent per-thread [`SolverWorkspace`](soar_core::SolverWorkspace)s
//! when the warm budget is full), and speaks a compact
//! length-prefixed binary protocol over TCP. This is the "serving" leg of the
//! reproduction: SOAR's setting (Segal/Avin/Scalosub, CoNEXT 2021) is
//! explicitly dynamic, and a service under load needs the
//! backpressure/admission-control discipline of streaming in-network
//! computation — the server **sheds** with explicit
//! [`Overloaded`](protocol::ResponseBody::Overloaded) responses instead of
//! buffering without bound.
//!
//! The pieces:
//!
//! * [`protocol`] — request/response messages (register/evict tenants, churn
//!   batches, solves, budget sweeps, metrics, shutdown), framed by
//!   [`soar_dataplane::framing`];
//! * [`server`] — the daemon: per-connection readers, a bounded global queue,
//!   and a dispatcher batching same-epoch requests across tenants onto
//!   [`soar_pool`]; plus the blocking [`Client`];
//! * [`metrics`] — lock-free counters and latency histograms, snapshotted
//!   into the JSON that `soar-loadtest` turns into a `BENCH_serve.json`
//!   artifact for `soar history check`;
//! * `warm` (crate-private) — per-tenant warm DP tables under one memory budget, so a
//!   solve refills only the tables churn dirtied;
//! * [`wal`] — crash-safe tenant state: a CRC-checked write-ahead log of
//!   accepted registers/evicts/churn batches plus periodic snapshots, so
//!   `soar serve --state-dir DIR --recover` resumes with solves bit-identical
//!   to an uninterrupted run.
//!
//! Start one in-process (tests, benches) or via `soar serve` (CLI):
//!
//! ```
//! use soar_serve::protocol::{Request, RequestBody, ResponseBody};
//! use soar_serve::server::{start, Client, ServeConfig};
//!
//! let handle = start(ServeConfig::default()).unwrap();
//! let mut client = Client::connect(&handle.addr()).unwrap();
//! let resp = client
//!     .call(&Request {
//!         req_id: 1,
//!         body: RequestBody::Register { tenant: 0, switches: 64, budget: 4, seed: 1 },
//!     })
//!     .unwrap();
//! assert_eq!(resp.body, ResponseBody::Registered { tenant: 0, n_switches: 63 });
//! client.call(&Request { req_id: 2, body: RequestBody::Shutdown }).unwrap();
//! handle.join();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod protocol;
pub mod server;
pub mod wal;
pub(crate) mod warm;

pub use metrics::{LatencySummary, MetricsSnapshot, ServeMetrics};
pub use protocol::{Request, RequestBody, Response, ResponseBody};
pub use server::{start, Client, ServeConfig, ServerHandle};
