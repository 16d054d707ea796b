//! # cc-perfbench — the repository benchmark
//!
//! Drives `cc_service::FlowEngine` from one closed-loop client over three
//! seeded workloads (`laplacian_stream`, `graph_churn`, `flow_ipm`),
//! checks every answer against the `cc-conform` oracles, and reports the
//! end-to-end metrics (tracing off) or, in a traced run, the per-layer
//! metrics. See `README.md` next to this package for what each metric
//! and workload is for.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod run;
pub mod trace;
pub mod workload;
