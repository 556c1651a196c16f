//! # perfbench — the repository benchmark
//!
//! Runs three netperf `TCP_STREAM` workloads through netsim's public
//! `tcp_stream_{rx,tx}_on` entry points, one `SimStack` per engine, and
//! reports two clocks: how fast the modelled machine is (simulated
//! goodput and cycles, which must not move under a host-speed change) and
//! how fast the simulator produces it (host items per second, set-up
//! time, peak memory). A traced run swaps each stack's engine for a
//! timing wrapper ([`timed::TimedEngine`]) and adds per-layer metrics.
//! See `README.md` for the workloads, metrics and the layer → end-to-end
//! predictions.

pub mod calib;
pub mod point;
pub mod probes;
pub mod run;
pub mod stats;
pub mod timed;
pub mod workload;
