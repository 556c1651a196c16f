//! The three benchmark workloads: netperf `TCP_STREAM` points driven
//! through netsim's public `tcp_stream_{rx,tx}_on` entry points, one
//! `SimStack` per engine.

use crate::calib::Kernel;
use netsim::{EngineKind, ExpConfig};

/// Which stream direction a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// `tcp_stream_rx_on`: the machine receives MTU frames.
    Rx,
    /// `tcp_stream_tx_on`: the machine transmits TSO buffers.
    Tx,
}

/// One workload: a fixed experiment configuration run once per engine.
#[derive(Debug)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Stream direction.
    pub dir: Direction,
    /// One point (one `SimStack`) per engine, in this order.
    pub engines: &'static [EngineKind],
    /// Simulated cores.
    pub cores: usize,
    /// netperf message size in bytes.
    pub msg_size: usize,
    /// Measured items per core; warm-up adds a tenth on top.
    pub items_per_core: u64,
    /// Wire rate in Gb/s.
    pub wire_gbps: f64,
    /// Per-core allocation state (`ExpConfig::percore`).
    pub percore: bool,
    /// The calibration kernel host times are divided by.
    pub calibration: Kernel,
}

/// Engines of the 64-core per-core point: the designs whose map/unmap
/// paths take the sharded structures (as in the `scaling` sweep).
const PERCORE_ENGINES: [EngineKind; 4] = [
    EngineKind::Copy,
    EngineKind::IdentityMinus,
    EngineKind::IdentityPlus,
    EngineKind::LinuxStrict,
];

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    // Fig. 1: MTU receive at 16 cores, all eight Table 1 engines, global
    // allocation state. Per-packet map/unmap of small buffers dominates.
    Workload {
        name: "rx_mtu_16c",
        dir: Direction::Rx,
        engines: &EngineKind::ALL,
        cores: 16,
        msg_size: 1500,
        items_per_core: 2_500,
        wire_gbps: 40.0,
        percore: false,
        calibration: Kernel::Alloc,
    },
    // Figs. 4/5: 64 KB TSO transmit on one core. Byte paths dominate.
    Workload {
        name: "tx_tso_1c",
        dir: Direction::Tx,
        engines: &EngineKind::FIGURE_SET,
        cores: 1,
        msg_size: 64 * 1024,
        items_per_core: 1_000,
        wire_gbps: 40.0,
        percore: false,
        calibration: Kernel::Arena,
    },
    // Per-core magazines, IOVA magazines and batched invalidation rings at
    // 4x the figure population; the wire scales 40 Gb/s per 16 cores.
    Workload {
        name: "rx_percore_64c",
        dir: Direction::Rx,
        engines: &PERCORE_ENGINES,
        cores: 64,
        msg_size: 64 * 1024,
        items_per_core: 250,
        wire_gbps: 160.0,
        percore: true,
        calibration: Kernel::Alloc,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The experiment configuration of every point, seeded from `seed`.
    /// Payload verification stays on.
    pub fn cfg(&self, seed: u64) -> ExpConfig {
        ExpConfig {
            cores: self.cores,
            msg_size: self.msg_size,
            items_per_core: self.items_per_core,
            warmup_per_core: self.items_per_core / 10,
            wire_gbps: self.wire_gbps,
            seed,
            verify_data: true,
            percore: self.percore,
            ..ExpConfig::default()
        }
    }

    /// Simulated items (warm-up included) one point processes.
    pub fn items_per_point(&self) -> u64 {
        self.cores as u64 * (self.items_per_core + self.items_per_core / 10)
    }
}
