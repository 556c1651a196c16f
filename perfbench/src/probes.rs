//! Isolated probes: layers whose calls cannot be reached from outside a
//! running stack are timed through their public functions, in host ns per
//! operation (median of [`REPS`] repetitions).
//!
//! The pool, IOTLB and profiler-scope probes run the host-time harness's
//! own loops (`bench::host::workloads`) and divide by their iteration
//! counts; the others use the same shapes on the layers that harness does
//! not cover.

use crate::run::Metric;
use crate::stats::median;
use dma_api::{DmaBuf, DmaDirection, DmaEngine, DmaObserver, NoIommu, TracedDma};
use dmasan::DmaSan;
use iommu::{DeviceId, IoPageTable, IovaPage, Perms};
use memsim::{Kmalloc, NumaDomain, NumaTopology, Pfn, PhysMemory};
use simcore::{CoreCtx, CoreId, CoreTask, CostModel, Cycles, MultiCoreSim, Phase, StepOutcome};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Repetitions per probe; the median is reported.
pub const REPS: usize = 5;

/// Iterations of the harness loops reused here (`crates/bench/src/host.rs`).
const HOST_POOL_PAIRS: u64 = 200_000;
const HOST_IOTLB_LOOKUPS: u64 = 2_000_000;
/// `micro_obs`: 200k task roots, each with three nested scopes.
const HOST_OBS_SCOPES: u64 = 200_000 * 4;

const D0: NumaDomain = NumaDomain(0);
const DEV: DeviceId = DeviceId(0);

fn ns_per_op(ops: u64, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&v)
}

fn host_loop(name: &str) -> fn() {
    bench::host::workloads()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, f)| f)
        .unwrap_or_else(|| panic!("host harness has no `{name}` loop"))
}

fn zero_ctx() -> CoreCtx {
    let mut c = CoreCtx::new(CoreId(0), Arc::new(CostModel::zero()));
    c.seek(Cycles(1));
    c
}

/// Scheduler-only churn as in the harness's `micro_sched`, one population
/// at a time: host ns per task step.
fn sched_step_ns(cores: usize, steps_per_core: u64) -> f64 {
    ns_per_op(cores as u64 * steps_per_core, || {
        let mut sim = MultiCoreSim::new(Arc::new(CostModel::zero()), cores);
        let mut tasks: Vec<Box<dyn CoreTask>> = (0..cores)
            .map(|i| {
                let mut remaining = steps_per_core;
                let mut seed = 0x9e37_79b9_7f4a_7c15u64 ^ ((i as u64) << 32);
                Box::new(move |ctx: &mut CoreCtx| {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    ctx.charge(Phase::Other, Cycles(1 + (seed % 700)));
                    remaining -= 1;
                    if remaining == 0 {
                        StepOutcome::Done
                    } else {
                        StepOutcome::Continue
                    }
                }) as Box<dyn CoreTask>
            })
            .collect();
        black_box(sim.run(&mut tasks, Cycles::MAX));
    })
}

/// `PhysMemory::copy` of one 64 KB TSO buffer between two frame runs.
fn copy_64k_ns() -> f64 {
    const N: u64 = 2_000;
    let mem = PhysMemory::new(NumaTopology::dual_socket_haswell());
    let src = mem.alloc_frames(D0, 16).expect("frames").base();
    let dst = mem.alloc_frames(D0, 16).expect("frames").base();
    let data: Vec<u8> = (0..64 * 1024u32).map(|i| (i * 7) as u8).collect();
    mem.write(src, &data).expect("write");
    ns_per_op(N, || {
        for _ in 0..N {
            mem.copy(src, dst, data.len()).expect("copy");
        }
    })
}

/// A `Kmalloc` alloc/free pair of one MTU skb (netsim's RX skb size).
fn kmalloc_ns() -> f64 {
    const N: u64 = 200_000;
    let km = Kmalloc::new(Arc::new(PhysMemory::new(
        NumaTopology::dual_socket_haswell(),
    )));
    ns_per_op(N, || {
        for _ in 0..N {
            let p = km
                .alloc(devices::MTU + netsim::SKB_OVERHEAD, D0)
                .expect("kmalloc");
            km.free(p).expect("kfree");
        }
    })
}

/// `IoPageTable` map + unmap of a fresh page next to 512 live ones, the
/// map/unmap line of the harness's `micro_pagetable`.
fn pt_map_unmap_ns() -> f64 {
    const N: u64 = 200_000;
    let mut pt = IoPageTable::new();
    for i in 0..512u64 {
        pt.map(IovaPage(i << 12), Pfn(i), Perms::ReadWrite)
            .expect("map");
    }
    ns_per_op(N, || {
        for i in 0..N {
            let p = IovaPage(0x9_0000_0000 + i);
            pt.map(p, Pfn(1), Perms::Read).expect("map");
            pt.unmap(p).expect("unmap");
        }
    })
}

/// `DmaSan::verdict` for device accesses inside 64 live streaming
/// mappings (the bus observer's per-access question).
fn verdict_ns() -> f64 {
    const N: u64 = 1_000_000;
    let mem = Arc::new(PhysMemory::new(NumaTopology::dual_socket_haswell()));
    let obs = obs::Obs::isolated();
    let san = Arc::new(DmaSan::lenient(obs.clone()));
    let eng = TracedDma::with_observer(
        NoIommu::new(mem.clone(), DEV),
        obs,
        san.clone() as Arc<dyn DmaObserver>,
    );
    let mut ctx = zero_ctx();
    let maps: Vec<_> = (0..64)
        .map(|_| {
            let pa = mem.alloc_frame(D0).expect("frame").base();
            eng.map(&mut ctx, DmaBuf::new(pa, 1500), DmaDirection::FromDevice)
                .expect("map")
        })
        .collect();
    let addrs: Vec<u64> = maps.iter().map(|m| m.iova.get()).collect();
    let ns = ns_per_op(N, || {
        let mut permitted = 0u64;
        for i in 0..N as usize {
            let a = addrs[i & 63] + (i as u64 & 1023);
            if san.verdict(DEV, a, 64, true) == dmasan::AccessVerdict::Permitted {
                permitted += 1;
            }
        }
        black_box(permitted);
    });
    for m in maps {
        eng.unmap(&mut ctx, m).expect("unmap");
    }
    ns
}

/// Every probe, as per-layer metrics.
pub fn run_all() -> Vec<Metric> {
    let m = |name, value| Metric {
        name,
        value,
        unit: "ns",
    };
    vec![
        m("simcore.probe.sched_step_ns_16c", sched_step_ns(16, 20_000)),
        m(
            "simcore.probe.sched_step_ns_256c",
            sched_step_ns(256, 1_250),
        ),
        m("memsim.probe.copy_64k_ns", copy_64k_ns()),
        m("memsim.probe.kmalloc_ns", kmalloc_ns()),
        m(
            "iommu.probe.iotlb_lookup_ns",
            ns_per_op(HOST_IOTLB_LOOKUPS, host_loop("micro_iotlb")),
        ),
        m("iommu.probe.pt_map_unmap_ns", pt_map_unmap_ns()),
        m(
            "shadow-core.probe.acquire_release_ns",
            ns_per_op(HOST_POOL_PAIRS, host_loop("micro_pool")),
        ),
        m("dmasan.probe.verdict_ns", verdict_ns()),
        m(
            "obs.probe.scope_ns",
            ns_per_op(HOST_OBS_SCOPES, host_loop("micro_obs")),
        ),
    ]
}
