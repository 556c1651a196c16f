//! Host-speed calibration.
//!
//! The benchmark runs on shared machines whose speed drifts by tens of
//! percent over minutes as other tenants contend for caches and memory
//! (the core clock itself stays put). Each point's host time is therefore
//! divided by the time of a fixed calibration kernel sampled right before
//! and right after it, and reported in *calibrated seconds*: one
//! calibrated second is the time the host needs for `1e9 / REF_NS`
//! repetitions of the kernel. The kernels are owned by the benchmark, so
//! a change to the repository's code moves the simulator's time but not
//! the calibration.
//!
//! Two kernels, because the workloads load the machine differently: the
//! receive paths are allocation-heavy control code (small heap objects,
//! ordered maps, short copies), the TSO transmit path is cache-resident
//! byte and pointer work. Each workload names the kernel whose timing
//! tracks its own under interference.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// A calibration kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Ordered-map inserts and removals of small heap-allocated values.
    Alloc,
    /// Inserts and lookups in an unbalanced search tree kept in a
    /// preallocated arena: no allocation, cache-resident pointer chasing.
    Arena,
}

impl Kernel {
    /// The kernel's nominal time: a calibrated second is `1e9 / REF_NS`
    /// kernel runs. Chosen so calibrated and wall-clock seconds roughly
    /// agree on a quiet 2-vCPU Xeon VM.
    pub fn ref_ns(self) -> f64 {
        match self {
            Kernel::Alloc => 600_000.0,
            Kernel::Arena => 1_150_000.0,
        }
    }

    /// The kernel's name in reports.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Alloc => "alloc",
            Kernel::Arena => "arena",
        }
    }
}

const ARENA_NODES: usize = 1 << 14;

/// Runs one kernel and reports its host time.
#[derive(Debug)]
pub struct Calibrator {
    kernel: Kernel,
    /// Search-tree nodes `[key, left, right, value]`; index 0 is nil.
    arena: Vec<[u64; 4]>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Calibrator {
    /// A calibrator for `kernel`.
    pub fn new(kernel: Kernel) -> Self {
        let arena = match kernel {
            Kernel::Alloc => Vec::new(),
            Kernel::Arena => vec![[0; 4]; ARENA_NODES],
        };
        Calibrator { kernel, arena }
    }

    /// Host ns of one kernel run.
    pub fn sample(&mut self) -> u64 {
        let t = Instant::now();
        let r = match self.kernel {
            Kernel::Alloc => alloc_kernel(),
            Kernel::Arena => arena_kernel(&mut self.arena),
        };
        black_box(r);
        t.elapsed().as_nanos() as u64
    }
}

#[inline(never)]
fn alloc_kernel() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut m = BTreeMap::new();
    for k in 0..4_000u64 {
        m.insert(xorshift(&mut x) & 0xffff, vec![k; 8]);
        if k % 2 == 0 {
            m.remove(&((x >> 8) & 0xffff));
        }
    }
    m.len() as u64
}

#[inline(never)]
fn arena_kernel(nodes: &mut [[u64; 4]]) -> u64 {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut root = 0;
    let mut acc = 0;
    for (k, n) in (0..6_000u64).zip(1..) {
        let key = xorshift(&mut x) & 0xffff;
        nodes[n] = [key, 0, 0, k];
        if root == 0 {
            root = n;
        } else {
            let mut cur = root;
            loop {
                let side = if key < nodes[cur][0] { 1 } else { 2 };
                match nodes[cur][side] as usize {
                    0 => {
                        nodes[cur][side] = n as u64;
                        break;
                    }
                    next => cur = next,
                }
            }
        }
        let probe = (x >> 16) & 0xffff;
        let mut cur = root;
        while cur != 0 {
            let nd = nodes[cur];
            if nd[0] == probe {
                acc += nd[3];
                break;
            }
            cur = if probe < nd[0] { nd[1] } else { nd[2] } as usize;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_run_and_repeat_their_work() {
        for k in [Kernel::Alloc, Kernel::Arena] {
            let mut c = Calibrator::new(k);
            assert!(c.sample() > 0);
            assert!(c.sample() > 0, "{} reusable", k.name());
        }
        let mut a = vec![[0; 4]; ARENA_NODES];
        let first = arena_kernel(&mut a);
        assert_eq!(arena_kernel(&mut a), first, "the arena is rebuilt each run");
        assert_eq!(alloc_kernel(), alloc_kernel());
    }
}
