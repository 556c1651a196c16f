//! # memsim — simulated physical memory
//!
//! A paged physical address space with *real backing bytes*, so that every
//! DMA and every shadow-buffer copy in the workspace moves actual data and
//! correctness can be observed rather than asserted.
//!
//! The crate provides:
//!
//! - [`PhysMemory`] — the machine's RAM: lazily backed 4 KB frames, a
//!   per-NUMA-domain frame allocator (including contiguous multi-frame
//!   allocation for 64 KB shadow buffers), and byte-level read/write/copy,
//!   plus `visit`, which streams bytes to a callback without copying them.
//! - [`NumaTopology`] — the paper's dual-socket layout: cores 0–7 on
//!   domain 0, cores 8–15 on domain 1 (configurable).
//! - [`Kmalloc`] — a slab allocator in the spirit of the kernel's
//!   `kmalloc` \[13\]: it satisfies multiple small allocations from the same
//!   page. This co-location is precisely what makes page-granularity IOMMU
//!   protection unsafe (§4 "No sub-page protection") and is exercised by
//!   the `attacks` crate.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod kmalloc;
mod numa;
mod phys;

pub use addr::{Pfn, PhysAddr, PAGE_SHIFT, PAGE_SIZE};
pub use kmalloc::{Kmalloc, KmallocStats};
pub use numa::{NumaDomain, NumaTopology};
pub use phys::{MemError, MemStats, PhysMemory};
