//! The stock-Linux engines (*strict* / *defer*): global-lock IOVA tree
//! allocation plus per-unmap (strict) or globally batched (deferred)
//! IOTLB invalidation — the baselines of the paper's Figure 1.

// lint: allow(panic) — IOVA-tree invariants are engine bugs, not runtime errors

use crate::flush::PendingUnmap;
use crate::{
    CoherentBuffer, CoherentHelper, DeferPolicy, DeferredFlusher, DmaBuf, DmaDirection, DmaEngine,
    DmaError, DmaMapping, FlushScope, GlobalCachedIovaAllocator, GlobalTreeIovaAllocator,
    IovaAllocator, PerCoreIovaAllocator, ProtectionProfile, Strictness,
};
use iommu::{DeviceId, Iommu, IovaPage};
use memsim::PhysMemory;
use simcore::sync::Mutex;
use simcore::CoreCtx;
use simcore::FxHashMap;
use std::sync::Arc;

#[derive(Debug, Clone, Copy)]
struct LiveMapping {
    first_page: IovaPage,
    pages: u64,
}

/// The stock Linux intel-iommu DMA path.
///
/// `dma_map` allocates an IOVA range from the global interval tree (under
/// its lock — the FAST'15 bottleneck) and installs per-page mappings with
/// the requested direction's permissions. `dma_unmap` removes the mappings
/// and then either synchronously invalidates (strict) or appends to the
/// global deferred-flush list (deferred, 250 entries / 10 ms), whose lock
/// is the remaining multi-core bottleneck \[42\].
pub struct LinuxDma {
    mmu: Arc<Iommu>,
    dev: DeviceId,
    strictness: Strictness,
    name: &'static str,
    allocator: Box<dyn IovaAllocator + Send + Sync>,
    live: Mutex<FxHashMap<u64, LiveMapping>>,
    flusher: Option<DeferredFlusher>,
    coherent: CoherentHelper,
}

impl std::fmt::Debug for LinuxDma {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinuxDma")
            .field("name", &self.name)
            .field("dev", &self.dev)
            .field("strictness", &self.strictness)
            .finish()
    }
}

impl LinuxDma {
    /// Creates the strict variant.
    pub fn strict(mem: Arc<PhysMemory>, mmu: Arc<Iommu>, dev: DeviceId) -> Self {
        Self::new(mem, mmu, dev, Strictness::Strict)
    }

    /// Creates the deferred variant (global batching list).
    pub fn deferred(mem: Arc<PhysMemory>, mmu: Arc<Iommu>, dev: DeviceId) -> Self {
        Self::new(mem, mmu, dev, Strictness::Deferred)
    }

    /// Creates EiovaR's strict variant (FAST'15 \[38\]): stock Linux plus a
    /// free-range cache in front of the IOVA tree. Strict protection at
    /// page granularity; the single allocator lock still limits scaling.
    pub fn eiovar_strict(mem: Arc<PhysMemory>, mmu: Arc<Iommu>, dev: DeviceId) -> Self {
        let mut e = Self::new(mem, mmu, dev, Strictness::Strict);
        e.allocator = Box::new(GlobalCachedIovaAllocator::with_obs(e.mmu.obs().clone()));
        e.name = "eiovar+";
        e
    }

    /// Creates EiovaR's deferred variant (FAST'15 \[38\]).
    pub fn eiovar_deferred(mem: Arc<PhysMemory>, mmu: Arc<Iommu>, dev: DeviceId) -> Self {
        let mut e = Self::new(mem, mmu, dev, Strictness::Deferred);
        e.allocator = Box::new(GlobalCachedIovaAllocator::with_obs(e.mmu.obs().clone()));
        e.name = "eiovar-";
        e
    }

    /// Creates the strict engine with the magazine-backed per-core IOVA
    /// allocator \[42\] in place of the global tree. The engine name is
    /// unchanged — only the allocator's lock behavior differs, so scaling
    /// curves compare like for like.
    pub fn percore_strict(
        mem: Arc<PhysMemory>,
        mmu: Arc<Iommu>,
        dev: DeviceId,
        cores: usize,
    ) -> Self {
        let mut e = Self::new(mem, mmu, dev, Strictness::Strict);
        e.allocator = Box::new(PerCoreIovaAllocator::with_obs(cores, e.mmu.obs().clone()));
        e
    }

    /// Creates the deferred engine with the per-core IOVA allocator.
    pub fn percore_deferred(
        mem: Arc<PhysMemory>,
        mmu: Arc<Iommu>,
        dev: DeviceId,
        cores: usize,
    ) -> Self {
        let mut e = Self::new(mem, mmu, dev, Strictness::Deferred);
        e.allocator = Box::new(PerCoreIovaAllocator::with_obs(cores, e.mmu.obs().clone()));
        e
    }

    fn new(mem: Arc<PhysMemory>, mmu: Arc<Iommu>, dev: DeviceId, strictness: Strictness) -> Self {
        let flusher = match strictness {
            Strictness::Strict => None,
            Strictness::Deferred => Some(DeferredFlusher::with_obs(
                DeferPolicy::linux_default(),
                FlushScope::Global,
                1,
                mmu.obs().clone(),
            )),
        };
        let allocator = Box::new(GlobalTreeIovaAllocator::with_obs(mmu.obs().clone()));
        LinuxDma {
            coherent: CoherentHelper::new(mem, mmu.clone(), dev),
            mmu,
            dev,
            strictness,
            name: match strictness {
                Strictness::Strict => "strict",
                Strictness::Deferred => "defer",
            },
            allocator,
            live: Mutex::new(FxHashMap::default()),
            flusher,
        }
    }

    /// The strictness this instance was built with.
    pub fn strictness(&self) -> Strictness {
        self.strictness
    }

    /// The IOVA allocator (for lock-contention stats).
    pub fn allocator(&self) -> &dyn IovaAllocator {
        self.allocator.as_ref()
    }

    /// The deferred flusher, if deferred.
    pub fn flusher(&self) -> Option<&DeferredFlusher> {
        self.flusher.as_ref()
    }

    fn drain(&self, ctx: &mut CoreCtx, batch: &[PendingUnmap]) {
        self.mmu.flush_device_sync(ctx, self.dev);
        // IOVAs become reusable only after the flush.
        for e in batch {
            self.allocator.free(ctx, e.page, e.pages);
        }
    }
}

impl DmaEngine for LinuxDma {
    fn name(&self) -> &'static str {
        self.name
    }

    fn device(&self) -> DeviceId {
        self.dev
    }

    fn profile(&self) -> ProtectionProfile {
        ProtectionProfile {
            name: self.name,
            uses_iommu: true,
            sub_page: false,
            // A batching IOMMU parks even a strict unmap's invalidation
            // in the core's pending ring: a bounded §2.2.1 window.
            no_vulnerability_window: self.strictness == Strictness::Strict
                && !self.mmu.invalq().batching(),
        }
    }

    fn map(
        &self,
        ctx: &mut CoreCtx,
        buf: DmaBuf,
        dir: DmaDirection,
    ) -> Result<DmaMapping, DmaError> {
        let pages = buf.pages();
        let first = self.allocator.alloc(ctx, pages)?;
        self.mmu
            .map_range(ctx, self.dev, first, buf.pa.pfn(), pages, dir.perms())?;
        let iova = first.base().add(buf.pa.page_offset() as u64);
        self.live.lock().insert(
            iova.get(),
            LiveMapping {
                first_page: first,
                pages,
            },
        );
        Ok(DmaMapping {
            iova,
            len: buf.len,
            dir,
            os_pa: buf.pa,
        })
    }

    fn unmap(&self, ctx: &mut CoreCtx, mapping: DmaMapping) -> Result<(), DmaError> {
        let live = self
            .live
            .lock()
            .remove(&mapping.iova.get())
            .ok_or(DmaError::BadUnmap(mapping.iova))?;
        let pages: Vec<IovaPage> = (0..live.pages).map(|i| live.first_page.add(i)).collect();
        for &p in &pages {
            self.mmu.unmap_page_nosync(ctx, self.dev, p)?;
        }
        match self.strictness {
            Strictness::Strict => {
                self.mmu.invalidate_pages_sync(ctx, self.dev, &pages);
                self.allocator.free(ctx, live.first_page, live.pages);
            }
            Strictness::Deferred => {
                let flusher = self.flusher.as_ref().expect("deferred mode has a flusher");
                flusher.defer(
                    ctx,
                    PendingUnmap {
                        page: live.first_page,
                        pages: live.pages,
                    },
                    |ctx, batch| self.drain(ctx, batch),
                );
            }
        }
        Ok(())
    }

    fn alloc_coherent(&self, ctx: &mut CoreCtx, len: usize) -> Result<CoherentBuffer, DmaError> {
        self.coherent
            .alloc(ctx, len, |ctx, pages, _| self.allocator.alloc(ctx, pages))
    }

    fn free_coherent(&self, ctx: &mut CoreCtx, buf: CoherentBuffer) -> Result<(), DmaError> {
        self.coherent.free(ctx, buf, |ctx, first, pages| {
            self.allocator.free(ctx, first, pages)
        })
    }

    fn flush_deferred(&self, ctx: &mut CoreCtx) {
        if let Some(flusher) = &self.flusher {
            flusher.force_flush(ctx, |ctx, batch| self.drain(ctx, batch));
        }
        // Magazine-backed allocators park freed ranges per core; return
        // them so teardown leaves nothing checked out of the shared pool.
        self.allocator.drain(ctx);
    }

    fn iova_lock_stats(&self) -> Option<(&'static str, simcore::LockStats)> {
        self.allocator.lock_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bus;
    use iommu::Iova;
    use memsim::{NumaDomain, NumaTopology};
    use simcore::{CoreId, CostModel, Phase};

    const DEV: DeviceId = DeviceId(0);

    struct Rig {
        mem: Arc<PhysMemory>,
        mmu: Arc<Iommu>,
        bus: Bus,
        ctx: CoreCtx,
    }

    fn rig() -> Rig {
        let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(64)));
        let mmu = Arc::new(Iommu::new());
        let bus = Bus::Iommu {
            mmu: mmu.clone(),
            mem: mem.clone(),
        };
        Rig {
            mem,
            mmu,
            bus,
            ctx: CoreCtx::new(CoreId(0), Arc::new(CostModel::haswell_2_4ghz())),
        }
    }

    #[test]
    fn strict_roundtrip_with_nonidentity_iova() {
        let mut r = rig();
        let eng = LinuxDma::strict(r.mem.clone(), r.mmu.clone(), DEV);
        let pfn = r.mem.alloc_frame(NumaDomain(0)).unwrap();
        let buf = DmaBuf::new(pfn.base().add(128), 1500);
        let m = eng.map(&mut r.ctx, buf, DmaDirection::FromDevice).unwrap();
        // The IOVA preserves the sub-page offset but not the frame number.
        assert_eq!(m.iova.page_offset(), 128);
        assert_ne!(m.iova.get(), buf.pa.get());

        r.bus.write(DEV, m.iova.get(), &vec![0x11u8; 1500]).unwrap();
        let iova = m.iova;
        eng.unmap(&mut r.ctx, m).unwrap();
        assert_eq!(r.mem.read_vec(buf.pa, 1500).unwrap(), vec![0x11; 1500]);
        assert!(r.bus.write(DEV, iova.get(), b"late").is_err());
    }

    #[test]
    fn map_pays_tree_alloc_and_pagetable() {
        let mut r = rig();
        let eng = LinuxDma::strict(r.mem.clone(), r.mmu.clone(), DEV);
        let pfn = r.mem.alloc_frame(NumaDomain(0)).unwrap();
        let m = eng
            .map(
                &mut r.ctx,
                DmaBuf::new(pfn.base(), 64),
                DmaDirection::ToDevice,
            )
            .unwrap();
        let pt = r.ctx.breakdown.get(Phase::IommuPageTableMgmt);
        assert!(pt >= r.ctx.cost.iova_tree_alloc + r.ctx.cost.pagetable_map_page);
        assert!(r.ctx.breakdown.get(Phase::Spinlock) >= r.ctx.cost.spinlock_uncontended);
        eng.unmap(&mut r.ctx, m).unwrap();
    }

    #[test]
    fn deferred_leaves_window_then_recycles_iovas() {
        let mut r = rig();
        let eng = LinuxDma::deferred(r.mem.clone(), r.mmu.clone(), DEV);
        let pfn = r.mem.alloc_frame(NumaDomain(0)).unwrap();
        let buf = DmaBuf::new(pfn.base(), 1500);
        let m = eng.map(&mut r.ctx, buf, DmaDirection::FromDevice).unwrap();
        r.bus.write(DEV, m.iova.get(), b"warm").unwrap();
        let iova = m.iova;
        eng.unmap(&mut r.ctx, m).unwrap();
        // Window open: stale IOTLB entry still works.
        assert!(r.bus.write(DEV, iova.get(), b"attack").is_ok());
        eng.flush_deferred(&mut r.ctx);
        assert!(r.bus.write(DEV, iova.get(), b"late").is_err());
        // After the flush the IOVA range is reusable: map again and we may
        // get the same range back.
        let m2 = eng.map(&mut r.ctx, buf, DmaDirection::FromDevice).unwrap();
        assert_eq!(m2.iova, iova, "IOVA recycled only after flush");
        eng.unmap(&mut r.ctx, m2).unwrap();
        eng.flush_deferred(&mut r.ctx);
    }

    #[test]
    fn deferred_does_not_recycle_iova_before_flush() {
        let mut r = rig();
        let eng = LinuxDma::deferred(r.mem.clone(), r.mmu.clone(), DEV);
        let pfn = r.mem.alloc_frames(NumaDomain(0), 2).unwrap();
        let buf = DmaBuf::new(pfn.base(), 64);
        let m1 = eng.map(&mut r.ctx, buf, DmaDirection::ToDevice).unwrap();
        let m1_iova = m1.iova;
        eng.unmap(&mut r.ctx, m1).unwrap();
        // Next map must NOT reuse the pending IOVA.
        let buf2 = DmaBuf::new(pfn.base().add(4096), 64);
        let m2 = eng.map(&mut r.ctx, buf2, DmaDirection::ToDevice).unwrap();
        assert_ne!(m2.iova.page(), m1_iova.page());
        eng.unmap(&mut r.ctx, m2).unwrap();
        eng.flush_deferred(&mut r.ctx);
    }

    #[test]
    fn per_direction_permissions_enforced() {
        let mut r = rig();
        let eng = LinuxDma::strict(r.mem.clone(), r.mmu.clone(), DEV);
        let pfn = r.mem.alloc_frame(NumaDomain(0)).unwrap();
        let m = eng
            .map(
                &mut r.ctx,
                DmaBuf::new(pfn.base(), 256),
                DmaDirection::ToDevice,
            )
            .unwrap();
        // ToDevice = device may read, not write.
        let mut b = [0u8; 8];
        assert!(r.bus.read(DEV, m.iova.get(), &mut b).is_ok());
        assert!(r.bus.write(DEV, m.iova.get(), b"x").is_err());
        eng.unmap(&mut r.ctx, m).unwrap();
    }

    #[test]
    fn page_granularity_still_exposes_page_tail() {
        // Even with per-direction perms, a 256-byte buffer exposes its whole
        // page to reads.
        let mut r = rig();
        let eng = LinuxDma::strict(r.mem.clone(), r.mmu.clone(), DEV);
        let pfn = r.mem.alloc_frame(NumaDomain(0)).unwrap();
        r.mem.write(pfn.base().add(2000), b"NEIGHBOR").unwrap();
        let m = eng
            .map(
                &mut r.ctx,
                DmaBuf::new(pfn.base(), 256),
                DmaDirection::ToDevice,
            )
            .unwrap();
        let mut stolen = [0u8; 8];
        r.bus
            .read(DEV, m.iova.page().base().add(2000).get(), &mut stolen)
            .unwrap();
        assert_eq!(&stolen, b"NEIGHBOR");
        eng.unmap(&mut r.ctx, m).unwrap();
    }

    #[test]
    fn sg_maps_each_element() {
        let mut r = rig();
        let eng = LinuxDma::strict(r.mem.clone(), r.mmu.clone(), DEV);
        let pfn = r.mem.alloc_frames(NumaDomain(0), 3).unwrap();
        let bufs: Vec<DmaBuf> = (0..3)
            .map(|i| DmaBuf::new(pfn.add(i).base(), 512))
            .collect();
        let ms = eng
            .map_sg(&mut r.ctx, &bufs, DmaDirection::FromDevice)
            .unwrap();
        assert_eq!(ms.len(), 3);
        for (i, m) in ms.iter().enumerate() {
            r.bus.write(DEV, m.iova.get(), &[i as u8; 16]).unwrap();
        }
        eng.unmap_sg(&mut r.ctx, ms).unwrap();
        for i in 0..3u64 {
            assert_eq!(
                r.mem.read_vec(pfn.add(i).base(), 16).unwrap(),
                vec![i as u8; 16]
            );
        }
    }

    #[test]
    fn coherent_uses_allocator_and_strict_teardown() {
        let mut r = rig();
        let eng = LinuxDma::deferred(r.mem.clone(), r.mmu.clone(), DEV);
        let c = eng.alloc_coherent(&mut r.ctx, 16384).unwrap();
        assert_eq!(c.pages, 4);
        r.bus.write(DEV, c.iova.get(), b"ring entry").unwrap();
        let iova = c.iova;
        eng.free_coherent(&mut r.ctx, c).unwrap();
        assert!(r.bus.write(DEV, iova.get(), b"x").is_err());
    }

    #[test]
    fn unmap_unknown_fails() {
        let mut r = rig();
        let eng = LinuxDma::strict(r.mem.clone(), r.mmu.clone(), DEV);
        let bogus = DmaMapping {
            iova: Iova::new(0x4000),
            len: 64,
            dir: DmaDirection::ToDevice,
            os_pa: memsim::PhysAddr(0),
        };
        assert!(matches!(
            eng.unmap(&mut r.ctx, bogus),
            Err(DmaError::BadUnmap(_))
        ));
    }

    #[test]
    fn names_and_profiles() {
        let r = rig();
        let s = LinuxDma::strict(r.mem.clone(), r.mmu.clone(), DEV);
        let d = LinuxDma::deferred(r.mem.clone(), r.mmu.clone(), DEV);
        assert_eq!(s.name(), "strict");
        assert_eq!(d.name(), "defer");
        assert!(s.profile().no_vulnerability_window);
        assert!(!d.profile().no_vulnerability_window);
        let es = LinuxDma::eiovar_strict(r.mem.clone(), r.mmu.clone(), DEV);
        let ed = LinuxDma::eiovar_deferred(r.mem.clone(), r.mmu.clone(), DEV);
        assert_eq!(es.name(), "eiovar+");
        assert_eq!(ed.name(), "eiovar-");
        assert!(es.profile().no_vulnerability_window);
        assert!(!ed.profile().no_vulnerability_window);
    }

    #[test]
    fn eiovar_cache_makes_steady_state_allocation_cheap() {
        // The FAST'15 result: the ring-buffer alloc/free pattern hits the
        // cache after the first allocation, skipping the tree walk.
        let mut r = rig();
        let eng = LinuxDma::eiovar_strict(r.mem.clone(), r.mmu.clone(), DEV);
        let stock = LinuxDma::strict(r.mem.clone(), r.mmu.clone(), DEV);
        let pfn = r.mem.alloc_frame(NumaDomain(0)).unwrap();
        let buf = DmaBuf::new(pfn.base(), 1500);
        // Warm both.
        for e in [&eng, &stock] {
            let m = e.map(&mut r.ctx, buf, DmaDirection::FromDevice).unwrap();
            e.unmap(&mut r.ctx, m).unwrap();
        }
        let measure = |e: &LinuxDma, ctx: &mut CoreCtx| {
            ctx.reset_stats();
            for _ in 0..50 {
                let m = e.map(ctx, buf, DmaDirection::FromDevice).unwrap();
                e.unmap(ctx, m).unwrap();
            }
            ctx.breakdown.get(Phase::IommuPageTableMgmt)
        };
        let eiovar_cost = measure(&eng, &mut r.ctx);
        let stock_cost = measure(&stock, &mut r.ctx);
        assert!(
            eiovar_cost * 2 < stock_cost,
            "eiovar {eiovar_cost} vs stock {stock_cost}"
        );
        // Functionally identical: strict blocking after unmap.
        let m = eng.map(&mut r.ctx, buf, DmaDirection::FromDevice).unwrap();
        r.bus.write(DEV, m.iova.get(), b"warm").unwrap();
        let iova = m.iova;
        eng.unmap(&mut r.ctx, m).unwrap();
        assert!(r.bus.write(DEV, iova.get(), b"x").is_err());
    }
}
