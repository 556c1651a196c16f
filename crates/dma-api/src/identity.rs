//! The *identity±* engines: Peleg et al.'s (ATC'15 \[42\]) identity-mapping
//! design, with strict (*identity+*) or deferred (*identity−*) protection.
//!
//! IOVAs equal physical addresses, eliminating the IOVA-allocator
//! bottleneck of stock Linux: `dma_map` only installs the identity
//! page-table entry (refcounted, since kmalloc can co-locate several DMA
//! buffers on one page) and `dma_unmap` removes it. Strict mode pays a
//! synchronous IOTLB invalidation per unmap; deferred mode batches
//! per-core (the scalable variant of \[42\]).
//!
//! Identity mappings are installed read-write: a page can host buffers
//! mapped in both directions simultaneously, and \[42\]'s design shares one
//! entry among them. This is part of why identity protection is page-
//! granular at best — the paper's Table 1 denies it the "sub-page protect"
//! mark.

// lint: allow(panic) — refcount invariants are engine bugs, not runtime errors

use crate::flush::PendingUnmap;
use crate::{
    CoherentBuffer, CoherentHelper, DeferPolicy, DeferredFlusher, DmaBuf, DmaDirection, DmaEngine,
    DmaError, DmaMapping, FlushScope, ProtectionProfile, Strictness,
};
use iommu::{DeviceId, Iommu, Iova, IovaPage, Perms};
use memsim::PhysMemory;
use simcore::sync::Mutex;
use simcore::CoreCtx;
use simcore::FxHashMap;
use std::sync::Arc;

/// The identity-mapping DMA engine (*identity+* / *identity−*).
#[derive(Debug)]
pub struct IdentityDma {
    mmu: Arc<Iommu>,
    dev: DeviceId,
    strictness: Strictness,
    /// Refcount per mapped (identity) IOVA page.
    refs: Mutex<FxHashMap<u64, u32>>,
    flusher: Option<DeferredFlusher>,
    coherent: CoherentHelper,
}

impl IdentityDma {
    /// Creates the strict variant (*identity+*): every unmap synchronously
    /// invalidates the IOTLB.
    pub fn strict(mem: Arc<PhysMemory>, mmu: Arc<Iommu>, dev: DeviceId) -> Self {
        Self::new(mem, mmu, dev, Strictness::Strict, 1)
    }

    /// Creates the deferred variant (*identity−*): invalidations batch
    /// per-core (250 unmaps / 10 ms).
    pub fn deferred(mem: Arc<PhysMemory>, mmu: Arc<Iommu>, dev: DeviceId, cores: usize) -> Self {
        Self::with_scope(
            mem,
            mmu,
            dev,
            Strictness::Deferred,
            cores,
            FlushScope::PerCore,
        )
    }

    /// Creates a deferred variant with an explicit batching scope — the
    /// §2.2.1 ablation: [`FlushScope::Global`] is stock Linux's single
    /// lock-protected list, [`FlushScope::PerCore`] is ATC'15's scalable
    /// variant (with a correspondingly longer vulnerability window).
    pub fn deferred_with_scope(
        mem: Arc<PhysMemory>,
        mmu: Arc<Iommu>,
        dev: DeviceId,
        cores: usize,
        scope: FlushScope,
    ) -> Self {
        Self::with_scope(mem, mmu, dev, Strictness::Deferred, cores, scope)
    }

    fn new(
        mem: Arc<PhysMemory>,
        mmu: Arc<Iommu>,
        dev: DeviceId,
        strictness: Strictness,
        cores: usize,
    ) -> Self {
        Self::with_scope(mem, mmu, dev, strictness, cores, FlushScope::PerCore)
    }

    fn with_scope(
        mem: Arc<PhysMemory>,
        mmu: Arc<Iommu>,
        dev: DeviceId,
        strictness: Strictness,
        cores: usize,
        scope: FlushScope,
    ) -> Self {
        let flusher = match strictness {
            Strictness::Strict => None,
            Strictness::Deferred => Some(DeferredFlusher::with_obs(
                DeferPolicy::linux_default(),
                scope,
                cores,
                mmu.obs().clone(),
            )),
        };
        IdentityDma {
            coherent: CoherentHelper::new(mem, mmu.clone(), dev),
            mmu,
            dev,
            strictness,
            refs: Mutex::new(FxHashMap::default()),
            flusher,
        }
    }

    /// The strictness this instance was built with.
    pub fn strictness(&self) -> Strictness {
        self.strictness
    }

    /// The deferred flusher, if deferred (for window observability).
    pub fn flusher(&self) -> Option<&DeferredFlusher> {
        self.flusher.as_ref()
    }

    fn drain(mmu: &Iommu, dev: DeviceId, ctx: &mut CoreCtx, _batch: &[PendingUnmap]) {
        // One domain-selective flush retires the whole batch.
        mmu.flush_device_sync(ctx, dev);
    }
}

impl DmaEngine for IdentityDma {
    fn name(&self) -> &'static str {
        match self.strictness {
            Strictness::Strict => "identity+",
            Strictness::Deferred => "identity-",
        }
    }

    fn device(&self) -> DeviceId {
        self.dev
    }

    fn profile(&self) -> ProtectionProfile {
        ProtectionProfile {
            name: self.name(),
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
        let first = buf.pa.pfn();
        for i in 0..buf.pages() {
            let pfn = first.add(i);
            let mut refs = self.refs.lock();
            let count = refs.entry(pfn.get()).or_insert(0);
            *count += 1;
            let fresh = *count == 1;
            drop(refs);
            if fresh {
                self.mmu
                    .map_page(ctx, self.dev, IovaPage(pfn.get()), pfn, Perms::ReadWrite)?;
            }
        }
        Ok(DmaMapping {
            iova: Iova::new(buf.pa.get()),
            len: buf.len,
            dir,
            os_pa: buf.pa,
        })
    }

    fn unmap(&self, ctx: &mut CoreCtx, mapping: DmaMapping) -> Result<(), DmaError> {
        let buf = DmaBuf::new(mapping.os_pa, mapping.len);
        let first = buf.pa.pfn();
        let mut to_invalidate = Vec::new();
        for i in 0..buf.pages() {
            let pfn = first.add(i);
            let mut refs = self.refs.lock();
            let count = refs
                .get_mut(&pfn.get())
                .ok_or(DmaError::BadUnmap(mapping.iova))?;
            *count -= 1;
            let dead = *count == 0;
            if dead {
                refs.remove(&pfn.get());
            }
            drop(refs);
            if dead {
                let page = IovaPage(pfn.get());
                self.mmu.unmap_page_nosync(ctx, self.dev, page)?;
                to_invalidate.push(page);
            }
        }
        match self.strictness {
            Strictness::Strict => {
                self.mmu
                    .invalidate_pages_sync(ctx, self.dev, &to_invalidate);
            }
            Strictness::Deferred => {
                let flusher = self.flusher.as_ref().expect("deferred mode has a flusher");
                for page in to_invalidate {
                    flusher.defer(ctx, PendingUnmap { page, pages: 1 }, |ctx, batch| {
                        Self::drain(&self.mmu, self.dev, ctx, batch)
                    });
                }
            }
        }
        Ok(())
    }

    fn alloc_coherent(&self, ctx: &mut CoreCtx, len: usize) -> Result<CoherentBuffer, DmaError> {
        // Identity placement: the coherent buffer's IOVA is its PA.
        self.coherent
            .alloc(ctx, len, |_, _, pfn| Ok(IovaPage(pfn.get())))
    }

    fn free_coherent(&self, ctx: &mut CoreCtx, buf: CoherentBuffer) -> Result<(), DmaError> {
        self.coherent.free(ctx, buf, |_, _, _| {})
    }

    fn flush_deferred(&self, ctx: &mut CoreCtx) {
        if let Some(flusher) = &self.flusher {
            flusher.force_flush(ctx, |ctx, batch| {
                Self::drain(&self.mmu, self.dev, ctx, batch)
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bus;
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
    fn strict_map_dma_unmap_roundtrip() {
        let mut r = rig();
        let eng = IdentityDma::strict(r.mem.clone(), r.mmu.clone(), DEV);
        let pfn = r.mem.alloc_frame(NumaDomain(0)).unwrap();
        let buf = DmaBuf::new(pfn.base().add(64), 1500);
        let m = eng.map(&mut r.ctx, buf, DmaDirection::FromDevice).unwrap();
        assert_eq!(m.iova.get(), buf.pa.get(), "identity IOVA");

        r.bus.write(DEV, m.iova.get(), &vec![0xabu8; 1500]).unwrap();
        let iova = m.iova;
        eng.unmap(&mut r.ctx, m).unwrap();
        assert_eq!(r.mem.read_vec(buf.pa, 1500).unwrap(), vec![0xab; 1500]);

        // Strictly blocked after unmap.
        assert!(r.bus.write(DEV, iova.get(), b"late").is_err());
    }

    #[test]
    fn strict_unmap_pays_invalidation() {
        let mut r = rig();
        let eng = IdentityDma::strict(r.mem.clone(), r.mmu.clone(), DEV);
        let pfn = r.mem.alloc_frame(NumaDomain(0)).unwrap();
        let m = eng
            .map(
                &mut r.ctx,
                DmaBuf::new(pfn.base(), 100),
                DmaDirection::ToDevice,
            )
            .unwrap();
        eng.unmap(&mut r.ctx, m).unwrap();
        assert!(r.ctx.breakdown.get(Phase::InvalidateIotlb) >= r.ctx.cost.iotlb_inval_wait);
    }

    #[test]
    fn deferred_unmap_skips_invalidation_leaving_window() {
        let mut r = rig();
        let eng = IdentityDma::deferred(r.mem.clone(), r.mmu.clone(), DEV, 1);
        let pfn = r.mem.alloc_frame(NumaDomain(0)).unwrap();
        let m = eng
            .map(
                &mut r.ctx,
                DmaBuf::new(pfn.base(), 1500),
                DmaDirection::FromDevice,
            )
            .unwrap();
        // Device touches the buffer: IOTLB warm.
        r.bus.write(DEV, m.iova.get(), b"packet").unwrap();
        let iova = m.iova;
        eng.unmap(&mut r.ctx, m).unwrap();
        assert_eq!(
            r.ctx.breakdown.get(Phase::InvalidateIotlb),
            simcore::Cycles::ZERO
        );

        // VULNERABILITY WINDOW: the device can still write the buffer.
        assert!(r.bus.write(DEV, iova.get(), b"attack").is_ok());
        assert_eq!(eng.flusher().unwrap().pending(), 1);

        // After the deferred flush the window closes.
        eng.flush_deferred(&mut r.ctx);
        assert!(r.bus.write(DEV, iova.get(), b"late").is_err());
        assert_eq!(eng.flusher().unwrap().pending(), 0);
    }

    #[test]
    fn deferred_drains_at_batch_limit() {
        let mut r = rig();
        let eng = IdentityDma::deferred(r.mem.clone(), r.mmu.clone(), DEV, 1);
        let pfn = r.mem.alloc_frames(NumaDomain(0), 1).unwrap();
        // 250 map/unmap cycles of the same page: each unmap defers one
        // entry; the 250th triggers the drain.
        for i in 0..250 {
            let m = eng
                .map(
                    &mut r.ctx,
                    DmaBuf::new(pfn.base(), 64),
                    DmaDirection::ToDevice,
                )
                .unwrap();
            eng.unmap(&mut r.ctx, m).unwrap();
            if i < 249 {
                assert_eq!(eng.flusher().unwrap().drains(), 0);
            }
        }
        assert_eq!(eng.flusher().unwrap().drains(), 1);
        assert_eq!(r.mmu.invalq().stats().flush_commands, 1);
    }

    #[test]
    fn colocated_buffers_share_refcounted_mapping() {
        let mut r = rig();
        let eng = IdentityDma::strict(r.mem.clone(), r.mmu.clone(), DEV);
        let pfn = r.mem.alloc_frame(NumaDomain(0)).unwrap();
        // Two kmalloc-style buffers on the same page.
        let a = eng
            .map(
                &mut r.ctx,
                DmaBuf::new(pfn.base(), 512),
                DmaDirection::ToDevice,
            )
            .unwrap();
        let b = eng
            .map(
                &mut r.ctx,
                DmaBuf::new(pfn.base().add(2048), 512),
                DmaDirection::FromDevice,
            )
            .unwrap();
        assert_eq!(r.mmu.mapped_pages(DEV), 1, "one shared identity entry");
        eng.unmap(&mut r.ctx, a).unwrap();
        // Page must stay mapped while b lives.
        assert_eq!(r.mmu.mapped_pages(DEV), 1);
        assert!(r.bus.write(DEV, b.iova.get(), b"ok").is_ok());
        eng.unmap(&mut r.ctx, b).unwrap();
        assert_eq!(r.mmu.mapped_pages(DEV), 0);
    }

    #[test]
    fn page_granularity_exposes_colocated_data() {
        // The sub-page weakness (§4): mapping a 512-byte buffer exposes the
        // WHOLE page, including a neighbor secret, read-write.
        let mut r = rig();
        let eng = IdentityDma::strict(r.mem.clone(), r.mmu.clone(), DEV);
        let pfn = r.mem.alloc_frame(NumaDomain(0)).unwrap();
        r.mem.write(pfn.base().add(3000), b"SECRET").unwrap();
        let m = eng
            .map(
                &mut r.ctx,
                DmaBuf::new(pfn.base(), 512),
                DmaDirection::ToDevice,
            )
            .unwrap();
        // The device reads the neighbor's secret through the same page.
        let mut stolen = [0u8; 6];
        r.bus
            .read(DEV, pfn.base().add(3000).get(), &mut stolen)
            .unwrap();
        assert_eq!(&stolen, b"SECRET");
        eng.unmap(&mut r.ctx, m).unwrap();
    }

    #[test]
    fn multipage_buffer_maps_all_pages() {
        let mut r = rig();
        let eng = IdentityDma::strict(r.mem.clone(), r.mmu.clone(), DEV);
        let pfn = r.mem.alloc_frames(NumaDomain(0), 16).unwrap();
        let buf = DmaBuf::new(pfn.base(), 16 * 4096);
        let m = eng.map(&mut r.ctx, buf, DmaDirection::ToDevice).unwrap();
        assert_eq!(r.mmu.mapped_pages(DEV), 16);
        let mut out = vec![0u8; 16 * 4096];
        r.bus.read(DEV, m.iova.get(), &mut out).unwrap();
        eng.unmap(&mut r.ctx, m).unwrap();
        assert_eq!(r.mmu.mapped_pages(DEV), 0);
    }

    #[test]
    fn unmap_of_unknown_mapping_fails() {
        let mut r = rig();
        let eng = IdentityDma::strict(r.mem.clone(), r.mmu.clone(), DEV);
        let pfn = r.mem.alloc_frame(NumaDomain(0)).unwrap();
        let bogus = DmaMapping {
            iova: Iova::new(pfn.base().get()),
            len: 64,
            dir: DmaDirection::ToDevice,
            os_pa: pfn.base(),
        };
        assert!(matches!(
            eng.unmap(&mut r.ctx, bogus),
            Err(DmaError::BadUnmap(_))
        ));
    }

    #[test]
    fn coherent_is_identity_mapped_and_strict() {
        let mut r = rig();
        let eng = IdentityDma::deferred(r.mem.clone(), r.mmu.clone(), DEV, 1);
        let c = eng.alloc_coherent(&mut r.ctx, 8192).unwrap();
        assert_eq!(c.iova.get(), c.pa.get());
        r.bus.write(DEV, c.iova.get(), b"descriptor").unwrap();
        let iova = c.iova;
        eng.free_coherent(&mut r.ctx, c).unwrap();
        // Even under the deferred engine, coherent free is strict.
        assert!(r.bus.write(DEV, iova.get(), b"x").is_err());
    }

    #[test]
    fn names_and_profiles() {
        let r = rig();
        let plus = IdentityDma::strict(r.mem.clone(), r.mmu.clone(), DEV);
        let minus = IdentityDma::deferred(r.mem.clone(), r.mmu.clone(), DEV, 4);
        assert_eq!(plus.name(), "identity+");
        assert_eq!(minus.name(), "identity-");
        assert!(plus.profile().no_vulnerability_window);
        assert!(!minus.profile().no_vulnerability_window);
        assert!(!plus.profile().sub_page);
    }
}
