//! A self-invalidating-IOMMU engine, modeling Basu et al.'s hardware
//! proposal (\[10\], the paper's §7 "Hardware solutions"): IOMMU mappings
//! that *self-destruct* after a bounded number of DMAs or a time
//! threshold, so software never posts invalidation commands at all.
//!
//! The model here is the proposal's **best case**: the entry destroys
//! itself the moment `dma_unmap` runs (the hardware's DMA-count threshold
//! is exactly the number of authorized DMAs), charging no CPU cycles for
//! it. This gives an upper bound on what such hardware could achieve —
//! used by the `ablate_selfinval` bench to compare against DMA shadowing,
//! which needs no new hardware. Protection remains page-granular: the
//! paper's sub-page argument applies to this design too.

use crate::{
    CoherentBuffer, CoherentHelper, DmaBuf, DmaDirection, DmaEngine, DmaError, DmaMapping,
    ProtectionProfile,
};
use iommu::{DeviceId, Iommu, Iova, IovaPage, Perms};
use memsim::PhysMemory;
use simcore::sync::Mutex;
use simcore::CoreCtx;
use simcore::FxHashMap;
use std::sync::Arc;

/// The self-invalidating-hardware engine (identity placement, like \[42\],
/// but unmap costs only the page-table update — the IOTLB entry
/// self-destructs in hardware).
#[derive(Debug)]
pub struct SelfInvalidatingDma {
    mmu: Arc<Iommu>,
    dev: DeviceId,
    refs: Mutex<FxHashMap<u64, u32>>,
    coherent: CoherentHelper,
}

impl SelfInvalidatingDma {
    /// Creates the engine.
    pub fn new(mem: Arc<PhysMemory>, mmu: Arc<Iommu>, dev: DeviceId) -> Self {
        SelfInvalidatingDma {
            coherent: CoherentHelper::new(mem, mmu.clone(), dev),
            mmu,
            dev,
            refs: Mutex::new(FxHashMap::default()),
        }
    }
}

impl DmaEngine for SelfInvalidatingDma {
    fn name(&self) -> &'static str {
        "self-inval hw"
    }

    fn device(&self) -> DeviceId {
        self.dev
    }

    fn profile(&self) -> ProtectionProfile {
        ProtectionProfile {
            name: "self-inval hw",
            uses_iommu: true,
            sub_page: false,
            // Best-case model: the self-destruct fires exactly at unmap.
            no_vulnerability_window: true,
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
            let fresh = {
                let mut refs = self.refs.lock();
                let count = refs.entry(pfn.get()).or_insert(0);
                *count += 1;
                *count == 1
            };
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
        for i in 0..buf.pages() {
            let pfn = first.add(i);
            let dead = {
                let mut refs = self.refs.lock();
                let count = refs
                    .get_mut(&pfn.get())
                    .ok_or(DmaError::BadUnmap(mapping.iova))?;
                *count -= 1;
                let dead = *count == 0;
                if dead {
                    refs.remove(&pfn.get());
                }
                dead
            };
            if dead {
                let page = IovaPage(pfn.get());
                self.mmu.unmap_page_nosync(ctx, self.dev, page)?;
                // The hardware entry self-destructs: no queue, no wait,
                // no CPU cost.
                self.mmu.invalidate_page_hw(self.dev, page);
            }
        }
        Ok(())
    }

    fn alloc_coherent(&self, ctx: &mut CoreCtx, len: usize) -> Result<CoherentBuffer, DmaError> {
        self.coherent
            .alloc(ctx, len, |_, _, pfn| Ok(IovaPage(pfn.get())))
    }

    fn free_coherent(&self, ctx: &mut CoreCtx, buf: CoherentBuffer) -> Result<(), DmaError> {
        self.coherent.free(ctx, buf, |_, _, _| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bus;
    use memsim::{NumaDomain, NumaTopology};
    use simcore::{CoreId, CostModel, Cycles, Phase};

    const DEV: DeviceId = DeviceId(0);

    #[test]
    fn strict_semantics_with_zero_invalidation_cost() {
        let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(32)));
        let mmu = Arc::new(Iommu::new());
        let eng = SelfInvalidatingDma::new(mem.clone(), mmu.clone(), DEV);
        let mut ctx = CoreCtx::new(CoreId(0), Arc::new(CostModel::haswell_2_4ghz()));
        let bus = Bus::Iommu {
            mmu: mmu.clone(),
            mem: mem.clone(),
        };
        let pfn = mem.alloc_frame(NumaDomain(0)).unwrap();
        let m = eng
            .map(
                &mut ctx,
                DmaBuf::new(pfn.base(), 1500),
                DmaDirection::FromDevice,
            )
            .unwrap();
        bus.write(DEV, m.iova.get(), b"warm the iotlb").unwrap();
        let iova = m.iova;
        eng.unmap(&mut ctx, m).unwrap();
        // Strict: blocked immediately...
        assert!(bus.write(DEV, iova.get(), b"late").is_err());
        // ...yet the CPU never waited on an invalidation.
        assert_eq!(ctx.breakdown.get(Phase::InvalidateIotlb), Cycles::ZERO);
        assert_eq!(mmu.invalq().stats().page_commands, 0);
    }

    #[test]
    fn still_page_granular() {
        let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(32)));
        let mmu = Arc::new(Iommu::new());
        let eng = SelfInvalidatingDma::new(mem.clone(), mmu.clone(), DEV);
        let mut ctx = CoreCtx::new(CoreId(0), Arc::new(CostModel::zero()));
        let bus = Bus::Iommu {
            mmu: mmu.clone(),
            mem: mem.clone(),
        };
        let pfn = mem.alloc_frame(NumaDomain(0)).unwrap();
        mem.write(pfn.base().add(3000), b"SECRET").unwrap();
        let m = eng
            .map(
                &mut ctx,
                DmaBuf::new(pfn.base(), 512),
                DmaDirection::ToDevice,
            )
            .unwrap();
        // Hardware self-invalidation does not fix the sub-page hole.
        let mut stolen = [0u8; 6];
        bus.read(DEV, pfn.base().add(3000).get(), &mut stolen)
            .unwrap();
        assert_eq!(&stolen, b"SECRET");
        eng.unmap(&mut ctx, m).unwrap();
    }
}
