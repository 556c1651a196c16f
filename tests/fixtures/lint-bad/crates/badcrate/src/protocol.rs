//! Planted DMA-API protocol fixture: each function trips exactly one
//! protocol rule where `tests/lint.rs` expects, with one clean control
//! per rule. Never compiled. Use-after-unmap and double-unmap have no
//! fixture here: they are compile errors, pinned by the `compile_fail`
//! doctests on `dma_api::DmaMapping`.

// lint: allow(panic) — fixture bodies use expect() to keep the planted statements one-liners
// lint: allow(use-after-unmap) — leftover from before the mapping handle became move-only

/// The early `return` leaves the mapping live (dmasan `leak`).
pub fn leak_on_early_return(engine: &E, ctx: &mut C, bad: bool) -> Result<(), DmaError> {
    let m = engine
        .map(ctx, DmaBuf::new(pkt, 1500), DmaDirection::ToDevice)
        .expect("map");
    if bad {
        return Err(DmaError::Exhausted);
    }
    engine.unmap(ctx, m).expect("unmap");
    Ok(())
}

/// The `?` error edge of `refill_ring` leaves the mapping live
/// (dmasan `leak`).
pub fn leak_via_question(engine: &E, ctx: &mut C) -> Result<(), DmaError> {
    let m = engine.map(ctx, DmaBuf::new(pkt, 1500), DmaDirection::FromDevice)?;
    refill_ring(ctx)?;
    engine.unmap(ctx, m)?;
    Ok(())
}

/// CPU read of a device-writable streaming buffer while it is still
/// mapped and un-synced. dmasan has no runtime mirror: it observes bus
/// accesses, not CPU loads.
pub fn read_without_sync(engine: &E, mem: &M, ctx: &mut C) {
    let m = engine
        .map(ctx, DmaBuf::new(pkt, 1500), DmaDirection::FromDevice)
        .expect("map");
    let got = mem.read_vec(pkt, 1500).expect("read");
    engine.unmap(ctx, m).expect("unmap");
}

/// Clean control: the `sync_for_cpu` handoff makes the read legal.
pub fn read_with_sync(engine: &E, mem: &M, ctx: &mut C) {
    let m = engine
        .map(ctx, DmaBuf::new(pkt, 1500), DmaDirection::FromDevice)
        .expect("map");
    engine.sync_for_cpu(ctx, &m);
    let got = mem.read_vec(pkt, 1500).expect("read");
    engine.unmap(ctx, m).expect("unmap");
}
