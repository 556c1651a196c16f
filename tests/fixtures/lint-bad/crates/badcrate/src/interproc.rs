//! Planted cross-function fixtures: handles handed to helpers by
//! reference and by value, and device data read in one function and
//! used in another, with clean controls alongside. Never compiled.

// lint: allow(panic) — fixture bodies use expect() to keep the planted statements one-liners
// lint: allow(sync-before-cpu-read) — stale reason left over from an earlier refactor

/// Helper that only *borrows* the handle: a borrow cannot take ownership
/// of a move-only mapping, so the caller keeps the leak obligation.
fn touch_stats(stats: &mut Stats, m: &Mapping) {
    stats.record(m.iova.get());
}

/// Helper that takes the handle by value and unmaps it.
fn finish(engine: &E, ctx: &mut C, m: Mapping) {
    engine.unmap(ctx, m).expect("unmap");
}

/// The borrowing helper call is NOT an ownership transfer: the mapping is
/// still live at exit (leak-on-exit).
pub fn leak_across_helper(engine: &E, ctx: &mut C, stats: &mut Stats) {
    let m = engine
        .map(ctx, DmaBuf::new(pkt, 1500), DmaDirection::ToDevice)
        .expect("map");
    touch_stats(stats, &m);
}

/// Clean control: passing the handle by value moves ownership into
/// `finish`, so no leak and no waiver needed.
pub fn helper_roundtrip(engine: &E, ctx: &mut C) {
    let m = engine
        .map(ctx, DmaBuf::new(pkt, 1500), DmaDirection::ToDevice)
        .expect("map");
    finish(engine, ctx, m);
}

/// Device-tainted index used raw: `data` comes off a device-writable
/// buffer, flows into `idx`, and indexes `table` without a bounds check.
pub fn taint_to_index(engine: &E, mem: &M, ctx: &mut C, table: &mut [u64]) {
    let m = engine
        .map(ctx, DmaBuf::new(pkt, 64), DmaDirection::FromDevice)
        .expect("map");
    engine.sync_for_cpu(ctx, &m);
    let data = mem.read_vec(pkt, 64).expect("read");
    let idx = data[0] as usize;
    table[idx] = 1;
    engine.unmap(ctx, m).expect("unmap");
}

/// Clean control: the comparison guards the tainted index, so the taint
/// pass stays quiet.
pub fn taint_bounds_checked(engine: &E, mem: &M, ctx: &mut C, table: &mut [u64]) {
    let m = engine
        .map(ctx, DmaBuf::new(pkt, 64), DmaDirection::FromDevice)
        .expect("map");
    engine.sync_for_cpu(ctx, &m);
    let data = mem.read_vec(pkt, 64).expect("read");
    let idx = data[0] as usize;
    if idx < table.len() {
        table[idx] = 1;
    }
    engine.unmap(ctx, m).expect("unmap");
}

/// Clean control: the `move` closure takes ownership of the handle (and
/// becomes an anonymous call-graph node).
pub fn defer_unmap(engine: &E, ctx: &mut C, defer: &mut Defer) {
    let m = engine
        .map(ctx, DmaBuf::new(pkt, 1500), DmaDirection::ToDevice)
        .expect("map");
    defer.push(move || engine.unmap(ctx, m).expect("deferred unmap"));
}
