//! The simulated physical memory: frames, allocator, byte access.

use crate::{NumaDomain, NumaTopology, Pfn, PhysAddr, PAGE_SIZE};
use simcore::sync::Mutex;
use std::fmt;

/// Errors from physical memory operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// No free frames (of the requested contiguity) in the domain.
    OutOfMemory {
        /// The domain the allocation targeted.
        domain: NumaDomain,
        /// Contiguous frames requested.
        frames: u64,
    },
    /// An access touched a frame that is not allocated.
    Unallocated(Pfn),
    /// An access fell outside the physical address space.
    OutOfBounds(PhysAddr),
    /// A free targeted a frame that was not allocated.
    BadFree(Pfn),
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfMemory { domain, frames } => {
                write!(f, "out of memory: {frames} contiguous frames on {domain}")
            }
            MemError::Unallocated(pfn) => write!(f, "access to unallocated frame {pfn}"),
            MemError::OutOfBounds(pa) => write!(f, "access beyond physical memory at {pa}"),
            MemError::BadFree(pfn) => write!(f, "free of unallocated frame {pfn}"),
        }
    }
}

impl std::error::Error for MemError {}

/// Frame-allocation statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemStats {
    /// Frames currently allocated.
    pub allocated_frames: u64,
    /// High-water mark of allocated frames.
    pub peak_frames: u64,
    /// Total allocation calls.
    pub allocs: u64,
    /// Total free calls.
    pub frees: u64,
}

#[derive(Debug, Default)]
struct DomainAllocator {
    /// Free runs as `(start pfn, length)`, sorted by start and coalesced
    /// on free. Steady-state run counts are tiny (long-lived allocations
    /// plus one hole churned by the packet loop), so a sorted vec beats a
    /// BTreeMap on every operation while keeping the identical first-fit
    /// order — which is observable through reallocated frame numbers and
    /// must not change.
    runs: Vec<(u64, u64)>,
}

impl DomainAllocator {
    fn new(start: Pfn, end: Pfn) -> Self {
        let mut runs = Vec::new();
        if end.0 > start.0 {
            runs.push((start.0, end.0 - start.0));
        }
        DomainAllocator { runs }
    }

    fn alloc(&mut self, n: u64) -> Option<Pfn> {
        let i = self.runs.iter().position(|&(_, len)| len >= n)?;
        let (start, len) = self.runs[i];
        if len > n {
            self.runs[i] = (start + n, len - n);
        } else {
            self.runs.remove(i);
        }
        Some(Pfn(start))
    }

    fn free(&mut self, pfn: Pfn, n: u64) {
        let start = pfn.0;
        let end = start + n;
        // Coalesce with the predecessor and successor runs when adjacent.
        let i = self.runs.partition_point(|&(s, _)| s < start);
        let merge_prev = i > 0 && {
            let (ps, pl) = self.runs[i - 1];
            ps + pl == start
        };
        let merge_next = i < self.runs.len() && self.runs[i].0 == end;
        match (merge_prev, merge_next) {
            (true, true) => {
                let nl = self.runs[i].1;
                self.runs[i - 1].1 += n + nl;
                self.runs.remove(i);
            }
            (true, false) => self.runs[i - 1].1 += n,
            (false, true) => self.runs[i] = (start, n + self.runs[i].1),
            (false, false) => self.runs.insert(i, (start, n)),
        }
    }
}

/// Frames per second-level chunk of the frame table.
const CHUNK_BITS: u32 = 9;
const CHUNK: usize = 1 << CHUNK_BITS;

/// Zeros for the logically-zero tail of a frame (see [`Frame`]).
static ZEROS: [u8; PAGE_SIZE] = [0; PAGE_SIZE];

/// One allocated frame's backing bytes plus an `init` mark: bytes at or
/// above `init` are logically zero whatever the buffer holds, bytes below
/// it are the buffer's. Recycling a frame is `init = 0` — O(1), however
/// much the previous owner wrote — and a write zero-fills only the gap
/// between `init` and its start, so a 64 KB skb whose 17 recycled frames
/// are overwritten straight away is never zeroed at all.
#[derive(Debug)]
struct Frame {
    data: Box<[u8]>,
    init: usize,
}

impl Frame {
    fn zeroed() -> Self {
        Frame {
            data: vec![0u8; PAGE_SIZE].into_boxed_slice(),
            init: 0,
        }
    }

    /// Restores the all-zero state.
    fn rezero(&mut self) {
        self.init = 0;
    }

    /// The logical bytes `[off, off + len)` as two slices: the backing
    /// bytes below `init`, then zeros.
    fn bytes(&self, off: usize, len: usize) -> (&[u8], &[u8]) {
        let end = off + len;
        let split = self.init.clamp(off, end);
        (&self.data[off..split], &ZEROS[..end - split])
    }

    /// Stores `src` at `off`, zero-filling any gap above `init` first.
    fn write_at(&mut self, off: usize, src: &[u8]) {
        if src.is_empty() {
            return;
        }
        if off > self.init {
            self.data[self.init..off].fill(0);
        }
        let end = off + src.len();
        self.data[off..end].copy_from_slice(src);
        self.init = self.init.max(end);
    }

    /// Stores the logical bytes `(lo, hi)` of [`Frame::bytes`] at `off`.
    /// Zeros landing at or above `init` are already there, so only the
    /// part of `hi` below `init` is written.
    fn write_parts(&mut self, off: usize, (lo, hi): (&[u8], &[u8])) {
        self.write_at(off, lo);
        let start = off + lo.len();
        let end = (start + hi.len()).min(self.init);
        if start < end {
            self.data[start..end].fill(0);
        }
    }
}

/// Backing store for allocated frames: a two-level dense table (chunks
/// of 512 frame slots, allocated on demand), so the per-byte-access
/// frame lookup is two array indexes instead of a hash. Frame numbers
/// are dense by construction (the NUMA ranges are contiguous), which a
/// hash map can't exploit.
#[derive(Debug, Default)]
struct FrameTable {
    chunks: Vec<Option<Box<[Option<Frame>]>>>,
}

impl FrameTable {
    fn get(&self, pfn: u64) -> Option<&Frame> {
        self.chunks
            .get((pfn >> CHUNK_BITS) as usize)?
            .as_ref()?
            .get(pfn as usize & (CHUNK - 1))?
            .as_ref()
    }

    fn get_mut(&mut self, pfn: u64) -> Option<&mut Frame> {
        self.chunks
            .get_mut((pfn >> CHUNK_BITS) as usize)?
            .as_mut()?
            .get_mut(pfn as usize & (CHUNK - 1))?
            .as_mut()
    }

    fn contains(&self, pfn: u64) -> bool {
        self.get(pfn).is_some()
    }

    /// Installs `frame` at `pfn`, returning the slot's previous content.
    fn insert(&mut self, pfn: u64, frame: Frame) -> Option<Frame> {
        let ci = (pfn >> CHUNK_BITS) as usize;
        if ci >= self.chunks.len() {
            self.chunks.resize_with(ci + 1, || None);
        }
        let chunk = self.chunks[ci].get_or_insert_with(|| (0..CHUNK).map(|_| None).collect());
        chunk[pfn as usize & (CHUNK - 1)].replace(frame)
    }

    fn remove(&mut self, pfn: u64) -> Option<Frame> {
        self.chunks
            .get_mut((pfn >> CHUNK_BITS) as usize)?
            .as_mut()?
            .get_mut(pfn as usize & (CHUNK - 1))?
            .take()
    }
}

/// Freed frame boxes kept for reuse (bounded at 1 MB of backing store);
/// reused frames are re-zeroed (`init = 0`), preserving "frames start
/// zeroed".
const RECYCLE_CAP: usize = 256;

/// Frame-store shards. Byte accesses lock only the shard owning the
/// touched frame, so concurrently streaming cores (which touch disjoint
/// skb and shadow frames) never serialize on one global lock. The low
/// pfn bits pick the shard — adjacent frames spread across shards — and
/// each shard's table is indexed by `pfn >> SHARD_BITS`, keeping its
/// two-level chunks dense.
const SHARD_BITS: u32 = 6;
const SHARDS: usize = 1 << SHARD_BITS;

fn shard_key(pfn: u64) -> (usize, u64) {
    ((pfn & (SHARDS as u64 - 1)) as usize, pfn >> SHARD_BITS)
}

#[derive(Debug)]
struct AllocInner {
    /// Freed frames awaiting reuse (contents stale; re-zeroed on alloc).
    recycled: Vec<Frame>,
    domains: Vec<DomainAllocator>,
    stats: MemStats,
}

/// The machine's physical memory.
///
/// Thread-safe — allocator state sits behind one lock, frame contents
/// behind per-shard locks — so it can be shared between the OS side and
/// device models, and used from real threads in stress tests. All byte
/// accesses require the touched frames to be allocated; devices probing
/// unallocated memory get [`MemError::Unallocated`].
pub struct PhysMemory {
    topology: NumaTopology,
    shards: Vec<Mutex<FrameTable>>,
    alloc: Mutex<AllocInner>,
}

impl fmt::Debug for PhysMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.alloc.lock();
        f.debug_struct("PhysMemory")
            .field("topology", &self.topology)
            .field("allocated_frames", &inner.stats.allocated_frames)
            .finish()
    }
}

impl PhysMemory {
    /// Creates physical memory with the given topology.
    pub fn new(topology: NumaTopology) -> Self {
        let domains = (0..topology.domains())
            .map(|d| {
                let (s, e) = topology.frame_range(NumaDomain(d));
                DomainAllocator::new(s, e)
            })
            .collect();
        PhysMemory {
            topology,
            shards: (0..SHARDS)
                .map(|_| Mutex::new(FrameTable::default()))
                .collect(),
            alloc: Mutex::new(AllocInner {
                recycled: Vec::new(),
                domains,
                stats: MemStats::default(),
            }),
        }
    }

    /// The machine topology.
    pub fn topology(&self) -> &NumaTopology {
        &self.topology
    }

    /// Allocates one zeroed frame on `domain`.
    pub fn alloc_frame(&self, domain: NumaDomain) -> Result<Pfn, MemError> {
        self.alloc_frames(domain, 1)
    }

    /// Allocates `n` physically contiguous zeroed frames on `domain`,
    /// returning the first.
    pub fn alloc_frames(&self, domain: NumaDomain, n: u64) -> Result<Pfn, MemError> {
        assert!(n > 0, "zero-frame allocation");
        if n == 1 {
            // Per-packet fast path: reuse one recycled frame box without
            // the `split_off` heap allocation of the general path.
            let (pfn, recycled) = {
                let mut inner = self.alloc.lock();
                let alloc = inner
                    .domains
                    .get_mut(domain.index())
                    .unwrap_or_else(|| panic!("no such domain {domain}"))
                    .alloc(1);
                let pfn = alloc.ok_or(MemError::OutOfMemory { domain, frames: 1 })?;
                let recycled = inner.recycled.pop();
                inner.stats.allocs += 1;
                inner.stats.allocated_frames += 1;
                inner.stats.peak_frames = inner.stats.peak_frames.max(inner.stats.allocated_frames);
                (pfn, recycled)
            };
            let frame = match recycled {
                Some(mut f) => {
                    f.rezero();
                    f
                }
                None => Frame::zeroed(),
            };
            let (s, key) = shard_key(pfn.0);
            let prev = self.shards[s].lock().insert(key, frame);
            debug_assert!(prev.is_none(), "frame double-allocated");
            return Ok(pfn);
        }
        let (pfn, mut pool) = {
            let mut inner = self.alloc.lock();
            let alloc = inner
                .domains
                .get_mut(domain.index())
                .unwrap_or_else(|| panic!("no such domain {domain}"))
                .alloc(n);
            let pfn = alloc.ok_or(MemError::OutOfMemory { domain, frames: n })?;
            let keep = inner.recycled.len().saturating_sub(n as usize);
            let pool = inner.recycled.split_off(keep);
            inner.stats.allocs += 1;
            inner.stats.allocated_frames += n;
            inner.stats.peak_frames = inner.stats.peak_frames.max(inner.stats.allocated_frames);
            (pfn, pool)
        };
        // The allocated run is exclusively ours now; install the frames
        // without holding the allocator lock.
        for i in 0..n {
            let frame = match pool.pop() {
                Some(mut f) => {
                    f.rezero();
                    f
                }
                None => Frame::zeroed(),
            };
            let (s, key) = shard_key(pfn.0 + i);
            let prev = self.shards[s].lock().insert(key, frame);
            debug_assert!(prev.is_none(), "frame double-allocated");
        }
        Ok(pfn)
    }

    /// Frees `n` contiguous frames starting at `pfn`.
    pub fn free_frames(&self, pfn: Pfn, n: u64) -> Result<(), MemError> {
        assert!(n > 0, "zero-frame free");
        if n == 1 {
            // Per-packet fast path: no pre-pass, no staging vector.
            let (s, key) = shard_key(pfn.0);
            let frame = self.shards[s]
                .lock()
                .remove(key)
                .ok_or(MemError::BadFree(pfn))?;
            let domain = self.topology.domain_of_pfn(pfn);
            let mut inner = self.alloc.lock();
            inner.domains[domain.index()].free(pfn, 1);
            inner.stats.frees += 1;
            inner.stats.allocated_frames -= 1;
            if inner.recycled.len() < RECYCLE_CAP {
                inner.recycled.push(frame);
            }
            return Ok(());
        }
        {
            // Pre-check so a bad free of a partially-allocated run frees
            // nothing at all.
            for i in 0..n {
                let (s, key) = shard_key(pfn.0 + i);
                if !self.shards[s].lock().contains(key) {
                    return Err(MemError::BadFree(Pfn(pfn.0 + i)));
                }
            }
        }
        let mut freed = Vec::with_capacity(n.min(RECYCLE_CAP as u64) as usize);
        for i in 0..n {
            let (s, key) = shard_key(pfn.0 + i);
            match self.shards[s].lock().remove(key) {
                Some(f) => {
                    if freed.len() < RECYCLE_CAP {
                        freed.push(f);
                    }
                }
                None => return Err(MemError::BadFree(Pfn(pfn.0 + i))),
            }
        }
        let domain = self.topology.domain_of_pfn(pfn);
        let mut inner = self.alloc.lock();
        inner.domains[domain.index()].free(pfn, n);
        inner.stats.frees += 1;
        inner.stats.allocated_frames -= n;
        let room = RECYCLE_CAP.saturating_sub(inner.recycled.len());
        inner.recycled.extend(freed.into_iter().take(room));
        Ok(())
    }

    /// Whether a frame is currently allocated.
    pub fn is_allocated(&self, pfn: Pfn) -> bool {
        let (s, key) = shard_key(pfn.0);
        self.shards[s].lock().contains(key)
    }

    /// Streams the `len` bytes at `pa` (may cross frames) to `f`, one or
    /// more slices per frame, in address order and without copying them
    /// out — the device-read path behind every TX payload fetch. `f` runs
    /// with the frame's shard locked, so it must not access this memory.
    /// On an error, the bytes before the failing frame have been visited.
    pub fn visit(
        &self,
        pa: PhysAddr,
        len: usize,
        mut f: impl FnMut(&[u8]),
    ) -> Result<(), MemError> {
        let mut off = 0usize;
        while off < len {
            let cur = pa.add(off as u64);
            self.check_bounds(cur)?;
            let (s, key) = shard_key(cur.pfn().0);
            let shard = self.shards[s].lock();
            let frame = shard.get(key).ok_or(MemError::Unallocated(cur.pfn()))?;
            let in_page = cur.page_offset();
            let take = (PAGE_SIZE - in_page).min(len - off);
            let (lo, hi) = frame.bytes(in_page, take);
            for part in [lo, hi] {
                if !part.is_empty() {
                    f(part);
                }
            }
            off += take;
        }
        Ok(())
    }

    /// Reads `buf.len()` bytes starting at `pa` (may cross frames).
    pub fn read(&self, pa: PhysAddr, buf: &mut [u8]) -> Result<(), MemError> {
        let mut off = 0usize;
        self.visit(pa, buf.len(), |part| {
            buf[off..off + part.len()].copy_from_slice(part);
            off += part.len();
        })
    }

    /// Writes `data` starting at `pa` (may cross frames).
    pub fn write(&self, pa: PhysAddr, data: &[u8]) -> Result<(), MemError> {
        let mut off = 0usize;
        while off < data.len() {
            let cur = pa.add(off as u64);
            self.check_bounds(cur)?;
            let (s, key) = shard_key(cur.pfn().0);
            let mut shard = self.shards[s].lock();
            let frame = shard.get_mut(key).ok_or(MemError::Unallocated(cur.pfn()))?;
            let in_page = cur.page_offset();
            let take = (PAGE_SIZE - in_page).min(data.len() - off);
            frame.write_at(in_page, &data[off..off + take]);
            off += take;
        }
        Ok(())
    }

    /// Compares the bytes at `pa` with `data` without copying them out —
    /// the allocation-free verify used on per-packet paths.
    pub fn equals(&self, pa: PhysAddr, data: &[u8]) -> Result<bool, MemError> {
        let mut off = 0usize;
        while off < data.len() {
            let cur = pa.add(off as u64);
            self.check_bounds(cur)?;
            let (s, key) = shard_key(cur.pfn().0);
            let shard = self.shards[s].lock();
            let frame = shard.get(key).ok_or(MemError::Unallocated(cur.pfn()))?;
            let in_page = cur.page_offset();
            let take = (PAGE_SIZE - in_page).min(data.len() - off);
            let (lo, hi) = frame.bytes(in_page, take);
            let want = &data[off..off + take];
            if want[..lo.len()] != *lo || want[lo.len()..] != *hi {
                return Ok(false);
            }
            off += take;
        }
        Ok(true)
    }

    /// Copies `len` bytes from `src` to `dst` within physical memory (the
    /// real data movement behind every shadow-buffer copy). Works
    /// frame-pair by frame-pair, locking the source and destination shards
    /// together (in shard-index order, so concurrent copies cannot
    /// deadlock) and moving each contiguous run with one `memcpy` — no
    /// scratch staging, no second pass over the bytes. The source's
    /// logically-zero tail is not copied where the destination's is too.
    pub fn copy(&self, src: PhysAddr, dst: PhysAddr, len: usize) -> Result<(), MemError> {
        let mut off = 0usize;
        while off < len {
            let s_pa = src.add(off as u64);
            let d_pa = dst.add(off as u64);
            self.check_bounds(s_pa)?;
            self.check_bounds(d_pa)?;
            let si = s_pa.page_offset();
            let di = d_pa.page_offset();
            let take = (PAGE_SIZE - si).min(PAGE_SIZE - di).min(len - off);
            let (ss, sk) = shard_key(s_pa.pfn().0);
            let (ds, dk) = shard_key(d_pa.pfn().0);
            if ss == ds {
                // Both frames live in one shard (or are the same frame):
                // stage this run through the stack so we never need two
                // borrows of one table. Rare — shards interleave by pfn.
                let mut tmp = [0u8; PAGE_SIZE];
                let mut shard = self.shards[ss].lock();
                let sf = shard.get(sk).ok_or(MemError::Unallocated(s_pa.pfn()))?;
                let (lo, _) = sf.bytes(si, take);
                let n = lo.len();
                tmp[..n].copy_from_slice(lo);
                let df = shard.get_mut(dk).ok_or(MemError::Unallocated(d_pa.pfn()))?;
                df.write_parts(di, (&tmp[..n], &ZEROS[..take - n]));
            } else {
                let mut g_lo = self.shards[ss.min(ds)].lock();
                let mut g_hi = self.shards[ss.max(ds)].lock();
                let (src_table, dst_table) = if ss < ds {
                    (&*g_lo, &mut *g_hi)
                } else {
                    (&*g_hi, &mut *g_lo)
                };
                let sf = src_table.get(sk).ok_or(MemError::Unallocated(s_pa.pfn()))?;
                let df = dst_table
                    .get_mut(dk)
                    .ok_or(MemError::Unallocated(d_pa.pfn()))?;
                df.write_parts(di, sf.bytes(si, take));
            }
            off += take;
        }
        Ok(())
    }

    /// Fills `len` bytes at `pa` with `byte`.
    pub fn fill(&self, pa: PhysAddr, byte: u8, len: usize) -> Result<(), MemError> {
        let chunk = [byte; PAGE_SIZE];
        let mut off = 0usize;
        while off < len {
            let take = PAGE_SIZE.min(len - off);
            self.write(pa.add(off as u64), &chunk[..take])?;
            off += take;
        }
        Ok(())
    }

    /// Reads `len` bytes at `pa` into a fresh vector.
    pub fn read_vec(&self, pa: PhysAddr, len: usize) -> Result<Vec<u8>, MemError> {
        let mut v = vec![0u8; len];
        self.read(pa, &mut v)?;
        Ok(v)
    }

    /// Allocation statistics snapshot.
    pub fn stats(&self) -> MemStats {
        self.alloc.lock().stats
    }

    fn check_bounds(&self, pa: PhysAddr) -> Result<(), MemError> {
        if pa.pfn().0 >= self.topology.total_frames() {
            Err(MemError::OutOfBounds(pa))
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(frames: u64) -> PhysMemory {
        PhysMemory::new(NumaTopology::tiny(frames))
    }

    #[test]
    fn alloc_read_write_roundtrip() {
        let m = mem(16);
        let pfn = m.alloc_frame(NumaDomain(0)).unwrap();
        let pa = pfn.base().add(100);
        m.write(pa, b"hello world").unwrap();
        assert_eq!(m.read_vec(pa, 11).unwrap(), b"hello world");
    }

    #[test]
    fn frames_start_zeroed() {
        let m = mem(4);
        let pfn = m.alloc_frame(NumaDomain(0)).unwrap();
        assert_eq!(
            m.read_vec(pfn.base(), PAGE_SIZE).unwrap(),
            vec![0u8; PAGE_SIZE]
        );
    }

    #[test]
    fn cross_frame_access() {
        let m = mem(16);
        let pfn = m.alloc_frames(NumaDomain(0), 2).unwrap();
        let pa = pfn.base().add(PAGE_SIZE as u64 - 3);
        m.write(pa, b"abcdef").unwrap();
        assert_eq!(m.read_vec(pa, 6).unwrap(), b"abcdef");
    }

    #[test]
    fn unallocated_access_fails() {
        let m = mem(16);
        let err = m.read_vec(PhysAddr(0), 1).unwrap_err();
        assert_eq!(err, MemError::Unallocated(Pfn(0)));
        let err = m.write(PhysAddr(4096), b"x").unwrap_err();
        assert_eq!(err, MemError::Unallocated(Pfn(1)));
    }

    #[test]
    fn out_of_bounds_access_fails() {
        let m = mem(2);
        let err = m.read_vec(PhysAddr(3 * 4096), 1).unwrap_err();
        assert!(matches!(err, MemError::OutOfBounds(_)));
    }

    #[test]
    fn contiguous_allocation_is_contiguous() {
        let m = mem(32);
        let a = m.alloc_frames(NumaDomain(0), 16).unwrap();
        // The run must be fully allocated.
        for i in 0..16 {
            assert!(m.is_allocated(a.add(i)));
        }
        // Write across the whole 64 KB region.
        let data = vec![0x5au8; 16 * PAGE_SIZE];
        m.write(a.base(), &data).unwrap();
        assert_eq!(m.read_vec(a.base(), data.len()).unwrap(), data);
    }

    #[test]
    fn oom_when_no_contiguous_run() {
        let m = mem(8);
        let a = m.alloc_frames(NumaDomain(0), 3).unwrap(); // [0,3)
        let _b = m.alloc_frames(NumaDomain(0), 2).unwrap(); // [3,5)
        m.free_frames(a, 3).unwrap(); // free [0,3)
                                      // 3 + 3 free frames exist ([0,3) and [5,8)) but not 4 contiguous... wait,
                                      // [5,8) is 3 frames. Ask for 4 contiguous: must fail.
        let err = m.alloc_frames(NumaDomain(0), 4).unwrap_err();
        assert!(matches!(err, MemError::OutOfMemory { frames: 4, .. }));
        // 3 contiguous still works.
        assert!(m.alloc_frames(NumaDomain(0), 3).is_ok());
    }

    #[test]
    fn free_coalesces_runs() {
        let m = mem(8);
        let a = m.alloc_frames(NumaDomain(0), 8).unwrap();
        m.free_frames(a, 4).unwrap();
        m.free_frames(a.add(4), 4).unwrap();
        // After coalescing we can allocate all 8 again.
        assert!(m.alloc_frames(NumaDomain(0), 8).is_ok());
    }

    #[test]
    fn double_free_fails() {
        let m = mem(4);
        let a = m.alloc_frame(NumaDomain(0)).unwrap();
        m.free_frames(a, 1).unwrap();
        assert_eq!(m.free_frames(a, 1).unwrap_err(), MemError::BadFree(a));
    }

    #[test]
    fn freed_frames_lose_contents() {
        let m = mem(4);
        let a = m.alloc_frame(NumaDomain(0)).unwrap();
        m.write(a.base(), b"secret").unwrap();
        m.free_frames(a, 1).unwrap();
        let b = m.alloc_frame(NumaDomain(0)).unwrap();
        assert_eq!(b, a, "allocator reuses the freed frame");
        // Reallocated frames are zeroed.
        assert_eq!(m.read_vec(b.base(), 6).unwrap(), vec![0u8; 6]);
    }

    #[test]
    fn numa_domains_are_disjoint() {
        let m = PhysMemory::new(NumaTopology::new(2, 2, 8));
        let a = m.alloc_frame(NumaDomain(0)).unwrap();
        let b = m.alloc_frame(NumaDomain(1)).unwrap();
        assert_eq!(m.topology().domain_of_pfn(a), NumaDomain(0));
        assert_eq!(m.topology().domain_of_pfn(b), NumaDomain(1));
    }

    #[test]
    fn stats_track_allocation() {
        let m = mem(8);
        let a = m.alloc_frames(NumaDomain(0), 4).unwrap();
        assert_eq!(m.stats().allocated_frames, 4);
        assert_eq!(m.stats().peak_frames, 4);
        m.free_frames(a, 4).unwrap();
        assert_eq!(m.stats().allocated_frames, 0);
        assert_eq!(m.stats().peak_frames, 4);
    }

    #[test]
    fn copy_moves_real_bytes() {
        let m = mem(8);
        let a = m.alloc_frames(NumaDomain(0), 2).unwrap();
        let b = m.alloc_frames(NumaDomain(0), 2).unwrap();
        let data: Vec<u8> = (0..5000).map(|i| (i % 251) as u8).collect();
        m.write(a.base(), &data).unwrap();
        m.copy(a.base(), b.base(), data.len()).unwrap();
        assert_eq!(m.read_vec(b.base(), data.len()).unwrap(), data);
    }

    #[test]
    fn fill_works() {
        let m = mem(4);
        let a = m.alloc_frame(NumaDomain(0)).unwrap();
        m.fill(a.base().add(10), 0xee, 100).unwrap();
        assert_eq!(m.read_vec(a.base().add(10), 100).unwrap(), vec![0xee; 100]);
        assert_eq!(m.read_vec(a.base(), 10).unwrap(), vec![0u8; 10]);
    }

    #[test]
    fn write_above_init_zero_fills_the_gap() {
        let m = mem(4);
        let a = m.alloc_frame(NumaDomain(0)).unwrap();
        m.fill(a.base(), 0xaa, PAGE_SIZE).unwrap();
        m.free_frames(a, 1).unwrap();
        // The recycled box still holds 0xaa bytes; none may show through
        // the gap below a write that starts above `init`.
        let b = m.alloc_frame(NumaDomain(0)).unwrap();
        assert_eq!(b, a);
        m.write(b.base().add(10), b"xy").unwrap();
        m.write(b.base().add(3000), b"z").unwrap();
        let page = m.read_vec(b.base(), PAGE_SIZE).unwrap();
        let mut want = vec![0u8; PAGE_SIZE];
        want[10..12].copy_from_slice(b"xy");
        want[3000] = b'z';
        assert_eq!(page, want);
    }

    #[test]
    fn recycled_multi_frame_run_reads_as_zero() {
        // The 64 KB TSO skb: 17 frames written end to end, freed, and
        // handed out again from the recycle pool.
        let m = mem(64);
        let a = m.alloc_frames(NumaDomain(0), 17).unwrap();
        let len = 17 * PAGE_SIZE;
        m.fill(a.base(), 0x5c, len).unwrap();
        m.free_frames(a, 17).unwrap();
        let b = m.alloc_frames(NumaDomain(0), 17).unwrap();
        assert_eq!(b, a, "the run reuses the recycled frames");
        assert_eq!(m.read_vec(b.base(), len).unwrap(), vec![0u8; len]);
        assert!(m.equals(b.base(), &vec![0u8; len]).unwrap());
        let mut visited = Vec::new();
        m.visit(b.base(), len, |part| visited.extend_from_slice(part))
            .unwrap();
        assert_eq!(visited, vec![0u8; len]);
    }

    #[test]
    fn copy_from_partly_initialised_source() {
        let m = mem(16);
        let src = m.alloc_frames(NumaDomain(0), 2).unwrap();
        let dst = m.alloc_frames(NumaDomain(0), 2).unwrap();
        // Dirty the destination everywhere, the source only at its start.
        m.fill(dst.base(), 0xff, 2 * PAGE_SIZE).unwrap();
        m.write(src.base(), b"head").unwrap();
        m.write(src.base().add(PAGE_SIZE as u64 + 100), b"mid")
            .unwrap();
        m.copy(src.base(), dst.base(), 2 * PAGE_SIZE).unwrap();
        let mut want = vec![0u8; 2 * PAGE_SIZE];
        want[..4].copy_from_slice(b"head");
        want[PAGE_SIZE + 100..PAGE_SIZE + 103].copy_from_slice(b"mid");
        assert_eq!(m.read_vec(dst.base(), 2 * PAGE_SIZE).unwrap(), want);
    }

    /// Random alloc/free/write/read/equals/copy/visit sequences against a
    /// model that keeps one plain zeroed-on-alloc `Vec<u8>` per frame.
    #[test]
    fn matches_a_zero_on_alloc_model() {
        use simcore::SimRng;
        use std::collections::HashMap;

        const FRAMES: u64 = 96;
        fn model_read(model: &HashMap<u64, Vec<u8>>, pa: PhysAddr, len: usize) -> Vec<u8> {
            (0..len)
                .map(|i| {
                    let cur = pa.add(i as u64);
                    model[&cur.pfn().0][cur.page_offset()]
                })
                .collect()
        }
        fn model_write(model: &mut HashMap<u64, Vec<u8>>, pa: PhysAddr, data: &[u8]) {
            for (i, &b) in data.iter().enumerate() {
                let cur = pa.add(i as u64);
                model.get_mut(&cur.pfn().0).unwrap()[cur.page_offset()] = b;
            }
        }
        /// A random `(pa, len)` inside run `(pfn, n)`, up to 3 pages long.
        fn span(rng: &mut SimRng, (pfn, n): (Pfn, u64)) -> (PhysAddr, usize) {
            let bytes = n * PAGE_SIZE as u64;
            let off = rng.below(bytes);
            let len = 1 + rng.below((bytes - off).min(3 * PAGE_SIZE as u64));
            (pfn.base().add(off), len as usize)
        }

        let mut rng = SimRng::seed(0x1a2b_3c4d);
        for _ in 0..8 {
            let m = mem(FRAMES);
            let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
            let mut runs: Vec<(Pfn, u64)> = Vec::new();
            for _ in 0..400 {
                match rng.below(8) {
                    0 | 1 => {
                        let n = if rng.chance(0.3) { 17 } else { rng.range(1, 6) };
                        let Ok(pfn) = m.alloc_frames(NumaDomain(0), n) else {
                            continue;
                        };
                        for i in 0..n {
                            let prev = model.insert(pfn.0 + i, vec![0u8; PAGE_SIZE]);
                            assert!(prev.is_none(), "frame {} handed out twice", pfn.0 + i);
                        }
                        runs.push((pfn, n));
                    }
                    2 if !runs.is_empty() => {
                        let (pfn, n) = runs.swap_remove(rng.below(runs.len() as u64) as usize);
                        m.free_frames(pfn, n).unwrap();
                        for i in 0..n {
                            model.remove(&(pfn.0 + i));
                        }
                    }
                    3 if !runs.is_empty() => {
                        let run = runs[rng.below(runs.len() as u64) as usize];
                        let (pa, len) = span(&mut rng, run);
                        let data = rng.bytes(len);
                        m.write(pa, &data).unwrap();
                        model_write(&mut model, pa, &data);
                    }
                    4 if !runs.is_empty() => {
                        let run = runs[rng.below(runs.len() as u64) as usize];
                        let (pa, len) = span(&mut rng, run);
                        assert_eq!(m.read_vec(pa, len).unwrap(), model_read(&model, pa, len));
                    }
                    5 if !runs.is_empty() => {
                        let run = runs[rng.below(runs.len() as u64) as usize];
                        let (pa, len) = span(&mut rng, run);
                        let mut want = model_read(&model, pa, len);
                        assert!(m.equals(pa, &want).unwrap());
                        let flip = rng.below(len as u64) as usize;
                        want[flip] ^= 1 << rng.below(8);
                        assert!(!m.equals(pa, &want).unwrap());
                    }
                    6 if runs.len() >= 2 => {
                        let i = rng.below(runs.len() as u64) as usize;
                        let j = (i + 1 + rng.below(runs.len() as u64 - 1) as usize) % runs.len();
                        let (src, len) = span(&mut rng, runs[i]);
                        let (dst, room) = span(&mut rng, runs[j]);
                        let len = len.min(room);
                        m.copy(src, dst, len).unwrap();
                        let moved = model_read(&model, src, len);
                        model_write(&mut model, dst, &moved);
                    }
                    7 if !runs.is_empty() => {
                        let run = runs[rng.below(runs.len() as u64) as usize];
                        let (pa, len) = span(&mut rng, run);
                        let mut streamed = Vec::new();
                        m.visit(pa, len, |part| {
                            assert!(!part.is_empty(), "visit hands out no empty slices");
                            streamed.extend_from_slice(part);
                        })
                        .unwrap();
                        assert_eq!(streamed, model_read(&model, pa, len));
                    }
                    _ => {
                        // An access to a frame the model says is free
                        // must fail as unallocated.
                        let pfn = Pfn(rng.below(FRAMES));
                        if !model.contains_key(&pfn.0) {
                            let err = m.read_vec(pfn.base(), 1).unwrap_err();
                            assert_eq!(err, MemError::Unallocated(pfn));
                        }
                    }
                }
            }
            let held: u64 = runs.iter().map(|&(_, n)| n).sum();
            assert_eq!(m.stats().allocated_frames, held);
        }
    }
}
