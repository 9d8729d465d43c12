//! `GuestMem`: the combined guest environment — physical memory, one address
//! space, the frame allocator, and a bump heap for guest data structures.

use crate::addr::{PhysAddr, VirtAddr, PAGE_BYTES, PAGE_SHIFT};
use crate::error::MemError;
use crate::frame::FrameAlloc;
use crate::phys::PhysMem;
use crate::space::AddressSpace;
use std::cell::Cell;
use std::cmp::Ordering;

/// Sentinel VPN for an empty translation cache (no real VPN reaches 2^52).
const NO_VPN: u64 = u64::MAX;

/// Base virtual address of the guest heap (an arbitrary canonical address;
/// nonzero so allocation never returns a null-looking pointer).
const HEAP_BASE: u64 = 0x0000_7f00_0000_0000;

/// Size cap of the guest heap region (16 GB of virtual space — far more than
/// any workload in this repo touches; it bounds runaway allocations).
const HEAP_LIMIT: u64 = 16 << 30;

/// The guest memory environment used by all data structures and both query
/// engines (software baseline and QEI).
///
/// # Example
///
/// ```
/// use qei_mem::GuestMem;
///
/// let mut mem = GuestMem::new(1);
/// let node = mem.alloc(24, 8).unwrap();
/// mem.write_u64(node, 0x11).unwrap();
/// mem.write_u64(node + 8, 0x22).unwrap();
/// assert_eq!(mem.read_u64(node + 8).unwrap(), 0x22);
/// ```
#[derive(Debug, Clone)]
pub struct GuestMem {
    phys: PhysMem,
    space: AddressSpace,
    frames: FrameAlloc,
    brk: u64,
    /// One-entry software translation cache — `(vpn, pfn)` of the last
    /// successful translation on the functional access path. Mappings are
    /// only ever added (never changed or removed), so a cached entry can go
    /// stale-empty but never wrong. Purely functional: the *timing* models
    /// keep their own TLBs.
    last_xlate: Cell<(u64, u64)>,
}

impl GuestMem {
    /// Creates a guest with a deterministic physical layout for `seed`.
    pub fn new(seed: u64) -> Self {
        GuestMem {
            phys: PhysMem::new(),
            space: AddressSpace::new(),
            frames: FrameAlloc::new(seed),
            brk: HEAP_BASE,
            last_xlate: Cell::new((NO_VPN, 0)),
        }
    }

    /// The address space (for translation-path timing models).
    pub fn space(&self) -> &AddressSpace {
        &self.space
    }

    /// Bytes currently allocated on the guest heap.
    pub fn heap_used(&self) -> u64 {
        self.brk - HEAP_BASE
    }

    /// Allocates `size` bytes with the given power-of-two `align`ment and maps
    /// the backing pages. Returns the virtual address.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfMemory`] if the heap region is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn alloc(&mut self, size: u64, align: u64) -> Result<VirtAddr, MemError> {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = (self.brk + align - 1) & !(align - 1);
        let end = base.checked_add(size.max(1)).ok_or(MemError::OutOfMemory)?;
        if end - HEAP_BASE > HEAP_LIMIT {
            return Err(MemError::OutOfMemory);
        }
        self.brk = end;
        for vpn in (base >> 12)..=((end - 1) >> 12) {
            self.space.ensure_mapped(vpn, &mut self.frames);
        }
        Ok(VirtAddr(base))
    }

    /// Allocates and zero-initializes (guest memory is zero-filled on first
    /// touch, so this is just [`GuestMem::alloc`]; provided for clarity).
    pub fn alloc_zeroed(&mut self, size: u64, align: u64) -> Result<VirtAddr, MemError> {
        self.alloc(size, align)
    }

    /// Translates `va`, failing like hardware would.
    pub fn translate(&self, va: VirtAddr) -> Result<PhysAddr, MemError> {
        if va.is_null() {
            return Err(MemError::NullDeref);
        }
        let vpn = va.vpn();
        let (cached_vpn, cached_pfn) = self.last_xlate.get();
        if vpn == cached_vpn {
            return Ok(PhysAddr((cached_pfn << PAGE_SHIFT) | va.page_offset()));
        }
        let pa = self.space.translate(va)?;
        self.last_xlate.set((vpn, pa.0 >> PAGE_SHIFT));
        Ok(pa)
    }

    /// Visits the `len` bytes at `va` as one borrowed piece per page, in
    /// address order. Every page of the span is translated, whatever
    /// `visit` does with the pieces; the walk stops at the first page that
    /// fails, after visiting the pieces before it.
    #[inline]
    fn for_each_piece(
        &self,
        va: VirtAddr,
        len: usize,
        mut visit: impl FnMut(&[u8]),
    ) -> Result<(), MemError> {
        let mut addr = va;
        let mut done = 0usize;
        while done < len {
            let pa = self.translate(addr)?;
            let n = ((PAGE_BYTES - addr.page_offset()) as usize).min(len - done);
            visit(self.phys.frame_bytes(pa, n));
            done += n;
            addr = addr + n as u64;
        }
        Ok(())
    }

    /// Reads `buf.len()` bytes at virtual address `va`.
    ///
    /// # Errors
    ///
    /// Propagates translation failures ([`MemError::Unmapped`] /
    /// [`MemError::NullDeref`]).
    pub fn read(&self, va: VirtAddr, buf: &mut [u8]) -> Result<(), MemError> {
        let mut done = 0usize;
        self.for_each_piece(va, buf.len(), |piece| {
            buf[done..done + piece.len()].copy_from_slice(piece);
            done += piece.len();
        })
    }

    /// Reads `len` bytes at `va` into `buf`, reusing its allocation: the
    /// buffer is cleared, then extended page by page (no zero-fill first).
    /// On a fault `buf` holds the bytes of the pages before the failing one.
    ///
    /// # Errors
    ///
    /// Propagates translation failures.
    pub fn read_into(&self, va: VirtAddr, len: usize, buf: &mut Vec<u8>) -> Result<(), MemError> {
        buf.clear();
        self.for_each_piece(va, len, |piece| buf.extend_from_slice(piece))
    }

    /// Orders the `len` guest bytes at `va` against `query` like
    /// `read_vec(va, len)?.cmp(query)` — memcmp order over the common
    /// prefix, then length — comparing page by page in place. Every page of
    /// the span is translated even after the order is decided, so a span
    /// that runs into an unmapped page faults exactly as reading it would.
    ///
    /// # Errors
    ///
    /// Propagates translation failures.
    pub fn compare(&self, va: VirtAddr, len: usize, query: &[u8]) -> Result<Ordering, MemError> {
        let mut order = Ordering::Equal;
        let mut done = 0usize;
        self.for_each_piece(va, len, |piece| {
            if order.is_eq() {
                let rest = query.get(done..).unwrap_or(&[]);
                let common = piece.len().min(rest.len());
                order = piece[..common].cmp(&rest[..common]);
                if order.is_eq() && common < piece.len() {
                    // The query ended inside this piece: the stored span is
                    // the longer one.
                    order = Ordering::Greater;
                }
            }
            done += piece.len();
        })?;
        Ok(order.then(len.cmp(&query.len())))
    }

    /// Writes `buf` at virtual address `va`.
    ///
    /// # Errors
    ///
    /// Propagates translation failures.
    pub fn write(&mut self, va: VirtAddr, buf: &[u8]) -> Result<(), MemError> {
        let mut addr = va;
        let mut done = 0usize;
        while done < buf.len() {
            let pa = self.translate(addr)?;
            let n = ((PAGE_BYTES - addr.page_offset()) as usize).min(buf.len() - done);
            self.phys.write(pa, &buf[done..done + n]);
            done += n;
            addr = addr + n as u64;
        }
        Ok(())
    }

    /// Reads a little-endian `u64`: one translation and one 8-byte load
    /// when the word lies inside one page.
    ///
    /// # Errors
    ///
    /// Propagates translation failures.
    #[inline]
    pub fn read_u64(&self, va: VirtAddr) -> Result<u64, MemError> {
        if va.page_offset() <= PAGE_BYTES - 8 {
            return Ok(self.phys.read_u64(self.translate(va)?));
        }
        let mut b = [0u8; 8];
        self.read(va, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Propagates translation failures.
    pub fn write_u64(&mut self, va: VirtAddr, v: u64) -> Result<(), MemError> {
        self.write(va, &v.to_le_bytes())
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Propagates translation failures.
    pub fn read_u32(&self, va: VirtAddr) -> Result<u32, MemError> {
        let mut b = [0u8; 4];
        self.read(va, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Writes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Propagates translation failures.
    pub fn write_u32(&mut self, va: VirtAddr, v: u32) -> Result<(), MemError> {
        self.write(va, &v.to_le_bytes())
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// Propagates translation failures.
    pub fn read_u16(&self, va: VirtAddr) -> Result<u16, MemError> {
        let mut b = [0u8; 2];
        self.read(va, &mut b)?;
        Ok(u16::from_le_bytes(b))
    }

    /// Writes a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// Propagates translation failures.
    pub fn write_u16(&mut self, va: VirtAddr, v: u16) -> Result<(), MemError> {
        self.write(va, &v.to_le_bytes())
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Propagates translation failures.
    pub fn read_u8(&self, va: VirtAddr) -> Result<u8, MemError> {
        let mut b = [0u8; 1];
        self.read(va, &mut b)?;
        Ok(b[0])
    }

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// Propagates translation failures.
    pub fn write_u8(&mut self, va: VirtAddr, v: u8) -> Result<(), MemError> {
        self.write(va, &[v])
    }

    /// Reads `len` bytes into a fresh vector.
    ///
    /// # Errors
    ///
    /// Propagates translation failures.
    pub fn read_vec(&self, va: VirtAddr, len: usize) -> Result<Vec<u8>, MemError> {
        let mut v = Vec::with_capacity(len);
        self.read_into(va, len, &mut v)?;
        Ok(v)
    }

    /// Digest of the full guest state: the materialized physical image
    /// ([`PhysMem::digest`]: each touched frame's number and content hash,
    /// in frame-number order), then the heap break and the allocator
    /// position, folded byte by byte with FNV-1a. Two guests with equal
    /// digests read identically at every address and continue allocating
    /// identically — the serialized-state comparison the snapshot/revert
    /// machinery pins its semantics on. The value depends on content
    /// alone, not on write order or clone history, and a [`Clone`] always
    /// digests equal to its source. Frame hashes are cached, so a digest
    /// rehashes only the frames written since the last one.
    pub fn state_digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = self.phys.digest(FNV_OFFSET);
        for v in [
            self.brk,
            self.frames.allocated_frames(),
            self.space.mapped_pages() as u64,
        ] {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            }
        }
        h
    }

    /// Whether the `expect.len()` guest bytes at `va` equal `expect`
    /// ([`GuestMem::compare`] in place, so it faults like reading them).
    ///
    /// # Errors
    ///
    /// Propagates translation failures.
    pub fn bytes_equal(&self, va: VirtAddr, expect: &[u8]) -> Result<bool, MemError> {
        Ok(self.compare(va, expect.len(), expect)?.is_eq())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_alignment_and_growth() {
        let mut m = GuestMem::new(2);
        let a = m.alloc(10, 8).unwrap();
        assert_eq!(a.0 % 8, 0);
        let b = m.alloc(1, 64).unwrap();
        assert_eq!(b.0 % 64, 0);
        assert!(b.0 > a.0);
        assert!(m.heap_used() >= 11);
    }

    #[test]
    fn scalar_round_trips() {
        let mut m = GuestMem::new(2);
        let p = m.alloc(32, 8).unwrap();
        m.write_u8(p, 0xab).unwrap();
        m.write_u16(p + 2, 0xbeef).unwrap();
        m.write_u32(p + 4, 0xdead_beef).unwrap();
        m.write_u64(p + 8, u64::MAX - 1).unwrap();
        assert_eq!(m.read_u8(p).unwrap(), 0xab);
        assert_eq!(m.read_u16(p + 2).unwrap(), 0xbeef);
        assert_eq!(m.read_u32(p + 4).unwrap(), 0xdead_beef);
        assert_eq!(m.read_u64(p + 8).unwrap(), u64::MAX - 1);
    }

    #[test]
    fn cross_page_write_read() {
        let mut m = GuestMem::new(2);
        // Allocate enough to straddle several pages.
        let p = m.alloc(3 * PAGE_BYTES, 4096).unwrap();
        let data: Vec<u8> = (0..2 * PAGE_BYTES as usize)
            .map(|i| (i % 251) as u8)
            .collect();
        let start = p + (PAGE_BYTES / 2);
        m.write(start, &data).unwrap();
        assert_eq!(m.read_vec(start, data.len()).unwrap(), data);
    }

    #[test]
    fn null_and_unmapped() {
        let m = GuestMem::new(2);
        assert_eq!(m.read_u64(VirtAddr::NULL), Err(MemError::NullDeref));
        assert!(matches!(
            m.read_u64(VirtAddr(0x1234_5678)),
            Err(MemError::Unmapped(_))
        ));
    }

    #[test]
    fn fragmented_physical_layout() {
        let mut m = GuestMem::new(2);
        let p = m.alloc(8 * PAGE_BYTES, 4096).unwrap();
        let mut adjacent = 0;
        for i in 0..7u64 {
            let a = m.translate(p + i * PAGE_BYTES).unwrap();
            let b = m.translate(p + (i + 1) * PAGE_BYTES).unwrap();
            if b.0 == a.0 + PAGE_BYTES {
                adjacent += 1;
            }
        }
        assert!(adjacent <= 1, "layout unexpectedly contiguous");
    }

    #[test]
    fn bytes_equal_semantics() {
        let mut m = GuestMem::new(2);
        let p = m.alloc(16, 8).unwrap();
        m.write(p, b"query-key").unwrap();
        assert!(m.bytes_equal(p, b"query-key").unwrap());
        assert!(!m.bytes_equal(p, b"other-key").unwrap());
    }

    #[test]
    fn heap_exhaustion() {
        let mut m = GuestMem::new(2);
        assert_eq!(m.alloc(u64::MAX / 2, 8), Err(MemError::OutOfMemory));
    }

    #[test]
    fn translation_cache_agrees_with_page_table() {
        let mut m = GuestMem::new(2);
        let a = m.alloc(PAGE_BYTES, 8).unwrap();
        assert!(m.read_u64(a).is_ok()); // warms the one-entry cache on a's page
        let b = m.alloc(4 * PAGE_BYTES, 4096).unwrap(); // adds fresh mappings
        m.write_u64(b + 3 * PAGE_BYTES, 7).unwrap();
        assert_eq!(m.read_u64(b + 3 * PAGE_BYTES).unwrap(), 7);
        // Cached and uncached translations always agree.
        for &va in &[a, b, b + 3 * PAGE_BYTES] {
            assert_eq!(m.translate(va).unwrap(), m.space().translate(va).unwrap());
            assert_eq!(m.translate(va).unwrap(), m.space().translate(va).unwrap());
        }
    }

    #[test]
    fn state_digest_tracks_content_and_allocator() {
        let mut m = GuestMem::new(2);
        let p = m.alloc(64, 8).unwrap();
        m.write_u64(p, 1).unwrap();
        let snap = m.clone();
        assert_eq!(m.state_digest(), snap.state_digest(), "clone digests equal");
        let before = m.state_digest();
        m.write_u64(p, 2).unwrap();
        assert_ne!(m.state_digest(), before, "content change moves the digest");
        m.write_u64(p, 1).unwrap();
        assert_eq!(m.state_digest(), before, "restoring content restores it");
        let _ = m.alloc(64, 8).unwrap();
        assert_ne!(m.state_digest(), before, "allocation moves the digest");
    }

    #[test]
    fn clone_snapshots_image_and_allocator_state() {
        let mut m = GuestMem::new(2);
        let p = m.alloc(64, 8).unwrap();
        m.write_u64(p, 1).unwrap();
        let mut c = m.clone();
        m.write_u64(p, 2).unwrap();
        assert_eq!(c.read_u64(p).unwrap(), 1, "clone is an independent image");
        // The clone continues allocating exactly where the original does.
        let q_orig = m.alloc(64, 8).unwrap();
        let q_clone = c.alloc(64, 8).unwrap();
        assert_eq!(q_orig, q_clone);
        assert_eq!(m.translate(q_orig).unwrap(), c.translate(q_clone).unwrap());
    }
}
