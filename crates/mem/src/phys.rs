//! Simulated physical memory: copy-on-write 4 KB frames with cached
//! content hashes.
//!
//! Each materialized frame is its own shared page behind a flat
//! `pfn → frame` table. A clone copies the table and shares every page; the
//! first write to a shared page copies that one page ([`Arc::make_mut`]).
//! So a fork costs a table of pointers, and a snapshot costs only the
//! frames written after it. [`FrameAlloc`] hands out frame numbers densely
//! from 1 upward (in shuffled windows), so the table stays small and an
//! access is one array index plus one pointer — no hashing on the
//! functional read/write path.
//!
//! Each frame also caches a hash of its content, which any write to the
//! frame clears. [`PhysMem::digest`] folds the cached hashes in PFN order
//! and rehashes only the cleared frames.
//!
//! [`FrameAlloc`]: crate::FrameAlloc

use crate::addr::{PhysAddr, PAGE_BYTES, PAGE_SHIFT};
use std::cell::Cell;
use std::sync::Arc;

/// Upper bound on the frame-number space (256 GB of simulated physical
/// memory) — a guard against a stray huge physical address turning the flat
/// table into an allocation bomb.
const MAX_FRAMES: u64 = 1 << 26;

/// The bytes of one frame.
type Page = [u8; PAGE_BYTES as usize];

/// What an untouched frame reads as.
static ZERO_PAGE: Page = [0; PAGE_BYTES as usize];

/// One step of the word-wise fold behind frame hashes and the digest. The
/// multiply carries each bit of `w` upward, and the rotation carries the
/// high bits into the low ones before the next multiply, so every input bit
/// reaches every output bit once another word follows. (Plain word-wise
/// FNV-1a has no rotation: there, flipping bit 63 of any two words cancels.)
#[inline]
fn mix(h: u64, w: u64) -> u64 {
    (h.rotate_left(23) ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Content hash of one frame: its 512 little-endian words folded with
/// [`mix`], then finalized so the last word's high bits reach the low ones.
fn page_hash(page: &Page) -> u64 {
    let (words, _) = page.as_chunks::<8>();
    let h = words.iter().fold(0, |h, w| mix(h, u64::from_le_bytes(*w)));
    h ^ (h >> 29)
}

/// One entry of the frame table.
#[derive(Debug, Default, Clone)]
struct Frame {
    /// The frame's bytes, `None` while untouched. Shared with clones until
    /// either side writes.
    page: Option<Arc<Page>>,
    /// [`page_hash`] of `page`, `None` until a digest computes it and again
    /// after any write to the frame.
    hash: Cell<Option<u64>>,
}

/// Sparse guest physical memory. Frames are materialized on first touch.
///
/// All reads/writes take *physical* addresses; translation happens in
/// [`crate::AddressSpace`] / [`crate::GuestMem`]. Accesses may straddle frame
/// boundaries.
#[derive(Debug, Default, Clone)]
pub struct PhysMem {
    /// Indexed by PFN.
    frames: Vec<Frame>,
}

impl PhysMem {
    /// Creates an empty physical memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of frames that have been touched.
    pub fn resident_frames(&self) -> usize {
        self.frames.iter().filter(|f| f.page.is_some()).count()
    }

    /// The page backing `pfn`, if it has been materialized.
    #[inline]
    fn page(&self, pfn: u64) -> Option<&Page> {
        self.frames.get(usize::try_from(pfn).ok()?)?.page.as_deref()
    }

    /// The page backing `pfn` for writing: materialized if untouched,
    /// unshared if a clone still holds it, and its cached hash cleared.
    fn page_mut(&mut self, pfn: u64) -> &mut Page {
        assert!(pfn < MAX_FRAMES, "physical frame {pfn:#x} out of range");
        let pfn = pfn as usize;
        if pfn >= self.frames.len() {
            self.frames.resize_with(pfn + 1, Frame::default);
        }
        let frame = &mut self.frames[pfn];
        *frame.hash.get_mut() = None;
        Arc::make_mut(
            frame
                .page
                .get_or_insert_with(|| Arc::new([0; PAGE_BYTES as usize])),
        )
    }

    /// The `n` bytes at `pa`, borrowed in place; an untouched frame reads
    /// as zeros.
    ///
    /// # Panics
    ///
    /// Panics if the span crosses a frame boundary.
    #[inline]
    pub(crate) fn frame_bytes(&self, pa: PhysAddr, n: usize) -> &[u8] {
        let off = (pa.0 & (PAGE_BYTES - 1)) as usize;
        let page = self.page(pa.0 >> PAGE_SHIFT).unwrap_or(&ZERO_PAGE);
        &page[off..off + n]
    }

    /// Reads `buf.len()` bytes starting at `pa`. Untouched memory reads as 0.
    pub fn read(&self, pa: PhysAddr, buf: &mut [u8]) {
        let mut addr = pa.0;
        let mut done = 0usize;
        while done < buf.len() {
            let off = (addr & (PAGE_BYTES - 1)) as usize;
            let n = ((PAGE_BYTES as usize) - off).min(buf.len() - done);
            buf[done..done + n].copy_from_slice(self.frame_bytes(PhysAddr(addr), n));
            done += n;
            addr += n as u64;
        }
    }

    /// Writes `buf` starting at `pa`, materializing frames as needed.
    pub fn write(&mut self, pa: PhysAddr, buf: &[u8]) {
        let mut addr = pa.0;
        let mut done = 0usize;
        while done < buf.len() {
            let pfn = addr >> 12;
            let off = (addr & (PAGE_BYTES - 1)) as usize;
            let n = ((PAGE_BYTES as usize) - off).min(buf.len() - done);
            self.page_mut(pfn)[off..off + n].copy_from_slice(&buf[done..done + n]);
            done += n;
            addr += n as u64;
        }
    }

    /// Digest of the materialized image, folded into `h` in frame-number
    /// order: each touched frame contributes its PFN and the hash of its
    /// bytes. Only frames written since their last digest are rehashed.
    /// The digest is a pure function of the *content* — two images that
    /// read identically at every physical address and have the same
    /// frames touched digest identically, regardless of the order their
    /// frames were materialized in or of how they were cloned.
    pub fn digest(&self, mut h: u64) -> u64 {
        for (pfn, frame) in self.frames.iter().enumerate() {
            let Some(page) = &frame.page else { continue };
            let hash = frame.hash.get().unwrap_or_else(|| {
                let fresh = page_hash(page);
                frame.hash.set(Some(fresh));
                fresh
            });
            h = mix(mix(h, pfn as u64), hash);
        }
        h
    }

    /// Reads a little-endian `u64` at `pa`: one 8-byte load when the word
    /// lies inside one frame.
    #[inline]
    pub fn read_u64(&self, pa: PhysAddr) -> u64 {
        let mut b = [0u8; 8];
        if pa.page_offset() <= PAGE_BYTES - 8 {
            b.copy_from_slice(self.frame_bytes(pa, 8));
        } else {
            self.read(pa, &mut b);
        }
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64` at `pa`.
    pub fn write_u64(&mut self, pa: PhysAddr, v: u64) {
        self.write(pa, &v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = PhysMem::new();
        let mut b = [0xffu8; 16];
        m.read(PhysAddr(0x5000), &mut b);
        assert_eq!(b, [0u8; 16]);
        assert_eq!(m.resident_frames(), 0);
    }

    #[test]
    fn round_trip_within_frame() {
        let mut m = PhysMem::new();
        m.write(PhysAddr(0x100), b"hello");
        let mut b = [0u8; 5];
        m.read(PhysAddr(0x100), &mut b);
        assert_eq!(&b, b"hello");
        assert_eq!(m.resident_frames(), 1);
    }

    #[test]
    fn straddles_frame_boundary() {
        let mut m = PhysMem::new();
        let pa = PhysAddr(PAGE_BYTES - 3);
        m.write(pa, b"abcdef");
        let mut b = [0u8; 6];
        m.read(pa, &mut b);
        assert_eq!(&b, b"abcdef");
        assert_eq!(m.resident_frames(), 2);
    }

    #[test]
    fn u64_round_trip() {
        let mut m = PhysMem::new();
        m.write_u64(PhysAddr(0x2FFC), 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u64(PhysAddr(0x2FFC)), 0x0123_4567_89ab_cdef);
    }

    #[test]
    fn frames_written_out_of_order_stay_distinct() {
        let mut m = PhysMem::new();
        m.write(PhysAddr(9 * PAGE_BYTES), b"nine");
        m.write(PhysAddr(2 * PAGE_BYTES), b"two");
        m.write(PhysAddr(5 * PAGE_BYTES), b"five");
        let mut b = [0u8; 4];
        m.read(PhysAddr(9 * PAGE_BYTES), &mut b);
        assert_eq!(&b, b"nine");
        m.read(PhysAddr(2 * PAGE_BYTES), &mut b[..3]);
        assert_eq!(&b[..3], b"two");
        assert_eq!(m.resident_frames(), 3);
    }

    #[test]
    fn clone_is_independent() {
        let mut a = PhysMem::new();
        a.write(PhysAddr(0x1000), b"orig");
        let b = a.clone();
        a.write(PhysAddr(0x1000), b"edit");
        let mut buf = [0u8; 4];
        b.read(PhysAddr(0x1000), &mut buf);
        assert_eq!(&buf, b"orig");
    }

    /// An image with `n` frames, each filled with a pattern of its PFN.
    fn image(n: u64) -> PhysMem {
        let mut m = PhysMem::new();
        for pfn in 1..=n {
            let fill: Vec<u8> = (0..PAGE_BYTES).map(|i| (pfn * 31 + i) as u8).collect();
            m.write(PhysAddr(pfn * PAGE_BYTES), &fill);
        }
        m
    }

    /// PFNs whose pages `a` and `b` share (the same allocation).
    fn shared(a: &PhysMem, b: &PhysMem) -> Vec<usize> {
        a.frames
            .iter()
            .zip(&b.frames)
            .enumerate()
            .filter_map(|(pfn, (x, y))| match (&x.page, &y.page) {
                (Some(x), Some(y)) if Arc::ptr_eq(x, y) => Some(pfn),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn fork_shares_every_frame_until_its_first_write() {
        let a = image(6);
        let mut b = a.clone();
        assert_eq!(shared(&a, &b), (1..=6).collect::<Vec<_>>());
        b.write(PhysAddr(3 * PAGE_BYTES + 8), b"x");
        assert_eq!(shared(&a, &b), vec![1, 2, 4, 5, 6], "only frame 3 copied");
        b.write(PhysAddr(3 * PAGE_BYTES + 9), b"y");
        assert_eq!(shared(&a, &b), vec![1, 2, 4, 5, 6]);
        // A read shares as before; an untouched frame stays untouched.
        let _ = b.read_u64(PhysAddr(5 * PAGE_BYTES));
        b.write(PhysAddr(9 * PAGE_BYTES), b"new");
        assert_eq!(shared(&a, &b), vec![1, 2, 4, 5, 6]);
        assert!(a.page(9).is_none());
    }

    #[test]
    fn writes_on_either_side_of_a_fork_stay_on_that_side() {
        let mut a = image(4);
        let base = a.digest(0);
        let bytes = |m: &PhysMem| {
            let mut v = vec![0u8; 6 * PAGE_BYTES as usize];
            m.read(PhysAddr(0), &mut v);
            v
        };
        let before = bytes(&a);

        // Write to the clone: the source keeps its bytes and digest.
        let mut b = a.clone();
        b.write(PhysAddr(2 * PAGE_BYTES + 100), b"clone");
        assert_eq!(bytes(&a), before);
        assert_eq!(a.digest(0), base);
        assert_ne!(b.digest(0), base);

        // And the reverse: write to the source, the clone keeps its own.
        let c = a.clone();
        let c_digest = c.digest(0);
        let c_bytes = bytes(&c);
        a.write(PhysAddr(PAGE_BYTES + 7), b"source");
        assert_eq!(bytes(&c), c_bytes);
        assert_eq!(c.digest(0), c_digest);
        assert_ne!(a.digest(0), base);
    }

    #[test]
    fn resident_frames_is_per_image_across_clones() {
        let mut a = image(3);
        let mut b = a.clone();
        assert_eq!((a.resident_frames(), b.resident_frames()), (3, 3));
        b.write(PhysAddr(7 * PAGE_BYTES), b"b");
        b.write(PhysAddr(2 * PAGE_BYTES), b"b");
        assert_eq!((a.resident_frames(), b.resident_frames()), (3, 4));
        a.write(PhysAddr(10 * PAGE_BYTES - 2), b"abcd");
        assert_eq!((a.resident_frames(), b.resident_frames()), (5, 4));
        drop(b);
        assert_eq!(a.resident_frames(), 5);
    }

    /// Flips bit `bit` of the `word`th little-endian word of frame `pfn`.
    fn flip(m: &mut PhysMem, pfn: u64, word: u64, bit: u32) {
        let pa = PhysAddr(pfn * PAGE_BYTES + word * 8);
        let v = m.read_u64(pa);
        m.write_u64(pa, v ^ (1 << bit));
    }

    #[test]
    fn every_sampled_single_bit_flip_moves_the_digest() {
        let mut m = image(3);
        let base = m.digest(0);
        for word in [0, 255, 511] {
            for bit in [0, 63] {
                flip(&mut m, 2, word, bit);
                assert_ne!(m.digest(0), base, "word {word} bit {bit}");
                flip(&mut m, 2, word, bit);
                assert_eq!(m.digest(0), base, "flipping back restores it");
            }
        }
    }

    #[test]
    fn flipping_bit_63_in_two_words_moves_the_digest() {
        let mut m = image(2);
        let base = m.digest(0);
        for (w1, w2) in [(0, 1), (0, 511), (17, 300), (510, 511)] {
            let mut f = m.clone();
            flip(&mut f, 1, w1, 63);
            flip(&mut f, 1, w2, 63);
            assert_ne!(f.digest(0), base, "words {w1} and {w2}");
        }
        // The same pair across two frames.
        flip(&mut m, 1, 5, 63);
        flip(&mut m, 2, 5, 63);
        assert_ne!(m.digest(0), base);
    }

    #[test]
    fn equal_content_digests_equal_whatever_the_history() {
        // Direct writes, in two different frame orders.
        let mut x = PhysMem::new();
        x.write(PhysAddr(4 * PAGE_BYTES), b"four");
        x.write(PhysAddr(PAGE_BYTES), b"one");
        let mut y = PhysMem::new();
        y.write(PhysAddr(PAGE_BYTES), b"one");
        y.write(PhysAddr(4 * PAGE_BYTES), b"four");
        assert_eq!(x.digest(0), y.digest(0));

        // Clone → write → write back, with a digest cached in between.
        let mut z = x.clone();
        z.write(PhysAddr(PAGE_BYTES), b"ONE");
        assert_ne!(z.digest(0), x.digest(0));
        z.write(PhysAddr(PAGE_BYTES), b"one");
        assert_eq!(z.digest(0), x.digest(0));
        assert_eq!(z.digest(0), y.digest(0));
        // Touching a frame with zeros still makes it resident, as the
        // digest has always counted it.
        z.write(PhysAddr(8 * PAGE_BYTES), &[0; 4]);
        assert_ne!(z.digest(0), y.digest(0));
    }
}
