//! Byte, cache-block and page address newtypes.

// This module is the sanctioned home of raw address arithmetic: the
// offset/delta helpers the `addr-arith` check points every caller to
// are defined here.

use std::fmt;
use std::ops::{Add, Sub};

/// A virtual or physical byte address.
///
/// The simulator works on a 64-bit flat address space. `Addr` deliberately
/// does not implement arithmetic with plain integers beyond explicit
/// `offset`/`delta` helpers so that unit mistakes (bytes vs. blocks) are
/// caught at compile time.
///
/// # Example
///
/// ```
/// use psb_common::Addr;
/// let a = Addr::new(0x2000);
/// assert_eq!(a.offset(64), Addr::new(0x2040));
/// assert_eq!(a.block(32).0, 0x100);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// Creates an address from a raw byte value.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the raw byte value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the cache-block index for a block of `block_size` bytes.
    ///
    /// Implemented as a shift (block sizes are powers of two by
    /// contract), so the hottest address mapping in the simulator has no
    /// division and no panic path.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `block_size` is not a power of two.
    #[inline]
    pub fn block(self, block_size: u64) -> BlockAddr {
        debug_assert!(block_size.is_power_of_two());
        BlockAddr(self.0 >> block_size.trailing_zeros())
    }

    /// Returns the page index for a page of `page_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `page_size` is not a power of two.
    #[inline]
    pub fn page(self, page_size: u64) -> PageAddr {
        debug_assert!(page_size.is_power_of_two());
        PageAddr(self.0 >> page_size.trailing_zeros())
    }

    /// Returns the instruction-word index (`raw >> 2`) as a table key —
    /// the sanctioned home of the PC-to-`usize` narrowing every
    /// PC-indexed predictor table performs.
    #[inline]
    pub fn word_index(self) -> usize {
        (self.0 >> 2) as usize
    }

    /// Returns the address rounded down to the containing block boundary.
    #[inline]
    pub fn block_base(self, block_size: u64) -> Addr {
        debug_assert!(block_size.is_power_of_two());
        Addr(self.0 & !(block_size - 1))
    }

    /// Returns this address displaced by a signed byte `delta`
    /// (wrapping on overflow, as hardware adders do).
    #[inline]
    pub fn offset(self, delta: i64) -> Addr {
        Addr(self.0.wrapping_add(delta as u64))
    }

    /// Returns the signed byte distance `self - earlier`.
    #[inline]
    pub fn delta(self, earlier: Addr) -> i64 {
        self.0.wrapping_sub(earlier.0) as i64
    }

    /// True if the `len`-byte range at `self` and the `other_len`-byte
    /// range at `other` overlap. The range ends are computed in 128 bits,
    /// so a range that runs past `u64::MAX` neither wraps nor panics.
    #[inline]
    pub fn overlaps(self, len: u64, other: Addr, other_len: u64) -> bool {
        let end = |a: Addr, n: u64| u128::from(a.0) + u128::from(n);
        u128::from(self.0) < end(other, other_len) && u128::from(other.0) < end(self, len)
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({:#x})", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

/// A cache-block index (byte address divided by the block size).
///
/// Stream buffers, the Markov predictor and the miss-stream statistics all
/// operate at block granularity; this newtype keeps those quantities from
/// being confused with byte addresses.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr(pub u64);

impl BlockAddr {
    /// Converts back to the byte address of the first byte in the block.
    #[inline]
    pub fn base(self, block_size: u64) -> Addr {
        Addr(self.0 * block_size)
    }

    /// Returns the block displaced by a signed block-count `delta`.
    #[inline]
    pub fn offset(self, delta: i64) -> BlockAddr {
        BlockAddr(self.0.wrapping_add(delta as u64))
    }

    /// Returns the signed block distance `self - earlier`.
    #[inline]
    pub fn delta(self, earlier: BlockAddr) -> i64 {
        self.0.wrapping_sub(earlier.0) as i64
    }
}

impl fmt::Debug for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BlockAddr({:#x})", self.0)
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk:{:#x}", self.0)
    }
}

impl Add<i64> for BlockAddr {
    type Output = BlockAddr;
    fn add(self, rhs: i64) -> BlockAddr {
        self.offset(rhs)
    }
}

impl Sub for BlockAddr {
    type Output = i64;
    fn sub(self, rhs: BlockAddr) -> i64 {
        self.delta(rhs)
    }
}

/// A virtual or physical page index.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageAddr(pub u64);

impl fmt::Debug for PageAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PageAddr({:#x})", self.0)
    }
}

impl fmt::Display for PageAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page:{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_rounding() {
        let a = Addr::new(0x1037);
        assert_eq!(a.block(32), BlockAddr(0x1037 / 32));
        assert_eq!(a.block_base(32), Addr::new(0x1020));
        assert_eq!(a.block_base(64), Addr::new(0x1000));
    }

    #[test]
    fn page_rounding() {
        let a = Addr::new(0x12345);
        assert_eq!(a.page(4096), PageAddr(0x12));
    }

    #[test]
    fn signed_deltas() {
        let a = Addr::new(0x1000);
        let b = Addr::new(0x0f00);
        assert_eq!(a.delta(b), 0x100);
        assert_eq!(b.delta(a), -0x100);
        assert_eq!(a.offset(-0x100), b);
    }

    #[test]
    fn block_arithmetic() {
        let b = BlockAddr(100);
        assert_eq!(b + 5, BlockAddr(105));
        assert_eq!(b + (-5), BlockAddr(95));
        assert_eq!(BlockAddr(105) - b, 5);
        assert_eq!(b - BlockAddr(105), -5);
        assert_eq!(b.base(32), Addr::new(3200));
    }

    #[test]
    fn delta_wraps_like_hardware() {
        let hi = Addr::new(u64::MAX - 3);
        let lo = Addr::new(4);
        assert_eq!(lo.delta(hi), 8);
        assert_eq!(hi.offset(8), lo);
    }

    #[test]
    fn overlap_is_exact_at_the_top_of_the_address_space() {
        let top = Addr::new(u64::MAX - 3);
        // [MAX-3, MAX+5) against itself: the end does not wrap to 4.
        assert!(top.overlaps(8, top, 8));
        assert!(Addr::new(u64::MAX).overlaps(1, top, 8));
        assert!(top.overlaps(8, Addr::new(u64::MAX), 1));
        assert!(!Addr::new(u64::MAX - 4).overlaps(1, top, 8));
        assert!(!top.overlaps(8, Addr::new(0), 8));
        assert!(!Addr::new(0).overlaps(8, top, 8));
        // Adjacent ranges do not overlap; one shared byte does.
        assert!(!Addr::new(0x100).overlaps(8, Addr::new(0x108), 8));
        assert!(Addr::new(0x100).overlaps(9, Addr::new(0x108), 8));
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(format!("{}", Addr::new(255)), "0xff");
        assert_eq!(format!("{:x}", Addr::new(255)), "ff");
        assert_eq!(format!("{}", BlockAddr(16)), "blk:0x10");
    }
}
