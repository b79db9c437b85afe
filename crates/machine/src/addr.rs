//! Word addresses, block identifiers, processor identifiers and address-space regions.
//!
//! The simulated address space is word-addressed (a "word" is the paper's unit of data: one
//! variable). Blocks (cache lines) contain `B` consecutive words. The address space is split
//! into two disjoint regions so that the scheduler can respect the paper's Space Allocation
//! Property (Property 4.3): global arrays (algorithm inputs/outputs) never share a block with
//! execution-stack storage, and stack allocations for different tasks are made in block-sized
//! disjoint units.

use std::fmt;

/// A word address in the simulated shared memory.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(pub u64);

/// Identifier of a block (cache line): `addr / B`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u64);

/// Identifier of a simulated processor, `0..p`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub usize);

/// Base word address of the execution-stack region.
///
/// Global data (algorithm inputs and outputs) lives below this address; execution stacks are
/// allocated at or above it. The gap is large enough that no realistic workload can overflow
/// the global region into the stack region.
pub const STACK_REGION_BASE: u64 = 1 << 40;

/// The region of the address space an address belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Region {
    /// Global arrays: algorithm inputs, outputs and other shared data.
    Global,
    /// Execution stacks of tasks (local variables of procedure frames).
    Stack,
}

impl Addr {
    /// The block containing this address, for block size `block_words`.
    #[inline]
    pub fn block(self, block_words: u64) -> BlockId {
        debug_assert!(block_words > 0);
        BlockId(self.0 / block_words)
    }

    /// Offset of this address within its block.
    #[inline]
    pub fn block_offset(self, block_words: u64) -> u64 {
        self.0 % block_words
    }

    /// Which region of the address space this address belongs to.
    #[inline]
    pub fn region(self) -> Region {
        if self.0 >= STACK_REGION_BASE {
            Region::Stack
        } else {
            Region::Global
        }
    }

    /// Address `offset` words after this one.
    #[inline]
    pub fn offset(self, offset: u64) -> Addr {
        Addr(self.0 + offset)
    }
}

impl BlockId {
    /// The first word address of this block, for block size `block_words`.
    #[inline]
    pub fn base(self, block_words: u64) -> Addr {
        Addr(self.0 * block_words)
    }

    /// Which region of the address space this block belongs to.
    #[inline]
    pub fn region(self, block_words: u64) -> Region {
        self.base(block_words).region()
    }
}

impl ProcId {
    /// The processor index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.region() {
            Region::Global => write!(f, "g@{:#x}", self.0),
            Region::Stack => write!(f, "s@{:#x}", self.0 - STACK_REGION_BASE),
        }
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{:#x}", self.0)
    }
}

impl fmt::Debug for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Self {
        Addr(v)
    }
}

impl From<usize> for ProcId {
    fn from(v: usize) -> Self {
        ProcId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_of_address() {
        assert_eq!(Addr(0).block(8), BlockId(0));
        assert_eq!(Addr(7).block(8), BlockId(0));
        assert_eq!(Addr(8).block(8), BlockId(1));
        assert_eq!(Addr(63).block(16), BlockId(3));
    }

    #[test]
    fn block_offset() {
        assert_eq!(Addr(0).block_offset(8), 0);
        assert_eq!(Addr(13).block_offset(8), 5);
    }

    #[test]
    fn block_base_roundtrip() {
        let b = Addr(123).block(8);
        assert_eq!(b.base(8), Addr(120));
        assert_eq!(Addr(120).block(8), b);
    }

    #[test]
    fn regions() {
        assert_eq!(Addr(0).region(), Region::Global);
        assert_eq!(Addr(STACK_REGION_BASE - 1).region(), Region::Global);
        assert_eq!(Addr(STACK_REGION_BASE).region(), Region::Stack);
        assert_eq!(Addr(STACK_REGION_BASE + 100).region(), Region::Stack);
    }

    #[test]
    fn block_region_follows_base() {
        let b = Addr(STACK_REGION_BASE + 9).block(8);
        assert_eq!(b.region(8), Region::Stack);
        let g = Addr(64).block(8);
        assert_eq!(g.region(8), Region::Global);
    }

    #[test]
    fn offset_addition() {
        assert_eq!(Addr(10).offset(5), Addr(15));
    }

    #[test]
    fn debug_formatting() {
        assert_eq!(format!("{:?}", Addr(16)), "g@0x10");
        assert_eq!(format!("{:?}", ProcId(3)), "P3");
        assert_eq!(format!("{:?}", BlockId(2)), "B0x2");
    }
}
