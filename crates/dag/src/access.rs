//! Per-node work descriptions: operation counts, global-array accesses and symbolic
//! local-variable (execution-stack) accesses.

use rws_machine::{Access, Addr};

/// A symbolic access to a local variable stored on an execution stack.
///
/// Local variables are declared by fork (and leaf) nodes and live in that node's *segment*
/// on the execution stack of the task executing it (paper, Section 4). Which concrete
/// addresses a segment occupies depends on steals (a stolen task gets a fresh stack while its
/// accesses to ancestors' segments go to the victim's stack), so dag nodes refer to locals
/// symbolically: `hops` ancestor segments up from the node that performs the access, at word
/// `offset` within that segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LocalAccess {
    /// How many segment-declaring ancestors to go up: `0` is the segment declared by the node
    /// performing the access (for leaves and forks), `1` is the nearest enclosing fork's
    /// segment, and so on.
    pub hops: u16,
    /// Word offset within the target segment.
    pub offset: u32,
    /// `true` for a write.
    pub write: bool,
}

impl LocalAccess {
    /// A read of word `offset` of the segment `hops` levels up.
    pub fn read(hops: u16, offset: u32) -> Self {
        LocalAccess { hops, offset, write: false }
    }

    /// A write of word `offset` of the segment `hops` levels up.
    pub fn write(hops: u16, offset: u32) -> Self {
        LocalAccess { hops, offset, write: true }
    }
}

/// The work performed by one dag node: an operation count, a list of global-array accesses
/// (concrete addresses) and a list of symbolic local accesses.
///
/// Work units are attached to leaf nodes and to the fork and join halves of parallel nodes.
/// Each node is a "size O(1) computation" in the paper; nothing in this crate enforces that
/// (leaves of coarsened base cases carry more than O(1) work), but the classification
/// metadata records the base-case granularity so the analysis can account for it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkUnit {
    /// Number of unit-time operations performed (in addition to memory-access costs).
    pub ops: u64,
    /// Accesses to global arrays (inputs / outputs / arrays declared by calling procedures).
    pub global: Vec<Access>,
    /// Symbolic accesses to execution-stack segments.
    pub locals: Vec<LocalAccess>,
}

impl WorkUnit {
    /// A work unit with `ops` operations and no memory accesses.
    pub fn compute(ops: u64) -> Self {
        WorkUnit { ops, ..Default::default() }
    }

    /// An empty work unit (zero cost). Useful for purely structural nodes.
    pub fn empty() -> Self {
        WorkUnit::default()
    }

    /// Builder-style: add a global read.
    pub fn read(mut self, addr: Addr) -> Self {
        self.global.push(Access::read(addr));
        self
    }

    /// Builder-style: add a global write.
    pub fn write(mut self, addr: Addr) -> Self {
        self.global.push(Access::write(addr));
        self
    }

    /// Builder-style: add many global reads.
    pub fn reads<I: IntoIterator<Item = Addr>>(mut self, addrs: I) -> Self {
        self.global.extend(addrs.into_iter().map(Access::read));
        self
    }

    /// Builder-style: add many global writes.
    pub fn writes<I: IntoIterator<Item = Addr>>(mut self, addrs: I) -> Self {
        self.global.extend(addrs.into_iter().map(Access::write));
        self
    }

    /// Builder-style: add a local (execution-stack) read.
    pub fn local_read(mut self, hops: u16, offset: u32) -> Self {
        self.locals.push(LocalAccess::read(hops, offset));
        self
    }

    /// Builder-style: add a local (execution-stack) write.
    pub fn local_write(mut self, hops: u16, offset: u32) -> Self {
        self.locals.push(LocalAccess::write(hops, offset));
        self
    }

    /// Builder-style: set the operation count.
    pub fn with_ops(mut self, ops: u64) -> Self {
        self.ops = ops;
        self
    }

    /// Total number of memory accesses (global + local).
    pub fn access_count(&self) -> u64 {
        (self.global.len() + self.locals.len()) as u64
    }

    /// Number of global writes in this unit.
    pub fn global_writes(&self) -> u64 {
        self.global.iter().filter(|a| a.write).count() as u64
    }

    /// Whether the unit does nothing at all.
    pub fn is_empty(&self) -> bool {
        self.ops == 0 && self.global.is_empty() && self.locals.is_empty()
    }

    /// The node's cost in unit-time operations excluding memory delays: at least 1 for any
    /// non-empty unit (every executed dag node takes at least one time step).
    pub fn base_cost(&self) -> u64 {
        self.ops.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates() {
        let w = WorkUnit::compute(3)
            .read(Addr(1))
            .write(Addr(2))
            .reads([Addr(3), Addr(4)])
            .writes([Addr(5)])
            .local_read(0, 0)
            .local_write(1, 1);
        assert_eq!(w.ops, 3);
        assert_eq!(w.global.len(), 5);
        assert_eq!(w.locals.len(), 2);
        assert_eq!(w.access_count(), 7);
        assert_eq!(w.global_writes(), 2);
        assert!(!w.is_empty());
    }

    #[test]
    fn empty_unit() {
        let w = WorkUnit::empty();
        assert!(w.is_empty());
        assert_eq!(w.access_count(), 0);
        assert_eq!(w.base_cost(), 1, "executing any node takes at least one step");
    }

    #[test]
    fn local_access_constructors() {
        assert_eq!(LocalAccess::read(2, 5), LocalAccess { hops: 2, offset: 5, write: false });
        assert_eq!(LocalAccess::write(0, 1), LocalAccess { hops: 0, offset: 1, write: true });
    }

    #[test]
    fn with_ops_overrides() {
        let w = WorkUnit::empty().with_ops(7);
        assert_eq!(w.ops, 7);
        assert_eq!(w.base_cost(), 7);
    }
}
