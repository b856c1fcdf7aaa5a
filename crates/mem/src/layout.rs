//! Address-space layout helper for applications.
//!
//! Applications store their mutable shared state in [`crate::SimMemory`] and
//! need stable, non-overlapping addresses for it. [`AddressSpace`] is a tiny
//! bump allocator handing out cache-line-aligned regions, so different data
//! structures of one application (and their hints) never alias.

use swarm_types::{Addr, CACHE_LINE_BYTES};

/// Size of one simulated word in bytes.
pub const WORD_BYTES: u64 = 8;

/// A bump allocator for simulated addresses.
///
/// # Example
///
/// ```
/// use swarm_mem::AddressSpace;
///
/// let mut space = AddressSpace::new();
/// let dist = space.alloc_array("dist", 100);
/// let colors = space.alloc_array("colors", 100);
/// assert_ne!(dist.addr_of(0), colors.addr_of(0));
/// assert_eq!(dist.addr_of(1) - dist.addr_of(0), 8);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AddressSpace {
    next: Addr,
    regions: Vec<(String, Region)>,
}

/// A named, contiguous array of 64-bit words in simulated memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    base: Addr,
    len_words: u64,
    /// Number of words between consecutive logical elements (stride 1 packs
    /// elements densely; stride 8 gives each element its own cache line).
    stride_words: u64,
}

impl Region {
    /// Base byte address of the region.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Number of addressable elements.
    pub fn len(&self) -> u64 {
        self.len_words.checked_div(self.stride_words).unwrap_or(0)
    }

    /// Whether the region has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Byte address of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn addr_of(&self, i: u64) -> Addr {
        assert!(i < self.len(), "index {i} out of bounds for region of {} elements", self.len());
        self.base + i * self.stride_words * WORD_BYTES
    }

    /// Byte address of word `w` within element `i` (for multi-word elements).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds or `w >= stride`.
    pub fn addr_of_field(&self, i: u64, w: u64) -> Addr {
        assert!(w < self.stride_words, "field {w} out of bounds for stride {}", self.stride_words);
        self.addr_of(i) + w * WORD_BYTES
    }

    /// Whether `addr` falls inside this region.
    pub fn contains(&self, addr: Addr) -> bool {
        addr >= self.base && addr < self.base + self.len_words * WORD_BYTES
    }
}

impl AddressSpace {
    /// Create an empty address space starting at a non-zero base (so that
    /// address 0 is never handed out and can be used as a sentinel).
    pub fn new() -> Self {
        AddressSpace { next: CACHE_LINE_BYTES, regions: Vec::new() }
    }

    /// Allocate an array of `len` single-word elements packed densely.
    pub fn alloc_array(&mut self, name: &str, len: u64) -> Region {
        self.alloc_strided(name, len, 1)
    }

    /// Allocate an array of `len` elements, each `stride_words` words wide.
    /// Use a stride of 8 to give each element a private cache line (the
    /// layout `des` and `nocsim` rely on when hinting by object id).
    ///
    /// # Panics
    ///
    /// Panics if `stride_words` is zero.
    pub fn alloc_strided(&mut self, name: &str, len: u64, stride_words: u64) -> Region {
        assert!(stride_words > 0, "stride must be positive");
        let len_words = len * stride_words;
        let region = Region { base: self.next, len_words, stride_words };
        // Keep regions line-aligned so hints derived from lines never alias
        // across regions.
        let bytes = len_words * WORD_BYTES;
        let padded = bytes.div_ceil(CACHE_LINE_BYTES) * CACHE_LINE_BYTES;
        self.next += padded.max(CACHE_LINE_BYTES);
        self.regions.push((name.to_string(), region));
        region
    }

    /// Look up a region by name (mostly for debugging and tests).
    pub fn region(&self, name: &str) -> Option<Region> {
        self.regions.iter().find(|(n, _)| n == name).map(|(_, r)| *r)
    }

    /// Iterate over all allocated regions and their names.
    pub fn regions(&self) -> impl Iterator<Item = (&str, &Region)> {
        self.regions.iter().map(|(n, r)| (n.as_str(), r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swarm_types::LineAddr;

    #[test]
    fn regions_do_not_overlap() {
        let mut space = AddressSpace::new();
        let a = space.alloc_array("a", 10);
        let b = space.alloc_array("b", 10);
        for i in 0..10 {
            assert!(!b.contains(a.addr_of(i)));
            assert!(!a.contains(b.addr_of(i)));
        }
    }

    #[test]
    fn regions_are_line_aligned() {
        let mut space = AddressSpace::new();
        let a = space.alloc_array("a", 3);
        let b = space.alloc_array("b", 3);
        assert_eq!(a.base() % CACHE_LINE_BYTES, 0);
        assert_eq!(b.base() % CACHE_LINE_BYTES, 0);
        assert_ne!(LineAddr::containing(a.addr_of(2)), LineAddr::containing(b.addr_of(0)));
    }

    #[test]
    fn strided_elements_get_private_lines() {
        let mut space = AddressSpace::new();
        let r = space.alloc_strided("gates", 4, 8);
        for i in 0..3 {
            assert_ne!(
                LineAddr::containing(r.addr_of(i)),
                LineAddr::containing(r.addr_of(i + 1)),
                "elements {i} and {} share a line",
                i + 1
            );
        }
    }

    #[test]
    fn addr_of_field_addresses_within_element() {
        let mut space = AddressSpace::new();
        let r = space.alloc_strided("routers", 2, 4);
        assert_eq!(r.addr_of_field(0, 0), r.addr_of(0));
        assert_eq!(r.addr_of_field(0, 3), r.addr_of(0) + 24);
        assert_eq!(r.addr_of_field(1, 0), r.addr_of(0) + 32);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn addr_of_out_of_bounds_panics() {
        let mut space = AddressSpace::new();
        let r = space.alloc_array("a", 2);
        let _ = r.addr_of(2);
    }

    #[test]
    fn region_lookup_by_name() {
        let mut space = AddressSpace::new();
        let a = space.alloc_array("dist", 5);
        assert_eq!(space.region("dist"), Some(a));
        assert_eq!(space.region("missing"), None);
        assert_eq!(space.regions().count(), 1);
    }

    #[test]
    fn address_zero_is_never_allocated() {
        let mut space = AddressSpace::new();
        let a = space.alloc_array("a", 1);
        assert!(a.addr_of(0) > 0);
    }

    #[test]
    fn empty_region_reports_empty() {
        let mut space = AddressSpace::new();
        let r = space.alloc_array("empty", 0);
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
    }
}
