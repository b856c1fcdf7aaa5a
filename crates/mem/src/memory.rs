//! The simulated word-addressed shared memory and its undo records.

use swarm_types::{Addr, FastHashMap};

/// One undo-log entry: the value a word held before a speculative store.
///
/// Entries carry a global sequence number so that, when a set of tasks
/// aborts, their combined undo logs can be replayed newest-first, restoring
/// memory exactly (the dependence-tracking in the simulator guarantees that
/// every later writer of a line aborts whenever an earlier writer does).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UndoEntry {
    /// Address of the overwritten word.
    pub addr: Addr,
    /// Value the word held before the store.
    pub old_value: u64,
    /// Global store sequence number (monotonically increasing).
    pub seq: u64,
}

/// Bytes of address space covered by one page (4 KiB).
const PAGE_BYTES_SHIFT: u32 = 12;
/// 64-bit word slots per page.
const PAGE_WORDS: usize = 1 << (PAGE_BYTES_SHIFT - 3);
/// Byte-offset mask within a page.
const PAGE_OFFSET_MASK: u64 = (1 << PAGE_BYTES_SHIFT) - 1;
/// Page ids below this limit live in the flat page vector; [`AddressSpace`]
/// hands out dense low addresses, so in practice everything does. Covers
/// 8 GiB of address space at a worst-case table cost of 16 MiB.
///
/// [`AddressSpace`]: crate::AddressSpace
const DIRECT_PAGES: u64 = 1 << 21;

/// One 4 KiB page of simulated memory plus its written-word bitmap (the
/// bitmap only feeds [`SimMemory::footprint_words`] and [`SimMemory::iter`];
/// loads never consult it, because unwritten slots hold zero).
#[derive(Debug, Clone)]
struct Page {
    words: [u64; PAGE_WORDS],
    written: [u64; PAGE_WORDS / 64],
}

impl Page {
    fn new() -> Box<Page> {
        Box::new(Page { words: [0; PAGE_WORDS], written: [0; PAGE_WORDS / 64] })
    }

    fn for_each_written(&self, base_addr: Addr, mut f: impl FnMut(Addr, u64)) {
        for (i, &mask) in self.written.iter().enumerate() {
            let mut bits = mask;
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let slot = i * 64 + bit;
                f(base_addr + (slot as u64) * 8, self.words[slot]);
            }
        }
    }
}

/// Word-addressed simulated memory.
///
/// All mutable application state lives here so that speculative writes can be
/// undo-logged and rolled back generically. Addresses are sparse; untouched
/// words read as zero, mirroring zero-initialised allocations.
///
/// Storage is paged: [`crate::AddressSpace`] hands out dense, word-aligned
/// addresses, so `addr >> 12` indexes a flat page table and a load/store is a
/// shift, a bounds check and an array index — no hashing at all on the hot
/// path. Word-aligned addresses beyond `DIRECT_PAGES` fall back to a hashed
/// page map, and non-word-aligned addresses (which the bundled apps never
/// produce, but the seed `HashMap` accepted) to a hashed side table, so the
/// sparse-key semantics of the seed are preserved exactly.
#[derive(Debug, Clone, Default)]
pub struct SimMemory {
    /// Flat page table for page ids below [`DIRECT_PAGES`].
    pages: Vec<Option<Box<Page>>>,
    /// Overflow pages (page ids >= [`DIRECT_PAGES`]).
    far_pages: FastHashMap<u64, Box<Page>>,
    /// Words at non-word-aligned addresses.
    unaligned: FastHashMap<Addr, u64>,
    /// Number of distinct words ever written.
    footprint: usize,
    store_seq: u64,
}

impl SimMemory {
    /// Create an empty memory (all words read as zero).
    pub fn new() -> Self {
        SimMemory::default()
    }

    #[inline]
    fn page(&self, page_id: u64) -> Option<&Page> {
        if page_id < DIRECT_PAGES {
            self.pages.get(page_id as usize)?.as_deref()
        } else {
            self.far_pages.get(&page_id).map(|p| &**p)
        }
    }

    /// Write `value` into the slot for the word-aligned address `addr`,
    /// returning the previous value and maintaining the footprint bitmap.
    #[inline]
    fn write_slot(&mut self, addr: Addr, value: u64) -> u64 {
        debug_assert_eq!(addr & 7, 0);
        let page_id = addr >> PAGE_BYTES_SHIFT;
        let slot = ((addr & PAGE_OFFSET_MASK) >> 3) as usize;
        // Split borrows: the footprint counter is updated while the page is
        // borrowed, so go through the fields directly.
        let footprint = &mut self.footprint;
        let page = if page_id < DIRECT_PAGES {
            let idx = page_id as usize;
            if idx >= self.pages.len() {
                self.pages.resize_with(idx + 1, || None);
            }
            self.pages[idx].get_or_insert_with(Page::new)
        } else {
            self.far_pages.entry(page_id).or_insert_with(Page::new)
        };
        let bit = 1u64 << (slot % 64);
        if page.written[slot / 64] & bit == 0 {
            page.written[slot / 64] |= bit;
            *footprint += 1;
        }
        std::mem::replace(&mut page.words[slot], value)
    }

    /// Read the word at `addr`.
    #[inline]
    pub fn load(&self, addr: Addr) -> u64 {
        if addr & 7 == 0 {
            match self.page(addr >> PAGE_BYTES_SHIFT) {
                Some(page) => page.words[((addr & PAGE_OFFSET_MASK) >> 3) as usize],
                None => 0,
            }
        } else {
            self.unaligned.get(&addr).copied().unwrap_or(0)
        }
    }

    /// Write `value` to `addr`, returning the previous value.
    #[inline]
    pub fn store(&mut self, addr: Addr, value: u64) -> u64 {
        self.store_seq += 1;
        self.store_unsequenced(addr, value)
    }

    fn store_unsequenced(&mut self, addr: Addr, value: u64) -> u64 {
        if addr & 7 == 0 {
            self.write_slot(addr, value)
        } else {
            match self.unaligned.insert(addr, value) {
                Some(old) => old,
                None => {
                    self.footprint += 1;
                    0
                }
            }
        }
    }

    /// Write `value` to `addr` and produce an [`UndoEntry`] recording the
    /// previous value, tagged with a fresh global sequence number.
    pub fn store_logged(&mut self, addr: Addr, value: u64) -> UndoEntry {
        self.store_seq += 1;
        let seq = self.store_seq;
        let old_value = self.store_unsequenced(addr, value);
        UndoEntry { addr, old_value, seq }
    }

    /// Undo a single entry (restore the recorded old value).
    pub fn rollback_entry(&mut self, entry: &UndoEntry) {
        self.store_unsequenced(entry.addr, entry.old_value);
    }

    /// Undo a batch of entries from (possibly) several tasks. Entries are
    /// applied newest-first by sequence number regardless of input order.
    pub fn rollback_all(&mut self, entries: &mut Vec<UndoEntry>) {
        // Unstable sort: sequence numbers are unique, so stability buys
        // nothing, and the stable sort allocates a temp buffer on every
        // multi-task abort.
        entries.sort_unstable_by_key(|e| std::cmp::Reverse(e.seq));
        for e in entries.iter() {
            self.rollback_entry(e);
        }
        entries.clear();
    }

    /// Number of distinct words ever written.
    pub fn footprint_words(&self) -> usize {
        self.footprint
    }

    /// Iterate over all (address, value) pairs ever written, in ascending
    /// address order (word-aligned pages first, then any unaligned words).
    pub fn iter(&self) -> impl Iterator<Item = (Addr, u64)> + '_ {
        let mut pairs: Vec<(Addr, u64)> = Vec::with_capacity(self.footprint);
        for (idx, page) in self.pages.iter().enumerate() {
            if let Some(page) = page {
                page.for_each_written((idx as u64) << PAGE_BYTES_SHIFT, |a, v| pairs.push((a, v)));
            }
        }
        let mut far: Vec<u64> = self.far_pages.keys().copied().collect();
        far.sort_unstable();
        for page_id in far {
            self.far_pages[&page_id]
                .for_each_written(page_id << PAGE_BYTES_SHIFT, |a, v| pairs.push((a, v)));
        }
        let mut unaligned: Vec<(Addr, u64)> =
            self.unaligned.iter().map(|(&a, &v)| (a, v)).collect();
        unaligned.sort_unstable();
        pairs.extend(unaligned);
        pairs.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_words_read_zero() {
        let mem = SimMemory::new();
        assert_eq!(mem.load(0), 0);
        assert_eq!(mem.load(u64::MAX), 0);
        assert_eq!(mem.footprint_words(), 0);
    }

    #[test]
    fn store_returns_previous_value() {
        let mut mem = SimMemory::new();
        assert_eq!(mem.store(8, 1), 0);
        assert_eq!(mem.store(8, 2), 1);
        assert_eq!(mem.load(8), 2);
    }

    #[test]
    fn store_logged_and_rollback_restore_value() {
        let mut mem = SimMemory::new();
        mem.store(16, 10);
        let undo = mem.store_logged(16, 99);
        assert_eq!(undo.old_value, 10);
        assert_eq!(mem.load(16), 99);
        mem.rollback_entry(&undo);
        assert_eq!(mem.load(16), 10);
    }

    #[test]
    fn rollback_all_restores_in_reverse_sequence_order() {
        let mut mem = SimMemory::new();
        mem.store(0, 1);
        // Two speculative writers to the same word, in order.
        let u1 = mem.store_logged(0, 2); // old = 1
        let u2 = mem.store_logged(0, 3); // old = 2
        assert_eq!(mem.load(0), 3);
        // Present the entries in the "wrong" order; rollback_all must sort.
        let mut entries = vec![u1, u2];
        mem.rollback_all(&mut entries);
        assert_eq!(mem.load(0), 1);
        assert!(entries.is_empty());
    }

    #[test]
    fn iter_reports_written_words() {
        let mut mem = SimMemory::new();
        mem.store(64, 5);
        mem.store(128, 6);
        let mut pairs: Vec<(u64, u64)> = mem.iter().collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(64, 5), (128, 6)]);
    }

    #[test]
    fn far_and_unaligned_addresses_behave_like_the_seed_hashmap() {
        let mut mem = SimMemory::new();
        // A page id far beyond the direct table.
        let far = (DIRECT_PAGES + 17) << PAGE_BYTES_SHIFT;
        assert_eq!(mem.store(far, 7), 0);
        assert_eq!(mem.load(far), 7);
        // Unaligned addresses are distinct words, not aliases of their
        // containing slot.
        assert_eq!(mem.store(12, 3), 0);
        assert_eq!(mem.load(12), 3);
        assert_eq!(mem.load(8), 0, "unaligned store must not alias the aligned word");
        assert_eq!(mem.footprint_words(), 2);
        // Rollback works across all three storage classes.
        let u_far = mem.store_logged(far, 8);
        let u_un = mem.store_logged(12, 4);
        mem.rollback_all(&mut vec![u_far, u_un]);
        assert_eq!(mem.load(far), 7);
        assert_eq!(mem.load(12), 3);
        // iter covers far and unaligned words.
        let pairs: Vec<(u64, u64)> = mem.iter().collect();
        assert_eq!(pairs, vec![(far, 7), (12, 3)]);
    }

    #[test]
    fn footprint_counts_distinct_words_once() {
        let mut mem = SimMemory::new();
        for _ in 0..5 {
            mem.store(8, 1);
            mem.store(16, 2);
        }
        assert_eq!(mem.footprint_words(), 2);
    }

    #[test]
    fn words_spanning_page_boundaries_are_independent() {
        let mut mem = SimMemory::new();
        let last = (1 << PAGE_BYTES_SHIFT) - 8;
        mem.store(last, 1);
        mem.store(last + 8, 2); // first word of the next page
        assert_eq!(mem.load(last), 1);
        assert_eq!(mem.load(last + 8), 2);
    }
}
