//! The memory hierarchy of the prototype (paper §3.1).
//!
//! Each processor owns a **local BRAM** for private data (the stack and heap
//! of the executing thread, 1-cycle access). A **shared DDR** holds
//! instructions, shared data, and the *context vector* — one save slot per
//! task, written and read through the OPB bus on every context switch
//! (12-cycle transactions). A small **boot BRAM** on the OPB holds the boot
//! code.
//!
//! The model is functional (words can actually be stored and read back —
//! the kernel uses this for context save/restore) and carries the latency
//! metadata the simulators charge for each access.
//!
//! # Examples
//!
//! ```
//! use mpdp_hw::mem::{MemoryMap, Region};
//! use mpdp_core::ids::ProcId;
//!
//! let map = MemoryMap::new(2, 8);
//! assert_eq!(map.latency(Region::LocalBram(ProcId::new(0))), 1);
//! assert_eq!(map.latency(Region::SharedDdr), 12);
//! ```

use mpdp_core::ids::ProcId;

/// Uncontended access latency of a local BRAM, in cycles.
pub const LOCAL_LATENCY: u32 = 1;
/// Uncontended access latency of the shared DDR over the OPB, in cycles
/// (paper: 12, reduced to 1 on instruction-cache hit).
pub const SHARED_LATENCY: u32 = 12;
/// Uncontended access latency of the boot BRAM on the OPB, in cycles.
pub const BOOT_LATENCY: u32 = 2;

/// Default local BRAM size per processor, in 32-bit words (16 KiB).
pub const LOCAL_WORDS: usize = 4096;
/// Default boot BRAM size, in 32-bit words (4 KiB).
pub const BOOT_WORDS: usize = 1024;
/// Words reserved per task in the context vector: 32 general-purpose
/// registers plus machine status and return registers of the MicroBlaze.
pub const REGFILE_WORDS: u32 = 36;

/// One region of the system memory map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// A processor's private BRAM.
    LocalBram(ProcId),
    /// The shared external DDR.
    SharedDdr,
    /// The shared boot BRAM on the OPB.
    BootBram,
}

/// A functional word-addressed memory with a fixed size.
#[derive(Debug, Clone)]
pub struct Memory {
    words: Vec<u32>,
}

impl Memory {
    /// Allocates a zeroed memory of `size` 32-bit words.
    pub fn new(size: usize) -> Self {
        Memory {
            words: vec![0; size],
        }
    }

    /// Size in words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the memory has zero capacity.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Reads one word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of bounds.
    pub fn read(&self, addr: usize) -> u32 {
        self.words[addr]
    }

    /// Writes one word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of bounds.
    pub fn write(&mut self, addr: usize, value: u32) {
        self.words[addr] = value;
    }

    /// Copies `src` into memory starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the slice does not fit.
    pub fn write_block(&mut self, addr: usize, src: &[u32]) {
        self.words[addr..addr + src.len()].copy_from_slice(src);
    }

    /// Reads `len` words starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read_block(&self, addr: usize, len: usize) -> &[u32] {
        &self.words[addr..addr + len]
    }
}

/// The full platform memory system: per-processor local BRAMs, the shared
/// DDR with its context-vector layout, and the boot BRAM.
#[derive(Debug, Clone)]
pub struct MemoryMap {
    locals: Vec<Memory>,
    shared: Memory,
    boot: Memory,
    /// Per-task context slot size in words (registers + largest stack).
    context_slot_words: u32,
    n_tasks: usize,
}

impl MemoryMap {
    /// Builds the memory system for `n_procs` processors and a context
    /// vector with `n_tasks` save slots sized for the default stack.
    pub fn new(n_procs: usize, n_tasks: usize) -> Self {
        Self::with_context_slot(
            n_procs,
            n_tasks,
            REGFILE_WORDS + mpdp_core::task::DEFAULT_STACK_WORDS,
        )
    }

    /// Builds the memory system with an explicit per-task context slot size.
    ///
    /// # Panics
    ///
    /// Panics if `n_procs` is zero or the slot size is zero.
    pub fn with_context_slot(n_procs: usize, n_tasks: usize, context_slot_words: u32) -> Self {
        assert!(n_procs > 0, "at least one processor");
        assert!(context_slot_words > 0, "context slot must be non-empty");
        let shared_words = 16_384 + n_tasks * context_slot_words as usize;
        MemoryMap {
            locals: (0..n_procs).map(|_| Memory::new(LOCAL_WORDS)).collect(),
            shared: Memory::new(shared_words),
            boot: Memory::new(BOOT_WORDS),
            context_slot_words,
            n_tasks,
        }
    }

    /// Number of processors (local BRAMs).
    pub fn n_procs(&self) -> usize {
        self.locals.len()
    }

    /// Uncontended latency of an access to `region`, in cycles.
    pub fn latency(&self, region: Region) -> u32 {
        match region {
            Region::LocalBram(_) => LOCAL_LATENCY,
            Region::SharedDdr => SHARED_LATENCY,
            Region::BootBram => BOOT_LATENCY,
        }
    }

    /// The processor-local BRAM.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range.
    pub fn local(&self, proc: ProcId) -> &Memory {
        &self.locals[proc.index()]
    }

    /// The shared DDR.
    pub fn shared(&self) -> &Memory {
        &self.shared
    }

    /// Mutable access to the shared DDR.
    pub fn shared_mut(&mut self) -> &mut Memory {
        &mut self.shared
    }

    /// The boot BRAM.
    pub fn boot(&self) -> &Memory {
        &self.boot
    }

    /// Word offset of task `slot`'s save area inside the shared DDR context
    /// vector ("the contexts are saved in shared memory, stored in a vector
    /// that contains a location for each task runnable in the system").
    ///
    /// # Panics
    ///
    /// Panics if `slot >= n_tasks`.
    pub fn context_slot_addr(&self, slot: usize) -> usize {
        assert!(slot < self.n_tasks, "context slot {slot} out of range");
        16_384 + slot * self.context_slot_words as usize
    }

    /// Per-task context slot size in words.
    pub fn context_slot_words(&self) -> u32 {
        self.context_slot_words
    }

    /// Number of context slots.
    pub fn n_context_slots(&self) -> usize {
        self.n_tasks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_match_paper() {
        let map = MemoryMap::new(2, 4);
        assert_eq!(map.latency(Region::LocalBram(ProcId::new(0))), 1);
        assert_eq!(map.latency(Region::SharedDdr), 12);
    }

    #[test]
    fn functional_read_write() {
        let mut map = MemoryMap::new(2, 4);
        map.shared_mut().write(0, 42);
        assert_eq!(map.shared().read(0), 42);
        // The local BRAMs are separate memories: a shared write leaves them untouched.
        assert_eq!(map.local(ProcId::new(0)).read(0), 0);
    }

    #[test]
    fn block_transfers() {
        let mut mem = Memory::new(16);
        mem.write_block(4, &[1, 2, 3]);
        assert_eq!(mem.read_block(4, 3), &[1, 2, 3]);
        assert_eq!(mem.read(3), 0);
        assert_eq!(mem.read(7), 0);
    }

    #[test]
    fn context_vector_layout_is_disjoint() {
        let map = MemoryMap::new(2, 4);
        let slot = map.context_slot_words() as usize;
        for i in 0..3 {
            assert_eq!(
                map.context_slot_addr(i + 1) - map.context_slot_addr(i),
                slot
            );
        }
        // Slots fit inside the shared DDR.
        let last = map.context_slot_addr(3) + slot;
        assert!(last <= map.shared().len());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn context_slot_bounds_checked() {
        MemoryMap::new(1, 2).context_slot_addr(2);
    }

    #[test]
    fn context_roundtrip_through_shared_memory() {
        let mut map = MemoryMap::new(1, 2);
        let ctx: Vec<u32> = (0..36).collect();
        let addr = map.context_slot_addr(1);
        map.shared_mut().write_block(addr, &ctx);
        assert_eq!(map.shared().read_block(addr, 36), &ctx[..]);
    }
}
