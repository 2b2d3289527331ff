//! The processor model: a MicroBlaze-like in-order core's architectural
//! state and execution bookkeeping.
//!
//! The MicroBlaze is a 32-bit single-issue RISC soft core with 32
//! general-purpose registers plus a handful of special registers (program
//! counter, machine status, exception/interrupt return addresses). A task's
//! *context* is exactly this [`RegisterFile`] plus its stack; the kernel
//! moves both through the shared-memory context vector on every switch
//! (paper §4.2).
//!
//! The model is functional: register contents really round-trip through
//! memory, so the simulators can verify that no context is ever lost or
//! mixed up — a class of kernel bug the type system cannot rule out.
//!
//! # Examples
//!
//! ```
//! use mpdp_hw::processor::{Processor, RegisterFile};
//! use mpdp_core::ids::ProcId;
//!
//! let mut cpu = Processor::new(ProcId::new(0));
//! cpu.registers_mut().write(1, 0xDEAD_BEEF); // r1 = stack pointer
//! let saved = cpu.registers().to_words();
//! let restored = RegisterFile::from_words(&saved);
//! assert_eq!(restored.read(1), 0xDEAD_BEEF);
//! ```

use mpdp_core::ids::ProcId;

/// Number of general-purpose registers (MicroBlaze: r0–r31).
pub const GP_REGISTERS: usize = 32;
/// Special registers saved in a context: PC, MSR, and the two return
/// address registers (R14-like interrupt / R15-like subroutine images kept
/// separately from the GP file on save).
pub const SPECIAL_REGISTERS: usize = 4;
/// Total context words for one register file. Matches
/// [`crate::mem::REGFILE_WORDS`].
pub const CONTEXT_WORDS: usize = GP_REGISTERS + SPECIAL_REGISTERS;

/// The architectural register state of one core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterFile {
    /// r0–r31; r0 is hardwired to zero.
    gp: [u32; GP_REGISTERS],
    /// Program counter.
    pub pc: u32,
    /// Machine status register (interrupt-enable bit, carry, ...).
    pub msr: u32,
    /// Interrupt return address.
    pub rip: u32,
    /// Subroutine return address image.
    pub rsub: u32,
}

impl RegisterFile {
    /// A zeroed register file (reset state).
    pub fn new() -> Self {
        RegisterFile {
            gp: [0; GP_REGISTERS],
            pc: 0,
            msr: 0,
            rip: 0,
            rsub: 0,
        }
    }

    /// Reads a general-purpose register. `r0` always reads zero.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    pub fn read(&self, index: usize) -> u32 {
        assert!(index < GP_REGISTERS, "register index out of range");
        if index == 0 {
            0
        } else {
            self.gp[index]
        }
    }

    /// Writes a general-purpose register. Writes to `r0` are ignored (it is
    /// hardwired to zero, as on the MicroBlaze).
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    pub fn write(&mut self, index: usize, value: u32) {
        assert!(index < GP_REGISTERS, "register index out of range");
        if index != 0 {
            self.gp[index] = value;
        }
    }

    /// Serializes the context in the layout the kernel's context vector
    /// uses: r0–r31, then PC, MSR, RIP, RSUB.
    pub fn to_words(&self) -> [u32; CONTEXT_WORDS] {
        let mut out = [0u32; CONTEXT_WORDS];
        out[..GP_REGISTERS].copy_from_slice(&self.gp);
        out[GP_REGISTERS] = self.pc;
        out[GP_REGISTERS + 1] = self.msr;
        out[GP_REGISTERS + 2] = self.rip;
        out[GP_REGISTERS + 3] = self.rsub;
        out
    }

    /// Deserializes a context saved by [`RegisterFile::to_words`].
    ///
    /// # Panics
    ///
    /// Panics if `words` is shorter than [`CONTEXT_WORDS`].
    pub fn from_words(words: &[u32]) -> Self {
        assert!(
            words.len() >= CONTEXT_WORDS,
            "context image too short: {} words",
            words.len()
        );
        let mut gp = [0u32; GP_REGISTERS];
        gp.copy_from_slice(&words[..GP_REGISTERS]);
        gp[0] = 0; // r0 stays hardwired
        RegisterFile {
            gp,
            pc: words[GP_REGISTERS],
            msr: words[GP_REGISTERS + 1],
            rip: words[GP_REGISTERS + 2],
            rsub: words[GP_REGISTERS + 3],
        }
    }

    /// Fills the file with a deterministic per-job pattern — what a real
    /// task's registers would hold is irrelevant, but *distinctness* is what
    /// context-integrity checks need.
    pub fn stamp(&mut self, seed: u32) {
        for i in 1..GP_REGISTERS {
            self.gp[i] = seed.wrapping_mul(0x9E37_79B9).wrapping_add(i as u32);
        }
        self.pc = seed ^ 0x5555_0000;
        self.msr = 0x2; // interrupts enabled
        self.rip = seed;
        self.rsub = !seed;
    }
}

impl Default for RegisterFile {
    fn default() -> Self {
        RegisterFile::new()
    }
}

/// One modeled core: its id, register file, and retirement counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Processor {
    id: ProcId,
    registers: RegisterFile,
    /// Work cycles retired (task execution only).
    retired: u64,
    /// Cycles lost to memory stalls (as charged by the contention model).
    stalled: u64,
}

impl Processor {
    /// A core in reset state.
    pub fn new(id: ProcId) -> Self {
        Processor {
            id,
            registers: RegisterFile::new(),
            retired: 0,
            stalled: 0,
        }
    }

    /// This core's id.
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// The live register file.
    pub fn registers(&self) -> &RegisterFile {
        &self.registers
    }

    /// Mutable access to the register file (context restore).
    pub fn registers_mut(&mut self) -> &mut RegisterFile {
        &mut self.registers
    }

    /// Replaces the register file wholesale (context restore), returning
    /// the previous contents (context save).
    pub fn swap_context(&mut self, incoming: RegisterFile) -> RegisterFile {
        std::mem::replace(&mut self.registers, incoming)
    }

    /// Accounts `work` retired cycles and `stall` stall cycles.
    pub fn retire(&mut self, work: u64, stall: u64) {
        self.retired += work;
        self.stalled += stall;
    }

    /// Work cycles retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Stall cycles accumulated so far.
    pub fn stalled(&self) -> u64 {
        self.stalled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn r0_is_hardwired_to_zero() {
        let mut rf = RegisterFile::new();
        rf.write(0, 123);
        assert_eq!(rf.read(0), 0);
        rf.write(5, 123);
        assert_eq!(rf.read(5), 123);
    }

    #[test]
    fn context_round_trips_through_words() {
        let mut rf = RegisterFile::new();
        rf.stamp(42);
        let words = rf.to_words();
        assert_eq!(words.len(), CONTEXT_WORDS);
        let back = RegisterFile::from_words(&words);
        assert_eq!(back, rf);
    }

    #[test]
    fn stamps_are_distinct_per_seed() {
        let mut a = RegisterFile::new();
        let mut b = RegisterFile::new();
        a.stamp(1);
        b.stamp(2);
        assert_ne!(a, b);
        assert_ne!(a.to_words(), b.to_words());
    }

    #[test]
    fn context_words_match_memory_layout_constant() {
        assert_eq!(CONTEXT_WORDS as u32, crate::mem::REGFILE_WORDS);
    }

    #[test]
    fn swap_context_returns_previous_state() {
        let mut cpu = Processor::new(ProcId::new(1));
        cpu.registers_mut().stamp(7);
        let old = cpu.registers().clone();
        let mut incoming = RegisterFile::new();
        incoming.stamp(9);
        let saved = cpu.swap_context(incoming.clone());
        assert_eq!(saved, old);
        assert_eq!(cpu.registers(), &incoming);
    }

    #[test]
    fn retirement_accounting() {
        let mut cpu = Processor::new(ProcId::new(0));
        cpu.retire(90, 10);
        assert_eq!(cpu.retired(), 90);
        assert_eq!(cpu.stalled(), 10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn register_bounds_checked() {
        RegisterFile::new().read(32);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn short_context_rejected() {
        RegisterFile::from_words(&[0; 10]);
    }
}
