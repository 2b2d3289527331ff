//! Regenerates **Figure 1** — "The architecture of our real time system
//! prototype" — by instantiating the modeled platform and printing its
//! topology and parameters. Structural, not a data figure.
//!
//! Run with `cargo run -p mpdp-bench --bin fig1_architecture [n_procs]`.

use mpdp_core::ids::proc_ids;
use mpdp_core::time::{Cycles, CLOCK_HZ, DEFAULT_TICK};
use mpdp_hw::mem::{MemoryMap, Region, BOOT_WORDS, LOCAL_WORDS};
use mpdp_hw::DDR_SERVICE_CYCLES;
use mpdp_intc::MpInterruptController;

fn main() {
    let n_procs: usize = match std::env::args().nth(1) {
        Some(raw) => match raw.parse() {
            Ok(n) if (1..=8).contains(&n) => n,
            _ => mpdp_bench::cli::usage_error(format_args!(
                "expected a processor count in 1..=8, got `{raw}`"
            )),
        },
        None => 4,
    };
    let n_tasks = 19; // the paper's experiment: 18 periodic + 1 aperiodic
    let mem = MemoryMap::new(n_procs, n_tasks);
    let intc = MpInterruptController::new(n_procs, 4, Cycles::new(50_000));

    println!("== Figure 1: system architecture (modeled) ==");
    println!(
        "clock: {} MHz (Virtex-II PRO XC2VP30 target)",
        CLOCK_HZ / 1_000_000
    );
    println!("system timer: period {DEFAULT_TICK} -> multiprocessor interrupt controller");
    println!();
    for p in proc_ids(n_procs) {
        println!(
            "  MicroBlaze {p}  -- I-cache (hit 1 cy, miss {} cy) -- local BRAM {} KiB ({} cy)",
            DDR_SERVICE_CYCLES,
            LOCAL_WORDS * 4 / 1024,
            mem.latency(Region::LocalBram(p)),
        );
    }
    println!();
    println!(
        "  shared OPB bus (fixed-priority arbiter, {DDR_SERVICE_CYCLES} cy per DDR transaction)"
    );
    println!(
        "   ├─ DDR shared memory: {} KiB, {} cy uncontended; context vector: {} slots x {} words",
        mem.shared().len() * 4 / 1024,
        mem.latency(Region::SharedDdr),
        mem.n_context_slots(),
        mem.context_slot_words(),
    );
    println!(
        "   ├─ boot BRAM: {} KiB, {} cy",
        BOOT_WORDS * 4 / 1024,
        mem.latency(Region::BootBram),
    );
    println!("   ├─ peripherals (CAN / camera / sensors): 4 interrupt lines");
    println!("   └─ multiprocessor interrupt controller:");
    println!("        distribution to free processors, booking, multicast/broadcast,");
    println!(
        "        inter-processor interrupts, ack timeout {} cy; {} processors connected",
        50_000,
        intc.n_procs()
    );
    println!();
    println!(
        "  synchronization engine, crossbar: not modeled (ISRs serialize on the kernel's \
         scheduler lock, reported as lock contentions; kernel signals are IPIs)"
    );
}
