//! Per-processor instruction cache (paper §3.1: "Instruction cache is
//! implemented for each processor, bringing down access latency from 12 to 1
//! clock cycle in case of hit").
//!
//! A true direct-mapped cache simulator is provided for trace-driven studies
//! and for calibrating the per-task hit rates used by the fluid execution
//! model ([`crate::contention`]).
//!
//! # Examples
//!
//! ```
//! use mpdp_hw::cache::DirectMappedCache;
//!
//! let mut cache = DirectMappedCache::new(256, 8); // 256 lines × 8 words
//! assert!(!cache.access(0x100));                  // cold miss
//! assert!(cache.access(0x101));                   // same line: hit
//! assert!(cache.stats().hit_rate() > 0.0);
//! ```

/// Cache access statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; `1.0` when no access has been made.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }
}

/// A direct-mapped cache over word addresses.
#[derive(Debug, Clone)]
pub struct DirectMappedCache {
    /// One optional tag per line.
    tags: Vec<Option<u64>>,
    line_words: usize,
    stats: CacheStats,
}

impl DirectMappedCache {
    /// Creates a cache with `lines` lines of `line_words` words each.
    ///
    /// # Panics
    ///
    /// Panics if `lines` or `line_words` is zero, or if either is not a
    /// power of two (address decoding uses shifts and masks, as in hardware).
    pub fn new(lines: usize, line_words: usize) -> Self {
        assert!(
            lines > 0 && lines.is_power_of_two(),
            "lines must be a power of two"
        );
        assert!(
            line_words > 0 && line_words.is_power_of_two(),
            "line size must be a power of two"
        );
        DirectMappedCache {
            tags: vec![None; lines],
            line_words,
            stats: CacheStats::default(),
        }
    }

    /// Performs one access; returns `true` on a hit and updates the line on
    /// a miss (allocate-on-miss, as the MicroBlaze I-cache does).
    pub fn access(&mut self, word_addr: u64) -> bool {
        let line_addr = word_addr / self.line_words as u64;
        let index = (line_addr % self.tags.len() as u64) as usize;
        let tag = line_addr / self.tags.len() as u64;
        if self.tags[index] == Some(tag) {
            self.stats.hits += 1;
            true
        } else {
            self.tags[index] = Some(tag);
            self.stats.misses += 1;
            false
        }
    }

    /// Invalidates every line (e.g. after loading new code).
    pub fn flush(&mut self) {
        self.tags.fill(None);
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics without touching cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Runs an address trace through the cache and returns the hit rate —
    /// the calibration entry point for per-task
    /// [`mpdp_core::task::MemoryProfile`] hit rates.
    pub fn hit_rate_of_trace(&mut self, trace: impl IntoIterator<Item = u64>) -> f64 {
        self.flush();
        self.reset_stats();
        for addr in trace {
            self.access(addr);
        }
        self.stats.hit_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut c = DirectMappedCache::new(4, 4);
        assert!(!c.access(0));
        assert!(c.access(1));
        assert!(c.access(3));
        assert!(!c.access(4)); // next line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn conflict_misses_on_aliasing_lines() {
        let mut c = DirectMappedCache::new(4, 1);
        assert!(!c.access(0));
        assert!(!c.access(4)); // same index, different tag: evicts
        assert!(!c.access(0)); // miss again
    }

    #[test]
    fn small_loop_fits_and_hits() {
        let mut c = DirectMappedCache::new(64, 8);
        // A 100-word loop body executed 100 times.
        let trace = (0..100u64).cycle().take(10_000);
        let rate = c.hit_rate_of_trace(trace);
        assert!(rate > 0.99, "tight loop should be ≈ all hits, got {rate}");
    }

    #[test]
    fn streaming_trace_mostly_misses() {
        let mut c = DirectMappedCache::new(64, 8);
        let rate = c.hit_rate_of_trace((0..100_000u64).map(|i| i * 8));
        assert!(rate < 0.01, "line-stride streaming should miss, got {rate}");
    }

    #[test]
    fn flush_invalidates() {
        let mut c = DirectMappedCache::new(4, 4);
        c.access(0);
        c.flush();
        assert!(!c.access(0));
    }

    #[test]
    fn empty_trace_reports_full_hit_rate() {
        let mut c = DirectMappedCache::new(4, 4);
        assert!((c.hit_rate_of_trace(std::iter::empty()) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        DirectMappedCache::new(3, 4);
    }
}
