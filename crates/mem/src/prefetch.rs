//! The baseline prefetchers of the evaluation (Fig. 7).
//!
//! Three prefetchers from the paper's baseline: a next-line instruction
//! prefetcher, Intel's DCU-style next-line data prefetcher (which "waits
//! for four consecutive accesses to the same data cache line before
//! prefetching the next", §5), and a 256-entry PC-indexed stride
//! prefetcher modelled on Intel's IP prefetcher.
//!
//! Each prefetcher is a pure address-stream observer: the core feeds it
//! demand accesses, it returns candidate lines, and the core issues them
//! through [`crate::MemoryHierarchy`]. This keeps policy (what to fetch)
//! separate from mechanism (latency, pollution) and lets the same policy
//! drive both the normal and ideal configurations.

use esp_stats::PrefetchStats;
use esp_types::{Addr, LineAddr};

/// Next-line instruction prefetcher: whenever the fetch stream enters a
/// new cache line, the following line is prefetched.
///
/// # Examples
///
/// ```
/// use esp_mem::prefetch::NextLineInstr;
/// use esp_types::LineAddr;
///
/// let mut nl = NextLineInstr::new();
/// assert_eq!(nl.on_fetch(LineAddr::new(10)), Some(LineAddr::new(11)));
/// // Staying within the line does not re-issue.
/// assert_eq!(nl.on_fetch(LineAddr::new(10)), None);
/// assert_eq!(nl.on_fetch(LineAddr::new(11)), Some(LineAddr::new(12)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct NextLineInstr {
    last_line: Option<LineAddr>,
    stats: PrefetchStats,
}

impl NextLineInstr {
    /// Creates the prefetcher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes a fetch of `line`; returns the line to prefetch, if any.
    pub fn on_fetch(&mut self, line: LineAddr) -> Option<LineAddr> {
        if self.last_line == Some(line) {
            return None;
        }
        self.last_line = Some(line);
        self.stats.record(false);
        Some(line.next())
    }

    /// Issue statistics.
    pub fn stats(&self) -> &PrefetchStats {
        &self.stats
    }
}

/// Intel-DCU-style next-line data prefetcher: after four consecutive
/// accesses to the same line, prefetch the next line (once per streak).
///
/// # Examples
///
/// ```
/// use esp_mem::prefetch::DcuNextLine;
/// use esp_types::LineAddr;
///
/// let mut dcu = DcuNextLine::new();
/// let l = LineAddr::new(5);
/// assert_eq!(dcu.on_access(l), None);
/// assert_eq!(dcu.on_access(l), None);
/// assert_eq!(dcu.on_access(l), None);
/// assert_eq!(dcu.on_access(l), Some(LineAddr::new(6)));
/// assert_eq!(dcu.on_access(l), None); // already triggered for this streak
/// ```
#[derive(Clone, Debug, Default)]
pub struct DcuNextLine {
    /// Small fully-associative tracker of recently touched lines:
    /// (line, count, triggered, lru-stamp).
    entries: Vec<(LineAddr, u32, bool, u64)>,
    clock: u64,
    stats: PrefetchStats,
}

/// Accesses to the same line required before the DCU triggers.
const DCU_THRESHOLD: u32 = 4;
/// Tracked lines. Real DCUs require back-to-back accesses; a small
/// tracker tolerates the interleaving every real access stream has while
/// preserving the "multiple touches before fetching ahead" filter.
const DCU_TRACKED: usize = 4;

impl DcuNextLine {
    /// Creates the prefetcher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes a data access to `line`; returns the line to prefetch if
    /// this is the line's fourth recent touch (once per streak).
    pub fn on_access(&mut self, line: LineAddr) -> Option<LineAddr> {
        self.clock += 1;
        let clock = self.clock;
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == line) {
            e.1 += 1;
            e.3 = clock;
            if e.1 >= DCU_THRESHOLD && !e.2 {
                e.2 = true;
                self.stats.record(false);
                return Some(line.next());
            }
            return None;
        }
        if self.entries.len() == DCU_TRACKED {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.3)
                .map(|(i, _)| i)
                .expect("tracker non-empty");
            self.entries.swap_remove(lru);
        }
        self.entries.push((line, 1, false, clock));
        None
    }

    /// Issue statistics.
    pub fn stats(&self) -> &PrefetchStats {
        &self.stats
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct StrideEntry {
    tag: u64,
    last_addr: Addr,
    stride: i64,
    confidence: u8,
    valid: bool,
}

/// A 256-entry PC-indexed stride prefetcher (Fig. 7's "Stride (256
/// entries)").
///
/// Each entry tracks the last address and stride of one static load; after
/// two consecutive confirmations of the same non-zero stride, the next
/// address in the pattern is prefetched.
///
/// # Examples
///
/// ```
/// use esp_mem::prefetch::StridePrefetcher;
/// use esp_types::Addr;
///
/// let mut sp = StridePrefetcher::new(256);
/// let pc = Addr::new(0x400);
/// assert_eq!(sp.on_load(pc, Addr::new(0x1000), 64), None);
/// assert_eq!(sp.on_load(pc, Addr::new(0x1100), 64), None); // learn stride
/// assert_eq!(sp.on_load(pc, Addr::new(0x1200), 64), None); // confidence 1
/// // Third confirmation: predict 0x1400.
/// let line = sp.on_load(pc, Addr::new(0x1300), 64).unwrap();
/// assert_eq!(line, Addr::new(0x1400).line(64));
/// ```
#[derive(Clone, Debug)]
pub struct StridePrefetcher {
    entries: Vec<StrideEntry>,
    mask: u64,
    stats: PrefetchStats,
}

impl StridePrefetcher {
    /// Creates a stride table with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two(), "stride table size must be a power of two");
        StridePrefetcher {
            entries: vec![StrideEntry::default(); entries],
            mask: entries as u64 - 1,
            stats: PrefetchStats::default(),
        }
    }

    /// Observes a dynamic load at `pc` to `addr`; returns the line to
    /// prefetch when the entry's stride is confident.
    pub fn on_load(&mut self, pc: Addr, addr: Addr, line_bytes: u64) -> Option<LineAddr> {
        let idx = ((pc.as_u64() >> 2) & self.mask) as usize;
        let tag = pc.as_u64() >> 2 >> self.mask.count_ones();
        let e = &mut self.entries[idx];
        if !e.valid || e.tag != tag {
            *e = StrideEntry { tag, last_addr: addr, stride: 0, confidence: 0, valid: true };
            return None;
        }
        let delta = addr.distance(e.last_addr);
        e.last_addr = addr;
        if delta != 0 && delta == e.stride {
            e.confidence = (e.confidence + 1).min(3);
        } else {
            e.stride = delta;
            e.confidence = 0;
            return None;
        }
        if e.confidence >= 2 {
            let target = Addr::new(addr.as_u64().wrapping_add_signed(e.stride));
            let line = target.line(line_bytes);
            if line != addr.line(line_bytes) {
                self.stats.record(false);
                return Some(line);
            }
        }
        None
    }

    /// Issue statistics.
    pub fn stats(&self) -> &PrefetchStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_line_dedups_within_line() {
        let mut nl = NextLineInstr::new();
        assert_eq!(nl.on_fetch(LineAddr::new(1)), Some(LineAddr::new(2)));
        assert_eq!(nl.on_fetch(LineAddr::new(1)), None);
        assert_eq!(nl.on_fetch(LineAddr::new(2)), Some(LineAddr::new(3)));
        // Returning to a previous line re-triggers (it is a new streak).
        assert_eq!(nl.on_fetch(LineAddr::new(1)), Some(LineAddr::new(2)));
        assert_eq!(nl.stats().issued, 3);
    }

    #[test]
    fn dcu_requires_four_touches() {
        let mut d = DcuNextLine::new();
        let a = LineAddr::new(10);
        for _ in 0..3 {
            assert_eq!(d.on_access(a), None);
        }
        assert_eq!(d.on_access(a), Some(a.next()));
        // Further accesses in the same streak stay quiet.
        assert_eq!(d.on_access(a), None);
        assert_eq!(d.on_access(a), None);
    }

    #[test]
    fn dcu_tolerates_interleaving() {
        let mut d = DcuNextLine::new();
        let a = LineAddr::new(10);
        let b = LineAddr::new(20);
        // a's touches interleaved with b's must still trigger for a.
        assert_eq!(d.on_access(a), None);
        assert_eq!(d.on_access(b), None);
        assert_eq!(d.on_access(a), None);
        assert_eq!(d.on_access(b), None);
        assert_eq!(d.on_access(a), None);
        assert_eq!(d.on_access(a), Some(a.next()));
    }

    #[test]
    fn dcu_tracker_capacity_evicts_lru() {
        let mut d = DcuNextLine::new();
        let a = LineAddr::new(10);
        for _ in 0..3 {
            d.on_access(a);
        }
        // Four distinct newer lines evict a's entry.
        for i in 0..4 {
            d.on_access(LineAddr::new(100 + i));
        }
        // a starts from scratch: three touches are not enough.
        for _ in 0..3 {
            assert_eq!(d.on_access(a), None);
        }
        assert_eq!(d.on_access(a), Some(a.next()));
    }

    #[test]
    fn stride_learns_and_predicts() {
        let mut sp = StridePrefetcher::new(64);
        let pc = Addr::new(0x100);
        let mut addr = 0x1_0000u64;
        let mut fired = 0;
        for _ in 0..10 {
            if sp.on_load(pc, Addr::new(addr), 64).is_some() {
                fired += 1;
            }
            addr += 256;
        }
        assert!(fired >= 7, "stride should fire once confident, fired={fired}");
    }

    #[test]
    fn stride_ignores_random_streams() {
        let mut sp = StridePrefetcher::new(64);
        let pc = Addr::new(0x104);
        let addrs = [0x10u64, 0x9000, 0x44, 0x123456, 0x77, 0x9999];
        for a in addrs {
            assert_eq!(sp.on_load(pc, Addr::new(a), 64), None);
        }
    }

    #[test]
    fn stride_small_strides_within_line_do_not_fire() {
        let mut sp = StridePrefetcher::new(64);
        let pc = Addr::new(0x108);
        // Stride 8 within one 64-byte line: confident but same line, so no
        // prefetch until the pattern crosses a line boundary.
        let mut fired = 0;
        for i in 0..8 {
            if sp.on_load(pc, Addr::new(0x2000 + i * 8), 64).is_some() {
                fired += 1;
            }
        }
        assert!(fired <= 2, "fired={fired}");
    }

    #[test]
    fn stride_entries_conflict_by_index_tag() {
        let mut sp = StridePrefetcher::new(4);
        // Two PCs mapping to the same slot with different tags evict each
        // other; neither gets confident.
        let pc_a = Addr::new(0x100);
        let pc_b = Addr::new(0x100 + 4 * 4 * 4); // same low index bits
        for i in 0..6 {
            assert_eq!(sp.on_load(pc_a, Addr::new(0x1000 + i * 128), 64), None);
            assert_eq!(sp.on_load(pc_b, Addr::new(0x8000 + i * 128), 64), None);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn stride_rejects_non_power_of_two() {
        let _ = StridePrefetcher::new(100);
    }
}
