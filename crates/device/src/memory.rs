//! Device memory accounting (live and peak bytes).

/// Tracks simulated memory consumption on one device.
///
/// The paper's Figure 6 plots GPU memory usage against batch size and
/// neighbor count; this tracker supplies those numbers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryTracker {
    live: u64,
    peak: u64,
}

impl MemoryTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        MemoryTracker::default()
    }

    /// Records an allocation of `bytes`.
    pub fn alloc(&mut self, bytes: u64) {
        self.live += bytes;
        self.peak = self.peak.max(self.live);
    }

    /// Records a free of `bytes`, saturating at zero (frees of untracked
    /// memory are clamped rather than underflowing, mirroring how caching
    /// allocators blur exact lifetimes).
    pub fn free(&mut self, bytes: u64) {
        self.live = self.live.saturating_sub(bytes);
    }

    /// Currently live bytes.
    pub fn live_bytes(&self) -> u64 {
        self.live
    }

    /// High-water mark in bytes.
    pub fn peak_bytes(&self) -> u64 {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut m = MemoryTracker::new();
        m.alloc(100);
        m.alloc(50);
        m.free(120);
        m.alloc(10);
        assert_eq!(m.live_bytes(), 40);
        assert_eq!(m.peak_bytes(), 150);
    }

    #[test]
    fn free_saturates() {
        let mut m = MemoryTracker::new();
        m.alloc(10);
        m.free(100);
        assert_eq!(m.live_bytes(), 0);
    }
}
