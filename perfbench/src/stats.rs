//! Small numeric helpers: medians, the checksum digest and peak RSS.

/// Median of `values` (mean of the middle two for an even count; 0 for
/// none).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// FNV-1a over the checksums' bits, in order: one number that moves
/// when any run's numerics move.
pub fn digest(checksums: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for c in checksums {
        for b in c.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Restarts this process's peak-RSS window (`VmHWM` drops to the current
/// RSS); where `/proc/self/clear_refs` is unavailable the peak keeps
/// counting from process start.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB (`VmHWM` in
/// `/proc/self/status`), or `None` where that file is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn digest_is_order_sensitive() {
        assert_ne!(digest(&[1, 2]), digest(&[2, 1]));
        assert_eq!(digest(&[1, 2]), digest(&[1, 2]));
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        reset_peak_rss();
        if let Some(mib) = peak_rss_mib() {
            assert!(mib > 0.0);
        }
    }
}
