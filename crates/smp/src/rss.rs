//! Process peak-RSS measurement for the space-efficiency experiments.
//!
//! The out-of-core ingestion work (ROADMAP item 2) claims that building
//! an index from a mapped `.bccsr` file avoids the 2× in-memory
//! materialization spike; `peak_rss_bytes` in each bench cell is how
//! that claim is *measured* rather than asserted. On Linux the kernel
//! tracks a per-process resident high-water mark (`VmHWM` in
//! `/proc/self/status`) and allows resetting it by writing `5` to
//! `/proc/self/clear_refs`, which gives a per-trial peak:
//!
//! ```
//! let _ = bcc_smp::rss::reset_peak();
//! // ... the work being measured ...
//! let peak = bcc_smp::rss::peak_rss_bytes(); // None off Linux
//! ```
//!
//! Page-cache pages backing a shared file mapping *do* count toward
//! RSS while resident, but they are reclaimable and never duplicated —
//! the measured bound for a from-disk build is therefore file size +
//! working arrays, not 2× the graph.
//!
//! Off Linux both calls are graceful no-ops returning `None`/`Err`, and
//! the bench harness omits the field.

use std::io;

/// The process's peak resident set size in bytes since start (or since
/// the last successful [`reset_peak`]). `None` when the platform does
/// not expose it (anything but Linux).
pub fn peak_rss_bytes() -> Option<u64> {
    read_status_kib("VmHWM:").map(|kib| kib * 1024)
}

/// The process's current resident set size in bytes, if available.
pub fn current_rss_bytes() -> Option<u64> {
    read_status_kib("VmRSS:").map(|kib| kib * 1024)
}

/// Resets the kernel's peak-RSS watermark to the current RSS so the
/// next [`peak_rss_bytes`] reflects only work done after this call.
/// Fails off Linux or where `/proc/self/clear_refs` is restricted.
pub fn reset_peak() -> io::Result<()> {
    std::fs::write("/proc/self/clear_refs", b"5")
}

fn read_status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(field) {
            let kib: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kib);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(not(target_os = "linux"), ignore)]
    fn peak_tracks_allocation_after_reset() {
        reset_peak().expect("clear_refs writable");
        let before = peak_rss_bytes().expect("VmHWM present");
        // Touch 32 MiB so the watermark must move well past noise.
        let mut v = vec![0u8; 32 << 20];
        for i in (0..v.len()).step_by(4096) {
            v[i] = 1;
        }
        // The vector is never read: without this the optimiser drops the
        // allocation and its writes, and the watermark never moves.
        std::hint::black_box(&mut v);
        let after = peak_rss_bytes().expect("VmHWM present");
        assert!(
            after >= before + (24 << 20),
            "peak {after} did not rise over {before} after touching 32 MiB"
        );
        drop(v);
    }

    #[test]
    fn current_rss_is_positive_when_available() {
        if let Some(rss) = current_rss_bytes() {
            assert!(rss > 0);
        }
    }
}
