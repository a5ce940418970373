//! The process's own memory, read from `/proc/self/status` (Linux).
//! Elsewhere — or if the file cannot be read — there is nothing to
//! report, and callers omit the figures rather than print zeros.

/// Resident set figures of this process, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessMemory {
    /// Resident set size now (`VmRSS`).
    pub rss_bytes: u64,
    /// Peak resident set size since start (`VmHWM`).
    pub peak_rss_bytes: u64,
}

/// This process's memory, or `None` where `/proc` is absent.
pub fn memory() -> Option<ProcessMemory> {
    parse_status(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// The `VmRSS` and `VmHWM` lines of a `/proc/<pid>/status` document.
fn parse_status(status: &str) -> Option<ProcessMemory> {
    let kib = |key: &str| -> Option<u64> {
        status
            .lines()
            .find_map(|line| line.strip_prefix(key))?
            .trim()
            .strip_suffix("kB")?
            .trim()
            .parse::<u64>()
            .ok()
            .map(|k| k * 1024)
    };
    Some(ProcessMemory {
        rss_bytes: kib("VmRSS:")?,
        peak_rss_bytes: kib("VmHWM:")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_rss_and_peak() {
        let status =
            "Name:\tbanks\nVmPeak:\t  200000 kB\nVmHWM:\t   66416 kB\nVmRSS:\t   35424 kB\n";
        assert_eq!(
            parse_status(status),
            Some(ProcessMemory {
                rss_bytes: 35424 * 1024,
                peak_rss_bytes: 66416 * 1024,
            })
        );
        assert_eq!(parse_status("Name:\tbanks\nVmRSS:\t1 kB\n"), None);
        assert_eq!(parse_status("VmRSS:\tlots kB\nVmHWM:\t1 kB\n"), None);
    }

    #[test]
    fn reads_this_process_where_proc_exists() {
        if std::path::Path::new("/proc/self/status").exists() {
            let m = memory().expect("/proc/self/status carries VmRSS and VmHWM");
            assert!(m.rss_bytes > 0 && m.peak_rss_bytes >= m.rss_bytes, "{m:?}");
        }
    }
}
