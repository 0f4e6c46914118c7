//! Peak resident set size of this process, from `/proc/self/status`.

/// Extract `VmHWM` (the resident-set high-water mark) in KiB from the
/// text of a `/proc/<pid>/status` file.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim();
    let (number, unit) = rest.split_once(char::is_whitespace)?;
    (unit.trim() == "kB").then(|| number.parse().ok())?
}

/// This process's peak RSS so far, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_high_water_mark_line() {
        let status =
            "Name:\tmcbench\nVmPeak:\t  999999 kB\nVmHWM:\t  123456 kB\nVmRSS:\t   1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(123_456));
    }

    #[test]
    fn rejects_missing_or_malformed_lines() {
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 10 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 10 MB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 10\n"), None);
        assert_eq!(parse_vm_hwm_kib(""), None);
    }

    #[test]
    fn reads_this_process() {
        let mib = peak_rss_mib().expect("/proc/self/status has VmHWM on Linux");
        assert!(mib > 0.1);
    }
}
