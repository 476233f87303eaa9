//! Process-level readings from `/proc/self`: peak resident set and CPU time.

/// Parse the `VmHWM` line (peak resident set, in kB) out of the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut parts = rest.split_whitespace();
    let value = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(value)
}

/// Peak resident set of this process in MB (10⁶ bytes); 0 where `/proc` is
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 * 1024.0 / 1e6)
}

/// Parse user + system CPU time, in clock ticks, out of the text of
/// `/proc/<pid>/stat` (fields 14 and 15; the command name in field 2 may
/// itself contain spaces and parentheses, so fields count from the last `)`).
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// CPU time of this process (all threads) so far, in milliseconds, at the
/// kernel's fixed `USER_HZ` of 100 ticks per second.
pub fn cpu_ms() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_ticks(&s))
        .map_or(0.0, |ticks| ticks as f64 * 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_from_a_status_listing() {
        let status = "Name:\tmpc-benchmark\nVmPeak:\t  300000 kB\nVmHWM:\t   51234 kB\nVmRSS:\t   40000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(51_234));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\nVmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn cpu_ticks_skip_a_hostile_command_name() {
        let stat = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 100 0 0 0 37 5 0 0 20 0 3 0 1000 1 1";
        assert_eq!(parse_cpu_ticks(stat), Some(42));
        assert_eq!(parse_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn live_readings_are_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
