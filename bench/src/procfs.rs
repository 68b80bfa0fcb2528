//! `/proc` readers for the fleet's children: CPU time consumed and peak
//! resident memory. The parsers take the file text so they can be tested
//! without a live process.

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. `USER_HZ`
/// is 100 on every Linux ABI this benchmark runs on.
const TICKS_PER_S: f64 = 100.0;

/// `utime + stime` in milliseconds from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may contain spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_cpu_ms(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the command: state is field 3, utime field 14, stime field 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 1000.0 / TICKS_PER_S)
}

/// A `kB` field (`VmHWM`, `VmRSS`) of `/proc/<pid>/status`, in MB.
pub fn parse_status_mb(status: &str, field: &str) -> Option<f64> {
    let line = status
        .lines()
        .find(|l| l.strip_prefix(field).is_some_and(|r| r.starts_with(':')))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU milliseconds (user + system) process `pid` has consumed so far.
pub fn cpu_ms(pid: u32) -> Option<f64> {
    parse_cpu_ms(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// Peak resident set size of process `pid`, in MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    parse_status_mb(
        &std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?,
        "VmHWM",
    )
}

/// Current resident set size of this process, in MB.
pub fn own_rss_mb() -> Option<f64> {
    parse_status_mb(&std::fs::read_to_string("/proc/self/status").ok()?, "VmRSS")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_fields_are_counted_after_the_command_name() {
        let stat = "4242 (dss serve) x) S 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    37 5 0 0 20 0 9 0 123456 1000000 2000 18446744073709551615";
        assert_eq!(parse_cpu_ms(stat), Some(420.0));
        assert_eq!(parse_cpu_ms("no parenthesis here"), None);
        assert_eq!(parse_cpu_ms("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_fields_convert_kb_to_mb() {
        let status = "Name:\tdss\nVmPeak:\t  999999 kB\nVmHWM:\t   10240 kB\nVmRSS:\t    2048 kB\n";
        assert_eq!(parse_status_mb(status, "VmHWM"), Some(10.0));
        assert_eq!(parse_status_mb(status, "VmRSS"), Some(2.0));
        assert_eq!(parse_status_mb(status, "VmSwap"), None);
        // A prefix of another field's name must not match.
        assert_eq!(parse_status_mb(status, "Vm"), None);
    }

    #[test]
    fn readers_see_this_process() {
        let me = std::process::id();
        // Burn a little CPU so the counters are live, not just present.
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(cpu_ms(me).is_some_and(|ms| ms >= 0.0));
        assert!(peak_rss_mb(me).is_some_and(|mb| mb > 0.5));
        assert!(own_rss_mb() <= peak_rss_mb(me));
        assert_eq!(cpu_ms(u32::MAX), None);
    }
}
