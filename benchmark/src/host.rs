//! What the benchmark reads from the host: process CPU time, peak RSS, and
//! the identifying facts recorded with every run.

use std::fs;
use std::process::Command;

/// `sysconf(_SC_CLK_TCK)` on every Linux ABI this repository builds for:
/// the unit of `utime`/`stime` in `/proc/<pid>/stat`.
const TICKS_PER_SEC: f64 = 100.0;

/// `utime + stime` in clock ticks from one line of `/proc/<pid>/stat`.
/// The second field (`comm`) may itself contain spaces and parentheses, so
/// fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After `comm` comes field 3 (`state`); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// CPU seconds (user + system, every thread, exited ones included) this
/// process has consumed so far.
pub fn process_cpu_secs() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("reading /proc/self/stat");
    let ticks = parse_stat_cpu_ticks(&stat).expect("utime and stime in /proc/self/stat");
    ticks as f64 / TICKS_PER_SEC
}

/// A `kB` line of `/proc/self/status` (such as `VmHWM`) in bytes.
pub fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line[field.len()..]
        .trim_start_matches(':')
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// Peak resident set size of this process, in bytes (0 when unreadable).
pub fn peak_rss_bytes() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kb(&s, "VmHWM"))
        .unwrap_or(0)
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The facts that identify where and from what a run's numbers came.
pub struct HostInfo {
    pub commit: String,
    pub rustc: String,
    pub nproc: usize,
    pub cpu_model: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let line = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!line.is_empty()).then_some(line)
}

impl HostInfo {
    pub fn collect() -> Self {
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        HostInfo {
            // A driver's checkout is not a git repository; say so.
            commit: command_line("git", &["rev-parse", "--short", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            nproc: nproc(),
            cpu_model,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_reads_utime_plus_stime() {
        let line = "4242 (ewh-benchmark) R 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    137 21 0 0 20 0 3 0 1000 123456 789 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(line), Some(158));
    }

    #[test]
    fn stat_parser_survives_spaces_and_parens_in_comm() {
        let line = "7 (a (b) c d) S 1 7 7 0 -1 0 0 0 0 0 5 6 0 0 20 0 1 0 1 1 1 1";
        assert_eq!(parse_stat_cpu_ticks(line), Some(11));
    }

    #[test]
    fn stat_parser_rejects_truncated_lines() {
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ticks("no parenthesis at all"), None);
    }

    #[test]
    fn status_parser_reads_kb_fields() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    1234 kB\nThreads:\t3\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(1234 * 1024));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
    }

    #[test]
    fn live_process_counters_are_readable() {
        assert!(process_cpu_secs() >= 0.0);
        assert!(peak_rss_bytes() > 0);
        assert!(nproc() >= 1);
    }
}
