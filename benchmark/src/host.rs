//! What the benchmark reads about the host it runs on (Linux `/proc`;
//! elsewhere the readings are absent and the metrics built on them are
//! reported as unmeasured).

use std::process::Command;

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn load_average() -> String {
    let text = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let fields: Vec<&str> = text.split_whitespace().take(3).collect();
    if fields.is_empty() {
        "unknown".to_string()
    } else {
        fields.join(" ")
    }
}

/// `CPU model / nproc / rustc` — ties a number to a host class.
pub fn describe() -> String {
    let cpu = proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown CPU".into());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "rustc unknown".into());
    format!("{cpu} | nproc {} | {rustc}", nproc())
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let field = proc_field("/proc/self/status", "VmHWM")?;
    let kib: f64 = field.split_whitespace().next()?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User + system CPU seconds of this process, all threads, living and
/// ended. The kernel reports it in clock ticks (1/100 s on Linux), so a
/// single short interval is coarse; sum intervals before dividing.
pub fn process_cpu_s() -> Option<f64> {
    const TICKS_PER_S: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; fields are counted
    // from the parenthesis that closes it. utime and stime are fields
    // 14 and 15, i.e. the 12th and 13th after it.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_S)
}
