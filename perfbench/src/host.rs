//! Host facts recorded with every result, and the OS peak-resident-set probe.

use std::path::Path;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size of the unified/data cache at `level` for CPU 0, from sysfs.
fn cache_size(level: u32) -> Option<String> {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    for entry in std::fs::read_dir(base).ok()?.flatten() {
        let dir = entry.path();
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).ok();
        let lvl = read("level").and_then(|s| s.trim().parse::<u32>().ok());
        let kind = read("type").unwrap_or_default();
        if lvl == Some(level) && kind.trim() != "Instruction" {
            return read("size").map(|s| s.trim().to_string());
        }
    }
    None
}

/// One-line host description: nproc, qp-par threads, GEMM microkernel and
/// L2/L3 sizes, so results from different hosts are not compared blindly.
pub fn describe() -> String {
    format!(
        "{{\"host\":{{\"nproc\":{},\"qp_par_threads\":{},\"gemm_microkernel\":\"{}\",\"l2\":\"{}\",\"l3\":\"{}\"}}}}",
        nproc(),
        qp_par::active_threads(),
        qp_linalg::gemm::active_microkernel(),
        cache_size(2).unwrap_or_else(|| "unknown".into()),
        cache_size(3).unwrap_or_else(|| "unknown".into()),
    )
}

/// Host-wide CPU time counters `(steal, total)` in clock ticks, from the
/// first line of `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Share of host CPU time the hypervisor stole between two
/// [`cpu_ticks`] readings: wall times rise with it, so runs are best
/// compared at similar steal.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}

/// Reset the OS peak resident set (`VmHWM`) to the current resident set.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// OS peak resident set since the last reset, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_reset_drops_a_released_allocation() {
        reset_peak_rss().expect("clear_refs is writable");
        let before = peak_rss_mib();
        {
            let big = vec![1u8; 64 << 20];
            std::hint::black_box(&big);
        }
        let with_big = peak_rss_mib();
        assert!(with_big > before + 50.0, "{before} -> {with_big}");
        reset_peak_rss().expect("clear_refs is writable");
        assert!(peak_rss_mib() < with_big - 50.0);
    }
}
