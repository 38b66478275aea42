//! Host fingerprint, calibration loop and peak memory: the context every
//! result is recorded with, so figures from different hosts are never
//! compared bare.

use crate::stats::{median, ns_since};
use serde_json::Value;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Worker threads every layer is pinned to: the host's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Restarts peak-RSS tracking from the current resident set, so the next
/// [`peak_rss_mb`] reads the peak since now. Without kernel support the
/// peak keeps counting from process start.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process since the last
/// [`reset_peak_rss`], in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds a fixed integer workload takes on this host (median of
/// five): a yardstick for reading absolute timings from another machine.
pub fn calibration_ms() -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for i in 0..20_000_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x = x.wrapping_add(black_box(i));
            }
            black_box(x);
            ns_since(t) as f64 / 1e6
        })
        .collect();
    median(&samples)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit when run from a git work tree, else `none`.
fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "none".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over every source file the benchmark builds from, so a result
/// names the code it measured even in a checkout without git metadata.
fn source_hash() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "vendor", "perfbench/src"] {
        walk(Path::new(root), &mut files);
    }
    files.push("Cargo.lock".into());
    files.sort();
    let h = files.iter().fold(crate::FNV_START, |h, f| {
        let h = crate::fnv(h, f.to_string_lossy().as_bytes());
        crate::fnv(h, &std::fs::read(f).unwrap_or_default())
    });
    format!("{h:016x}")
}

/// The host and code a result was measured on.
pub fn fingerprint(calibration_ms: f64) -> Value {
    serde_json::json!({
        "nproc": nproc() as u64,
        "cpu": cpu_model(),
        "rustc": rustc_version(),
        "git_revision": git_revision(),
        "source_hash": source_hash(),
        "calibration_ms": calibration_ms,
    })
}
