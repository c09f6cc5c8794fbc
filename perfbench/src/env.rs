//! The run's environment, recorded with every result: core count,
//! toolchain, the code under test, and the process's peak memory.

use std::path::Path;
use std::process::Command;

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// First line of a finished command's standard output, or `"unavailable"`.
fn first_line(output: std::io::Result<std::process::Output>) -> String {
    output
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unavailable".to_owned())
}

pub fn rustc_version() -> String {
    first_line(Command::new("rustc").arg("--version").output())
}

/// The checked-out commit, when the working directory is a git checkout.
/// Git does not look above the working directory for one.
pub fn git_commit() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let Some(parent) = cwd.parent() else {
        return "unavailable".to_owned();
    };
    let output = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", parent)
        .output();
    first_line(output)
}

/// FNV-1a over the paths and contents of every file under `crates/`, in
/// path order: identifies the code under test where no git metadata is.
pub fn source_fingerprint() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.filter_map(Result::ok) {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        feed(f.to_string_lossy().as_bytes());
        feed(&std::fs::read(f).unwrap_or_default());
    }
    format!("{hash:016x}")
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
