//! Host and run identity recorded with every result, and peak-RSS probes.
//!
//! Linux only: CPU model and resident-set sizes come from `/proc`, and the
//! peak RSS of exited child processes from `getrusage(RUSAGE_CHILDREN)`.

use std::path::Path;
use std::process::Command;

use swarm_serve::json::Value;

/// CPU model, logical CPUs, toolchain and source revision of this run.
pub fn metadata() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let rustc = command_line("rustc", &["-V"], Path::new("."));
    let (commit, dirty) = git_revision();
    Value::Obj(vec![
        ("cpu_model".into(), Value::Str(cpu)),
        ("nproc".into(), Value::UInt(nproc)),
        ("rustc".into(), rustc.map_or(Value::Null, Value::Str)),
        ("git_commit".into(), commit.map_or(Value::Null, Value::Str)),
        ("git_dirty".into(), dirty.map_or(Value::Null, Value::Bool)),
    ])
}

/// The checkout's commit and whether its tree differs from it; `None` when
/// the checkout is not a git repository. Git is only asked about a `.git`
/// in the working directory, never about an enclosing repository.
fn git_revision() -> (Option<String>, Option<bool>) {
    let root = Path::new(".");
    if !root.join(".git").exists() {
        return (None, None);
    }
    let commit = command_line("git", &["rev-parse", "HEAD"], root);
    let dirty = Command::new("git")
        .args(["status", "--porcelain", "--untracked-files=no"])
        .current_dir(root)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| !o.stdout.is_empty());
    (commit, dirty)
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program).args(args).current_dir(dir).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Peak resident set size of process `pid` (`"self"` for this one), in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Largest peak resident set size among the child processes this process
/// has waited for, in MB.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn children_peak_rss_mb() -> Option<f64> {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s of
    /// which `ru_maxrss` (in KB) is the first.
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = RUsage { times: [0; 4], maxrss: 0, rest: [0; 13] };
    // SAFETY: `usage` is a live, writable value laid out as the C
    // `struct rusage` of this 64-bit Linux target, which is all `getrusage`
    // writes to; the call has no other preconditions.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    (rc == 0).then(|| usage.maxrss as f64 / 1024.0)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn children_peak_rss_mb() -> Option<f64> {
    None
}
