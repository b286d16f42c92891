//! Host plumbing: `ppoll` for the single-threaded client, `/proc` readers,
//! directory sizes, and the host/build fingerprint every report carries.

use std::io;
use std::os::unix::io::RawFd;
use std::path::Path;
use std::process::Command;
use std::time::Duration;

/// Readable.
pub const POLLIN: i16 = 0x1;
/// Writable.
pub const POLLOUT: i16 = 0x4;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Waits until one of `fds` (descriptor, interest) is ready or `timeout`
/// passes; returns each descriptor's ready events.
pub fn wait(fds: &[(RawFd, i16)], timeout: Duration) -> io::Result<Vec<i16>> {
    let mut raw: Vec<PollFd> = fds
        .iter()
        .map(|&(fd, events)| PollFd {
            fd,
            events,
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `raw` is a live, exclusively borrowed array of `raw.len()`
    // `struct pollfd`-layout records; `ts` outlives the call; a null
    // sigmask means "keep the current mask", which ppoll permits.
    let rc = unsafe { ppoll(raw.as_mut_ptr(), raw.len() as u64, &ts, std::ptr::null()) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(vec![0; fds.len()]);
        }
        return Err(err);
    }
    Ok(raw.iter().map(|p| p.revents).collect())
}

/// One `key:   value kB`-style field of `/proc/<pid>/status`.
fn proc_status_field(pid: &str, key: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status.lines().find_map(|l| {
        let rest = l.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set (`VmHWM`) of a process, in MB.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    proc_status_field(&pid.to_string(), "VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// Threads of this process right now.
pub fn own_threads() -> u64 {
    proc_status_field("self", "Threads").unwrap_or(0)
}

/// Bytes of all regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map(|m| m.len()).unwrap_or(0),
            _ => 0,
        })
        .sum()
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Host and build fingerprint: `(key, value)` pairs for the report.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    vec![
        ("nproc", nproc().to_string()),
        ("cpu", cpu_model()),
        ("commit", command_line("git", &["rev-parse", "HEAD"])),
        ("rustc", command_line("rustc", &["-V"])),
        (
            "thread_scaling",
            format!("measured at {} cores only; beyond that unmeasured", nproc()),
        ),
    ]
}
