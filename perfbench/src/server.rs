//! Starting and stopping the real `tim serve` binary.

use crate::sys;
use std::io::Read;
use std::net::SocketAddr;
use std::os::unix::io::AsRawFd;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running server. Dropping it kills the process and waits for it.
pub struct Server {
    child: Child,
    _stdout: ChildStdout,
    pub addr: SocketAddr,
    pub spawned: Instant,
    /// Seconds from spawn to the `listening on` line.
    pub listen_s: f64,
}

/// Everything needed to start one server: the binary and its flags.
#[derive(Debug, Clone)]
pub struct ServeCmd {
    pub tim: PathBuf,
    pub args: Vec<String>,
}

impl ServeCmd {
    /// Starts `tim serve --addr 127.0.0.1:0 <args>`, its stderr going to
    /// `log`, and waits for the `listening on <addr>` line on stdout.
    pub fn spawn(&self, log: &Path, deadline: Instant) -> Result<Server, String> {
        let log_file =
            std::fs::File::create(log).map_err(|e| format!("creating {}: {e}", log.display()))?;
        let spawned = Instant::now();
        let mut child = Command::new(&self.tim)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(&self.args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log_file)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", self.tim.display()))?;
        let mut stdout = child.stdout.take().expect("stdout is piped");
        let mut buf = Vec::new();
        let addr = loop {
            if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                let line = String::from_utf8_lossy(&buf[..pos]).to_string();
                match line.strip_prefix("listening on ") {
                    Some(a) => {
                        break a
                            .trim()
                            .parse::<SocketAddr>()
                            .map_err(|e| format!("bad listen address '{a}': {e}"))?
                    }
                    None => {
                        buf.drain(..=pos);
                        continue;
                    }
                }
            }
            let now = Instant::now();
            if now >= deadline {
                kill(&mut child);
                return Err("server did not print `listening on` in time".into());
            }
            let ready = sys::wait(&[(stdout.as_raw_fd(), sys::POLLIN)], deadline - now)
                .map_err(|e| format!("polling server stdout: {e}"))?;
            if ready[0] == 0 {
                continue;
            }
            let mut chunk = [0u8; 512];
            let got = stdout.read(&mut chunk).unwrap_or(0);
            if got == 0 {
                kill(&mut child);
                return Err(format!(
                    "server exited before listening (see {})",
                    log.display()
                ));
            }
            buf.extend_from_slice(&chunk[..got]);
        };
        let listen_s = spawned.elapsed().as_secs_f64();
        Ok(Server {
            child,
            _stdout: stdout,
            addr,
            spawned,
            listen_s,
        })
    }
}

fn kill(child: &mut Child) {
    child.kill().ok();
    child.wait().ok();
}

impl Server {
    /// Peak resident set of the server so far, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        sys::vm_hwm_mb(self.child.id()).unwrap_or(0.0)
    }

    /// Kills the server and waits until it has exited.
    pub fn stop(mut self) {
        kill(&mut self.child);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        kill(&mut self.child);
    }
}

/// Seconds left before `deadline`, as a wait budget (never negative).
pub fn left(deadline: Instant) -> Duration {
    deadline.saturating_duration_since(Instant::now())
}
