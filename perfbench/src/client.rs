//! The load generator: one thread, one TCP connection, closed loop, driven
//! by `ppoll`. Every request line is logged with the time it was handed to
//! the client, the time it was written, and the time its answer line
//! arrived.

use crate::sys;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// Which part of a workload a request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Warm-up before the measured phase (counts in `setup_s`).
    Setup,
    /// The measured phase.
    Measured,
    /// Counter reads after the measured phase.
    Tail,
}

/// One request and what became of it.
#[derive(Debug, Clone)]
pub struct Exchange {
    pub line: String,
    pub phase: Phase,
    /// When the request was handed to the client.
    pub due: Instant,
    /// When the client had written it to the socket.
    pub sent: Instant,
    pub answered: Option<Instant>,
    pub answer: Option<String>,
}

impl Exchange {
    /// Milliseconds from the due time to the answer line.
    pub fn latency_ms(&self) -> Option<f64> {
        self.answered
            .map(|a| a.duration_since(self.due).as_secs_f64() * 1e3)
    }

    /// Milliseconds the generator took to write the request after it was due.
    pub fn late_ms(&self) -> f64 {
        self.sent.duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// A single-threaded client over one connection.
pub struct Client {
    stream: TcpStream,
    rbuf: Vec<u8>,
    pub log: Vec<Exchange>,
    deadline: Instant,
}

impl Client {
    /// Connects to `addr`. Every wait is bounded by `deadline`; passing it
    /// is an error, never a hang.
    pub fn connect(addr: SocketAddr, deadline: Instant) -> Result<Client, String> {
        let stream = TcpStream::connect_timeout(&addr, crate::server::left(deadline).max(ms(1)))
            .map_err(|e| format!("connecting to {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        stream
            .set_nonblocking(true)
            .map_err(|e| format!("nonblocking: {e}"))?;
        Ok(Client {
            stream,
            rbuf: Vec::new(),
            log: Vec::new(),
            deadline,
        })
    }

    /// Sends `line` now and waits for its answer. Returns the request's
    /// index in [`log`](Self::log).
    pub fn call(&mut self, line: &str, phase: Phase) -> Result<usize, String> {
        let due = Instant::now();
        let mut wbuf = line.as_bytes().to_vec();
        wbuf.push(b'\n');
        while !wbuf.is_empty() {
            self.wait(sys::POLLOUT)?;
            match self.stream.write(&wbuf) {
                Ok(n) => {
                    wbuf.drain(..n);
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
                Err(e) => return Err(format!("writing '{line}': {e}")),
            }
        }
        let sent = Instant::now();
        let idx = self.log.len();
        self.log.push(Exchange {
            line: line.to_string(),
            phase,
            due,
            sent,
            answered: None,
            answer: None,
        });
        loop {
            if let Some(pos) = self.rbuf.iter().position(|&b| b == b'\n') {
                let answer = String::from_utf8_lossy(&self.rbuf[..pos]).to_string();
                self.rbuf.drain(..=pos);
                self.log[idx].answer = Some(answer);
                self.log[idx].answered = Some(Instant::now());
                return Ok(idx);
            }
            self.wait(sys::POLLIN)?;
            let mut chunk = [0u8; 64 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(format!("connection closed before answering '{line}'")),
                Ok(got) => self.rbuf.extend_from_slice(&chunk[..got]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
                Err(e) => return Err(format!("reading the answer to '{line}': {e}")),
            }
        }
    }

    /// Waits until the socket is ready for `events`, up to the deadline.
    fn wait(&self, events: i16) -> Result<(), String> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err("run deadline passed while waiting for the server".into());
        }
        sys::wait(&[(self.stream.as_raw_fd(), events)], left)
            .map(drop)
            .map_err(|e| format!("ppoll: {e}"))
    }
}

/// `n` milliseconds.
pub fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}
