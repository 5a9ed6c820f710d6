//! The open-loop load generator: one process, at most two threads and two
//! pipelined TCP connections.
//!
//! Requests follow a fixed schedule regardless of how fast the server
//! answers (an open loop: independent users). Each connection is driven by
//! one thread that writes every request as soon as it is due and, between
//! sends, waits for answers until the next due time on a high-resolution
//! timer — no busy polling, so the generator leaves the cores to the
//! server. A
//! request's latency is measured from its **scheduled** send time, so a
//! stall also charges the requests queued behind it; how late the
//! generator itself ran is reported separately.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use logirec_linalg::SplitMix64;
use logirec_obs::json::{self, Json};
use logirec_serve::protocol::{encode_request, parse_response};
use logirec_serve::{Request, Response, ServedBy};

use crate::trace::SpanRec;

/// How long a connection may wait for an answer before the run gives up
/// on the server.
const HANG: Duration = Duration::from_secs(20);

/// One pipelined connection.
pub struct Conn {
    stream: TcpStream,
    pending: Vec<u8>,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects with Nagle off (requests are single small lines).
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_write_timeout(Some(HANG))
            .map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(HANG))
            .map_err(|e| e.to_string())?;
        Ok(Self {
            stream,
            pending: Vec::new(),
            buf: vec![0; 1 << 16],
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.stream
            .write_all(&bytes)
            .map_err(|e| format!("write: {e}"))
    }

    /// Reads whatever arrives within `timeout` and returns the complete
    /// lines; `Ok(empty)` on timeout.
    fn read_lines(&mut self, timeout: Duration) -> Result<Vec<String>, String> {
        if !wait_readable(&self.stream, timeout).map_err(|e| format!("poll: {e}"))? {
            return Ok(Vec::new());
        }
        match self.stream.read(&mut self.buf) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(n) => {
                self.pending.extend_from_slice(&self.buf[..n]);
                let mut lines = Vec::new();
                while let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
                    let rest = self.pending.split_off(pos + 1);
                    let line = std::mem::replace(&mut self.pending, rest);
                    lines.push(String::from_utf8_lossy(&line[..pos]).into_owned());
                }
                Ok(lines)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Ok(Vec::new())
            }
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Closed loop: send one line, wait for one line back.
    pub fn roundtrip(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        let deadline = Instant::now() + HANG;
        loop {
            let mut lines = self.read_lines(deadline.saturating_duration_since(Instant::now()))?;
            if let Some(first) = lines.drain(..).next() {
                return Ok(first);
            }
            if Instant::now() >= deadline {
                return Err(format!("no answer within {HANG:?}"));
            }
        }
    }

    /// Closed-loop recommendation.
    pub fn recommend(&mut self, req: &Request) -> Result<Response, String> {
        let line = self.roundtrip(&encode_request(req))?;
        match parse_response(&line)? {
            Ok(resp) => Ok(resp),
            Err(msg) => Err(format!("server error: {msg}")),
        }
    }

    /// Closed-loop JSON admin exchange (`stats`, `fold_in`, ...).
    pub fn admin(&mut self, line: &str) -> Result<Json, String> {
        json::parse(&self.roundtrip(line)?)
    }
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
pub struct Shot {
    /// Due time, ns after the phase origin.
    pub at_ns: u64,
    /// Request id (unique in the run).
    pub id: u64,
    /// User asked for.
    pub user: usize,
}

/// What happened to one scheduled request.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Due time, ns after the phase origin.
    pub sched_ns: u64,
    /// When the line was actually written.
    pub sent_ns: u64,
    /// When the answer was read.
    pub done_ns: u64,
    /// Server-side latency the response reports, µs.
    pub server_us: u64,
    /// The tier that answered; `None` for an error reply.
    pub served_by: Option<ServedBy>,
    /// Snapshot version that answered.
    pub version: u64,
}

impl Outcome {
    /// Latency from the scheduled send time, ms.
    pub fn latency_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.sched_ns) as f64 / 1e6
    }

    /// How late the generator wrote the request, µs.
    pub fn late_us(&self) -> f64 {
        self.sent_ns.saturating_sub(self.sched_ns) as f64 / 1e3
    }
}

/// A constant-rate schedule of `n` requests starting at `offset_ns`, users
/// drawn from `rng`, ids from `first_id`.
pub fn schedule(
    rate: f64,
    secs: f64,
    offset_ns: u64,
    first_id: u64,
    n_users: usize,
    rng: &mut SplitMix64,
) -> Vec<Shot> {
    let n = (rate * secs).round().max(1.0) as u64;
    let gap = 1e9 / rate;
    (0..n)
        .map(|i| Shot {
            at_ns: offset_ns + (i as f64 * gap) as u64,
            id: first_id + i,
            user: rng.index(n_users),
        })
        .collect()
}

/// Drives `shots` over one connection, open loop, timed against `origin`.
/// With `spans`, records a `request` span per request with its `encode`,
/// `write`, `wait` and `parse` children.
pub fn drive(
    conn: &mut Conn,
    shots: &[Shot],
    k: usize,
    origin: Instant,
    mut spans: Option<&mut Vec<SpanRec>>,
) -> Result<Vec<Outcome>, String> {
    let ns = |t: Instant| t.duration_since(origin).as_nanos() as u64;
    let mut out = Vec::with_capacity(shots.len());
    let mut inflight: VecDeque<(usize, u64)> = VecDeque::new();
    let mut next = 0;
    let mut last_answer = Instant::now();
    loop {
        while next < shots.len() && shots[next].at_ns <= ns(Instant::now()) {
            let s = shots[next];
            let t_enc = ns(Instant::now());
            let line = encode_request(&Request {
                id: s.id,
                user: s.user,
                k,
                deadline_ms: Some(1000),
            });
            let t_write = ns(Instant::now());
            conn.send(&line)?;
            let sent = ns(Instant::now());
            if let Some(sp) = spans.as_deref_mut() {
                sp.push(SpanRec::new(s.id, 1, 0, "request", t_enc, 0));
                sp.push(SpanRec::new(s.id, 2, 1, "encode", t_enc, t_write));
                sp.push(SpanRec::new(s.id, 3, 1, "write", t_write, sent));
            }
            inflight.push_back((next, sent));
            next += 1;
        }
        if next == shots.len() && inflight.is_empty() {
            return Ok(out);
        }
        let now = ns(Instant::now());
        let wait = shots
            .get(next)
            .map_or(HANG.as_nanos() as u64, |s| s.at_ns.saturating_sub(now));
        if wait == 0 {
            continue;
        }
        let lines = conn.read_lines(Duration::from_nanos(wait))?;
        if lines.is_empty() {
            if !inflight.is_empty() && last_answer.elapsed() >= HANG {
                return Err(format!("no answer within {HANG:?}"));
            }
            continue;
        }
        let done = ns(Instant::now());
        last_answer = Instant::now();
        for line in lines {
            let (idx, sent) = inflight.pop_front().ok_or("answer without a request")?;
            let s = shots[idx];
            let t_parse = ns(Instant::now());
            let parsed = parse_response(&line)?;
            let t_end = ns(Instant::now());
            let (served_by, server_us, version) = match parsed {
                Ok(r) if r.id == s.id => (Some(r.served_by), r.latency_us, r.model_version),
                Ok(r) => return Err(format!("answer {} arrived for request {}", r.id, s.id)),
                Err(_) => (None, 0, 0),
            };
            if let Some(sp) = spans.as_deref_mut() {
                sp.push(SpanRec::new(s.id, 4, 1, "wait", sent, done));
                sp.push(SpanRec::new(s.id, 5, 1, "parse", t_parse, t_end));
                if let Some(root) = sp.iter_mut().rev().find(|r| r.trace == s.id && r.id == 1) {
                    root.end_ns = t_end;
                }
            }
            out.push(Outcome {
                sched_ns: s.at_ns,
                sent_ns: sent,
                done_ns: done,
                server_us,
                served_by,
                version,
            });
        }
    }
}

/// Drives two shot lists over the two connections at once: the second on
/// one spawned thread, the first on the calling thread.
pub fn drive_pair(
    conns: &mut [Conn; 2],
    shots: [&[Shot]; 2],
    k: usize,
    origin: Instant,
    spans: Option<&mut Vec<SpanRec>>,
) -> Result<Vec<Outcome>, String> {
    let [c0, c1] = conns;
    let traced = spans.is_some();
    let (mut spans0, mut spans1) = (Vec::new(), Vec::new());
    let (r0, r1) = std::thread::scope(|s| {
        let h = s.spawn(|| drive(c1, shots[1], k, origin, traced.then_some(&mut spans1)));
        let r0 = drive(c0, shots[0], k, origin, traced.then_some(&mut spans0));
        (
            r0,
            h.join()
                .map_err(|_| "generator thread panicked".to_string()),
        )
    });
    let mut out = r0?;
    out.extend(r1??);
    if let Some(dst) = spans {
        dst.extend(spans0);
        dst.extend(spans1);
    }
    out.sort_by_key(|o| o.sched_ns);
    Ok(out)
}

/// Blocks until `stream` has data to read or `timeout` passes; `true` when
/// readable. Socket read timeouts count in scheduler ticks (up to 10 ms
/// late), which would make the generator send late; `ppoll` sleeps on a
/// high-resolution timer instead.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> std::io::Result<bool> {
    use std::os::fd::AsRawFd;

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
    const POLLIN: i16 = 0x1;

    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly laid out (`struct pollfd`,
    // 64-bit `struct timespec`) for the whole call; `nfds` is 1, matching
    // the single entry; a null signal mask leaves the mask unchanged. The
    // descriptor belongs to `stream`, which outlives the call.
    let rc = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    if rc < 0 {
        let e = std::io::Error::last_os_error();
        return if e.kind() == std::io::ErrorKind::Interrupted {
            Ok(false)
        } else {
            Err(e)
        };
    }
    Ok(rc > 0)
}
