//! The server child process: builds the serving snapshot exactly as
//! `logirec serve` does (`ModelSnapshot::build_with_index`, then
//! `Server::start`) and serves until told to stop or until its parent goes
//! away (stdin closes).

use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use logirec_core::Precision;
use logirec_serve::{IndexConfig, ModelSnapshot, ServeContext, Server, ServerConfig};

use crate::stats::median;
use crate::workloads::{catalog, load_served, SETUPS};

/// What the server child is asked to serve.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// The model file to serve.
    pub model: PathBuf,
    /// Serve the tiny smoke-test catalog instead of the paper-scale one.
    pub quick: bool,
    /// Build the clustered index.
    pub index: bool,
    /// Route every request to the approx tier.
    pub approx: bool,
}

impl ServeSpec {
    fn args(&self) -> Vec<String> {
        let mut args = vec![
            "server".to_string(),
            "--model".into(),
            self.model.display().to_string(),
            "--index".into(),
            u8::from(self.index).to_string(),
            "--approx".into(),
            u8::from(self.approx).to_string(),
        ];
        if self.quick {
            args.push("--quick".into());
        }
        args
    }

    /// The index configuration the server builds with, if any: the auto
    /// knobs (≈12% of a paper-scale catalog probed), or half the clusters on
    /// the tiny catalog, whose auto probe of one cluster in ten cannot
    /// reach the recall check.
    pub fn index_cfg(&self) -> Option<IndexConfig> {
        let nprobe = if self.quick { 5 } else { 0 };
        self.index.then_some(IndexConfig {
            nprobe,
            ..IndexConfig::default()
        })
    }
}

/// Runs the server child in this process (the `server` subcommand). Each
/// set-up loads the catalog and the model file and builds the snapshot.
pub fn run(spec_: ServeSpec) -> Result<(), String> {
    let mut times = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let ds = catalog(spec_.quick);
        let ctx = Arc::new(ServeContext::from_dataset(&ds));
        let model = load_served(&spec_.model)?;
        let snap = ModelSnapshot::build_with_index(
            model,
            Precision::F64,
            &ctx,
            spec_.model.display().to_string(),
            spec_.index_cfg(),
        )
        .map_err(|e| format!("snapshot rejected: {e}"))?;
        times.push(t.elapsed().as_secs_f64());
        built = Some((ctx, snap));
    }
    let (ctx, snap) = built.expect("at least one set-up ran");
    let cfg = ServerConfig {
        default_deadline_ms: 1000,
        force_approx: spec_.approx,
        ..ServerConfig::default()
    };
    let server = Server::start(cfg, ctx, snap).map_err(|e| format!("server start: {e}"))?;
    let addr = server.addr();
    println!("ready {addr} {:?}", median(&times));
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    // The parent holds our stdin: when it closes (normally or because the
    // parent died), stop serving.
    let watcher = std::thread::spawn(move || {
        let mut sink = String::new();
        while std::io::stdin()
            .lock()
            .read_line(&mut sink)
            .is_ok_and(|n| n > 0)
        {
            sink.clear();
        }
        if let Ok(mut s) = std::net::TcpStream::connect(addr) {
            let _ = s.write_all(b"{\"shutdown\":true}\n");
        }
    });
    server.wait();
    watcher
        .join()
        .map_err(|_| "stdin watcher panicked".to_string())
}

/// A running server child; killed and reaped when dropped.
pub struct ServerChild {
    child: Child,
    /// Where it listens.
    pub addr: std::net::SocketAddr,
    /// Median set-up time it reported, seconds.
    pub setup_s: f64,
    _stdout: std::io::BufReader<ChildStdout>,
}

impl ServerChild {
    /// Starts `exe server ...` and waits for its `ready` line.
    pub fn spawn(spec_: &ServeSpec) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .args(spec_.args())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let mut stdout = std::io::BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let parsed = line
            .strip_prefix("ready ")
            .and_then(|rest| rest.trim().split_once(' '))
            .and_then(|(a, s)| Some((a.parse().ok()?, s.parse().ok()?)));
        match (read, parsed) {
            (Ok(_), Some((addr, setup_s))) => Ok(Self {
                child,
                addr,
                setup_s,
                _stdout: stdout,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "server child did not come up (said {:?})",
                    line.trim()
                ))
            }
        }
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Closes its stdin (it shuts down) and waits for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        drop(self.child.stdin.take());
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("server child exited with {status}"))
        }
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
