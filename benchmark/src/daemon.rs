//! Child-process handling for the root-built `symbiod` and `fleetd`.
//!
//! The server workloads drive the real daemons over their sockets; this
//! module spawns them on ephemeral ports, reads their CPU time and peak
//! memory from `/proc`, shuts them down over the wire, and — whatever
//! path the run takes — kills and reaps them on drop, so no process
//! outlives the benchmark.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use symbio_serve::{Encoding, Request, Response};

use crate::load::Conn;
use crate::util;

/// Run `spawn` — which starts daemon children — with the calling thread
/// confined to the lower half of the cores, then move the calling thread
/// to the upper half. Children inherit the mask they were spawned under
/// and the generator threads started later inherit the caller's, so the
/// daemons and the generator never share a core. Without the split the
/// kernel settles the daemon and generator threads into one of several
/// placements whose cross-core wake-up costs differ by up to 3x, and
/// which one a run gets is a coin toss (README.md, "Noise controls").
/// [`crate::run`] lifts the confinement when the workload ends. A
/// single-core host is left alone.
pub fn on_daemon_cores<T>(spawn: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    let cores = util::nproc();
    if cores < 2 {
        return spawn();
    }
    util::pin_to_cpus(0..cores / 2).map_err(|e| format!("cannot pin the daemons: {e}"))?;
    let spawned = spawn();
    util::pin_to_cpus(cores / 2..cores).map_err(|e| format!("cannot pin the generator: {e}"))?;
    spawned
}

/// One running daemon child.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    /// Where it listens.
    pub addr: SocketAddr,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Spawn `bin` with `args` and wait for its `<name> listening on
    /// <addr>` line.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<Daemon, String> {
        let name = bin
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("daemon")
            .to_string();
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| {
                format!(
                    "cannot spawn {}: {e} (run benchmark/run.sh, which builds the daemons first)",
                    bin.display()
                )
            })?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut lines = BufReader::new(stdout).lines();
        let prefix = format!("{name} listening on ");
        let addr = loop {
            let line = lines.next().and_then(Result::ok);
            let parsed = match &line {
                Some(line) => match line.strip_prefix(&prefix) {
                    Some(addr) => addr.trim().parse::<SocketAddr>().map_err(|e| e.to_string()),
                    None => continue,
                },
                None => Err("it exited first".to_string()),
            };
            match parsed {
                Ok(addr) => break addr,
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("{name} printed no listen address: {e}"));
                }
            }
        };
        // Keep draining the pipe so the child can never block on it; the
        // thread ends when the child closes its stdout.
        let drain = std::thread::spawn(move || lines.for_each(drop));
        Ok(Daemon {
            child,
            addr,
            drain: Some(drain),
        })
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CPU seconds (user + system) the daemon has used.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        util::cpu_seconds(self.pid())
    }

    /// Peak resident set size, MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        util::peak_rss_mb(self.pid())
    }

    /// Ask for a graceful drain over the wire and reap the process.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut conn = Conn::connect(self.addr, Encoding::JsonLines)?;
        match conn.exchange(&Request::Shutdown)? {
            Response::Ok => {}
            other => return Err(format!("shutdown not acknowledged: {other:?}")),
        }
        self.reap(Duration::from_secs(10))
    }

    /// Wait up to `grace` for the process to exit (a `fleetd` shutdown
    /// stops its backends too), killing it after that.
    pub fn reap(&mut self, grace: Duration) -> Result<(), String> {
        let deadline = Instant::now() + grace;
        let exited = loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break true,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => break false,
            }
        };
        if !exited {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        if exited {
            Ok(())
        } else {
            Err(format!(
                "daemon {} did not exit within {grace:?}; killed",
                self.pid()
            ))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // No-ops after a clean shutdown; on error paths this is what
        // keeps the benchmark from leaving processes behind.
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}
