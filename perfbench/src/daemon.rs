//! `antd` as a separate process: built from source with the release
//! profile, started on an ephemeral loopback port with its default
//! `BatchPolicy`, scraped over `/metrics`, and drained at the end.

use crate::client;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Cargo's target directory for builds started from this checkout.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
}

/// Builds the release `antd` binary from the checkout's root workspace
/// and returns its path.
pub fn build() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "ant-bench",
            "--bin",
            "antd",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building antd failed: {status}"));
    }
    let bin = target_dir().join("release").join("antd");
    if !bin.is_file() {
        return Err(format!("{} missing after build", bin.display()));
    }
    Ok(bin)
}

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

extern "C" {
    fn prctl(option: i32, arg2: u64, ...) -> i32;
}

pub struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Starts `antd` serving `name=artifact` and waits until `/healthz`
    /// answers 200.
    pub fn spawn(bin: &Path, name: &str, artifact: &Path) -> Result<Daemon, String> {
        // The daemon dies with the thread that started it, even when the
        // benchmark is killed before it can drain it.
        let die_with_parent = || {
            // SAFETY: prctl(PR_SET_PDEATHSIG) takes a signal number and
            // reads no memory.
            match unsafe { prctl(PR_SET_PDEATHSIG, SIGKILL) } {
                0 => Ok(()),
                _ => Err(std::io::Error::last_os_error()),
            }
        };
        let mut cmd = Command::new(bin);
        // SAFETY: the hook runs in the forked child before exec and makes
        // one async-signal-safe system call; it touches no shared state.
        unsafe {
            cmd.pre_exec(die_with_parent);
        }
        let mut child = cmd
            .arg("--model")
            .arg(format!("{name}={}", artifact.display()))
            .args(["--addr", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start antd: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = stdout
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.trim().rsplit("http://").next()?.parse().ok());
        let daemon = match addr {
            Some(addr) => Daemon {
                child,
                _stdout: stdout,
                addr,
            },
            None => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("antd did not report its address: {line:?}"));
            }
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if matches!(
                client::once(daemon.addr, "GET", "/healthz", b""),
                Ok((200, _))
            ) {
                return Ok(daemon);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("antd never became healthy".into())
    }

    /// The Prometheus exposition text of `/metrics`.
    pub fn metrics(&self) -> Result<String, String> {
        match client::once(self.addr, "GET", "/metrics", b"") {
            Ok((200, body)) => String::from_utf8(body).map_err(|e| e.to_string()),
            Ok((code, _)) => Err(format!("/metrics answered {code}")),
            Err(e) => Err(format!("/metrics: {e}")),
        }
    }

    /// Peak resident set (VmHWM) of the daemon, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Drains the daemon through `POST /shutdown` and waits for it to
    /// exit (killing it after 10 s).
    pub fn shutdown(mut self) {
        let _ = client::once(self.addr, "POST", "/shutdown", b"");
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// VmHWM from a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
