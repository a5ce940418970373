//! Child-process hygiene: the `banks` servers run as black boxes on free
//! loopback ports, are polled for readiness, and never outlive the run.

use crate::client;
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Timeout for control-plane requests (health, scrapes).
pub const CONTROL_TIMEOUT: Duration = Duration::from_secs(5);

/// One running `banks` process.
#[derive(Debug)]
pub struct Server {
    pub addr: SocketAddr,
    child: Child,
}

impl Server {
    /// Spawn `banks <args…> --addr <free port on ip>`; stderr goes to
    /// `log`. Returns as soon as the process is started — pair with
    /// [`Server::wait_healthy`].
    pub fn spawn(bin: &Path, ip: Ipv4Addr, args: &[&str], log: &Path) -> Result<Server, String> {
        let addr = free_addr(ip)?;
        let stderr = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(bin)
            .args(args)
            .args(["--addr", &addr.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        Ok(Server { addr, child })
    }

    /// Poll `/health` until it answers 200, the process dies, or
    /// `timeout` passes.
    pub fn wait_healthy(&mut self, timeout: Duration) -> Result<(), String> {
        let t0 = Instant::now();
        loop {
            if let Ok(r) = client::request(self.addr, "/health", None, CONTROL_TIMEOUT) {
                if r.status == 200 {
                    return Ok(());
                }
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("server on {} exited early: {status}", self.addr));
            }
            if t0.elapsed() > timeout {
                return Err(format!(
                    "server on {} not healthy in {timeout:?}",
                    self.addr
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Peak resident set (`VmHWM`) in KiB; read before shutdown.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("{path}: no VmHWM"))
    }
}

impl Drop for Server {
    /// Kill and reap — also on panic, so no `banks` process survives.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A free port on `ip`, found by binding port 0 and releasing it.
fn free_addr(ip: Ipv4Addr) -> Result<SocketAddr, String> {
    TcpListener::bind((IpAddr::V4(ip), 0))
        .and_then(|l| l.local_addr())
        .map_err(|e| format!("no free port on {ip}: {e}"))
}

/// Run `banks datagen` to completion.
pub fn datagen(bin: &Path, tuples: u64, out: &Path) -> Result<(), String> {
    let status = Command::new(bin)
        .args(["datagen", "--seed", "42", "--tuples", &tuples.to_string()])
        .arg("--out")
        .arg(out)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("banks datagen failed: {status}"))
    }
}

/// Pids of live processes named `banks` — the pre-flight refuses to
/// measure beside one (a stray server would share the two cores).
pub fn other_banks_processes() -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            std::fs::read_to_string(format!("/proc/{pid}/comm"))
                .is_ok_and(|comm| comm.trim() == "banks")
        })
        .collect()
}

/// Total bytes of the regular files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A fresh, empty scratch directory.
pub fn fresh_dir(path: PathBuf) -> Result<PathBuf, String> {
    let _ = std::fs::remove_dir_all(&path);
    std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
    Ok(path)
}
