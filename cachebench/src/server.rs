//! A `ctserve` child process: spawn, readiness, control requests, peak RSS
//! and a shutdown that always reaps the process.

use cachetime_serve::client::HttpClient;
use cachetime_types::Json;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a spawn may take to bind (recovery included).
const READY_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Server {
    child: Option<Child>,
    pub addr: String,
    pub pid: u32,
    control: HttpClient,
}

impl Server {
    /// Spawns `exe` on an ephemeral port with `extra` flags and returns once
    /// the port file exists: ctserve writes it after recovering its data
    /// directory and binding, so this is "ready with every segment
    /// recovered".
    pub fn spawn(exe: &Path, work_dir: &Path, extra: &[String]) -> std::io::Result<Server> {
        let port_file: PathBuf = work_dir.join(format!("port-{}-{}", std::process::id(), unique()));
        let _ = std::fs::remove_file(&port_file);
        let mut child = Command::new(exe)
            .args(["--addr", "127.0.0.1:0", "--port-file"])
            .arg(&port_file)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()?;
        let pid = child.id();
        let started = Instant::now();
        let port = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(port) = text.trim().parse::<u16>() {
                    break port;
                }
            }
            if let Some(status) = child.try_wait()? {
                return Err(std::io::Error::other(format!(
                    "ctserve exited during start-up: {status}"
                )));
            }
            if started.elapsed() > READY_TIMEOUT {
                let _ = child.kill();
                let _ = child.wait();
                return Err(std::io::Error::other("ctserve did not become ready"));
            }
            std::thread::sleep(Duration::from_micros(500));
        };
        let _ = std::fs::remove_file(&port_file);
        let addr = format!("127.0.0.1:{port}");
        let control = match HttpClient::connect(&addr) {
            Ok(c) => c,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        Ok(Server {
            child: Some(child),
            addr,
            pid,
            control,
        })
    }

    /// `GET path` on the control connection, parsed as JSON.
    pub fn get_json(&mut self, path: &str) -> Result<Json, String> {
        let (status, body) = self
            .control
            .get(path)
            .map_err(|e| format!("GET {path}: {e}"))?;
        if status != 200 {
            return Err(format!("GET {path} answered {status}: {body}"));
        }
        Json::parse(&body).map_err(|e| format!("GET {path}: {e}"))
    }

    /// `POST path` with `body` on the control connection.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        self.control.post(path, body)
    }

    /// A number at `path` (dot-separated) in `/v1/stats`.
    pub fn stat(stats: &Json, path: &str) -> f64 {
        path.split('.')
            .try_fold(stats, |v, k| v.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    }

    pub fn rss_peak_mb(&self) -> f64 {
        crate::util::rss_peak_mb(self.pid)
    }

    /// Asks the server to stop and waits for it to exit; kills it if it
    /// does not exit within a few seconds.
    pub fn shutdown(mut self) {
        let _ = self.control.post("/v1/shutdown", "");
        self.reap(Duration::from_secs(5));
    }

    fn reap(&mut self, grace: Duration) {
        let Some(mut child) = self.child.take() else {
            return;
        };
        let deadline = Instant::now() + grace;
        while Instant::now() < deadline {
            if let Ok(Some(_)) = child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = child.kill();
        let _ = child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn unique() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    N.fetch_add(1, Ordering::Relaxed)
}
