//! Driving `ulm serve --reactor` as a separate process: build, spawn on
//! an ephemeral port with a fresh cache directory, talk NDJSON, drain.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

/// The `ulm` binary inside the cargo target directory the benchmark was
/// given (`CARGO_TARGET_DIR`, else `target`).
pub fn ulm_binary() -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    dir.join("release").join("ulm")
}

/// Builds the `ulm` CLI from the workspace in the current directory.
pub fn build_ulm() -> Result<PathBuf, String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("crates/cli").is_dir() {
        return Err("run from the root of the ulm workspace".into());
    }
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "ulm-cli",
            "--bin",
            "ulm",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building ulm failed: {status}"));
    }
    Ok(ulm_binary())
}

/// A running server. Dropping it without [`Server::shutdown`] kills it.
pub struct Server {
    child: Option<Child>,
    stderr: Option<BufReader<ChildStderr>>,
    pub port: u16,
}

impl Server {
    /// Spawns the reactor server with `--parallelism 2` on an ephemeral
    /// port and waits until it listens.
    pub fn spawn(bin: &Path, cache_dir: &Path) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--reactor", "--port", "0", "--parallelism", "2"])
            .arg("--cache-dir")
            .arg(cache_dir)
            .arg("--shutdown-on-stdin-close")
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("piped"));
        let mut server = Self {
            child: Some(child),
            stderr: None,
            port: 0,
        };
        let mut line = String::new();
        loop {
            line.clear();
            if stderr.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                return Err("server exited before listening".into());
            }
            if let Some(addr) = line
                .trim()
                .strip_prefix("serving NDJSON evaluation requests on ")
            {
                server.port = addr
                    .rsplit(':')
                    .next()
                    .and_then(|p| p.parse().ok())
                    .ok_or_else(|| format!("bad listen line: {line}"))?;
                break;
            }
        }
        server.stderr = Some(stderr);
        Ok(server)
    }

    pub fn connect(&self) -> Result<Conn, String> {
        let stream = TcpStream::connect(("127.0.0.1", self.port)).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            stream,
            reader,
            buf: String::new(),
        })
    }

    /// Closes stdin and waits for the drain. Fails unless the server
    /// reports `drained=true` and exits 0.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut child = self.child.take().expect("running");
        drop(child.stdin.take());
        let mut rest = String::new();
        if let Some(mut err) = self.stderr.take() {
            let _ = err.read_to_string(&mut rest);
        }
        let status = child.wait().map_err(|e| e.to_string())?;
        let done = rest.lines().find(|l| l.starts_with("reactor done:"));
        match done {
            Some(l) if l.contains("drained=true") && status.success() => Ok(()),
            _ => Err(format!(
                "server did not drain cleanly ({status}): {rest:.300}"
            )),
        }
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

/// One client connection: a line out, a line back.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    buf: String,
}

impl Conn {
    /// Sends one request line and returns the response line and the
    /// round-trip time in microseconds.
    pub fn request(&mut self, line: &str) -> Result<(&str, f64), String> {
        self.buf.clear();
        let t0 = Instant::now();
        self.stream
            .write_all(line.as_bytes())
            .and_then(|_| self.stream.write_all(b"\n"))
            .map_err(|e| e.to_string())?;
        let n = self
            .reader
            .read_line(&mut self.buf)
            .map_err(|e| e.to_string())?;
        let us = t0.elapsed().as_secs_f64() * 1e6;
        if n == 0 {
            return Err("connection closed".into());
        }
        Ok((self.buf.trim_end(), us))
    }
}
