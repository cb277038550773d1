//! The `svd` daemon under test: build, spawn, talk to, sample and stop it.

use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use sv_serve::json::{self, Value};

/// Microseconds per `/proc/<pid>/stat` clock tick (Linux `USER_HZ` = 100).
pub const TICK_US: f64 = 10_000.0;

/// How long a benchmark connection waits for any one reply before giving
/// the daemon up as hung.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Build the release `svd` from the repository in the current directory
/// and return the path of the binary.
pub fn build() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "sv-serve",
            "--bin",
            "svd",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building svd failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = target.join("release").join("svd");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "cargo reported success but {} is missing",
            bin.display()
        ))
    }
}

/// A peak-memory and CPU-time sample of one process from `/proc`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// Peak resident set (VmHWM), KiB.
    pub hwm_kb: u64,
    /// User plus system CPU time of all its threads, clock ticks.
    pub cpu_ticks: u64,
}

impl ProcSample {
    /// Sample `/proc/<pid>`; `pid` may be `"self"`.
    pub fn of(pid: &str) -> Result<ProcSample, String> {
        let read = |f: &str| {
            std::fs::read_to_string(format!("/proc/{pid}/{f}"))
                .map_err(|e| format!("/proc/{pid}/{f}: {e}"))
        };
        let status = read("status")?;
        let hwm_kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("/proc/{pid}/status has no VmHWM"))?;
        let stat = read("stat")?;
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the whole line.
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map(|(_, f)| f)
            .unwrap_or("")
            .split_whitespace()
            .collect();
        let tick = |i: usize| fields.get(i).and_then(|v| v.parse::<u64>().ok());
        let cpu_ticks = tick(11)
            .zip(tick(12))
            .map(|(u, s)| u + s)
            .ok_or_else(|| format!("/proc/{pid}/stat is malformed"))?;
        Ok(ProcSample { hwm_kb, cpu_ticks })
    }

    pub fn peak_mb(&self) -> f64 {
        self.hwm_kb as f64 / 1024.0
    }
}

/// One client connection with default socket options; every request line
/// goes out in a single `write_all`.
pub struct Conn {
    w: TcpStream,
    r: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let w = TcpStream::connect(addr)?;
        w.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let r = BufReader::new(w.try_clone()?);
        Ok(Conn { w, r })
    }

    /// Send one newline-terminated request line.
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.w.write_all(line.as_bytes())
    }

    /// Read one response line into `buf` (cleared first), without its
    /// newline. End of stream is an error.
    pub fn recv(&mut self, buf: &mut String) -> std::io::Result<()> {
        buf.clear();
        if self.r.read_line(buf)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "svd closed the connection",
            ));
        }
        if buf.ends_with('\n') {
            buf.pop();
        }
        Ok(())
    }

    /// The sending and receiving halves, for a writer and a reader thread.
    pub fn split(self) -> std::io::Result<(TcpStream, Conn)> {
        Ok((self.w.try_clone()?, self))
    }
}

/// A running `svd`. Dropping it sends `shutdown`, then kills the process
/// if it has not exited, and waits for it either way.
pub struct Svd {
    child: Child,
    addr: SocketAddr,
    dir: PathBuf,
}

impl Svd {
    /// Start `svd --tcp` with its defaults plus `--machines` and
    /// `--jobs 1` in a fresh directory `dir`, its stderr going to
    /// `dir/svd.log`, and wait for the port file.
    pub fn start(bin: &Path, dir: &Path) -> Result<Svd, String> {
        let abs = |p: &Path| {
            p.canonicalize()
                .map_err(|e| format!("{}: {e}", p.display()))
        };
        let (bin, machines) = (abs(bin)?, abs(Path::new(crate::inputs::MACHINES_DIR))?);
        if dir.exists() {
            std::fs::remove_dir_all(dir)
                .map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let log = File::create(dir.join("svd.log")).map_err(|e| format!("svd.log: {e}"))?;
        let child = Command::new(bin)
            .current_dir(dir)
            .args([
                "--tcp",
                "127.0.0.1:0",
                "--port-file",
                "port",
                "--jobs",
                "1",
                "--machines",
            ])
            .arg(machines)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot spawn svd: {e}"))?;
        let mut svd = Svd {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            dir: dir.to_path_buf(),
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(text) = std::fs::read_to_string(dir.join("port")) {
                if let Some(addr) = text.strip_suffix('\n').and_then(|a| a.parse().ok()) {
                    svd.addr = addr;
                    return Ok(svd);
                }
            }
            if let Ok(Some(status)) = svd.child.try_wait() {
                return Err(format!(
                    "svd exited during start-up ({status}): {}",
                    svd.log_tail()
                ));
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "svd wrote no port file within 20 s: {}",
                    svd.log_tail()
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// The last lines `svd` wrote to its log.
    fn log_tail(&self) -> String {
        let text = std::fs::read_to_string(self.dir.join("svd.log")).unwrap_or_default();
        let lines: Vec<&str> = text.lines().collect();
        lines[lines.len().saturating_sub(5)..].join(" | ")
    }

    /// Send one non-compile verb on a fresh connection and return its
    /// `result` object.
    pub fn verb(&self, verb: &str) -> Result<Value, String> {
        let mut c = Conn::open(self.addr).map_err(|e| format!("connect to svd: {e}"))?;
        c.send(&format!("{{\"verb\":\"{verb}\",\"id\":1}}\n"))
            .map_err(|e| format!("{verb}: {e}"))?;
        let mut line = String::new();
        c.recv(&mut line)
            .map_err(|e| format!("{verb} reply: {e}"))?;
        let v = json::parse(&line).map_err(|e| format!("{verb} reply `{line}`: {e}"))?;
        match v.get("ok") {
            Some(Value::Bool(true)) => v
                .get("result")
                .cloned()
                .ok_or_else(|| format!("{verb} reply has no result")),
            _ => Err(format!("{verb} refused: {line}")),
        }
    }

    /// Peak memory and CPU time of the daemon so far.
    pub fn sample(&self) -> Result<ProcSample, String> {
        ProcSample::of(&self.pid())
    }
}

impl Drop for Svd {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            if let Ok(mut c) = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1)) {
                let _ = c.set_read_timeout(Some(Duration::from_secs(2)));
                if c.write_all(b"{\"verb\":\"shutdown\",\"id\":0}\n").is_ok() {
                    let _ = BufReader::new(c).read_line(&mut String::new());
                }
            }
            let deadline = Instant::now() + Duration::from_secs(5);
            while matches!(self.child.try_wait(), Ok(None)) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The number at `path` inside a parsed JSON object, e.g.
/// `num(&stats, &["queue", "compiles"])`.
pub fn num(v: &Value, path: &[&str]) -> Result<f64, String> {
    let mut at = v;
    for k in path {
        at = at
            .get(k)
            .ok_or_else(|| format!("no `{}` in reply", path.join(".")))?;
    }
    match at {
        Value::Num(n) => Ok(*n),
        _ => Err(format!("`{}` is not a number", path.join("."))),
    }
}
