//! A one-connection-per-request HTTP/1.1 client and the `srtd-server`
//! child process it talks to.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Longest any single request may take before it counts as failed.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// A request rendered to wire bytes before the clock starts.
pub fn wire(verb: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{verb} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub body: String,
    /// Bytes received, headers included.
    pub bytes: usize,
}

/// Sends `wire` on a fresh connection and reads the reply to the end
/// (the server closes every connection after one response).
pub fn send(addr: SocketAddr, wire: &[u8]) -> Result<Reply, String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(REQUEST_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(REQUEST_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream.write_all(wire).map_err(|e| format!("write: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    parse_reply(raw)
}

fn parse_reply(raw: Vec<u8>) -> Result<Reply, String> {
    let bytes = raw.len();
    let text = String::from_utf8(raw).map_err(|_| "reply is not UTF-8".to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| "reply has no header terminator".to_string())?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let length = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse::<usize>().ok())?
        })
        .ok_or_else(|| "reply has no Content-Length".to_string())?;
    if length != body.len() {
        return Err(format!(
            "reply body {} bytes, header says {length}",
            body.len()
        ));
    }
    Ok(Reply {
        status,
        body: body.to_string(),
        bytes,
    })
}

/// A running `srtd-server`. Dropping it kills and reaps the process, so
/// no path out of the benchmark leaves a server behind.
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Starts `binary`. The child inherits this process's CPU affinity,
    /// so when `run.py` has pinned the generator to one CPU the server
    /// (and its worker pool) runs on that CPU too.
    pub fn spawn(binary: &Path, method: &str, tasks: usize) -> Result<Self, String> {
        let mut child = Command::new(binary)
            .args([
                "--port",
                "0",
                "--method",
                method,
                "--tasks",
                &tasks.to_string(),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let announced = stdout.read_line(&mut line);
        let addr = announced
            .ok()
            .and_then(|_| line.trim().strip_prefix("listening on ")?.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("server did not announce its address: {line:?}"));
        };
        Ok(Self {
            child,
            _stdout: stdout,
            addr,
        })
    }

    /// Peak resident set (`VmHWM`) so far, in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read server status: {e}"))?;
        let kib: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| "no VmHWM in server status".to_string())?;
        Ok(kib / 1024.0)
    }

    /// Asks the server to exit and waits for it.
    pub fn shutdown(mut self) -> Result<(), String> {
        let reply = send(self.addr, &wire("POST", "/shutdown", ""))?;
        if reply.status != 200 {
            return Err(format!("shutdown answered {}", reply.status));
        }
        let deadline = Instant::now() + REQUEST_TIMEOUT;
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("server exited with {status}")),
                None if Instant::now() > deadline => return Err("server did not exit".into()),
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_are_checked_against_their_length() {
        let ok = parse_reply(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}".to_vec()).unwrap();
        assert_eq!((ok.status, ok.body.as_str()), (200, "{}"));
        assert!(parse_reply(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n{}".to_vec()).is_err());
        assert!(parse_reply(b"HTTP/1.1 200 OK\r\n".to_vec()).is_err());
    }
}
