//! The daemon under test as a subprocess, plus the connections that
//! drive it.

use nomloc_net::wire::{self, Frame, LocateResponse, ServerHealth, StreamDecoder};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

/// Linux reports process CPU time in clock ticks of `USER_HZ`, which is
/// 100 on every architecture the kernel ships.
pub const TICKS_PER_SECOND: f64 = 100.0;

/// Scheduling niceness of the daemon relative to the load generator.
const DAEMON_NICE: &str = "10";

/// A running `nomloc serve --listen` process. Dropping it kills the
/// process and waits for it to exit.
pub struct Daemon {
    child: Child,
    /// Held open so the daemon never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Spawns the daemon and blocks until its banner names the address.
    ///
    /// The daemon runs at niceness [`DAEMON_NICE`]: the load generator
    /// shares its two cores, and without the lower priority a busy daemon
    /// delays the generator's wake-ups by a millisecond or more, which
    /// would put the generator's lateness into every latency. Among its
    /// own threads nothing changes.
    pub fn spawn(program: &Path, args: &[String]) -> io::Result<Daemon> {
        let mut child = Command::new("nice")
            .args(["-n", DAEMON_NICE])
            .arg(program)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = read.ok().and_then(|_| {
            banner
                .trim()
                .rsplit(' ')
                .next()
                .and_then(|a| a.parse::<SocketAddr>().ok())
        });
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "daemon banner not understood: {banner:?}"
            )));
        };
        Ok(Daemon {
            child,
            _stdout: stdout,
            addr,
        })
    }

    /// User plus system CPU time of every daemon thread, dead or alive,
    /// in clock ticks (`/proc/<pid>/stat` fields 14 and 15).
    pub fn cpu_ticks(&self) -> io::Result<u64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))?;
        // The command name may hold spaces; fields resume after its ')'.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or_else(|| io::Error::other("unparseable /proc stat"))?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let field = |i: usize| -> io::Result<u64> {
            fields
                .get(i)
                .and_then(|f| f.parse().ok())
                .ok_or_else(|| io::Error::other("short /proc stat"))
        };
        // `rest` starts at field 3 (state), so utime (14) is index 11.
        Ok(field(11)? + field(12)?)
    }

    /// A memory field of `/proc/<pid>/status` (`VmHWM`, `VmRSS`), KiB.
    pub fn status_kib(&self, field: &str) -> io::Result<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| io::Error::other(format!("no {field} in /proc status")))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection with its incremental frame decoder.
pub struct Conn {
    pub stream: TcpStream,
    pub decoder: StreamDecoder,
}

/// How long a blocking read may wait before the run is declared stuck.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            stream,
            decoder: StreamDecoder::new(),
        })
    }

    /// Reads until one whole frame is decoded (blocking mode).
    pub fn read_frame(&mut self) -> io::Result<Frame> {
        let mut buf = [0u8; 64 * 1024];
        loop {
            if let Some(frame) = self.decoder.next_frame().map_err(io::Error::other)? {
                return Ok(frame);
            }
            let n = self.stream.read(&mut buf)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.decoder.extend(&buf[..n]);
        }
    }

    pub fn read_reply(&mut self) -> io::Result<LocateResponse> {
        match self.read_frame()? {
            Frame::LocateResponse(r) => Ok(r),
            other => Err(io::Error::other(format!("unexpected frame {other:?}"))),
        }
    }

    /// The daemon's counters (a `StatsRequest` round trip). Called only
    /// between phases, when nothing is in flight on this connection.
    pub fn stats(&mut self) -> io::Result<ServerHealth> {
        self.stream.set_nonblocking(false)?;
        self.stream
            .write_all(&wire::frame_to_vec(&Frame::StatsRequest))?;
        match self.read_frame()? {
            Frame::StatsResponse(h) => Ok(h),
            other => Err(io::Error::other(format!("unexpected frame {other:?}"))),
        }
    }
}

/// `write_all` that also works on a nonblocking socket: a full send
/// buffer backs off briefly instead of failing.
pub fn write_all(mut stream: &TcpStream, mut bytes: &[u8]) -> io::Result<()> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(50));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}
