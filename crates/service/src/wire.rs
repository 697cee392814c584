//! The `cohesion-wire/v1` protocol: framing, message types, error codes.
//!
//! Everything a client and `cohesiond` exchange is a **frame**:
//!
//! ```text
//! +----------------+--------+----------------------------------+
//! | length: u32 BE | tag:u8 | payload: UTF-8 JSON (length - 1) |
//! +----------------+--------+----------------------------------+
//! ```
//!
//! * `length` counts the tag byte plus the payload, **not** the length
//!   field itself, so an empty-payload frame has `length == 1`.
//! * `tag` selects the [`MsgType`]; client→server tags are `0x01..=0x7f`,
//!   server→client tags are `0x81..=0xff`.
//! * the payload is one JSON object (possibly `{}`), never an array or a
//!   bare scalar.
//!
//! Frames larger than [`MAX_FRAME`] are rejected without being read — a
//! malformed or hostile length prefix must not make the server allocate.
//! The full payload schema for every message type, the version-negotiation
//! handshake, and the error-code table live in `docs/cohesiond.md` — a
//! test (`tests/doc_sync.rs`) cross-checks that document against
//! [`MsgType::ALL`] and [`ErrorCode::ALL`] so the spec cannot drift from
//! the code.

use std::io::{self, Read, Write};

pub use cohesion_sim::metrics::json_escape;

/// The protocol version this build speaks. Version negotiation: the
/// client's `hello` lists every version it supports; the server picks the
/// highest it also supports and echoes it in `hello-ack`, or answers
/// [`ErrorCode::UnsupportedVersion`] and closes.
pub const WIRE_VERSION: u32 = 1;

/// Hard upper bound on `length` (tag + payload bytes). Larger frames are
/// rejected with [`FrameError::TooLarge`] before any payload allocation.
pub const MAX_FRAME: usize = 64 << 20;

/// Every message type of `cohesion-wire/v1`, with its tag byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MsgType {
    /// Client→server: opens the session; payload lists supported versions.
    Hello = 0x01,
    /// Client→server: liveness probe.
    Ping = 0x02,
    /// Client→server: submit one `(kernel, scale, cores, point, seed)` run.
    SubmitRun = 0x03,
    /// Client→server: submit a `kernels × points` sweep.
    SubmitSweep = 0x04,
    /// Client→server: fetch a cached report by cache key, never simulating.
    FetchReport = 0x05,
    /// Client→server: ask the daemon to drain and exit.
    Shutdown = 0x06,
    /// Client→server: ask for the daemon's operational counters.
    Stats = 0x07,
    /// Server→client: accepts the session, names the negotiated version.
    HelloAck = 0x81,
    /// Server→client: answer to `ping`.
    Pong = 0x82,
    /// Server→client: a submission was validated and scheduled.
    Accepted = 0x83,
    /// Server→client: one job of a submission finished (or was served
    /// from cache); carries completion counts, not the report.
    Progress = 0x84,
    /// Server→client: one job's full `cohesion-metrics/v1` report.
    Report = 0x85,
    /// Server→client: a submission (or shutdown request) completed.
    Done = 0x86,
    /// Server→client: a structured failure; see [`ErrorCode`].
    Error = 0x87,
    /// Server→client: answer to `stats` — uptime, request/error counters,
    /// queue depth, worker busyness, cache statistics.
    StatsReply = 0x88,
}

impl MsgType {
    /// Every message type, client-to-server tags first, in tag order.
    pub const ALL: [MsgType; 15] = [
        MsgType::Hello,
        MsgType::Ping,
        MsgType::SubmitRun,
        MsgType::SubmitSweep,
        MsgType::FetchReport,
        MsgType::Shutdown,
        MsgType::Stats,
        MsgType::HelloAck,
        MsgType::Pong,
        MsgType::Accepted,
        MsgType::Progress,
        MsgType::Report,
        MsgType::Done,
        MsgType::Error,
        MsgType::StatsReply,
    ];

    /// The frame tag byte.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// The wire name used in `docs/cohesiond.md` and in CLI output.
    pub fn name(self) -> &'static str {
        match self {
            MsgType::Hello => "hello",
            MsgType::Ping => "ping",
            MsgType::SubmitRun => "submit-run",
            MsgType::SubmitSweep => "submit-sweep",
            MsgType::FetchReport => "fetch-report",
            MsgType::Shutdown => "shutdown",
            MsgType::Stats => "stats",
            MsgType::HelloAck => "hello-ack",
            MsgType::Pong => "pong",
            MsgType::Accepted => "accepted",
            MsgType::Progress => "progress",
            MsgType::Report => "report",
            MsgType::Done => "done",
            MsgType::Error => "error",
            MsgType::StatsReply => "stats-reply",
        }
    }

    /// `true` for tags a client sends, `false` for tags a server sends.
    pub fn client_to_server(self) -> bool {
        self.tag() < 0x80
    }

    /// Decodes a tag byte.
    pub fn from_tag(tag: u8) -> Option<MsgType> {
        MsgType::ALL.into_iter().find(|m| m.tag() == tag)
    }
}

/// Structured error codes carried by [`MsgType::Error`] payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame itself was unreadable: oversized length, unknown tag,
    /// non-UTF-8 or non-JSON payload, or a server-only tag sent by a
    /// client. The server closes the connection after this error.
    BadFrame,
    /// `hello` offered no version the server speaks (connection closes).
    UnsupportedVersion,
    /// The payload parsed but a field was missing or out of range.
    BadRequest,
    /// The requested kernel is not one of the eight evaluation kernels.
    UnknownKernel,
    /// The bounded job queue is full — shed load and retry later.
    QueueFull,
    /// The daemon is draining and no longer accepts new work.
    Draining,
    /// `fetch-report` named a cache key the server does not hold.
    NotFound,
    /// A simulation failed (golden-verification mismatch, machine error).
    RunFailed,
    /// Anything else; the message carries detail.
    Internal,
}

impl ErrorCode {
    /// Every error code, in documentation order.
    pub const ALL: [ErrorCode; 9] = [
        ErrorCode::BadFrame,
        ErrorCode::UnsupportedVersion,
        ErrorCode::BadRequest,
        ErrorCode::UnknownKernel,
        ErrorCode::QueueFull,
        ErrorCode::Draining,
        ErrorCode::NotFound,
        ErrorCode::RunFailed,
        ErrorCode::Internal,
    ];

    /// The wire label, e.g. `queue-full`.
    pub fn label(self) -> &'static str {
        match self {
            ErrorCode::BadFrame => "bad-frame",
            ErrorCode::UnsupportedVersion => "unsupported-version",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnknownKernel => "unknown-kernel",
            ErrorCode::QueueFull => "queue-full",
            ErrorCode::Draining => "draining",
            ErrorCode::NotFound => "not-found",
            ErrorCode::RunFailed => "run-failed",
            ErrorCode::Internal => "internal",
        }
    }

    /// Decodes a wire label.
    pub fn from_label(label: &str) -> Option<ErrorCode> {
        ErrorCode::ALL.into_iter().find(|c| c.label() == label)
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The message type from the tag byte.
    pub msg: MsgType,
    /// The JSON payload text, exactly as received.
    pub payload: String,
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly (EOF before a length field).
    Closed,
    /// The read timed out while the connection was idle (no frame begun).
    /// The caller may keep the connection and poll again.
    IdleTimeout,
    /// An I/O failure, including timeouts that split a frame.
    Io(io::Error),
    /// The length field exceeded [`MAX_FRAME`].
    TooLarge(usize),
    /// `length == 0` — a frame must at least carry its tag byte.
    Empty,
    /// The tag byte is not a `cohesion-wire/v1` message type.
    UnknownTag(u8),
    /// The payload was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::IdleTimeout => write!(f, "idle timeout"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::TooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME}-byte limit")
            }
            FrameError::Empty => write!(f, "zero-length frame (no tag byte)"),
            FrameError::UnknownTag(t) => write!(f, "unknown message tag {t:#04x}"),
            FrameError::BadUtf8 => write!(f, "payload is not UTF-8"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes one frame: `u32 BE length`, tag byte, payload bytes.
///
/// # Errors
///
/// Propagates I/O failures; rejects payloads over [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, msg: MsgType, payload: &str) -> io::Result<()> {
    let len = 1 + payload.len();
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte limit"),
        ));
    }
    let mut buf = Vec::with_capacity(4 + len);
    buf.extend_from_slice(&(len as u32).to_be_bytes());
    buf.push(msg.tag());
    buf.extend_from_slice(payload.as_bytes());
    w.write_all(&buf)?;
    w.flush()
}

/// Reads one frame.
///
/// A timeout before the first header byte arrives is reported as
/// [`FrameError::IdleTimeout`] (the connection is still usable); EOF in
/// the same position is [`FrameError::Closed`]. Any failure *inside* a
/// frame — including a timeout that would desynchronize the stream — is
/// fatal to the connection.
///
/// # Errors
///
/// See [`FrameError`].
pub fn read_frame(r: &mut impl Read) -> Result<Frame, FrameError> {
    let mut header = [0u8; 4];
    // First header byte: distinguish clean EOF / idle timeout from a
    // mid-frame failure.
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Err(FrameError::Closed),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Err(FrameError::IdleTimeout)
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    header[0] = first[0];
    r.read_exact(&mut header[1..]).map_err(FrameError::Io)?;
    let len = u32::from_be_bytes(header) as usize;
    if len == 0 {
        return Err(FrameError::Empty);
    }
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge(len));
    }
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag).map_err(FrameError::Io)?;
    let msg = MsgType::from_tag(tag[0]).ok_or(FrameError::UnknownTag(tag[0]))?;
    let mut payload = vec![0u8; len - 1];
    r.read_exact(&mut payload).map_err(FrameError::Io)?;
    let payload = String::from_utf8(payload).map_err(|_| FrameError::BadUtf8)?;
    Ok(Frame { msg, payload })
}

/// Builds an [`MsgType::Error`] payload.
pub fn error_payload(code: ErrorCode, message: &str) -> String {
    format!(
        "{{\"code\": \"{}\", \"message\": \"{}\"}}",
        code.label(),
        json_escape(message)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_unique_and_direction_split() {
        let mut seen = std::collections::HashSet::new();
        for m in MsgType::ALL {
            assert!(seen.insert(m.tag()), "duplicate tag {:#04x}", m.tag());
            assert_eq!(MsgType::from_tag(m.tag()), Some(m));
            match m {
                MsgType::Hello
                | MsgType::Ping
                | MsgType::SubmitRun
                | MsgType::SubmitSweep
                | MsgType::FetchReport
                | MsgType::Shutdown
                | MsgType::Stats => assert!(m.client_to_server()),
                _ => assert!(!m.client_to_server()),
            }
        }
        assert_eq!(MsgType::from_tag(0x7e), None);
    }

    #[test]
    fn error_labels_round_trip() {
        for c in ErrorCode::ALL {
            assert_eq!(ErrorCode::from_label(c.label()), Some(c));
        }
        assert_eq!(ErrorCode::from_label("nope"), None);
    }

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, MsgType::Ping, "{}").unwrap();
        write_frame(&mut buf, MsgType::Report, "{\"doc\": \"x\\ny\"}").unwrap();
        let mut r = &buf[..];
        let f1 = read_frame(&mut r).unwrap();
        assert_eq!(f1.msg, MsgType::Ping);
        assert_eq!(f1.payload, "{}");
        let f2 = read_frame(&mut r).unwrap();
        assert_eq!(f2.msg, MsgType::Report);
        assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));
    }

    #[test]
    fn oversized_frame_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        buf.push(MsgType::Ping.tag());
        assert!(matches!(
            read_frame(&mut &buf[..]),
            Err(FrameError::TooLarge(_))
        ));
    }

    #[test]
    fn zero_length_and_unknown_tag_rejected() {
        let zero = 0u32.to_be_bytes();
        assert!(matches!(read_frame(&mut &zero[..]), Err(FrameError::Empty)));
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u32.to_be_bytes());
        buf.push(0x7e);
        assert!(matches!(
            read_frame(&mut &buf[..]),
            Err(FrameError::UnknownTag(0x7e))
        ));
    }

    #[test]
    fn truncated_frame_is_io_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, MsgType::Pong, "{\"x\": 1}").unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(read_frame(&mut &buf[..]), Err(FrameError::Io(_))));
    }

    #[test]
    fn json_escape_covers_controls() {
        assert_eq!(json_escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }
}
