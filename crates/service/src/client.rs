//! A blocking `cohesion-wire/v1` client: handshake, submissions, event
//! streaming. Shared by the `cohesion` CLI, the load generator, and the
//! end-to-end tests.

use std::net::TcpStream;
use std::time::Duration;

use cohesion_bench::jsonv::{self, Value};

use crate::request::{RunRequest, SweepRequest};
use crate::wire::{read_frame, write_frame, ErrorCode, FrameError, MsgType, WIRE_VERSION};

/// A failure talking to the daemon. When the server answered with an
/// `error` frame, `code` carries its decoded [`ErrorCode`].
#[derive(Debug)]
pub struct ClientError {
    /// The server's error code, when the failure was an `error` frame.
    pub code: Option<ErrorCode>,
    /// Human-readable detail.
    pub message: String,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.code {
            Some(c) => write!(f, "[{}] {}", c.label(), self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    fn local(message: impl Into<String>) -> ClientError {
        ClientError {
            code: None,
            message: message.into(),
        }
    }
}

/// What the server said in `hello-ack`.
#[derive(Debug, Clone)]
pub struct ServerInfo {
    /// Negotiated protocol version.
    pub version: u64,
    /// Server identification string.
    pub server: String,
    /// The server's cache code version.
    pub code_version: String,
}

/// One `pong` answer.
#[derive(Debug, Clone, Copy, Default)]
pub struct PongInfo {
    /// Simulation jobs the daemon has executed (cache misses that ran).
    pub jobs_executed: u64,
    /// Cache hits so far.
    pub cache_hits: u64,
    /// Cache misses so far.
    pub cache_misses: u64,
    /// Entries currently cached.
    pub cache_entries: u64,
}

/// One `stats-reply` answer: the daemon's operational counters. `raw`
/// keeps the full payload for callers that want every field (the CLI's
/// table, the load generator's artifact).
#[derive(Debug, Clone, Default)]
pub struct StatsInfo {
    /// Milliseconds since the daemon started serving.
    pub uptime_ms: u64,
    /// Connections accepted over the daemon's lifetime.
    pub connections: u64,
    /// Connections currently open.
    pub active_connections: u64,
    /// `(message name, count)` for every client→server message type.
    pub requests: Vec<(String, u64)>,
    /// `(error label, count)` for every error code.
    pub errors: Vec<(String, u64)>,
    /// Jobs sitting in the bounded queue right now.
    pub queue_depth: u64,
    /// The queue's capacity.
    pub queue_capacity: u64,
    /// Simulation worker threads.
    pub workers_total: u64,
    /// Workers running a job right now.
    pub workers_busy: u64,
    /// Simulation jobs executed (cache misses that ran).
    pub jobs_executed: u64,
    /// Cache hits so far.
    pub cache_hits: u64,
    /// Cache misses so far.
    pub cache_misses: u64,
    /// Entries currently cached.
    pub cache_entries: u64,
    /// The verbatim `stats-reply` JSON payload.
    pub raw: String,
}

impl StatsInfo {
    /// Total client→server frames the daemon has handled.
    pub fn requests_total(&self) -> u64 {
        self.requests.iter().map(|(_, n)| n).sum()
    }

    /// Total error frames the daemon has sent.
    pub fn errors_total(&self) -> u64 {
        self.errors.iter().map(|(_, n)| n).sum()
    }
}

/// One job's report as streamed back by the server.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Index within the submission (0 for single runs).
    pub job: usize,
    /// The server's label, e.g. `sobel @ swcc`.
    pub label: String,
    /// The 32-hex-digit cache key.
    pub key: String,
    /// Whether the submission was answered from the cache.
    pub cached: bool,
    /// The full `cohesion-metrics/v1` document, byte-exact.
    pub doc: String,
}

/// A streamed event during a submission.
#[derive(Debug, Clone)]
pub enum Event {
    /// The submission was validated: total jobs, cache hits, queued jobs.
    Accepted {
        /// Jobs in the submission.
        jobs: usize,
        /// Of which answered from cache.
        cached: usize,
    },
    /// One job finished.
    Progress {
        /// Index within the submission.
        job: usize,
        /// Jobs completed so far.
        completed: usize,
        /// Total jobs.
        total: usize,
        /// The server's label for the job.
        label: String,
        /// Served from cache?
        cached: bool,
        /// Did the simulation succeed?
        ok: bool,
    },
    /// One job failed (`run-failed`); the submission continues.
    JobFailed {
        /// Index within the submission.
        job: usize,
        /// Failure detail.
        message: String,
    },
}

/// The completed submission: per-job reports in submission order.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Reports for every successful job, sorted by job index.
    pub reports: Vec<JobReport>,
    /// Jobs that failed server-side.
    pub failed: usize,
    /// Jobs answered from cache.
    pub cached: usize,
}

/// A connected, handshaken client.
pub struct Client {
    stream: TcpStream,
    info: ServerInfo,
}

impl Client {
    /// Connects and performs the `hello`/`hello-ack` handshake.
    ///
    /// # Errors
    ///
    /// Connection failures, timeouts, or a failed version negotiation.
    pub fn connect(addr: &str, timeout: Duration) -> Result<Client, ClientError> {
        let sock_addr = std::net::ToSocketAddrs::to_socket_addrs(addr)
            .map_err(|e| ClientError::local(format!("resolve {addr}: {e}")))?
            .next()
            .ok_or_else(|| ClientError::local(format!("{addr} resolves to nothing")))?;
        let stream = TcpStream::connect_timeout(&sock_addr, timeout)
            .map_err(|e| ClientError::local(format!("connect {addr}: {e}")))?;
        // Frames are small and latency-sensitive; Nagle + delayed ACK
        // would add ~40 ms to every cache hit.
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(timeout.max(Duration::from_secs(1))))
            .map_err(|e| ClientError::local(e.to_string()))?;
        stream
            .set_write_timeout(Some(timeout.max(Duration::from_secs(1))))
            .map_err(|e| ClientError::local(e.to_string()))?;
        let mut client = Client {
            stream,
            info: ServerInfo {
                version: 0,
                server: String::new(),
                code_version: String::new(),
            },
        };
        let ack = client.roundtrip(
            MsgType::Hello,
            &format!(
                "{{\"versions\": [{WIRE_VERSION}], \"client\": \"cohesion/{}\"}}",
                env!("CARGO_PKG_VERSION")
            ),
            MsgType::HelloAck,
        )?;
        client.info = ServerInfo {
            version: ack.get("version").and_then(Value::as_u64).unwrap_or(0),
            server: ack
                .get("server")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            code_version: ack
                .get("code_version")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
        };
        Ok(client)
    }

    /// The `hello-ack` contents.
    pub fn server_info(&self) -> &ServerInfo {
        &self.info
    }

    /// Sets the read timeout for subsequent replies — raise it for
    /// submissions whose simulations run long.
    ///
    /// # Errors
    ///
    /// Propagates the socket-option failure.
    pub fn set_reply_timeout(&mut self, timeout: Duration) -> Result<(), ClientError> {
        self.stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| ClientError::local(e.to_string()))
    }

    /// Sends `ping`, returns the daemon's counters.
    ///
    /// # Errors
    ///
    /// Transport failures or an `error` reply.
    pub fn ping(&mut self) -> Result<PongInfo, ClientError> {
        let v = self.roundtrip(MsgType::Ping, "{}", MsgType::Pong)?;
        let cache = v.get("cache");
        let field = |name: &str| {
            cache
                .and_then(|c| c.get(name))
                .and_then(Value::as_u64)
                .unwrap_or(0)
        };
        Ok(PongInfo {
            jobs_executed: v.get("jobs_executed").and_then(Value::as_u64).unwrap_or(0),
            cache_hits: field("hits"),
            cache_misses: field("misses"),
            cache_entries: field("entries"),
        })
    }

    /// Sends `stats`, returns the daemon's operational counters.
    ///
    /// # Errors
    ///
    /// Transport failures or an `error` reply.
    pub fn stats(&mut self) -> Result<StatsInfo, ClientError> {
        self.send(MsgType::Stats, "{}")?;
        let (got, v, raw) = self.recv_raw()?;
        if got != MsgType::StatsReply {
            return Err(ClientError::local(format!(
                "expected stats-reply, got {}",
                got.name()
            )));
        }
        let num = |name: &str| v.get(name).and_then(Value::as_u64).unwrap_or(0);
        let nested = |obj: &str, name: &str| {
            v.get(obj)
                .and_then(|o| o.get(name))
                .and_then(Value::as_u64)
                .unwrap_or(0)
        };
        let map = |obj: &str| -> Vec<(String, u64)> {
            v.get(obj)
                .and_then(Value::as_obj)
                .unwrap_or_default()
                .iter()
                .filter_map(|(k, n)| Some((k.clone(), n.as_u64()?)))
                .collect()
        };
        Ok(StatsInfo {
            uptime_ms: num("uptime_ms"),
            connections: num("connections"),
            active_connections: num("active_connections"),
            requests: map("requests"),
            errors: map("errors"),
            queue_depth: nested("queue", "depth"),
            queue_capacity: nested("queue", "capacity"),
            workers_total: nested("workers", "total"),
            workers_busy: nested("workers", "busy"),
            jobs_executed: num("jobs_executed"),
            cache_hits: nested("cache", "hits"),
            cache_misses: nested("cache", "misses"),
            cache_entries: nested("cache", "entries"),
            raw,
        })
    }

    /// Submits one run and consumes the event stream until `done`.
    ///
    /// # Errors
    ///
    /// Transport failures or a request-level `error` reply.
    pub fn submit_run(
        &mut self,
        req: &RunRequest,
        mut on_event: impl FnMut(&Event),
    ) -> Result<Outcome, ClientError> {
        self.send(MsgType::SubmitRun, &req.to_json())?;
        self.consume_submission(&mut on_event)
    }

    /// Submits a sweep and consumes the event stream until `done`.
    ///
    /// # Errors
    ///
    /// Transport failures or a request-level `error` reply.
    pub fn submit_sweep(
        &mut self,
        req: &SweepRequest,
        mut on_event: impl FnMut(&Event),
    ) -> Result<Outcome, ClientError> {
        self.send(MsgType::SubmitSweep, &req.to_json())?;
        self.consume_submission(&mut on_event)
    }

    /// Fetches a cached report by key without simulating.
    ///
    /// # Errors
    ///
    /// `not-found` (as an error reply) when the key is absent.
    pub fn fetch(&mut self, key: &str) -> Result<JobReport, ClientError> {
        self.send(
            MsgType::FetchReport,
            &format!("{{\"key\": \"{}\"}}", crate::wire::json_escape(key)),
        )?;
        let mut outcome = self.consume_submission(&mut |_| {})?;
        outcome
            .reports
            .pop()
            .ok_or_else(|| ClientError::local("fetch returned no report"))
    }

    /// Asks the daemon to drain and exit. The reply (`done`) confirms the
    /// drain began.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.roundtrip(MsgType::Shutdown, "{}", MsgType::Done)
            .map(|_| ())
    }

    fn send(&mut self, msg: MsgType, payload: &str) -> Result<(), ClientError> {
        write_frame(&mut self.stream, msg, payload)
            .map_err(|e| ClientError::local(format!("send {}: {e}", msg.name())))
    }

    fn recv(&mut self) -> Result<(MsgType, Value), ClientError> {
        self.recv_raw().map(|(m, v, _)| (m, v))
    }

    /// Like [`Client::recv`] but also returns the verbatim payload text.
    fn recv_raw(&mut self) -> Result<(MsgType, Value, String), ClientError> {
        let f = read_frame(&mut self.stream).map_err(|e| match e {
            FrameError::IdleTimeout => ClientError::local("timed out waiting for the server"),
            e => ClientError::local(e.to_string()),
        })?;
        let v = jsonv::parse(&f.payload)
            .map_err(|e| ClientError::local(format!("bad {} payload: {e}", f.msg.name())))?;
        if f.msg == MsgType::Error {
            // Request-level error: surface code + message. A job-scoped
            // run-failed is handled by the caller.
            let code = v
                .get("code")
                .and_then(Value::as_str)
                .and_then(ErrorCode::from_label);
            if code != Some(ErrorCode::RunFailed) {
                return Err(ClientError {
                    code,
                    message: v
                        .get("message")
                        .and_then(Value::as_str)
                        .unwrap_or("server error")
                        .to_string(),
                });
            }
        }
        Ok((f.msg, v, f.payload))
    }

    fn roundtrip(
        &mut self,
        msg: MsgType,
        payload: &str,
        expect: MsgType,
    ) -> Result<Value, ClientError> {
        self.send(msg, payload)?;
        let (got, v) = self.recv()?;
        if got != expect {
            return Err(ClientError::local(format!(
                "expected {}, got {}",
                expect.name(),
                got.name()
            )));
        }
        Ok(v)
    }

    fn consume_submission(
        &mut self,
        on_event: &mut impl FnMut(&Event),
    ) -> Result<Outcome, ClientError> {
        let mut outcome = Outcome::default();
        loop {
            let (msg, v) = self.recv()?;
            match msg {
                MsgType::Accepted => {
                    let ev = Event::Accepted {
                        jobs: v.get("jobs").and_then(Value::as_u64).unwrap_or(0) as usize,
                        cached: v.get("cached").and_then(Value::as_u64).unwrap_or(0) as usize,
                    };
                    on_event(&ev);
                }
                MsgType::Progress => {
                    let ev = Event::Progress {
                        job: v.get("job").and_then(Value::as_u64).unwrap_or(0) as usize,
                        completed: v.get("completed").and_then(Value::as_u64).unwrap_or(0) as usize,
                        total: v.get("total").and_then(Value::as_u64).unwrap_or(0) as usize,
                        label: v
                            .get("label")
                            .and_then(Value::as_str)
                            .unwrap_or("")
                            .to_string(),
                        cached: v.get("cached") == Some(&Value::Bool(true)),
                        ok: v.get("ok") != Some(&Value::Bool(false)),
                    };
                    on_event(&ev);
                }
                MsgType::Report => {
                    let report = JobReport {
                        job: v.get("job").and_then(Value::as_u64).unwrap_or(0) as usize,
                        label: v
                            .get("label")
                            .and_then(Value::as_str)
                            .unwrap_or("")
                            .to_string(),
                        key: v.get("key").and_then(Value::as_str).unwrap_or("").to_string(),
                        cached: v.get("cached") == Some(&Value::Bool(true)),
                        doc: v.get("doc").and_then(Value::as_str).unwrap_or("").to_string(),
                    };
                    if report.cached {
                        outcome.cached += 1;
                    }
                    outcome.reports.push(report);
                }
                MsgType::Error => {
                    // Only job-scoped run-failed reaches here (see recv).
                    outcome.failed += 1;
                    let ev = Event::JobFailed {
                        job: v.get("job").and_then(Value::as_u64).unwrap_or(0) as usize,
                        message: v
                            .get("message")
                            .and_then(Value::as_str)
                            .unwrap_or("")
                            .to_string(),
                    };
                    on_event(&ev);
                }
                MsgType::Done => {
                    outcome.reports.sort_by_key(|r| r.job);
                    return Ok(outcome);
                }
                other => {
                    return Err(ClientError::local(format!(
                        "unexpected {} during submission",
                        other.name()
                    )))
                }
            }
        }
    }
}
