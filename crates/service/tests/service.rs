//! End-to-end tests: a real `cohesiond` server on a loopback socket,
//! driven by the real client — handshake, submissions, cache-hit
//! byte-identity, malformed frames, version negotiation, drain.

use std::io::Write as _;
use std::net::TcpStream;
use std::time::Duration;

use cohesion_service::client::{Client, ClientError, Event};
use cohesion_service::request::{RunRequest, SweepRequest};
use cohesion_service::server::{Server, ServerConfig, StopHandle};
use cohesion_service::wire::{read_frame, write_frame, ErrorCode, FrameError, MsgType};
use cohesion_kernels::Scale;

/// Starts a server on an ephemeral port; returns its address, stop
/// handle, and the thread running it.
fn start_server(mut cfg: ServerConfig) -> (String, StopHandle, std::thread::JoinHandle<()>) {
    cfg.addr = "127.0.0.1:0".into();
    let server = Server::bind(cfg).expect("bind loopback");
    let addr = server.local_addr().expect("local addr").to_string();
    let stop = server.stop_handle();
    let thread = std::thread::spawn(move || {
        server.run().expect("server run");
    });
    (addr, stop, thread)
}

fn quick_cfg() -> ServerConfig {
    ServerConfig {
        workers: 2,
        drain_grace: Duration::from_secs(5),
        ..ServerConfig::default()
    }
}

fn connect(addr: &str) -> Client {
    let mut client = Client::connect(addr, Duration::from_secs(5)).expect("connect");
    client
        .set_reply_timeout(Duration::from_secs(120))
        .expect("reply timeout");
    client
}

fn tiny_run(seed: u64) -> RunRequest {
    RunRequest {
        kernel: "sobel".into(),
        scale: Scale::Tiny,
        cores: 16,
        point: "swcc".into(),
        seed,
        shards: 1,
    }
}

fn stop_and_join(stop: StopHandle, thread: std::thread::JoinHandle<()>) {
    stop.stop();
    thread.join().expect("server thread");
}

#[test]
fn handshake_submit_and_cache_hit_are_byte_identical() {
    let (addr, stop, thread) = start_server(quick_cfg());
    let mut client = connect(&addr);
    assert_eq!(client.server_info().version, 1);
    assert!(client.server_info().server.starts_with("cohesiond/"));

    let first = client
        .submit_run(&tiny_run(0), |_| {})
        .expect("first submission");
    assert_eq!(first.reports.len(), 1);
    assert_eq!(first.cached, 0);
    assert!(first.reports[0]
        .doc
        .contains("\"schema\": \"cohesion-metrics/v1\""));

    let mut saw_cached_progress = false;
    let second = client
        .submit_run(&tiny_run(0), |ev| {
            if let Event::Progress { cached: true, .. } = ev {
                saw_cached_progress = true;
            }
        })
        .expect("second submission");
    assert_eq!(second.cached, 1, "second identical request must hit");
    assert!(saw_cached_progress, "hit must be visible in progress");
    assert_eq!(
        first.reports[0].doc, second.reports[0].doc,
        "cache hits must be byte-identical"
    );
    assert_eq!(first.reports[0].key, second.reports[0].key);

    // fetch-report returns the same bytes again, by key alone.
    let fetched = client.fetch(&first.reports[0].key).expect("fetch");
    assert_eq!(fetched.doc, first.reports[0].doc);

    let pong = client.ping().expect("ping");
    assert_eq!(pong.jobs_executed, 1, "one simulation, two hits");
    assert!(pong.cache_hits >= 2);

    stop_and_join(stop, thread);
}

#[test]
fn sweep_streams_every_job_and_reassembles_in_order() {
    let (addr, stop, thread) = start_server(quick_cfg());
    let mut client = connect(&addr);
    let sweep = SweepRequest {
        kernels: vec!["sobel".into(), "heat".into()],
        points: vec!["swcc".into(), "cohesion".into()],
        scale: Scale::Tiny,
        cores: 16,
        seed: 0,
        shards: 1,
    };
    let mut accepted_jobs = 0;
    let outcome = client
        .submit_sweep(&sweep, |ev| {
            if let Event::Accepted { jobs, .. } = ev {
                accepted_jobs = *jobs;
            }
        })
        .expect("sweep");
    assert_eq!(accepted_jobs, 4);
    assert_eq!(outcome.reports.len(), 4);
    assert_eq!(outcome.failed, 0);
    let jobs: Vec<usize> = outcome.reports.iter().map(|r| r.job).collect();
    assert_eq!(jobs, vec![0, 1, 2, 3], "client reassembles submission order");
    // Kernels-major expansion: job 0/1 are sobel, 2/3 are heat.
    assert!(outcome.reports[0].label.starts_with("sobel"));
    assert!(outcome.reports[3].label.starts_with("heat"));
    stop_and_join(stop, thread);
}

#[test]
fn invalid_requests_get_structured_errors_and_connection_survives() {
    let (addr, stop, thread) = start_server(quick_cfg());
    let mut client = connect(&addr);

    let mut bad = tiny_run(0);
    bad.kernel = "fft".into();
    let err = client.submit_run(&bad, |_| {}).expect_err("unknown kernel");
    assert_eq!(err.code, Some(ErrorCode::UnknownKernel), "{err}");

    let mut bad = tiny_run(0);
    bad.point = "warp".into();
    let err = client.submit_run(&bad, |_| {}).expect_err("bad point");
    assert_eq!(err.code, Some(ErrorCode::BadRequest), "{err}");

    let err = client
        .fetch("0000000000000000000000000000dead")
        .expect_err("unknown key");
    assert_eq!(err.code, Some(ErrorCode::NotFound), "{err}");

    // After three request errors, the same connection still works.
    let outcome = client.submit_run(&tiny_run(0), |_| {}).expect("still usable");
    assert_eq!(outcome.reports.len(), 1);
    stop_and_join(stop, thread);
}

/// JSON numbers are doubles, exact only below 2^53: a larger seed would
/// reach the simulator rounded, so the daemon refuses it instead.
#[test]
fn seeds_beyond_exact_json_integers_are_bad_requests() {
    let (addr, stop, thread) = start_server(quick_cfg());
    let mut client = connect(&addr);

    for seed in [1 << 53, (1 << 53) + 1, u64::MAX] {
        let err = client
            .submit_run(&tiny_run(seed), |_| {})
            .expect_err("seed past 2^53");
        assert_eq!(err.code, Some(ErrorCode::BadRequest), "seed {seed}: {err}");
        assert!(err.to_string().contains("seed"), "seed {seed}: {err}");
    }

    // The largest exact seed still runs, and as that very seed.
    let seed = (1 << 53) - 1;
    let outcome = client.submit_run(&tiny_run(seed), |_| {}).expect("seed 2^53 - 1");
    assert_eq!(outcome.reports.len(), 1);
    let direct = cohesion_service::runner::execute(&tiny_run(seed).validate().expect("valid"))
        .expect("direct run");
    assert_eq!(outcome.reports[0].doc, direct, "the daemon simulated the seed sent");
    stop_and_join(stop, thread);
}

#[test]
fn version_negotiation_failure_is_reported_and_closes() {
    let (addr, stop, thread) = start_server(quick_cfg());
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write_frame(&mut stream, MsgType::Hello, "{\"versions\": [99]}").unwrap();
    let frame = read_frame(&mut stream).expect("error frame");
    assert_eq!(frame.msg, MsgType::Error);
    assert!(frame.payload.contains("\"unsupported-version\""));
    // Server closes after the error.
    assert!(matches!(read_frame(&mut stream), Err(FrameError::Closed)));
    stop_and_join(stop, thread);
}

#[test]
fn requests_before_hello_are_rejected() {
    let (addr, stop, thread) = start_server(quick_cfg());
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write_frame(&mut stream, MsgType::Ping, "{}").unwrap();
    let frame = read_frame(&mut stream).expect("error frame");
    assert_eq!(frame.msg, MsgType::Error);
    assert!(frame.payload.contains("\"bad-request\""));
    assert!(frame.payload.contains("first message must be hello"));
    stop_and_join(stop, thread);
}

#[test]
fn malformed_frames_get_bad_frame_errors() {
    let (addr, stop, thread) = start_server(quick_cfg());

    // Unknown tag.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(&1u32.to_be_bytes()).unwrap();
    stream.write_all(&[0x7e]).unwrap();
    let frame = read_frame(&mut stream).expect("error frame");
    assert_eq!(frame.msg, MsgType::Error);
    assert!(frame.payload.contains("\"bad-frame\""), "{}", frame.payload);

    // Hostile length prefix: rejected without the server allocating.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(&u32::MAX.to_be_bytes()).unwrap();
    stream.flush().unwrap();
    let frame = read_frame(&mut stream).expect("error frame");
    assert_eq!(frame.msg, MsgType::Error);
    assert!(frame.payload.contains("exceeds"), "{}", frame.payload);

    // Non-JSON payload after a valid hello.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write_frame(&mut stream, MsgType::Hello, "{\"versions\": [1]}").unwrap();
    let ack = read_frame(&mut stream).expect("hello-ack");
    assert_eq!(ack.msg, MsgType::HelloAck);
    write_frame(&mut stream, MsgType::Ping, "not json").unwrap();
    let frame = read_frame(&mut stream).expect("error frame");
    assert!(frame.payload.contains("\"bad-frame\""), "{}", frame.payload);

    // Server-to-client tag from a client.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write_frame(&mut stream, MsgType::Hello, "{\"versions\": [1]}").unwrap();
    read_frame(&mut stream).expect("hello-ack");
    write_frame(&mut stream, MsgType::Pong, "{}").unwrap();
    let frame = read_frame(&mut stream).expect("error frame");
    assert!(
        frame.payload.contains("server-to-client"),
        "{}",
        frame.payload
    );

    stop_and_join(stop, thread);
}

#[test]
fn shutdown_frame_drains_the_server() {
    let (addr, _stop, thread) = start_server(quick_cfg());
    let mut client = connect(&addr);
    // Warm one job in so the drain has something to have finished.
    client.submit_run(&tiny_run(3), |_| {}).expect("run");
    client.shutdown().expect("shutdown acknowledged");
    // The server thread exits on its own — no external stop needed.
    thread.join().expect("server drained");
    // New connections are refused once the listener is gone.
    assert!(
        TcpStream::connect(&addr).is_err(),
        "listener must be closed after drain"
    );
}

#[test]
fn draining_server_refuses_new_submissions() {
    let (addr, stop, thread) = start_server(ServerConfig {
        drain_grace: Duration::from_secs(5),
        ..quick_cfg()
    });
    let mut client = connect(&addr);
    client.submit_run(&tiny_run(0), |_| {}).expect("warm-up");
    stop.stop();
    // The connection is already open; a submission racing the drain gets
    // either a structured `draining` error or a closed connection,
    // never a hang or a panic.
    match client.submit_run(&tiny_run(4), |_| {}) {
        Err(ClientError { code, .. }) => {
            assert!(
                code.is_none() || code == Some(ErrorCode::Draining),
                "unexpected code {code:?}"
            );
        }
        Ok(_) => {
            // Submission slipped in before the connection noticed: fine,
            // drain still completes below.
        }
    }
    thread.join().expect("server drained");
}

#[test]
fn tiny_queue_returns_queue_full() {
    // One worker, queue capacity 1: a 4-job sweep cannot be admitted
    // atomically once anything is queued.
    let (addr, stop, thread) = start_server(ServerConfig {
        workers: 1,
        queue_cap: 1,
        ..quick_cfg()
    });
    let mut client = connect(&addr);
    let sweep = SweepRequest {
        kernels: vec!["sobel".into(), "heat".into(), "stencil".into(), "kmeans".into()],
        points: vec!["swcc".into()],
        scale: Scale::Tiny,
        cores: 16,
        seed: 0,
        shards: 1,
    };
    let err = client.submit_sweep(&sweep, |_| {}).expect_err("queue full");
    assert_eq!(err.code, Some(ErrorCode::QueueFull), "{err}");
    // A single run still fits.
    let outcome = client.submit_run(&tiny_run(0), |_| {}).expect("single run");
    assert_eq!(outcome.reports.len(), 1);
    stop_and_join(stop, thread);
}
