//! A zero-dependency HTTP/1.1 layer: hand-rolled request parser and a
//! fixed thread-pool of blocking accept loops over one shared listener.
//!
//! The surface is deliberately tiny — enough HTTP to serve JSON to `curl`
//! and the bundled [`client`](crate::client), nothing more: one request
//! per connection (`Connection: close`), `Content-Length` bodies only, a
//! 16 KiB header cap, and a configurable body cap. Every handler runs
//! under `catch_unwind`, so a panic becomes a structured 500 instead of a
//! dead worker.
//!
//! # Routes
//!
//! | Method | Path            | Body / response                               |
//! |--------|-----------------|-----------------------------------------------|
//! | GET    | `/healthz`      | liveness probe                                |
//! | GET    | `/v1/protocols` | registry names + compile backends             |
//! | GET    | `/v1/cache`     | `pp-cache/v1` statistics                      |
//! | POST   | `/v1/run`       | `RunSpec` JSON → `pp-run/v1` report           |
//! | POST   | `/v1/stream`    | `RunSpec` JSON → JSONL probe events + report  |
//!
//! `POST` responses carry `X-PP-Cache: hit|miss|none` and
//! `X-PP-Elapsed-Us` headers; bodies stay timing-free so seeded requests
//! are byte-reproducible.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pp_core::spec::{error_fields, JsonValue, RunSpec, SpecError};

use crate::api::{self, CompiledCache, ExecOptions};
use crate::registry;

/// Server policy knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads blocking on `accept`.
    pub threads: usize,
    /// Largest accepted request body, in bytes (HTTP 413 beyond).
    pub max_body: usize,
    /// Largest population a spec may materialize (HTTP 413 beyond).
    pub max_population: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self { threads: 4, max_body: 1 << 20, max_population: 10_000_000 }
    }
}

/// A running server: workers draining one shared listener until
/// [`shutdown`](Server::shutdown).
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
    cache: Arc<CompiledCache>,
}

impl Server {
    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared artifact cache (exposed for tests and stats).
    pub fn cache(&self) -> &Arc<CompiledCache> {
        &self.cache
    }

    /// Stops accepting, unblocks every worker, and joins them.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Each worker blocks in accept(); poke one connection per worker
        // so each observes the flag and exits.
        for _ in &self.workers {
            let _ = TcpStream::connect(self.addr);
        }
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts the worker pool.
///
/// # Errors
///
/// Propagates bind/clone failures; everything after startup is reported
/// per-connection as HTTP errors.
pub fn serve(addr: &str, cfg: ServerConfig) -> io::Result<Server> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let cache = Arc::new(CompiledCache::new());
    let threads = cfg.threads.max(1);
    let mut workers = Vec::with_capacity(threads);
    for _ in 0..threads {
        let listener = listener.try_clone()?;
        let stop = Arc::clone(&stop);
        let cache = Arc::clone(&cache);
        let cfg = cfg.clone();
        workers.push(std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        handle_connection(stream, &cache, &cfg);
                    }
                    Err(_) => {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                }
            }
        }));
    }
    Ok(Server { addr: local, stop, workers, cache })
}

/// One parsed request.
struct Request {
    method: String,
    path: String,
    body: Vec<u8>,
}

/// One response, rendered by [`write_response`].
struct Response {
    status: u16,
    /// Extra headers beyond Content-Type/Length and Connection.
    headers: Vec<(&'static str, String)>,
    body: Vec<u8>,
}

impl Response {
    fn json(status: u16, body: String) -> Self {
        Self { status, headers: Vec::new(), body: body.into_bytes() }
    }

    fn from_error(e: &SpecError) -> Self {
        Self::json(e.http_status(), e.to_json())
    }
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Writes head and body with one `write_all`, so a small response leaves
/// in one segment instead of a head segment followed by a body segment.
fn write_response(stream: &mut TcpStream, resp: &Response) {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        resp.status,
        status_text(resp.status),
        resp.body.len()
    );
    for (k, v) in &resp.headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(&resp.body);
    let _ = stream.write_all(&out);
}

/// Reads one request. `Err(Some(resp))` means "answer with this error";
/// `Err(None)` means the peer vanished (a shutdown poke) — just close.
fn read_request(
    stream: &mut TcpStream,
    max_body: usize,
) -> Result<Request, Option<Response>> {
    const HEADER_CAP: usize = 16 * 1024;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let header_end = loop {
        if let Some(pos) = find_header_end(&buf) {
            break pos;
        }
        if buf.len() > HEADER_CAP {
            return Err(Some(Response::json(
                400,
                err_body("bad_request", "header block exceeds 16 KiB"),
            )));
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(None),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return Err(None),
        }
    };
    let head = String::from_utf8_lossy(&buf[..header_end]).into_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_ascii_uppercase();
    let path = parts.next().unwrap_or("").to_string();
    if method.is_empty() || path.is_empty() {
        return Err(Some(Response::json(
            400,
            err_body("bad_request", "malformed request line"),
        )));
    }
    let mut content_length = 0usize;
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                content_length = v.trim().parse().unwrap_or(usize::MAX);
            }
        }
    }
    if content_length == usize::MAX {
        return Err(Some(Response::json(
            400,
            err_body("bad_request", "unparseable Content-Length"),
        )));
    }
    if content_length > max_body {
        return Err(Some(Response::json(
            413,
            err_body("body_too_large", &format!("body exceeds {max_body} bytes")),
        )));
    }
    let mut body = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    body.truncate(content_length);
    if body.len() < content_length {
        return Err(Some(Response::json(
            400,
            err_body("bad_request", "body shorter than Content-Length"),
        )));
    }
    Ok(Request { method, path, body })
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// The `pp-error/v1` body for transport-level failures (spec-level
/// failures use [`SpecError::to_json`]; both share [`error_fields`]).
fn err_body(code: &str, error: &str) -> String {
    JsonValue::Obj(error_fields(code, error)).render()
}

/// Closes a connection whose request body may still be in flight.
///
/// Closing a socket with unread bytes queued makes the kernel answer with
/// an RST, which can destroy the error response before the client reads
/// it. So half-close the write side (the response is complete), then
/// drain what the client is still sending, bounded by a byte cap and a
/// short deadline, before the socket drops.
fn drain_and_close(mut stream: TcpStream) {
    const DRAIN_CAP: usize = 4 << 20;
    const DRAIN_TIME: Duration = Duration::from_secs(1);
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + DRAIN_TIME;
    let mut chunk = [0u8; 8192];
    let mut drained = 0usize;
    while drained < DRAIN_CAP {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

fn handle_connection(mut stream: TcpStream, cache: &Arc<CompiledCache>, cfg: &ServerConfig) {
    let req = match read_request(&mut stream, cfg.max_body) {
        Ok(r) => r,
        Err(Some(resp)) => {
            write_response(&mut stream, &resp);
            drain_and_close(stream);
            return;
        }
        Err(None) => return,
    };
    // A panicking handler must cost one 500, not one worker.
    let resp = catch_unwind(AssertUnwindSafe(|| route(&req, cache, cfg))).unwrap_or_else(
        |_| Response::json(500, err_body("internal", "internal server error")),
    );
    write_response(&mut stream, &resp);
}

fn route(req: &Request, cache: &Arc<CompiledCache>, cfg: &ServerConfig) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Response::json(200, "{\"status\":\"ok\"}".to_string()),
        ("GET", "/v1/protocols") => Response::json(200, protocols_body()),
        ("GET", "/v1/cache") => Response::json(200, cache.stats().to_json()),
        ("POST", "/v1/run") => run_route(&req.body, cache, cfg, false),
        ("POST", "/v1/stream") => run_route(&req.body, cache, cfg, true),
        ("GET" | "POST", _) => {
            Response::json(404, err_body("not_found", "unknown route"))
        }
        _ => Response::json(405, err_body("method_not_allowed", "use GET or POST")),
    }
}

fn protocols_body() -> String {
    JsonValue::Obj(vec![
        ("schema".to_string(), "pp-protocols/v1".into()),
        ("protocols".to_string(), registry::names().to_vec().into()),
        (
            "backends".to_string(),
            pp_presburger::backends().to_vec().into(),
        ),
    ])
    .render()
}

fn run_route(
    body: &[u8],
    cache: &Arc<CompiledCache>,
    cfg: &ServerConfig,
    stream_events: bool,
) -> Response {
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => {
            return Response::json(400, err_body("bad_request", "body is not UTF-8"))
        }
    };
    let spec = match RunSpec::from_json(text) {
        Ok(s) => s,
        Err(e) => return Response::from_error(&e),
    };
    let opts = ExecOptions { max_population: cfg.max_population };
    let started = Instant::now();
    // The stream body is buffered so a mid-run failure can still become a
    // clean HTTP error; the body format (JSONL events, summary line,
    // final pp-run/v1 report line) is unchanged.
    let result: Result<(Vec<u8>, api::CacheStatus), SpecError> = if stream_events {
        let mut out = Vec::new();
        api::execute_stream(&spec, cache, &opts, &mut out).map(|status| (out, status))
    } else {
        api::execute(&spec, cache, &opts)
            .map(|(report, status)| (report.to_json().into_bytes(), status))
    };
    let elapsed_us = started.elapsed().as_micros();
    match result {
        Ok((body, status)) => {
            let mut resp = Response { status: 200, headers: Vec::new(), body };
            resp.headers.push(("X-PP-Cache", status.as_str().to_string()));
            resp.headers.push(("X-PP-Elapsed-Us", elapsed_us.to_string()));
            if stream_events {
                resp.headers.push(("X-PP-Body", "jsonl".to_string()));
            }
            resp
        }
        Err(e) => Response::from_error(&e),
    }
}
