//! The `seedbd` daemon: TCP accept loop, a bounded admission queue
//! feeding a fixed pool of connection workers, graceful shutdown, and
//! deterministic fault injection.
//!
//! ## Admission control
//!
//! The accept thread never blocks on connection handling: each accepted
//! socket is pushed onto a bounded [`ConnQueue`]; a fixed set of worker
//! threads pops and serves. When the queue is full the connection is
//! shed on a short-lived side thread — a `503` with a `Retry-After` hint
//! and a structured `{"error", "code"}` envelope, followed by a bounded
//! drain of the unread request so the close is a clean FIN the peer can
//! read the envelope past — so overload produces fast, honest rejections
//! instead of an unbounded backlog, and the shutdown flag is re-checked
//! on every accept no matter how slow the handlers or the shed peers
//! are.

use crate::cache::RecCache;
use crate::catalog::Catalog;
use crate::faults::{ConnFaults, FaultPlan, TruncatingWriter};
use crate::http::{read_request, Response, IO_TIMEOUT};
use crate::router::{handle, AppState, ServerStats};
use seedb_engine::parallel::default_parallelism;
use seedb_engine::{TraceCtx, WorkerBudget};
use seedb_obs::{LogLevel, Logger, Obs, DEFAULT_TRACE_BUFFER};
use seedb_util::Json;
use seedb_util::PLock;
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

/// How long each write (and each post-envelope drain read) of a shed
/// response may block before the shed thread gives up on the peer (the
/// body is ~100 bytes, so this only triggers for a peer that refuses to
/// read at all).
const SHED_WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Hard cap on rows per generated dataset instance.
    pub max_rows: usize,
    /// Instance size when a request does not specify `rows`.
    pub default_rows: usize,
    /// Cache memory budget in bytes (responses + partials share it).
    pub cache_bytes: usize,
    /// Dataset generation seed.
    pub seed: u64,
    /// Maximum concurrent connections (the worker-pool size).
    pub max_connections: usize,
    /// Accepted connections waiting for a worker beyond
    /// `max_connections`; when this queue is full new connections are
    /// shed immediately with a `503` + `Retry-After`.
    pub admission_queue: usize,
    /// Default `/recommend` deadline in milliseconds; 0 disables it.
    /// Requests override it with their own `deadline_ms`.
    pub default_deadline_ms: u64,
    /// Fault-injection spec ([`crate::faults::FaultPlan::parse`]);
    /// `None` (the default) injects nothing.
    pub faults: Option<String>,
    /// Morsel-worker slots shared by all concurrent `/recommend` runs;
    /// defaults to the core count.
    pub worker_budget: usize,
    /// Completed traces kept in the flight recorder (`/debug/traces`);
    /// 0 disables tracing entirely (requests still get correlation ids).
    pub trace_buffer: usize,
    /// Requests slower than this emit their full trace as a structured
    /// log line; 0 disables the slow log.
    pub slow_ms: u64,
    /// Stderr log verbosity.
    pub log_level: LogLevel,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:8642".to_owned(),
            max_rows: 50_000,
            default_rows: 5_000,
            cache_bytes: 64 << 20,
            seed: 17,
            max_connections: 32,
            admission_queue: 64,
            default_deadline_ms: 0,
            faults: None,
            worker_budget: default_parallelism(),
            trace_buffer: DEFAULT_TRACE_BUFFER,
            slow_ms: 1_000,
            log_level: LogLevel::Info,
        }
    }
}

/// A bound (but not yet serving) daemon.
pub struct Server {
    listener: TcpListener,
    state: Arc<AppState>,
    max_connections: usize,
    admission_queue: usize,
    faults: Option<FaultPlan>,
}

impl Server {
    /// Binds the listener and builds the shared state. Serving starts
    /// with [`Server::run`] or [`Server::spawn`]. A malformed fault spec
    /// is an `InvalidInput` error — refusing to start beats silently
    /// running a different chaos schedule than the operator asked for.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let faults = match &config.faults {
            Some(spec) => Some(
                FaultPlan::parse(spec)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?,
            ),
            None => None,
        };
        let listener = TcpListener::bind(&config.addr)?;
        let catalog = Catalog::new(config.max_rows, config.default_rows, config.seed);
        if let Some(plan) = &faults {
            if plan.slow_catalog_ms > 0 {
                catalog.set_build_delay_ms(plan.slow_catalog_ms);
            }
        }
        let obs = Obs::new(
            config.trace_buffer,
            config.slow_ms,
            Logger::stderr(config.log_level),
        );
        let state = Arc::new(AppState {
            catalog,
            cache: Arc::new(RecCache::new(config.cache_bytes)),
            budget: WorkerBudget::new(config.worker_budget),
            stats: ServerStats::default(),
            seed: config.seed,
            default_deadline_ms: config.default_deadline_ms,
            obs: Arc::new(obs),
            start: Instant::now(),
        });
        Ok(Server {
            listener,
            state,
            max_connections: config.max_connections.max(1),
            admission_queue: config.admission_queue.max(1),
            faults,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared state (tests and benches peek at counters through it).
    pub fn state(&self) -> Arc<AppState> {
        self.state.clone()
    }

    /// Serves until `stop` is set (re-checked on every accepted
    /// connection — slot exhaustion can no longer pin the accept thread,
    /// so shutdown is never stuck behind slow handlers). Connections are
    /// queued to `max_connections` worker threads through a bounded
    /// admission queue; when the queue is full the connection is shed
    /// with a fast `503` on a short-lived side thread.
    fn run_until(self, stop: Arc<AtomicBool>) {
        self.state
            .stats
            .queue_capacity
            .store(self.admission_queue as u64, Ordering::Relaxed);
        let queue = ConnQueue::new(self.admission_queue);
        std::thread::scope(|scope| {
            for _ in 0..self.max_connections {
                let queue = &queue;
                let state = &self.state;
                let faults = &self.faults;
                scope.spawn(move || {
                    while let Some((stream, conn, trace, enqueued)) = queue.pop() {
                        state.stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
                        let waited = enqueued.elapsed();
                        state
                            .stats
                            .admission_wait_histo
                            .record_us(waited.as_micros() as u64);
                        trace.record("queue_wait", 0, enqueued, waited, Vec::new());
                        let conn_faults = faults
                            .as_ref()
                            .map(|f| f.for_conn(conn))
                            .unwrap_or_default();
                        handle_connection(state, stream, conn_faults, &trace);
                    }
                });
            }
            let mut conn_index = 0u64;
            for conn in self.listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                // A response leaves in one write; don't let Nagle hold it.
                let _ = stream.set_nodelay(true);
                let index = conn_index;
                conn_index += 1;
                let trace = self.state.obs.begin();
                // Count the connection in before a worker can pop (and
                // count it out), so the gauge never wraps below zero.
                let depth = &self.state.stats.queue_depth;
                depth.fetch_add(1, Ordering::Relaxed);
                if let Err(stream) = queue.push(stream, index, trace) {
                    depth.fetch_sub(1, Ordering::Relaxed);
                    shed_detached(self.state.clone(), stream);
                }
            }
            // Workers drain what was already admitted, then exit.
            queue.close();
        });
    }

    /// Serves forever on the calling thread.
    pub fn run(self) {
        self.run_until(Arc::new(AtomicBool::new(false)));
    }

    /// Serves on a background thread; the returned handle shuts the
    /// daemon down when asked (or when dropped).
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let state = self.state();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_for_thread = stop.clone();
        let thread = std::thread::spawn(move || self.run_until(stop_for_thread));
        Ok(ServerHandle {
            addr,
            state,
            stop,
            thread: Some(thread),
        })
    }
}

/// The bounded admission queue between the accept thread and the
/// connection workers. `push` never blocks (full ⇒ the stream comes
/// straight back for shedding); `pop` blocks until work arrives or the
/// queue closes, then drains whatever was already admitted.
struct ConnQueue {
    inner: PLock<QueueInner>,
    cv: Condvar,
    cap: usize,
}

struct QueueInner {
    deque: VecDeque<(TcpStream, u64, TraceCtx, Instant)>,
    closed: bool,
}

impl ConnQueue {
    fn new(cap: usize) -> ConnQueue {
        ConnQueue {
            inner: PLock::new(
                "server.conn_queue",
                QueueInner {
                    deque: VecDeque::new(),
                    closed: false,
                },
            ),
            cv: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Admits a connection, or hands it back when the queue is full (or
    /// closed) so the caller can shed it. The enqueue instant rides along
    /// so the popping worker can account the admission wait to the trace.
    fn push(&self, stream: TcpStream, conn: u64, trace: TraceCtx) -> Result<(), TcpStream> {
        let mut q = self.inner.lock();
        if q.closed || q.deque.len() >= self.cap {
            return Err(stream);
        }
        q.deque.push_back((stream, conn, trace, Instant::now()));
        drop(q);
        self.cv.notify_one();
        Ok(())
    }

    /// The next admitted connection; `None` once closed and drained.
    fn pop(&self) -> Option<(TcpStream, u64, TraceCtx, Instant)> {
        let mut q = self.inner.lock();
        loop {
            if let Some(item) = q.deque.pop_front() {
                return Some(item);
            }
            if q.closed {
                return None;
            }
            q = q.wait(&self.cv);
        }
    }

    fn close(&self) {
        self.inner.lock().closed = true;
        self.cv.notify_all();
    }
}

/// Sheds one connection on a short-lived detached thread so the accept
/// loop never waits on a slow peer. If the thread cannot be spawned the
/// stream is dropped unanswered (the peer sees a plain close) and counted
/// as both a shed and a write error.
fn shed_detached(state: Arc<AppState>, stream: TcpStream) {
    let spawned = std::thread::Builder::new()
        .name("seedbd-shed".to_owned())
        .spawn({
            let state = state.clone();
            move || shed(&state, stream)
        });
    if spawned.is_err() {
        // Thread exhaustion: the closure (and the stream with it) is
        // dropped, so the peer sees a plain close with no envelope.
        // Count both so the operator can see sheds that went dark.
        state.stats.sheds.fetch_add(1, Ordering::Relaxed);
        state.stats.write_errors.fetch_add(1, Ordering::Relaxed);
    }
}

/// Sheds a connection the admission queue refused: a `503` envelope with
/// a retry hint, written and drained under a short timeout so a peer that
/// won't read cannot pin the shedding thread.
fn shed(state: &AppState, mut stream: TcpStream) {
    use std::io::Read;

    state.stats.sheds.fetch_add(1, Ordering::Relaxed);
    state
        .obs
        .logger
        .debug("shed", Json::obj().set("reason", "admission queue full"));
    let _ = stream.set_write_timeout(Some(SHED_WRITE_TIMEOUT));
    let _ = stream.set_read_timeout(Some(SHED_WRITE_TIMEOUT));
    let response = Response::error_envelope(
        503,
        "server overloaded: admission queue is full",
        "overloaded",
        Some(1_000),
    );
    if response.write_to(&mut stream).is_err() {
        state.stats.write_errors.fetch_add(1, Ordering::Relaxed);
        return;
    }
    // The shed path never reads the request, and closing a socket with
    // received-but-unread bytes sends TCP RST — which races the envelope
    // and makes the peer see a connection reset instead of the 503. FIN
    // the write side, then drain what the peer sent (bounded in bytes
    // and reads, so a drip-feeding peer cannot pin this thread) before
    // the close.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 8 * 1024];
    for _ in 0..8 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Handle to a daemon running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<AppState>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The daemon's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's shared state.
    pub fn state(&self) -> Arc<AppState> {
        self.state.clone()
    }

    /// Stops the accept loop and joins the serving thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = thread.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// One connection: apply its injected faults, read a request, route it,
/// write the response, close. Write failures are counted — a vanished
/// peer is routine under overload, but an operator watching `/statz`
/// must be able to see the rate. The trace spans the whole life of the
/// request (http_read → routing → response_write) and is sealed into the
/// flight recorder at the end.
fn handle_connection(
    state: &AppState,
    mut stream: TcpStream,
    faults: ConnFaults,
    trace: &TraceCtx,
) {
    if let Some(ms) = faults.slow_read_ms {
        std::thread::sleep(Duration::from_millis(ms));
    }
    if let Some(ms) = faults.starve_ms {
        // Seize every free morsel-worker permit for the window, forcing
        // concurrent /recommend runs down the degradation ladder.
        let hold = state.budget.try_lease(state.budget.total());
        std::thread::sleep(Duration::from_millis(ms));
        drop(hold);
    }
    let parsed = {
        let _span = trace.span("http_read");
        let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
        read_request(&mut stream)
    };
    let (route, request_id, response) = match parsed {
        Ok(mut request) => {
            let id = request
                .request_id
                .clone()
                .unwrap_or_else(|| state.obs.request_id_for(trace));
            request.trace = trace.clone();
            let response = handle(state, &request);
            (request.path.clone(), id, response)
        }
        Err(err) => {
            let id = state.obs.request_id_for(trace);
            let response = Response::error(err.status(), &err.message()).with_request_id(&id);
            ("-".to_owned(), id, response)
        }
    };
    let status = response.status;
    let result = {
        let _span = trace.span("response_write");
        match faults.truncate_write_bytes {
            Some(cap) => response.write_to(&mut TruncatingWriter::new(&mut stream, cap)),
            None => response.write_to(&mut stream),
        }
    };
    if result.is_err() {
        state.stats.write_errors.fetch_add(1, Ordering::Relaxed);
    }
    state.obs.finish(trace, &request_id, &route, status);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;

    fn test_config() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            max_rows: 2_000,
            default_rows: 500,
            ..Default::default()
        }
    }

    #[test]
    fn spawn_serve_shutdown() {
        let server = Server::bind(test_config()).unwrap();
        let handle = server.spawn().unwrap();
        let (status, body) = client::request(handle.addr(), "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"ok\""));
        handle.shutdown();
    }

    #[test]
    fn malformed_requests_get_4xx_not_a_hang() {
        use std::io::{Read, Write};
        let handle = Server::bind(test_config()).unwrap().spawn().unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream.write_all(b"GARBAGE\r\n\r\n").unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        handle.shutdown();
    }

    #[test]
    fn bad_fault_spec_refuses_to_bind() {
        let config = ServerConfig {
            faults: Some("warp=1:2".to_owned()),
            ..test_config()
        };
        let err = match Server::bind(config) {
            Err(e) => e,
            Ok(_) => panic!("a bad fault spec must refuse to bind"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("unknown fault"), "{err}");
    }

    #[test]
    fn conn_queue_push_pop_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let make = || {
            let c = TcpStream::connect(addr).unwrap();
            let _ = listener.accept().unwrap();
            c
        };
        let queue = ConnQueue::new(2);
        let t = TraceCtx::disabled;
        assert!(queue.push(make(), 0, t()).is_ok());
        assert!(queue.push(make(), 1, t()).is_ok());
        // Full: the stream comes back for shedding.
        assert!(queue.push(make(), 2, t()).is_err());
        assert_eq!(queue.pop().unwrap().1, 0);
        assert!(queue.push(make(), 3, t()).is_ok());
        // Close drains what was admitted, then yields None.
        queue.close();
        assert!(queue.push(make(), 4, t()).is_err());
        assert_eq!(queue.pop().unwrap().1, 1);
        assert_eq!(queue.pop().unwrap().1, 3);
        assert!(queue.pop().is_none());
        assert!(queue.pop().is_none());
    }
}
