//! The TCP front-end: the daemon behind a real socket.
//!
//! std-only networking (no async runtime, no extra crates): an
//! acceptor thread polls a non-blocking `TcpListener`; each accepted
//! connection gets a thread that reads [`wire`] frames
//! and feeds the daemon's MPMC queues through the same typed
//! [`Request`] surface in-process callers use.
//!
//! * **Queries** are submitted with a *reply sink*: the daemon's
//!   reader thread that answers the query writes the response frame
//!   itself (the per-connection write half sits behind a mutex, so
//!   frames never interleave). A query refused at admission is
//!   answered synchronously with a typed [`Response::Rejected`].
//! * **Updates** are acknowledged synchronously — `Accepted` when
//!   admitted to a writer queue, `Rejected` (queue-full, overloaded,
//!   shutting-down, invalid) otherwise. Every request gets exactly
//!   one response, which is what lets an open-loop client measure an
//!   honest round-trip tail: nothing is silently dropped, so nothing
//!   is silently missing from the histogram.
//! * **Submission never blocks a socket thread**: the front-end uses
//!   the daemon's non-blocking path, converting a saturated queue
//!   into a `QueueFull` rejection the client can see and retry.
//!
//! [`run_net_workload`] is the socket twin of
//! [`run_workload`](crate::run_workload): same deterministic
//! generator, same profiles and open/closed disciplines, but driving
//! a [`NetClient`] so the measured path includes framing, the kernel
//! socket buffers, and the loopback (or real) network.

use crate::api::{RejectReason, Request, Response};
use crate::daemon::{Daemon, ServeReport};
use crate::hist::LatencyHistogram;
use crate::wire::{self, WireError};
use crate::workload::{Mode, Op, OpGen, WorkloadConfig};
use bcc_query::EdgeUpdate;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a connection read waits before re-checking the shutdown
/// flag (only between frames; mid-frame reads keep waiting so a slow
/// peer cannot desynchronize the stream).
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Encodes `resp` as one `[len][payload]` buffer and writes it in a
/// single `write_all` under the connection's write lock.
fn send_response(stream: &Mutex<TcpStream>, resp: &Response) {
    let mut buf = Vec::with_capacity(64);
    buf.extend_from_slice(&[0u8; 4]);
    wire::encode_response(resp, &mut buf);
    let len = (buf.len() - 4) as u32;
    buf[..4].copy_from_slice(&len.to_le_bytes());
    let mut s = stream.lock().unwrap();
    // A dead peer surfaces as a failed write; the connection's read
    // side will observe the hangup and the thread exits — nothing to
    // do here but not panic.
    let _ = s.write_all(&buf);
}

/// A serving daemon listening on a TCP socket (see the
/// [module docs](self)).
pub struct NetFrontend {
    daemon: Arc<Daemon>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl NetFrontend {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting connections that drive `daemon`.
    pub fn spawn(daemon: Daemon, addr: impl ToSocketAddrs) -> io::Result<NetFrontend> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let daemon = Arc::new(daemon);
        let stop = Arc::new(AtomicBool::new(false));
        let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let acceptor = {
            let daemon = Arc::clone(&daemon);
            let stop = Arc::clone(&stop);
            let connections = Arc::clone(&connections);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let daemon = Arc::clone(&daemon);
                            let stop = Arc::clone(&stop);
                            let handle =
                                std::thread::spawn(move || connection_loop(stream, &daemon, &stop));
                            connections.lock().unwrap().push(handle);
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => break,
                    }
                }
            })
        };

        Ok(NetFrontend {
            daemon,
            addr,
            stop,
            acceptor: Some(acceptor),
            connections,
        })
    }

    /// The bound address (useful with an ephemeral `:0` bind).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon behind the socket.
    pub fn daemon(&self) -> &Daemon {
        &self.daemon
    }

    /// Stops accepting, drains every connection, shuts the daemon
    /// down, and returns its merged report.
    pub fn shutdown(mut self) -> ServeReport {
        self.stop.store(true, Ordering::Release);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for handle in self.connections.lock().unwrap().drain(..) {
            let _ = handle.join();
        }
        let daemon = Arc::try_unwrap(self.daemon)
            .unwrap_or_else(|_| panic!("connection thread leaked a daemon handle"));
        daemon.shutdown()
    }
}

/// One connection: decode request frames, submit, arrange responses.
fn connection_loop(stream: TcpStream, daemon: &Daemon, stop: &AtomicBool) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let write_half = match stream.try_clone() {
        Ok(s) => Arc::new(Mutex::new(s)),
        Err(_) => return,
    };
    let mut read_half = stream;

    loop {
        let payload = match read_frame_polling(&mut read_half, || stop.load(Ordering::Acquire)) {
            Ok(Some(p)) => p,
            Ok(None) => return, // clean EOF or shutdown between frames
            Err(_) => return,   // truncated / oversized / io: drop the peer
        };
        match wire::decode_request(&payload) {
            Err(_) => {
                // A malformed frame is a protocol violation: answer
                // with a typed rejection (id 0 — the frame's id is
                // unreadable) and hang up rather than guess at the
                // stream's framing from here on.
                send_response(
                    &write_half,
                    &Response::Rejected {
                        id: 0,
                        reason: RejectReason::Invalid,
                    },
                );
                return;
            }
            Ok(req @ Request::Query { id, .. }) => {
                let out = Arc::clone(&write_half);
                let sink = Box::new(move |resp: Response| send_response(&out, &resp));
                if let Err(e) = daemon.submit_with_reply(req, sink) {
                    // The job (and its sink) never queued; reject
                    // synchronously so every request keeps exactly
                    // one response.
                    send_response(
                        &write_half,
                        &Response::Rejected {
                            id,
                            reason: e.reason(),
                        },
                    );
                }
            }
            Ok(req @ Request::Update { id, .. }) => {
                let resp = match daemon.try_submit(req) {
                    Ok(()) => Response::Accepted { id },
                    Err(e) => Response::Rejected {
                        id,
                        reason: e.reason(),
                    },
                };
                send_response(&write_half, &resp);
            }
        }
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// [`wire::read_frame`] adapted to a read-timeout socket: between
/// frames a timeout re-checks `stop`; *inside* a frame timeouts keep
/// waiting (abandoning a half-read frame would desynchronize the
/// stream).
fn read_frame_polling(
    r: &mut TcpStream,
    stop: impl Fn() -> bool,
) -> Result<Option<Vec<u8>>, WireError> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut header[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(None)
                } else {
                    Err(WireError::TruncatedFrame)
                }
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                if filled == 0 && stop() {
                    return Ok(None);
                }
            }
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(header);
    if len as usize > wire::MAX_FRAME {
        return Err(WireError::Oversized { len });
    }
    let mut payload = vec![0u8; len as usize];
    let mut filled = 0;
    while filled < payload.len() {
        match r.read(&mut payload[filled..]) {
            Ok(0) => return Err(WireError::TruncatedFrame),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted || is_timeout(&e) => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(Some(payload))
}

/// A blocking client connection speaking the daemon's wire protocol.
pub struct NetClient {
    stream: TcpStream,
}

impl NetClient {
    /// Connects and disables Nagle (the protocol is request/response;
    /// latency beats batching).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(NetClient { stream })
    }

    /// Sends one request frame.
    pub fn send(&mut self, req: &Request) -> Result<(), WireError> {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&[0u8; 4]);
        wire::encode_request(req, &mut buf);
        let len = (buf.len() - 4) as u32;
        buf[..4].copy_from_slice(&len.to_le_bytes());
        self.stream.write_all(&buf)?;
        Ok(())
    }

    /// Receives one response frame (`None` on server hangup).
    pub fn recv(&mut self) -> Result<Option<Response>, WireError> {
        wire::read_response(&mut self.stream)
    }

    /// Synchronous round trip: send, then block for the response.
    pub fn call(&mut self, req: &Request) -> Result<Response, WireError> {
        self.send(req)?;
        self.recv()?.ok_or(WireError::TruncatedFrame)
    }

    /// An independent handle onto the same connection (so a sender
    /// and a receiver thread can pipeline).
    pub fn try_clone(&self) -> io::Result<NetClient> {
        Ok(NetClient {
            stream: self.stream.try_clone()?,
        })
    }
}

/// What a socket-driven workload run produced. The latency histogram
/// is *round-trip* from each request's scheduled arrival to its
/// response frame — framing, kernel buffers, queueing, and the answer
/// itself all included.
#[derive(Debug)]
pub struct NetWorkloadReport {
    /// First submit to last response.
    pub wall: Duration,
    /// Queries sent.
    pub offered_queries: u64,
    /// Updates sent.
    pub offered_updates: u64,
    /// `Answer` responses received.
    pub answered: u64,
    /// `Accepted` acks received.
    pub accepted: u64,
    /// `Rejected(Overloaded)` responses — admission-control sheds.
    pub shed: u64,
    /// Other rejections (queue-full, invalid, shutting-down).
    pub rejected_other: u64,
    /// Round-trip latency (ns) from scheduled arrival to response.
    pub latency: LatencyHistogram,
}

impl NetWorkloadReport {
    /// Responses of any kind per second of wall time.
    pub fn responses_per_sec(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        (self.answered + self.accepted + self.shed + self.rejected_other) as f64
            / self.wall.as_secs_f64()
    }
}

/// Drives a [`NetFrontend`] at `addr` with the same deterministic
/// workload [`run_workload`](crate::run_workload) uses in-process.
/// `n` is the served graph's vertex count (the generator needs the
/// component layout). Closed-loop runs one synchronous round trip at
/// a time; open-loop pipelines a sender thread on the arrival
/// schedule against a receiver thread correlating responses by id.
pub fn run_net_workload(
    addr: impl ToSocketAddrs,
    cfg: &WorkloadConfig,
    n: u32,
) -> io::Result<NetWorkloadReport> {
    let client = NetClient::connect(addr)?;
    let mut gen = OpGen::new(n, cfg.parts, cfg.profile, cfg.seed);
    let start = Instant::now();
    let deadline = start + cfg.duration;

    let mut report = NetWorkloadReport {
        wall: Duration::ZERO,
        offered_queries: 0,
        offered_updates: 0,
        answered: 0,
        accepted: 0,
        shed: 0,
        rejected_other: 0,
        latency: LatencyHistogram::new(),
    };

    let classify = |report: &mut NetWorkloadReport, resp: &Response| match resp {
        Response::Answer { .. } => report.answered += 1,
        Response::Accepted { .. } => report.accepted += 1,
        Response::Rejected { reason, .. } => {
            if *reason == RejectReason::Overloaded {
                report.shed += 1;
            } else {
                report.rejected_other += 1;
            }
        }
    };

    match cfg.mode {
        Mode::Closed => {
            let mut client = client;
            let mut id = 0u64;
            while Instant::now() < deadline {
                let req = to_request(id, gen.next(), &mut report);
                id += 1;
                let t0 = Instant::now();
                let resp = client
                    .call(&req)
                    .map_err(|e| io::Error::other(e.to_string()))?;
                report.latency.record_duration(t0.elapsed());
                classify(&mut report, &resp);
            }
        }
        Mode::Open { rate } => {
            assert!(rate > 0.0, "open-loop rate must be positive");
            // Scheduled arrival per id; the sender pushes before it
            // sends, so the receiver can always resolve an id.
            let scheduled: Arc<Mutex<Vec<Instant>>> = Arc::new(Mutex::new(Vec::new()));
            let sent = Arc::new(AtomicU64::new(0));
            let done = Arc::new(AtomicBool::new(false));

            // The receiver must never block indefinitely: it could
            // consume the final response and re-enter a blocking read
            // *before* the sender flips `done` (a read timeout set
            // afterwards does not wake an already-blocked read). Poll
            // between frames instead, exactly like the server side.
            let mut recv_stream = client.stream.try_clone()?;
            recv_stream.set_read_timeout(Some(POLL_INTERVAL))?;
            let receiver = {
                let scheduled = Arc::clone(&scheduled);
                let sent = Arc::clone(&sent);
                let done = Arc::clone(&done);
                std::thread::spawn(move || -> (NetWorkloadReport, u64) {
                    let mut r = NetWorkloadReport {
                        wall: Duration::ZERO,
                        offered_queries: 0,
                        offered_updates: 0,
                        answered: 0,
                        accepted: 0,
                        shed: 0,
                        rejected_other: 0,
                        latency: LatencyHistogram::new(),
                    };
                    let mut received = 0u64;
                    loop {
                        let drained = || {
                            done.load(Ordering::Acquire) && received >= sent.load(Ordering::Acquire)
                        };
                        let payload = match read_frame_polling(&mut recv_stream, drained) {
                            Ok(Some(p)) => p,
                            Ok(None) | Err(_) => break, // drained or server went away
                        };
                        let resp = match wire::decode_response(&payload) {
                            Ok(resp) => resp,
                            Err(_) => break,
                        };
                        let at = scheduled.lock().unwrap()[resp.id() as usize];
                        r.latency.record_duration(at.elapsed());
                        classify(&mut r, &resp);
                        received += 1;
                    }
                    (r, received)
                })
            };

            let mut send_client = client;
            let tick = Duration::from_secs_f64(1.0 / rate);
            let mut k = 0u64;
            loop {
                let at = start + tick * k as u32;
                if at >= deadline {
                    break;
                }
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                let req = to_request(k, gen.next(), &mut report);
                scheduled.lock().unwrap().push(at);
                sent.fetch_add(1, Ordering::Release);
                if send_client.send(&req).is_err() {
                    break;
                }
                k += 1;
            }
            done.store(true, Ordering::Release);
            drop(send_client);
            let (r, _received) = receiver.join().expect("net receiver panicked");
            report.answered = r.answered;
            report.accepted = r.accepted;
            report.shed = r.shed;
            report.rejected_other = r.rejected_other;
            report.latency = r.latency;
        }
    }

    report.wall = start.elapsed();
    Ok(report)
}

fn to_request(id: u64, op: Op, report: &mut NetWorkloadReport) -> Request {
    match op {
        Op::Query(query) => {
            report.offered_queries += 1;
            Request::Query { id, query }
        }
        Op::Update(update) => {
            report.offered_updates += 1;
            Request::Update { id, update }
        }
    }
}

/// The no-op update used by probes/tests to exercise the update path
/// without changing any answer (removing a nonexistent edge).
pub fn probe_update(id: u64) -> Request {
    Request::Update {
        id,
        update: EdgeUpdate::Remove(0, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{component_grid, Profile};
    use crate::{Admission, ServeConfig, ShardedStore};
    use bcc_query::{Answer, Query};
    use bcc_smp::Pool;

    fn serve_grid(shards: usize) -> NetFrontend {
        let pool = Pool::new(2);
        let g = component_grid(120, 4, 42);
        let store = Arc::new(ShardedStore::new(&pool, &g, shards).unwrap());
        let daemon = Daemon::spawn(store, ServeConfig::default());
        NetFrontend::spawn(daemon, "127.0.0.1:0").unwrap()
    }

    #[test]
    fn round_trips_queries_and_updates_over_tcp() {
        let frontend = serve_grid(2);
        let mut client = NetClient::connect(frontend.local_addr()).unwrap();
        // 0 and 1 share a ring; 0 and 119 sit in different parts.
        let resp = client
            .call(&Request::Query {
                id: 1,
                query: Query::Connected(0, 1),
            })
            .unwrap();
        assert_eq!(
            resp,
            Response::Answer {
                id: 1,
                answer: Answer::Bool(true)
            }
        );
        let resp = client.call(&probe_update(2)).unwrap();
        assert_eq!(resp, Response::Accepted { id: 2 });
        // Out-of-range: typed rejection, not a dead writer.
        let resp = client
            .call(&Request::Update {
                id: 3,
                update: EdgeUpdate::Insert(0, 10_000),
            })
            .unwrap();
        assert_eq!(
            resp,
            Response::Rejected {
                id: 3,
                reason: RejectReason::Invalid
            }
        );
        let resp = client
            .call(&Request::Query {
                id: 4,
                query: Query::Connected(0, 10_000),
            })
            .unwrap();
        assert_eq!(
            resp,
            Response::Rejected {
                id: 4,
                reason: RejectReason::Invalid
            }
        );
        drop(client);
        let report = frontend.shutdown();
        assert_eq!(report.answered, 1);
        assert_eq!(report.query_errors, 1);
        assert_eq!(report.updates_applied, 1);
    }

    #[test]
    fn malformed_frame_gets_rejected_and_disconnected() {
        let frontend = serve_grid(1);
        let mut stream = TcpStream::connect(frontend.local_addr()).unwrap();
        // A frame whose payload is one unknown tag byte.
        stream.write_all(&1u32.to_le_bytes()).unwrap();
        stream.write_all(&[0x7F]).unwrap();
        let resp = wire::read_response(&mut stream).unwrap().unwrap();
        assert_eq!(
            resp,
            Response::Rejected {
                id: 0,
                reason: RejectReason::Invalid
            }
        );
        // The server hangs up after a protocol violation.
        assert_eq!(wire::read_response(&mut stream).unwrap(), None);
        frontend.shutdown();
    }

    #[test]
    fn open_loop_workload_runs_over_loopback() {
        let frontend = serve_grid(2);
        let report = run_net_workload(
            frontend.local_addr(),
            &WorkloadConfig {
                profile: Profile::ChurnHeavy,
                mode: Mode::Open { rate: 2_000.0 },
                duration: Duration::from_millis(150),
                parts: 4,
                seed: 5,
            },
            120,
        )
        .unwrap();
        let offered = report.offered_queries + report.offered_updates;
        assert!(offered >= 200, "only {offered} scheduled ops ran");
        // Every request got exactly one response.
        assert_eq!(
            report.answered + report.accepted + report.shed + report.rejected_other,
            offered
        );
        assert!(report.answered > 0);
        assert!(report.accepted > 0);
        let serve = frontend.shutdown();
        assert_eq!(serve.answered, report.answered);
        assert_eq!(serve.updates_applied, report.accepted);
    }

    #[test]
    fn overload_sheds_with_typed_rejections_over_tcp() {
        let pool = Pool::new(1);
        let g = component_grid(120, 4, 42);
        let store = Arc::new(ShardedStore::new(&pool, &g, 2).unwrap());
        // A backlog watermark of 0 sheds every update: the degenerate
        // overload that makes the contract observable deterministically.
        let daemon = Daemon::spawn(
            store,
            ServeConfig::builder()
                .admission(Admission {
                    shed_queue_depth: None,
                    shed_backlog: Some(0),
                })
                .build(),
        );
        let frontend = NetFrontend::spawn(daemon, "127.0.0.1:0").unwrap();
        let mut client = NetClient::connect(frontend.local_addr()).unwrap();
        let resp = client.call(&probe_update(1)).unwrap();
        assert_eq!(
            resp,
            Response::Rejected {
                id: 1,
                reason: RejectReason::Overloaded
            }
        );
        // Reads still work while updates shed.
        let resp = client
            .call(&Request::Query {
                id: 2,
                query: Query::Connected(0, 1),
            })
            .unwrap();
        assert!(matches!(resp, Response::Answer { id: 2, .. }));
        drop(client);
        let report = frontend.shutdown();
        assert_eq!(report.shed_updates, 1);
        assert_eq!(report.updates_applied, 0);
    }
}
