//! The TCP front-end: the daemon behind a real socket.
//!
//! std-only networking (no async runtime, no extra crates): an
//! acceptor thread polls a non-blocking `TcpListener`; each accepted
//! connection gets a thread that reads [`wire`] frames through one
//! buffered reader and serves them in the order they arrive, through
//! the same typed [`Request`] surface in-process callers use.
//!
//! ```text
//!  peer ──frames──▶ BufReader ─decode─▶ Query  ─▶ answer here, from the
//!                      ▲                           routed shard's snapshot
//!                      │                Update ─▶ admit to a writer queue
//!  peer ◀──────── out buffer ◀── response frame of either
//!   (written out before any read that has to wait on the socket)
//! ```
//!
//! * **Queries** are answered on the connection thread itself, from
//!   the routed shard's current snapshot — no hand-off to another
//!   thread, so a connection's reads and writes take effect in the
//!   order the peer sent them.
//! * **Updates** are acknowledged synchronously — `Accepted` when
//!   admitted to a writer queue, `Rejected` (queue-full, overloaded,
//!   shutting-down, invalid) otherwise. Every request gets exactly
//!   one response, in request order, which is what lets an open-loop
//!   client measure an honest round-trip tail: nothing is silently
//!   dropped, so nothing is silently missing from the histogram.
//! * **Responses** collect in a per-connection buffer that is written
//!   out before any read that could block, so a pipelined burst costs
//!   one write per drained input buffer while no response waits on
//!   the peer's next request.
//! * **Submission never blocks a connection thread**: updates take
//!   the daemon's non-blocking path, converting a saturated writer
//!   queue into a `QueueFull` rejection the client can see and retry.
//!
//! [`run_net_workload`] is the socket twin of
//! [`run_workload`](crate::run_workload): same deterministic
//! generator, same profiles and open/closed disciplines, but driving
//! a [`NetClient`] so the measured path includes framing, the kernel
//! socket buffers, and the loopback (or real) network.

use crate::api::{RejectReason, Request, Response};
use crate::daemon::{update_response, AnswerLog, Daemon, ServeReport};
use crate::hist::LatencyHistogram;
use crate::wire::{self, WireError};
use crate::workload::{Mode, Op, OpGen, WorkloadConfig};
use bcc_query::EdgeUpdate;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a connection read waits before re-checking the shutdown
/// flag.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Longest a frame may take to arrive once its first byte has: a peer
/// that trickles a frame slower than this is dropped as truncated, so
/// it cannot pin its connection thread and payload buffer.
const FRAME_DEADLINE: Duration = Duration::from_secs(2);

/// The socket under a connection's buffered reader. Responses queue in
/// `out`, and every read that reaches the socket — the only reads that
/// can block — first writes them out.
struct Socket {
    stream: TcpStream,
    out: Vec<u8>,
}

impl Socket {
    /// Queues `resp` as one `[len][payload]` frame.
    fn push(&mut self, resp: &Response) {
        let at = self.out.len();
        self.out.extend_from_slice(&[0u8; 4]);
        wire::encode_response(resp, &mut self.out);
        let len = (self.out.len() - at - 4) as u32;
        self.out[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Writes the queued responses out. A failed write (a dead peer,
    /// or one that stopped reading for the write timeout) comes back
    /// as an error that is never a timeout, so the read loop drops the
    /// peer instead of polling on.
    fn flush_out(&mut self) -> io::Result<()> {
        let written = self.stream.write_all(&self.out).map_err(io::Error::other);
        self.out.clear();
        written
    }
}

impl Read for Socket {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if !self.out.is_empty() {
            self.flush_out()?;
        }
        self.stream.read(buf)
    }
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
                            let mut held =
                                connections.lock().expect("connection list lock poisoned");
                            // Join the connections that have hung up, so
                            // only live ones keep a handle and a stack.
                            let (done, live) = held.drain(..).partition(|h| h.is_finished());
                            *held = live;
                            for h in done {
                                let _ = h.join();
                            }
                            held.push(handle);
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

/// One connection: decode request frames in arrival order, answer each
/// query on this thread, admit each update, and queue every response
/// (see [`Socket`]). The connection's answer records merge into the
/// daemon's when the peer hangs up.
fn connection_loop(stream: TcpStream, daemon: &Daemon, stop: &AtomicBool) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let mut conn = BufReader::new(Socket {
        stream,
        out: Vec::new(),
    });
    let mut log = AnswerLog::default();
    // Ends on a clean EOF or shutdown between frames; drops the peer on
    // a truncated or oversized frame or a failed read or write.
    while let Ok(Some(payload)) = read_frame_polling(&mut conn, || stop.load(Ordering::Acquire)) {
        let resp = match wire::decode_request(&payload) {
            Ok(Request::Query { id, query }) => daemon.answer(id, &query, Instant::now(), &mut log),
            Ok(req @ Request::Update { id, .. }) => update_response(id, &daemon.try_submit(req)),
            Err(_) => {
                // A malformed frame is a protocol violation: answer
                // with a typed rejection (id 0 — the frame's id is
                // unreadable) and hang up rather than guess at the
                // stream's framing from here on.
                conn.get_mut().push(&Response::Rejected {
                    id: 0,
                    reason: RejectReason::Invalid,
                });
                break;
            }
        };
        conn.get_mut().push(&resp);
    }
    let _ = conn.get_mut().flush_out();
    daemon.merge_answers(&log);
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// [`wire::read_frame`] adapted to a read-timeout socket: each
/// timeout re-checks `stop`. Once it holds, a read between frames ends
/// the stream cleanly (`Ok(None)`) and a half-read frame is abandoned
/// as truncated, so a peer that stalls mid-frame cannot hold up
/// shutdown. A frame still incomplete [`FRAME_DEADLINE`] after its
/// first byte is abandoned as truncated too. Short of that deadline a
/// slow peer is waited for: an abandoned frame desynchronizes the
/// stream, so the caller drops the peer.
fn read_frame_polling(
    r: &mut impl Read,
    stop: impl Fn() -> bool,
) -> Result<Option<Vec<u8>>, WireError> {
    let mut header = [0u8; 4];
    let mut started = None;
    match fill_polling(r, &mut header, &stop, &mut started)? {
        0 => return Ok(None),
        4 => {}
        _ => return Err(WireError::TruncatedFrame),
    }
    let len = u32::from_le_bytes(header);
    if len as usize > wire::MAX_FRAME {
        return Err(WireError::Oversized { len });
    }
    let mut payload = vec![0u8; len as usize];
    if fill_polling(r, &mut payload, &stop, &mut started)? < payload.len() {
        return Err(WireError::TruncatedFrame);
    }
    Ok(Some(payload))
}

/// Reads into `buf` until it is full, the peer hangs up, a timeout
/// finds `stop` set, or the frame outlives [`FRAME_DEADLINE`]; returns
/// how many bytes arrived. `started` is when the frame's first byte
/// arrived: one clock read per frame, plus one per read that leaves
/// the frame still incomplete.
fn fill_polling(
    r: &mut impl Read,
    buf: &mut [u8],
    stop: &impl Fn() -> bool,
    started: &mut Option<Instant>,
) -> Result<usize, WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                if stop() {
                    break;
                }
            }
            Err(e) => return Err(WireError::Io(e)),
        }
        match *started {
            None if filled > 0 => *started = Some(Instant::now()),
            Some(t) if filled < buf.len() && t.elapsed() > FRAME_DEADLINE => break,
            _ => {}
        }
    }
    Ok(filled)
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

    fn connected_0_1(id: u64) -> Request {
        Request::Query {
            id,
            query: Query::Connected(0, 1),
        }
    }

    #[test]
    fn exited_connection_threads_are_joined_as_new_peers_arrive() {
        let frontend = serve_grid(1);
        for id in 0..200 {
            let mut client = NetClient::connect(frontend.local_addr()).unwrap();
            assert_eq!(
                client.call(&connected_0_1(id)).unwrap(),
                Response::Answer {
                    id,
                    answer: Answer::Bool(true)
                }
            );
        }
        let held = frontend.connections.lock().unwrap().len();
        assert!(
            held < 20,
            "{held} handles held after 200 closed connections"
        );
        assert_eq!(frontend.shutdown().answered, 200);
    }

    #[test]
    fn a_trickling_peer_is_dropped_while_others_keep_being_served() {
        let frontend = serve_grid(1);
        let t0 = Instant::now();
        // Announce a 1000-byte frame, then send it a byte at a time
        // every ~50 ms: it would take 50 s to arrive.
        let mut trickler = TcpStream::connect(frontend.local_addr()).unwrap();
        trickler.write_all(&1000u32.to_le_bytes()).unwrap();
        trickler
            .set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        let mut client = NetClient::connect(frontend.local_addr()).unwrap();
        let mut answered = 0;
        let dropped_after = loop {
            let waited = t0.elapsed();
            assert!(
                waited < 3 * FRAME_DEADLINE,
                "trickling peer still connected after {waited:?}"
            );
            let _ = trickler.write_all(&[0]);
            match trickler.read(&mut [0u8; 1]) {
                Ok(0) => break waited,
                Ok(_) => panic!("the server answered a partial frame"),
                Err(e) if !is_timeout(&e) => break waited,
                Err(_) => {}
            }
            // The well-behaved peer is answered all along.
            let resp = client.call(&connected_0_1(answered)).unwrap();
            assert_eq!(
                resp,
                Response::Answer {
                    id: answered,
                    answer: Answer::Bool(true)
                }
            );
            answered += 1;
            std::thread::sleep(Duration::from_millis(30));
        };
        assert!(
            dropped_after >= FRAME_DEADLINE,
            "dropped after {dropped_after:?}"
        );
        assert!(answered >= 10, "only {answered} answers while trickled");
        drop(client);
        assert_eq!(frontend.shutdown().answered, answered);
    }

    #[test]
    fn peers_stalled_mid_frame_do_not_block_shutdown() {
        let frontend = serve_grid(1);
        let addr = frontend.local_addr();
        // One peer stalls inside the 4-byte header, the other inside
        // the 10-byte payload its header promised; both stay connected.
        let mut mid_header = TcpStream::connect(addr).unwrap();
        mid_header.write_all(&[10, 0]).unwrap();
        let mut mid_payload = TcpStream::connect(addr).unwrap();
        mid_payload.write_all(&10u32.to_le_bytes()).unwrap();
        mid_payload.write_all(&[0, 0]).unwrap();
        // Connections are accepted in order, so once a later one has a
        // round trip behind it both stalled peers have reader threads.
        let mut client = NetClient::connect(addr).unwrap();
        assert_eq!(
            client.call(&probe_update(1)).unwrap(),
            Response::Accepted { id: 1 }
        );
        drop(client);
        let (tx, rx) = std::sync::mpsc::channel();
        let stopper = std::thread::spawn(move || tx.send(frontend.shutdown()).unwrap());
        let report = rx
            .recv_timeout(Duration::from_secs(2))
            .expect("shutdown blocked by a peer stalled mid-frame");
        stopper.join().unwrap();
        assert_eq!(report.updates_applied, 1);
        drop((mid_header, mid_payload));
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
