//! The `ntx-serve` server: one readiness-driven reactor thread and the
//! per-session drivers it feeds.
//!
//! Threading model — exactly two kinds of thread, none per-connection:
//!
//! * **reactor thread** — owns one level-triggered `epoll` set holding the
//!   non-blocking listener, one `eventfd`, and every connection under a
//!   token. `epoll_wait` with no timeout is the only place it blocks: an
//!   idle server makes no system call and a frame waits for no timer.
//!   Listener readiness accepts and applies admission control (at
//!   `max_sessions` live connections the newcomer gets one `ErrBusy` frame
//!   and is closed); connection readiness reads bytes, splits frames,
//!   pushes them into the session's inbox and wakes its driver; the eventfd
//!   carries the stop flags and the drivers' requests to look at a
//!   connection again;
//! * **executor workers** — poll driver futures ([`crate::executor`]).
//!
//! A *driver* is one `async fn` per connection that processes frames
//! strictly in order (responses never interleave out of request order) and
//! awaits [`ntx_runtime::AccessFuture`]s for lock acquisition — so a
//! blocked lock request costs a queue node and a future, not a thread.
//! Responses collect in the session's outbox and the driver itself puts
//! them on the wire, with one non-blocking `write` each time its poll
//! returns, so a burst of requests costs one `write`, not one per response.
//! Only what the socket would not take is left to the reactor, which
//! watches the connection for `EPOLLOUT` until the outbox is empty.
//!
//! Memory per connection is bounded and the interest mask is the
//! backpressure: over `OUTBOX_HIGH` unsent bytes the driver takes no more
//! frames, its inbox fills to `INBOX_HIGH`, the reactor stops watching
//! the socket for `EPOLLIN`, the kernel's buffers fill, and the peer's
//! `write` blocks. The locks (`requests`; per connection `inbox`, `outbox`,
//! `waker`) are leaves, taken one at a time; the outbox lock is held across
//! the non-blocking `write` and nothing else. Dropping a connection
//! mid-transaction drops its `Tx` handles, and RAII rollback aborts the
//! abandoned subtree.

use crate::executor::Executor;
use crate::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use crate::sync::{Arc, Mutex};
use crate::sys::{self, Epoll, Event, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};
use crate::wire::{self, ErrCode, Request, Response};
use ntx_runtime::{ObjRef, RtConfig, Tx, TxError, TxManager};
use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::future::{poll_fn, Future};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::pin::{pin, Pin};
use std::task::{Context, Poll, Waker};

/// Frames a session's inbox holds before the reactor stops reading its
/// socket (the frames of the read in progress are still pushed, so the
/// hard bound is this plus one read buffer's worth).
const INBOX_HIGH: usize = 256;
/// Unsent response bytes a session's outbox holds before its driver stops
/// taking frames.
const OUTBOX_HIGH: usize = 16 * 1024;

/// Server tunables.
pub struct ServerConfig {
    /// Worker threads for the session executor.
    pub workers: usize,
    /// Number of `i64` counter objects registered at startup.
    pub objects: usize,
    /// Admission limit: maximum live connections before newcomers are
    /// turned away with `ErrBusy`.
    pub max_sessions: usize,
    /// Runtime configuration (lock mode, deadlock policy, wait budget).
    pub rt: RtConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            objects: 64,
            max_sessions: 1024,
            rt: RtConfig::default(),
        }
    }
}

/// Reactor-side half of a connection: read buffer and epoll state, never
/// shared.
struct ReactorConn {
    inbuf: Vec<u8>,
    shared: Arc<ConnShared>,
    /// The interest mask registered with epoll.
    armed: u32,
    /// The driver has exited and dropped its half of `shared`: once the
    /// outbox is empty the connection retires, and that closes the socket.
    done: bool,
}

/// State shared between the reactor and a session's driver future.
struct ConnShared {
    /// Non-blocking. The reactor reads it; whoever holds the outbox lock
    /// writes it.
    stream: TcpStream,
    /// The connection's key in the epoll set and in driver requests.
    token: u64,
    /// Complete request frames, in arrival order.
    inbox: Mutex<VecDeque<Vec<u8>>>,
    /// Set by the reactor on EOF/error; the driver finishes its inbox then
    /// exits.
    closed: AtomicBool,
    /// The driver's waker, parked here while it waits for a frame.
    waker: Mutex<Option<Waker>>,
    /// Encoded response bytes not yet on the wire.
    outbox: Mutex<Vec<u8>>,
    /// The last `write` left bytes behind: the socket is full and the
    /// reactor watches it for `EPOLLOUT`. Written under the outbox lock.
    stalled: AtomicBool,
}

impl ConnShared {
    fn wake_driver(&self) {
        if let Some(w) = self.waker.lock().take() {
            w.wake();
        }
    }

    fn send(&self, bytes: &[u8]) {
        self.outbox.lock().extend_from_slice(bytes);
    }

    /// Offer the head of the outbox to the socket with one non-blocking
    /// `write`. Driver and reactor both call this; the lock is held across
    /// the `write`, so bytes reach the wire in outbox order whoever writes.
    /// Once the socket is known to be full (`stalled`) only the reactor
    /// tries, when epoll says it is `writable` again: the kernel waits for
    /// room worth writing to, where a driver's attempts would trickle out
    /// as the peer drains, a few bytes to a segment. Returns `true` when
    /// this call found the socket full — the caller's cue to have the
    /// reactor arm `EPOLLOUT`.
    fn flush(&self, writable: bool) -> bool {
        let (newly_stalled, reopened) = {
            let mut out = self.outbox.lock();
            let before = out.len();
            let was_stalled = self.stalled.load(Ordering::SeqCst);
            if before == 0 || (was_stalled && !writable) {
                return false;
            }
            match (&self.stream).write(&out) {
                Ok(n) => drop(out.drain(..n)),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
                // Dead socket: the read side surfaces the hangup.
                Err(_) => out.clear(),
            }
            self.stalled.store(!out.is_empty(), Ordering::SeqCst);
            (
                !out.is_empty() && !was_stalled,
                before > OUTBOX_HIGH && out.len() <= OUTBOX_HIGH,
            )
        };
        // Back under the high-water mark: `NextFrame` takes frames again.
        if reopened {
            self.wake_driver();
        }
        newly_stalled
    }
}

/// Resolves to the next request frame, or `None` once the peer hung up and
/// the inbox is empty.
struct NextFrame<'a> {
    core: &'a ServerCore,
    shared: &'a ConnShared,
}

impl Future for NextFrame<'_> {
    type Output = Option<Vec<u8>>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<Vec<u8>>> {
        let shared = self.shared;
        // Park the waker *before* checking anything: a frame pushed, or an
        // outbox drained, between the check and the park would otherwise be
        // a lost wakeup.
        *shared.waker.lock() = Some(cx.waker().clone());
        // Backpressure: a peer that does not read its responses gets no
        // more requests served; `flush` wakes us once the outbox is back
        // under the mark.
        if shared.outbox.lock().len() > OUTBOX_HIGH {
            return Poll::Pending;
        }
        let (frame, left) = {
            let mut inbox = shared.inbox.lock();
            (inbox.pop_front(), inbox.len())
        };
        if let Some(body) = frame {
            // This pop took the inbox back under the mark at which the
            // reactor stopped reading.
            if left + 1 == INBOX_HIGH {
                self.core.request(shared.token);
            }
            return Poll::Ready(Some(body));
        }
        if shared.closed.load(Ordering::SeqCst) {
            return Poll::Ready(None);
        }
        Poll::Pending
    }
}

/// Shared server state (manager, objects, gauges).
struct ServerCore {
    mgr: TxManager,
    objects: Vec<ObjRef<i64>>,
    /// Live connections (admission-control gauge).
    live: AtomicUsize,
    /// Lifetime totals, exposed for tests/ops.
    accepted: AtomicUsize,
    rejected: AtomicUsize,
    /// Graceful stop: the reactor closes the listener and exits once the
    /// last connection retires.
    stop: AtomicBool,
    /// Hard stop: reactor exits immediately, dropping live connections
    /// (set by `Server::drop` when no graceful drain happened).
    force_stop: AtomicBool,
    /// Tokens of connections whose driver changed something the reactor
    /// acts on: outbox stalled, inbox back under its mark, or — with the
    /// [`DONE`] bit set — driver gone.
    requests: Mutex<Vec<u64>>,
    /// Wakes the reactor out of `epoll_wait`.
    eventfd: File,
    max_sessions: usize,
}

impl ServerCore {
    /// Make the eventfd readable. Never blocks: the write can only fail on
    /// a saturated counter, which is readable already.
    fn ring(&self) {
        let _ = (&self.eventfd).write_all(&1u64.to_ne_bytes());
    }

    /// Have the reactor look at connection `token` again. A burst of
    /// requests is one `write(2)`: only the first into an empty list rings.
    fn request(&self, token: u64) {
        let first = {
            let mut requests = self.requests.lock();
            requests.push(token);
            requests.len() == 1
        };
        if first {
            self.ring();
        }
    }
}

/// A running `ntx-serve` instance.
pub struct Server {
    core: Arc<ServerCore>,
    exec: Arc<Executor>,
    local_addr: SocketAddr,
    reactor_handle: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// the reactor and executor threads.
    pub fn bind(addr: &str, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let (epoll, eventfd) = (Epoll::new()?, sys::new_eventfd()?);
        epoll.add(&listener, LISTENER, EPOLLIN)?;
        epoll.add(&eventfd, WAKEUP, EPOLLIN)?;
        let mgr = TxManager::new(cfg.rt);
        let objects = (0..cfg.objects.max(1))
            .map(|i| mgr.register(format!("o{i}"), 0i64))
            .collect();
        let core = Arc::new(ServerCore {
            mgr,
            objects,
            live: AtomicUsize::new(0),
            accepted: AtomicUsize::new(0),
            rejected: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            force_stop: AtomicBool::new(false),
            requests: Mutex::new(Vec::new()),
            eventfd,
            max_sessions: cfg.max_sessions.max(1),
        });
        let exec = Arc::new(Executor::new(cfg.workers));

        let reactor = Reactor {
            core: core.clone(),
            exec: exec.clone(),
            epoll,
            listener: Some(listener),
            accept_paused: false,
            conns: HashMap::new(),
            next_token: WAKEUP + 1,
        };
        let reactor_handle = std::thread::Builder::new()
            .name("ntx-serve-reactor".into())
            .spawn(move || reactor.run())
            .expect("spawn reactor thread");

        Ok(Server {
            core,
            exec,
            local_addr,
            reactor_handle: Some(reactor_handle),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Live connections right now.
    pub fn live_sessions(&self) -> usize {
        self.core.live.load(Ordering::SeqCst)
    }

    /// Connections accepted over the server's lifetime.
    pub fn accepted(&self) -> usize {
        self.core.accepted.load(Ordering::SeqCst)
    }

    /// Connections turned away by admission control.
    pub fn rejected(&self) -> usize {
        self.core.rejected.load(Ordering::SeqCst)
    }

    /// The transaction manager backing this server (for assertions).
    pub fn manager(&self) -> &TxManager {
        &self.core.mgr
    }

    /// Graceful drain: stop accepting, wait for every live session driver
    /// to finish (clients must close their connections), then stop the
    /// reactor and executor.
    pub fn drain(mut self) {
        self.core.stop.store(true, Ordering::SeqCst);
        self.core.ring();
        // The reactor runs until its last connection retires, so the
        // drivers' final responses still reach the wire.
        if let Some(h) = self.reactor_handle.take() {
            let _ = h.join();
        }
        self.exec.drain();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.core.stop.store(true, Ordering::SeqCst);
        self.core.force_stop.store(true, Ordering::SeqCst);
        self.core.ring();
        if let Some(h) = self.reactor_handle.take() {
            let _ = h.join();
        }
    }
}

/// One session: consume frames in order, answer each, RAII-abort whatever
/// the client left open.
async fn drive_session(core: &ServerCore, shared: &ConnShared) {
    let mut sessions: HashMap<u32, Tx> = HashMap::new();
    let mut next_handle: u32 = 1;
    while let Some(body) = (NextFrame { core, shared }).await {
        let resp = match Request::decode(&body) {
            Err(code) => Response::Err(code),
            Ok(req) => handle_request(core, &mut sessions, &mut next_handle, req).await,
        };
        shared.send(&resp.encode());
    }
    // Dropping the map drops any unfinished Tx handles; RAII rollback
    // aborts them and releases their locks/queue slots.
    drop(sessions);
}

async fn handle_request(
    core: &ServerCore,
    sessions: &mut HashMap<u32, Tx>,
    next_handle: &mut u32,
    req: Request,
) -> Response {
    match req {
        Request::Begin => {
            let tx = core.mgr.begin();
            let h = *next_handle;
            *next_handle += 1;
            sessions.insert(h, tx);
            Response::Handle(h)
        }
        Request::Child { parent } => {
            let Some(parent_tx) = sessions.get(&parent) else {
                return Response::Err(ErrCode::ErrHandle);
            };
            match parent_tx.child() {
                Ok(tx) => {
                    let h = *next_handle;
                    *next_handle += 1;
                    sessions.insert(h, tx);
                    Response::Handle(h)
                }
                Err(e) => Response::Err(err_code(&e)),
            }
        }
        Request::Access {
            handle,
            obj,
            write,
            delta,
        } => {
            let Some(tx) = sessions.get(&handle) else {
                return Response::Err(ErrCode::ErrHandle);
            };
            let Some(&objref) = core.objects.get(obj as usize) else {
                return Response::Err(ErrCode::ErrObject);
            };
            let result = if write {
                tx.write_async(&objref, move |v| {
                    *v += delta;
                    *v
                })
                .await
            } else {
                tx.read_async(&objref, |v| *v).await
            };
            match result {
                Ok(v) => Response::Value(v),
                Err(e) => Response::Err(err_code(&e)),
            }
        }
        Request::Commit { handle } => {
            let Some(tx) = sessions.remove(&handle) else {
                return Response::Err(ErrCode::ErrHandle);
            };
            match tx.commit() {
                Ok(()) => Response::Ok,
                Err(e) => Response::Err(err_code(&e)),
            }
        }
        Request::Abort { handle } => {
            let Some(tx) = sessions.remove(&handle) else {
                return Response::Err(ErrCode::ErrHandle);
            };
            tx.abort();
            Response::Ok
        }
    }
}

fn err_code(e: &TxError) -> ErrCode {
    match e {
        TxError::Timeout => ErrCode::ErrTimeout,
        TxError::Doomed | TxError::Deadlock => ErrCode::ErrDoomed,
        // LiveChildren / AlreadyFinished / Recovery: the handle cannot be
        // used as requested.
        _ => ErrCode::ErrHandle,
    }
}

/// Epoll token of the listener.
const LISTENER: u64 = 0;
/// Epoll token of `ServerCore::eventfd`. Connections count up from the next
/// one and a token is never reused, so an event or request that outlives
/// its connection finds nothing under its token.
const WAKEUP: u64 = 1;
/// Set on a driver's last request: it has exited.
const DONE: u64 = 1 << 63;

/// The reactor thread's state.
struct Reactor {
    core: Arc<ServerCore>,
    exec: Arc<Executor>,
    epoll: Epoll,
    /// `None` once `stop` is seen: closing it refuses new connections.
    listener: Option<TcpListener>,
    /// An `accept` error took the listener out of the set (`accept_ready`).
    accept_paused: bool,
    conns: HashMap<u64, ReactorConn>,
    next_token: u64,
}

impl Reactor {
    /// Sleep in `epoll_wait`; serve whatever woke it; repeat.
    fn run(mut self) {
        let mut events = [Event::default(); 256];
        let mut tmp = [0u8; 4096];
        loop {
            let n = self.epoll.wait(&mut events).expect("epoll_wait");
            for ev in &events[..n] {
                match ev.token {
                    LISTENER => self.accept_ready(),
                    WAKEUP => {
                        // Reset the eventfd before taking the list: a
                        // request pushed after the take rings it again.
                        let _ = (&self.core.eventfd).read(&mut [0u8; 8]);
                        let batch = std::mem::take(&mut *self.core.requests.lock());
                        for request in batch {
                            self.update(request);
                        }
                    }
                    token => self.conn_ready(token, ev.events, &mut tmp),
                }
            }
            if self.core.force_stop.load(Ordering::SeqCst) {
                // Hard stop: close everything; drivers observe the closure
                // next poll and RAII-abort their transactions.
                for (_, conn) in self.conns.drain() {
                    conn.shared.closed.store(true, Ordering::SeqCst);
                    let _ = conn.shared.stream.shutdown(Shutdown::Both);
                    conn.shared.wake_driver();
                    self.core.live.fetch_sub(1, Ordering::SeqCst);
                }
                return;
            }
            if self.core.stop.load(Ordering::SeqCst) {
                self.listener = None;
                if self.conns.is_empty() {
                    return;
                }
            }
        }
    }

    /// Accept until the backlog is empty.
    fn accept_ready(&mut self) {
        while let Some(listener) = &self.listener {
            match listener.accept() {
                Ok((stream, _)) => self.admit(stream),
                Err(e) => match e.kind() {
                    ErrorKind::WouldBlock => return,
                    // It died in the backlog; the next one may be fine.
                    ErrorKind::Interrupted | ErrorKind::ConnectionAborted => {}
                    // Out of descriptors or memory (`EMFILE` and kin): the
                    // connection stays in the backlog, so a level-triggered
                    // listener would be ready for ever and this loop would
                    // spin. The listener leaves the set until a connection
                    // retires and frees a descriptor (`update`); with none
                    // of its own to retire the server stays deaf — the
                    // descriptors are another part of the process's to free.
                    _ => {
                        let _ = self.epoll.delete(listener);
                        self.accept_paused = true;
                        return;
                    }
                },
            }
        }
    }

    /// Admission control, then register the connection and spawn its driver.
    fn admit(&mut self, stream: TcpStream) {
        let core = &self.core;
        // Over the limit, the newcomer gets a single ErrBusy frame and is
        // hung up on — backpressure the client can see, instead of an
        // unbounded session backlog.
        if core.live.load(Ordering::SeqCst) >= core.max_sessions {
            core.rejected.fetch_add(1, Ordering::SeqCst);
            let _ = (&stream).write_all(&Response::Err(ErrCode::ErrBusy).encode());
            return;
        }
        let token = self.next_token;
        if stream.set_nonblocking(true).is_err()
            || stream.set_nodelay(true).is_err()
            || self.epoll.add(&stream, token, EPOLLIN).is_err()
        {
            return;
        }
        self.next_token += 1;
        core.live.fetch_add(1, Ordering::SeqCst);
        core.accepted.fetch_add(1, Ordering::SeqCst);
        let shared = Arc::new(ConnShared {
            stream,
            token,
            inbox: Mutex::new(VecDeque::new()),
            closed: AtomicBool::new(false),
            waker: Mutex::new(None),
            outbox: Mutex::new(Vec::new()),
            stalled: AtomicBool::new(false),
        });
        let conn = ReactorConn {
            inbuf: Vec::new(),
            shared: shared.clone(),
            armed: EPOLLIN,
            done: false,
        };
        self.conns.insert(token, conn);
        let core = core.clone();
        self.exec.spawn(async move {
            {
                let mut session = pin!(drive_session(&core, &shared));
                // Whatever a poll answered goes out with one `write` when
                // the poll returns — whether the driver stopped for want of
                // a frame, behind a lock, or for good.
                poll_fn(|cx| {
                    let poll = session.as_mut().poll(cx);
                    if shared.flush(false) {
                        core.request(shared.token);
                    }
                    poll
                })
                .await;
            }
            // Leave the reactor's half of `shared` the last one, so that
            // retiring the connection is what closes its socket.
            drop(shared);
            core.request(token | DONE);
        });
    }

    /// Serve one connection's readiness.
    fn conn_ready(&mut self, token: u64, events: u32, tmp: &mut [u8]) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let shared = &conn.shared;
        let mut closed = false;
        if events & (EPOLLERR | EPOLLHUP) != 0 {
            // Reset, or shut both ways: nothing more can be read or
            // written. These two are reported whatever the mask, so the
            // socket leaves the set — else it would be ready for ever while
            // its driver is parked behind a lock — and `update` finds
            // nothing to arm on it again (closed; writes fail, never stall).
            let _ = self.epoll.delete(&shared.stream);
            conn.armed = 0;
            shared.outbox.lock().clear();
            shared.stalled.store(false, Ordering::SeqCst);
            closed = true;
        } else {
            if events & EPOLLIN != 0 {
                closed = pump_reads(shared, &mut conn.inbuf, tmp);
            }
            if events & EPOLLOUT != 0 {
                shared.flush(true);
            }
        }
        if closed {
            shared.closed.store(true, Ordering::SeqCst);
            shared.wake_driver();
        }
        self.update(token);
    }

    /// Retire the connection if its driver is done and its last byte is on
    /// the wire; otherwise recompute its interest mask from its state. The
    /// only caller of `EPOLL_CTL_MOD`. Takes a token, or a driver's request.
    fn update(&mut self, request: u64) {
        let token = request & !DONE;
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.done |= request & DONE != 0;
        let shared = &conn.shared;
        // After a driver's last `flush`, not stalled is nothing unsent.
        let stalled = shared.stalled.load(Ordering::SeqCst);
        if conn.done && !stalled {
            // Drops the last `shared`: the socket closes, which also takes
            // it out of the epoll set, and its descriptor is free again.
            self.conns.remove(&token);
            self.core.live.fetch_sub(1, Ordering::SeqCst);
            if let (true, Some(listener)) = (self.accept_paused, &self.listener) {
                self.accept_paused = self.epoll.add(listener, LISTENER, EPOLLIN).is_err();
            }
            return;
        }
        let mut want = 0;
        // EOF leaves the read set for good (a half-closed socket is
        // readable for ever); a full inbox leaves it until the driver
        // catches up, and the kernel pushes back on the peer meanwhile.
        if !shared.closed.load(Ordering::SeqCst) && shared.inbox.lock().len() < INBOX_HIGH {
            want |= EPOLLIN;
        }
        if stalled {
            want |= EPOLLOUT;
        }
        if want != conn.armed && self.epoll.modify(&shared.stream, token, want).is_ok() {
            conn.armed = want;
        }
    }
}

/// Read until the socket runs dry or the inbox is full, pushing complete
/// frames to the driver. Returns `true` if the connection reached EOF or a
/// fatal error.
fn pump_reads(shared: &ConnShared, inbuf: &mut Vec<u8>, tmp: &mut [u8]) -> bool {
    loop {
        let n = match (&shared.stream).read(tmp) {
            Ok(0) => return true,
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return true,
        };
        inbuf.extend_from_slice(&tmp[..n]);
        let (pushed, depth, violation) = {
            let mut inbox = shared.inbox.lock();
            let before = inbox.len();
            let violation = loop {
                match wire::take_frame(inbuf) {
                    Ok(Some(body)) => inbox.push_back(body),
                    Ok(None) => break false,
                    // Oversized length prefix: protocol violation.
                    Err(()) => break true,
                }
            };
            (inbox.len() > before, inbox.len(), violation)
        };
        if pushed {
            shared.wake_driver();
        }
        // A short read emptied the socket, and level-triggered epoll
        // reports whatever arrives next: no second `read` to be told so.
        if violation || n < tmp.len() || depth >= INBOX_HIGH {
            return violation;
        }
    }
}
