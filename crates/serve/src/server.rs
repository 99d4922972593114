//! The `ntx-serve` server: `workers` reactor threads, each polling the
//! drivers of the connections it owns where their bytes arrive.
//!
//! Threading model — one kind of thread, none per connection. A reactor
//! owns one level-triggered `epoll` set, one `eventfd`, one mailbox and
//! every connection assigned to it. `epoll_wait` with no timeout is the
//! only place it blocks: an idle server makes no system call and a frame
//! waits for no timer. Reactor 0 also owns the non-blocking listener: it
//! accepts, applies admission control (at `max_sessions` live connections
//! the newcomer gets one `ErrBusy` frame and is closed) and hands each
//! connection, round-robin, to the reactor that keeps it for life, through
//! that reactor's mailbox.
//!
//! A connection's *driver* is its session — the open transaction handles
//! (at most `MAX_HANDLES` of them) and at most one
//! [`ntx_runtime::AccessFuture`] it waits on. The owning reactor reads the
//! socket, splits every frame of a read in place and decodes it into the
//! inbox — which holds decoded requests, and a malformed body's `ErrProto`
//! in its place — then polls the driver in place: frames are answered
//! strictly in order (responses never interleave out of request order)
//! until one waits for a lock, each answer is encoded straight into the
//! outbox, and what that poll answered goes out with one non-blocking
//! `write`; none of it allocates per frame. A blocked
//! request costs a queue node and a future, not a thread. Its waker — fired
//! by a grant wave on any thread, or by the sweeper — posts the
//! connection's token to the owning reactor's mailbox and rings its
//! eventfd. The mailboxes are all that another thread touches, and their
//! mutexes are the server's only locks.
//!
//! Memory per connection is bounded and the interest mask is the
//! backpressure: over `OUTBOX_HIGH` unsent bytes the driver takes no more
//! frames, its inbox fills to `INBOX_HIGH`, the reactor stops watching the
//! socket for `EPOLLIN`, the kernel's buffers fill, and the peer's `write`
//! blocks. Dropping a connection mid-transaction drops its `Tx` handles,
//! and RAII rollback aborts the abandoned subtree.

use crate::sys::{self, Epoll, Event, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};
use crate::wire::{self, ErrCode, Request, Response};
use ntx_runtime::{AccessFuture, ObjRef, RtConfig, Tx, TxError, TxManager};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::future::Future;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::JoinHandle;

/// Frames a session's inbox holds before the reactor stops reading its
/// socket (the frames of the read in progress are still pushed, so the
/// hard bound is this plus one read buffer's worth).
const INBOX_HIGH: usize = 256;
/// Unsent response bytes a session's outbox holds before its driver stops
/// taking frames. The client stages requests up to the same bound.
pub(crate) const OUTBOX_HIGH: usize = 16 * 1024;
/// Open transaction handles a session may hold; beyond them `BEGIN` and
/// `CHILD` answer `ErrBusy` until one finishes. Without it a peer that
/// only sends `BEGIN` grows the session's map without limit.
const MAX_HANDLES: usize = 1024;

/// Server tunables.
pub struct ServerConfig {
    /// Reactor threads. Each owns the connections assigned to it at accept
    /// and polls their drivers itself.
    pub workers: usize,
    /// Number of `i64` counter objects registered at startup.
    pub objects: usize,
    /// Admission limit: maximum live connections before newcomers are
    /// turned away with `ErrBusy`.
    pub max_sessions: usize,
    /// Runtime configuration (lock mode, wait budget, tracing).
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

/// What other threads tell a reactor.
enum Mail {
    /// A driver's waker fired: poll connection `token` again. To reactor 0
    /// under [`LISTENER`]: a retirement freed a descriptor, so the paused
    /// listener goes back into the set.
    Wake(u64),
    /// A connection reactor 0 accepted for this reactor.
    Adopt(TcpStream),
    /// Graceful stop: reactor 0 closes the listener and passes this on;
    /// every reactor exits once its last connection retires.
    Drain,
    /// Hard stop: exit now, dropping every connection in place.
    Halt,
}

/// A reactor's inbound queue, and the eventfd that wakes it for one.
struct Mailbox {
    mail: Mutex<Vec<Mail>>,
    eventfd: File,
}

impl Mailbox {
    /// Queue `mail` and make the eventfd readable. A burst is one
    /// `write(2)`: only the first mail into an empty box rings.
    fn post(&self, mail: Mail) {
        let first = {
            let mut queued = self.mail.lock();
            queued.push(mail);
            queued.len() == 1
        };
        if first {
            // Never blocks: the write can only fail on a saturated
            // counter, which is readable already.
            let _ = (&self.eventfd).write_all(&1u64.to_ne_bytes());
        }
    }
}

/// A driver's waker: names its connection to the reactor that owns it.
struct ConnWaker {
    mailbox: Arc<Mailbox>,
    token: u64,
}

impl Wake for ConnWaker {
    fn wake(self: Arc<Self>) {
        self.mailbox.post(Mail::Wake(self.token));
    }
}

/// Shared server state (manager, objects, gauges, mailboxes).
struct ServerCore {
    mgr: TxManager,
    objects: Vec<ObjRef<i64>>,
    /// One per reactor, in reactor order.
    mailboxes: Vec<Arc<Mailbox>>,
    /// Live connections (admission-control gauge).
    live: AtomicUsize,
    /// Lifetime totals, exposed for tests/ops.
    accepted: AtomicUsize,
    rejected: AtomicUsize,
    /// Reactor 0 took the listener out of its set for want of a
    /// descriptor. The retirement that claims this flag, on whichever
    /// reactor, mails it `Wake(LISTENER)`.
    accept_paused: AtomicBool,
    max_sessions: usize,
}

impl ServerCore {
    /// A connection's socket is closed: count it out, and lift an accept
    /// pause now that a descriptor is free.
    fn retired(&self) {
        self.live.fetch_sub(1, Ordering::SeqCst);
        if self.accept_paused.swap(false, Ordering::SeqCst) {
            self.mailboxes[0].post(Mail::Wake(LISTENER));
        }
    }
}

/// A running `ntx-serve` instance.
pub struct Server {
    core: Arc<ServerCore>,
    local_addr: SocketAddr,
    reactors: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// the reactor threads.
    pub fn bind(addr: &str, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let mut epolls = Vec::new();
        let mut mailboxes = Vec::new();
        for _ in 0..cfg.workers.max(1) {
            let (epoll, eventfd) = (Epoll::new()?, sys::new_eventfd()?);
            epoll.add(&eventfd, WAKEUP, EPOLLIN)?;
            epolls.push(epoll);
            mailboxes.push(Arc::new(Mailbox {
                mail: Mutex::new(Vec::new()),
                eventfd,
            }));
        }
        epolls[0].add(&listener, LISTENER, EPOLLIN)?;
        let mgr = TxManager::new(cfg.rt);
        let objects = (0..cfg.objects.max(1))
            .map(|i| mgr.register(format!("o{i}"), 0i64))
            .collect();
        let core = Arc::new(ServerCore {
            mgr,
            objects,
            mailboxes,
            live: AtomicUsize::new(0),
            accepted: AtomicUsize::new(0),
            rejected: AtomicUsize::new(0),
            accept_paused: AtomicBool::new(false),
            max_sessions: cfg.max_sessions.max(1),
        });

        let mut listener = Some(listener);
        let reactors = epolls
            .into_iter()
            .enumerate()
            .map(|(i, epoll)| {
                let reactor = Reactor {
                    core: core.clone(),
                    mailbox: core.mailboxes[i].clone(),
                    epoll,
                    listener: listener.take(),
                    next_reactor: 0,
                    draining: false,
                    conns: HashMap::new(),
                    next_token: WAKEUP + 1,
                };
                std::thread::Builder::new()
                    .name(format!("ntx-serve-r{i}"))
                    .spawn(move || reactor.run())
                    .expect("spawn reactor thread")
            })
            .collect();

        Ok(Server {
            core,
            local_addr,
            reactors,
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

    /// Graceful drain: stop accepting, wait for every live session to
    /// finish (clients must close their connections) and its last response
    /// to reach the wire, then stop the reactors.
    pub fn drain(mut self) {
        self.core.mailboxes[0].post(Mail::Drain);
        for h in self.reactors.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        for mailbox in &self.core.mailboxes {
            mailbox.post(Mail::Halt);
        }
        for h in self.reactors.drain(..) {
            let _ = h.join();
        }
    }
}

/// A connection's driver: the session's transaction handles, and the
/// access it waits on.
#[derive(Default)]
struct Session {
    /// No frame after this one is answered before it resolves. Declared
    /// before `txs`, so a dropped session withdraws its queue node before
    /// RAII aborts the handles.
    waiting: Option<AccessFuture<i64>>,
    txs: HashMap<u32, Tx>,
    last_handle: u32,
}

impl Session {
    /// Answer one decoded frame — or, for an access, start it and leave it
    /// in `waiting`, whose result is the answer.
    fn handle(&mut self, core: &ServerCore, frame: Result<Request, ErrCode>) -> Option<Response> {
        let req = match frame {
            Ok(req) => req,
            Err(code) => return Some(Response::Err(code)),
        };
        Some(match req {
            // The cap is checked before a transaction exists, so a refused
            // `CHILD` creates and aborts nothing.
            Request::Begin | Request::Child { .. } if self.txs.len() >= MAX_HANDLES => {
                Response::Err(ErrCode::ErrBusy)
            }
            Request::Begin => self.open(core.mgr.begin()),
            Request::Child { parent } => match self.txs.get(&parent).map(Tx::child) {
                None => Response::Err(ErrCode::ErrHandle),
                Some(Ok(tx)) => self.open(tx),
                Some(Err(e)) => Response::Err(err_code(&e)),
            },
            Request::Access {
                handle,
                obj,
                write,
                delta,
            } => {
                let Some(tx) = self.txs.get(&handle) else {
                    return Some(Response::Err(ErrCode::ErrHandle));
                };
                let Some(objref) = core.objects.get(obj as usize) else {
                    return Some(Response::Err(ErrCode::ErrObject));
                };
                self.waiting = Some(if write {
                    // `delta` is the client's: wrap, in every build.
                    tx.write_async(objref, move |v| {
                        *v = v.wrapping_add(delta);
                        *v
                    })
                } else {
                    tx.read_async(objref, |v| *v)
                });
                return None;
            }
            Request::Commit { handle } => {
                let Some(tx) = self.txs.get(&handle) else {
                    return Some(Response::Err(ErrCode::ErrHandle));
                };
                let result = tx.commit();
                // `LiveChildren` leaves the transaction open, and its
                // handle with it.
                if result != Err(TxError::LiveChildren) {
                    self.txs.remove(&handle);
                }
                match result {
                    Ok(()) => Response::Ok,
                    Err(e) => Response::Err(err_code(&e)),
                }
            }
            Request::Abort { handle } => match self.txs.remove(&handle) {
                Some(tx) => {
                    tx.abort();
                    Response::Ok
                }
                None => Response::Err(ErrCode::ErrHandle),
            },
        })
    }

    fn open(&mut self, tx: Tx) -> Response {
        self.last_handle += 1;
        self.txs.insert(self.last_handle, tx);
        Response::Handle(self.last_handle)
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

/// One connection, owned and only ever touched by its reactor.
struct Conn {
    /// Non-blocking.
    stream: TcpStream,
    /// Posts this connection's token to its reactor; a waiting access
    /// holds a clone.
    waker: Waker,
    /// Bytes read that do not make a whole frame yet.
    inbuf: Vec<u8>,
    /// Complete request frames, decoded, in arrival order: a malformed
    /// body is its `ErrProto`, answered in its place.
    inbox: VecDeque<Result<Request, ErrCode>>,
    /// Encoded response bytes not yet on the wire.
    outbox: Vec<u8>,
    /// The interest mask registered with epoll.
    armed: u32,
    /// EOF or error: no frame will follow those in the inbox.
    closed: bool,
    /// The last `write` left bytes behind: the socket is full and epoll
    /// watches it for `EPOLLOUT`.
    stalled: bool,
    session: Session,
}

impl Conn {
    /// Poll the driver: answer frames until the inbox is empty, an access
    /// waits for its lock, or the outbox is over its mark; then offer the
    /// answers to the socket with one `write`. When that write takes the
    /// outbox back under the mark, poll again. Nothing here may block: the
    /// reactor's other connections wait for it (lint R6).
    fn poll_driver(&mut self, core: &ServerCore) {
        loop {
            let waker = &self.waker;
            loop {
                if let Some(access) = &mut self.session.waiting {
                    let Poll::Ready(result) =
                        Pin::new(access).poll(&mut Context::from_waker(waker))
                    else {
                        break;
                    };
                    self.session.waiting = None;
                    let resp = match result {
                        Ok(v) => Response::Value(v),
                        Err(e) => Response::Err(err_code(&e)),
                    };
                    resp.encode_into(&mut self.outbox);
                }
                if self.outbox.len() > OUTBOX_HIGH {
                    break;
                }
                let Some(frame) = self.inbox.pop_front() else {
                    break;
                };
                if let Some(resp) = self.session.handle(core, frame) {
                    resp.encode_into(&mut self.outbox);
                }
            }
            let over = self.outbox.len() > OUTBOX_HIGH;
            self.flush();
            if !over || self.outbox.len() > OUTBOX_HIGH {
                return;
            }
        }
    }

    /// Offer the outbox to the socket with one non-blocking `write`. Once
    /// the socket is known to be full (`stalled`) only `EPOLLOUT` clears
    /// the way: the kernel waits for room worth writing to, where eager
    /// attempts would trickle out as the peer drains, a few bytes to a
    /// segment.
    fn flush(&mut self) {
        if self.stalled || self.outbox.is_empty() {
            return;
        }
        match (&self.stream).write(&self.outbox) {
            Ok(n) => drop(self.outbox.drain(..n)),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            // Dead socket: the read side surfaces the hangup.
            Err(_) => self.outbox.clear(),
        }
        self.stalled = !self.outbox.is_empty();
    }

    /// Read until the socket runs dry or the inbox is full, decoding
    /// complete frames into the inbox. Returns `true` if the connection
    /// reached EOF, a fatal error or a protocol violation.
    ///
    /// Each read's frames are found in place by [`wire::split_frame`] and
    /// decoded from the borrowed body, and the consumed bytes go with one
    /// `drain` per read: no copy or allocation per frame, and the memmove of
    /// the unconsumed tail does not grow with the burst. An oversized
    /// length prefix ends the walk: the frames before it are in the inbox
    /// and are answered, in order, before the hang-up.
    fn pump_reads(&mut self, tmp: &mut [u8]) -> bool {
        loop {
            let n = match (&self.stream).read(tmp) {
                Ok(0) => return true,
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return true,
            };
            self.inbuf.extend_from_slice(&tmp[..n]);
            let mut used = 0;
            loop {
                match wire::split_frame(&self.inbuf[used..]) {
                    Ok(Some((body, len))) => {
                        self.inbox.push_back(Request::decode(body));
                        used += len;
                    }
                    Ok(None) => break,
                    // Oversized length prefix.
                    Err(()) => return true,
                }
            }
            self.inbuf.drain(..used);
            // A short read emptied the socket, and level-triggered epoll
            // reports whatever arrives next: no second `read` to be told so.
            if n < tmp.len() || self.inbox.len() >= INBOX_HIGH {
                return false;
            }
        }
    }

    /// The driver has answered every frame the peer will send, and the
    /// last answer is on the wire.
    fn finished(&self) -> bool {
        self.closed
            && self.inbox.is_empty()
            && self.session.waiting.is_none()
            && self.outbox.is_empty()
    }

    /// The interest mask the connection's state calls for.
    fn interest(&self) -> u32 {
        let mut want = 0;
        // EOF leaves the read set for good (a half-closed socket is
        // readable for ever); a full inbox leaves it until the driver
        // catches up, and the kernel pushes back on the peer meanwhile.
        if !self.closed && self.inbox.len() < INBOX_HIGH {
            want |= EPOLLIN;
        }
        if self.stalled {
            want |= EPOLLOUT;
        }
        want
    }
}

/// Epoll token of the listener (reactor 0's set only).
const LISTENER: u64 = 0;
/// Epoll token of a reactor's eventfd. Connections count up from the next
/// one and a token is never reused, so an event or a wake that outlives
/// its connection finds nothing under its token.
const WAKEUP: u64 = 1;

/// One reactor thread's state.
struct Reactor {
    core: Arc<ServerCore>,
    /// This reactor's entry in `core.mailboxes`.
    mailbox: Arc<Mailbox>,
    epoll: Epoll,
    /// Reactor 0's until a drain closes it; no other reactor's.
    listener: Option<TcpListener>,
    /// The reactor the next connection accepted goes to.
    next_reactor: usize,
    /// A `Drain` arrived: exit once the last connection retires.
    draining: bool,
    conns: HashMap<u64, Conn>,
    next_token: u64,
}

impl Reactor {
    /// Sleep in `epoll_wait`; serve whatever woke it; repeat.
    fn run(mut self) {
        let mut events = [Event::default(); 256];
        let mut tmp = [0u8; 4096];
        while !(self.draining && self.conns.is_empty()) {
            let n = self.epoll.wait(&mut events).expect("epoll_wait");
            for ev in &events[..n] {
                match ev.token {
                    LISTENER => self.accept_ready(),
                    WAKEUP => {
                        // Reset the eventfd before taking the mail: mail
                        // posted after the take rings it again.
                        let _ = (&self.mailbox.eventfd).read(&mut [0u8; 8]);
                        let batch = std::mem::take(&mut *self.mailbox.mail.lock());
                        for mail in batch {
                            match mail {
                                Mail::Wake(LISTENER) => self.resume_accept(),
                                Mail::Wake(token) => self.serve(token),
                                Mail::Adopt(stream) => self.adopt(stream),
                                Mail::Drain => self.drain(),
                                // Dropping the connections closes their
                                // sockets and RAII-aborts their sessions.
                                Mail::Halt => return,
                            }
                        }
                    }
                    token => self.conn_ready(token, ev.events, &mut tmp),
                }
            }
        }
    }

    /// Accept until the backlog is empty.
    fn accept_ready(&mut self) {
        let mut paused = false;
        while let Some(listener) = &self.listener {
            match listener.accept() {
                Ok((stream, _)) => self.admit(stream),
                Err(e) => match e.kind() {
                    ErrorKind::WouldBlock => break,
                    // It died in the backlog; the next one may be fine.
                    ErrorKind::Interrupted | ErrorKind::ConnectionAborted => {}
                    _ if paused => return,
                    // Out of descriptors or memory (`EMFILE` and kin): the
                    // connection stays in the backlog, so a level-triggered
                    // listener would be ready for ever and this loop would
                    // spin. The listener leaves the set until a connection
                    // retires, on any reactor, and frees a descriptor; with
                    // none of the server's own to retire it stays deaf — the
                    // descriptors are another part of the process's to free.
                    // One more look first: a retirement before the flag was
                    // up freed its descriptor unannounced.
                    _ => {
                        let _ = self.epoll.delete(listener);
                        self.core.accept_paused.store(true, Ordering::SeqCst);
                        paused = true;
                    }
                },
            }
        }
        // A descriptor was free after all. Lift the pause here, unless a
        // retirement claimed the flag first: its mail lifts it.
        if paused && self.core.accept_paused.swap(false, Ordering::SeqCst) {
            self.resume_accept();
        }
    }

    /// Put the paused listener back into the set: whoever cleared
    /// `accept_paused` calls this, once per pause.
    fn resume_accept(&mut self) {
        if let Some(listener) = &self.listener {
            if self.epoll.add(listener, LISTENER, EPOLLIN).is_err() {
                // The next retirement tries again.
                self.core.accept_paused.store(true, Ordering::SeqCst);
            }
        }
    }

    /// Admission control, then hand the connection to its reactor.
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
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            return;
        }
        core.live.fetch_add(1, Ordering::SeqCst);
        core.accepted.fetch_add(1, Ordering::SeqCst);
        let to = self.next_reactor;
        self.next_reactor = (to + 1) % core.mailboxes.len();
        core.mailboxes[to].post(Mail::Adopt(stream));
    }

    /// Register a connection handed to this reactor.
    fn adopt(&mut self, stream: TcpStream) {
        let token = self.next_token;
        if self.epoll.add(&stream, token, EPOLLIN).is_err() {
            drop(stream);
            self.core.retired();
            return;
        }
        self.next_token += 1;
        let waker = Waker::from(Arc::new(ConnWaker {
            mailbox: self.mailbox.clone(),
            token,
        }));
        let conn = Conn {
            stream,
            waker,
            inbuf: Vec::new(),
            inbox: VecDeque::new(),
            outbox: Vec::new(),
            armed: EPOLLIN,
            closed: false,
            stalled: false,
            session: Session::default(),
        };
        self.conns.insert(token, conn);
    }

    /// Reactor 0 closes the listener, which refuses new connections, and
    /// only then tells the others: no `Adopt` follows a `Drain`.
    fn drain(&mut self) {
        self.draining = true;
        if self.listener.take().is_some() {
            for mailbox in &self.core.mailboxes[1..] {
                mailbox.post(Mail::Drain);
            }
        }
    }

    /// Take in one connection's readiness, then serve it.
    fn conn_ready(&mut self, token: u64, events: u32, tmp: &mut [u8]) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if events & (EPOLLERR | EPOLLHUP) != 0 {
            // Reset, or shut both ways: nothing more can be read or
            // written. These two are reported whatever the mask, so the
            // socket leaves the set — else it would be ready for ever while
            // its driver waits for a lock — and nothing arms it again
            // (closed; writes fail, never stall).
            let _ = self.epoll.delete(&conn.stream);
            conn.armed = 0;
            conn.outbox.clear();
            conn.stalled = false;
            conn.closed = true;
        } else {
            if events & EPOLLIN != 0 && conn.pump_reads(tmp) {
                conn.closed = true;
            }
            if events & EPOLLOUT != 0 {
                conn.stalled = false;
            }
        }
        self.serve(token);
    }

    /// Poll connection `token`'s driver, then retire the connection if it
    /// is finished, or else recompute its interest mask. The only caller of
    /// `EPOLL_CTL_MOD`.
    fn serve(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.poll_driver(&self.core);
        if conn.finished() {
            // Closes the socket, which also takes it out of the epoll set,
            // and drops the session: RAII aborts what the client left open.
            self.conns.remove(&token);
            self.core.retired();
            return;
        }
        let want = conn.interest();
        if want != conn.armed && self.epoll.modify(&conn.stream, token, want).is_ok() {
            conn.armed = want;
        }
    }
}
