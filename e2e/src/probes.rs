//! Isolation probes: costs that cannot be stamped from outside a running
//! server are measured on their own, after the timed phase of a traced run,
//! and subtracted from what the client saw. What remains is the residual.

use crate::gen::{Keys, Plan, Rng};
use crate::hist::Hist;
use crate::record::Recorder;
use crate::span::{Clock, Kind, Stamps};
use crate::workloads::{inproc, run_on_last_cpu, Opts};
use ntx_runtime::{RtConfig, TxManager};
use ntx_serve::wire::{take_frame, Request, Response};
use ntx_serve::Executor;
use std::future::Future;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::pin::Pin;
use std::sync::mpsc;
use std::task::{Context, Poll, Waker};
use std::time::Instant;

/// Results of the probes; all zero in a run that did not need them.
#[derive(Default)]
pub struct Probes {
    /// ns per call on the `N1` frame mix: request encode, request decode,
    /// response encode, response decode, `take_frame`.
    pub codec_ns: [f64; 5],
    /// Median round trip of a 16-byte echo over loopback, µs; no ntx code.
    pub loopback_floor_us: f64,
    /// Median `Executor::spawn` to first poll on an idle executor, µs.
    pub spawn_to_poll_us: f64,
    /// Median `Waker::wake` to next poll on an idle executor, µs.
    pub wake_to_poll_us: f64,
    /// Median ns of begin, child, read, write, child commit and top commit
    /// for one uncontended client without a log: what the same operations
    /// cost when nothing but the lock manager is involved.
    pub reference_ns: [f64; 6],
}

/// The six requests of `N1` and the responses they get.
fn n1_frames() -> ([Request; 6], [Response; 6]) {
    let access = |write| Request::Access {
        handle: 2,
        obj: 1234,
        write,
        delta: i64::from(write),
    };
    (
        [
            Request::Begin,
            Request::Child { parent: 1 },
            access(false),
            access(true),
            Request::Commit { handle: 2 },
            Request::Commit { handle: 1 },
        ],
        [
            Response::Handle(1),
            Response::Handle(2),
            Response::Value(41),
            Response::Value(42),
            Response::Ok,
            Response::Ok,
        ],
    )
}

/// Encoded request and response bytes of one frame of each kind in
/// [`Kind::FRAMES`] order.
pub fn frame_bytes() -> [usize; 7] {
    let (reqs, resps) = n1_frames();
    let mut bytes = [0; 7];
    for (b, (req, resp)) in bytes.iter_mut().zip(reqs.iter().zip(resps.iter())) {
        *b = req.encode().len() + resp.encode().len();
    }
    bytes[6] = Request::Abort { handle: 2 }.encode().len() + Response::Ok.encode().len();
    bytes
}

/// ns per call of `f` over `rounds` passes of six calls each.
fn per_call_ns(rounds: u64, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for _ in 0..rounds {
        for i in 0..6 {
            f(i);
        }
    }
    t.elapsed().as_nanos() as f64 / (rounds * 6) as f64
}

fn codec(opts: &Opts) -> [f64; 5] {
    let rounds = opts.scaled(1_000_000).div_ceil(6);
    let (reqs, resps) = n1_frames();
    let req_bodies: Vec<Vec<u8>> = reqs.iter().map(|r| r.encode()[4..].to_vec()).collect();
    let resp_bodies: Vec<Vec<u8>> = resps.iter().map(|r| r.encode()[4..].to_vec()).collect();
    let burst: Vec<u8> = reqs.iter().flat_map(|r| r.encode()).collect();
    let mut buf = Vec::with_capacity(burst.len());
    [
        per_call_ns(rounds, |i| {
            black_box(black_box(&reqs[i]).encode());
        }),
        per_call_ns(rounds, |i| {
            black_box(Request::decode(black_box(&req_bodies[i])).expect("own encoding"));
        }),
        per_call_ns(rounds, |i| {
            black_box(black_box(&resps[i]).encode());
        }),
        per_call_ns(rounds, |i| {
            black_box(Response::decode(black_box(&resp_bodies[i])).expect("own encoding"));
        }),
        // The read buffer holds a pipelined transaction, as the reactor's
        // does; refilling it is part of what a frame costs to split off.
        per_call_ns(rounds, |i| {
            if i == 0 {
                buf.extend_from_slice(&burst);
            }
            black_box(take_frame(&mut buf).expect("well-formed frame"));
        }),
    ]
}

fn loopback_floor_us(opts: &Opts) -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address");
    let echo = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept the probe connection");
        s.set_nodelay(true).expect("set TCP_NODELAY");
        let mut frame = [0u8; 16];
        while s.read_exact(&mut frame).is_ok() {
            if s.write_all(&frame).is_err() {
                break;
            }
        }
    });
    // As in the workload: the echo thread has the server's CPUs, this side
    // the clients' one.
    run_on_last_cpu(true);
    let mut s = TcpStream::connect(addr).expect("connect the probe");
    s.set_nodelay(true).expect("set TCP_NODELAY");
    let mut frame = [7u8; 16];
    let mut rtt = Hist::new();
    for _ in 0..opts.scaled(20_000) {
        let t = Instant::now();
        s.write_all(&frame).expect("probe write");
        s.read_exact(&mut frame).expect("probe read");
        rtt.record(t.elapsed().as_nanos() as u64);
    }
    drop(s);
    echo.join().expect("echo thread panicked");
    run_on_last_cpu(false);
    rtt.quantile(0.5) / 1e3
}

/// Reports when it is polled; the first poll hands its waker out and waits.
struct WakeProbe {
    clock: Clock,
    waker_out: Option<mpsc::Sender<Waker>>,
    polled_at: mpsc::Sender<u64>,
}

impl Future for WakeProbe {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let now = self.clock.now();
        let _ = self.polled_at.send(now);
        match self.waker_out.take() {
            Some(out) => {
                let _ = out.send(cx.waker().clone());
                Poll::Pending
            }
            None => Poll::Ready(()),
        }
    }
}

fn executor(opts: &Opts) -> (f64, f64) {
    let clock = opts.clock;
    let exec = Executor::new(2);
    let (mut spawn_to_poll, mut wake_to_poll) = (Hist::new(), Hist::new());
    for _ in 0..opts.scaled(5_000) {
        let (waker_tx, waker_rx) = mpsc::channel();
        let (polled_tx, polled_rx) = mpsc::channel();
        let spawned = clock.now();
        exec.spawn(WakeProbe {
            clock,
            waker_out: Some(waker_tx),
            polled_at: polled_tx,
        });
        let first = polled_rx.recv().expect("first poll");
        spawn_to_poll.record(first.saturating_sub(spawned));
        let waker = waker_rx.recv().expect("the probe's waker");
        let woken = clock.now();
        waker.wake();
        let second = polled_rx.recv().expect("second poll");
        wake_to_poll.record(second.saturating_sub(woken));
    }
    exec.drain();
    exec.shutdown();
    (
        spawn_to_poll.quantile(0.5) / 1e3,
        wake_to_poll.quantile(0.5) / 1e3,
    )
}

/// Per-operation medians of one uncontended client on a manager without a
/// log, traced exactly as the workloads trace.
pub fn inproc_reference(opts: &Opts) -> [f64; 6] {
    const OBJECTS: usize = 4096;
    let mgr = TxManager::new(RtConfig::default());
    let objs: Vec<_> = (0..OBJECTS)
        .map(|i| mgr.register(format!("o{i}"), 0i64))
        .collect();
    let keys = Keys::Uniform(OBJECTS);
    let mut rng = Rng::for_client(opts.seed, usize::MAX);
    let mut rec = Recorder::new(opts.clock, 0, 1, true);
    let mut st = Stamps::new(opts.clock);
    let mut t_prev = opts.clock.now();
    rec.start_timed(t_prev, u64::MAX / 2);
    for _ in 0..opts.scaled(200_000) {
        let plan = Plan::draw(&keys, &mut rng);
        inproc::n1::<true>(&mgr, &objs, plan, &mut st).expect("a single client meets no conflict");
        rec.end_tx(&mut t_prev, true, 0, Some(&st));
    }
    let kinds = &rec.trace.as_ref().expect("traced recorder").kinds;
    [
        Kind::Begin,
        Kind::Child,
        Kind::Read,
        Kind::Write,
        Kind::CommitChild,
        Kind::CommitTop,
    ]
    .map(|k| kinds[k as usize].quantile(0.5))
}

/// Probes of a traced wire run: codec, loopback floor, executor, reference.
pub fn wire_probes(opts: &Opts) -> Probes {
    let (spawn_to_poll_us, wake_to_poll_us) = executor(opts);
    Probes {
        codec_ns: codec(opts),
        loopback_floor_us: loopback_floor_us(opts),
        spawn_to_poll_us,
        wake_to_poll_us,
        reference_ns: inproc_reference(opts),
    }
}

/// Probes of a traced `async_deep` run: the executor's two delays.
pub fn executor_probes(opts: &Opts) -> Probes {
    let (spawn_to_poll_us, wake_to_poll_us) = executor(opts);
    Probes {
        spawn_to_poll_us,
        wake_to_poll_us,
        ..Probes::default()
    }
}
