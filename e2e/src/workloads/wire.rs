//! The two workloads that go through `ntx-serve` over loopback TCP:
//! `wire_pingpong` waits for each frame's response, `wire_pipelined` sends a
//! whole transaction and then reads its responses. Same server, same
//! clients, same transactions; only the use of the connection differs.

use super::{
    at_slice_boundaries, peak_rss_mb, stats_delta, Opts, Outcome, Setup, StartLine, Workload,
    CLIENTS, MAX_RETRIES,
};
use crate::gen::{Keys, Plan, Rng};
use crate::probes::Probes;
use crate::record::Recorder;
use crate::span::{Kind, Stamps};
use ntx_runtime::RtConfig;
use ntx_serve::client::Client;
use ntx_serve::wire::{ErrCode, Request, Response};
use ntx_serve::{Server, ServerConfig};
use std::io;
use std::time::{Duration, Instant};

/// Counter objects the server registers.
const OBJECTS: usize = 4096;

fn bad(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// Whether the server refused the request in a way a retry can cure.
fn refused(resp: Response) -> io::Result<bool> {
    match resp {
        Response::Err(ErrCode::ErrDoomed | ErrCode::ErrTimeout) => Ok(true),
        Response::Err(code) => Err(bad(format!("server answered {code:?}"))),
        _ => Ok(false),
    }
}

/// Send one frame and wait for its response.
fn call<const TRACE: bool>(
    c: &mut Client,
    st: &mut Stamps,
    req: Request,
    kind: Kind,
) -> io::Result<Response> {
    c.send(req)?;
    st.mark::<TRACE>(Kind::ClientWrite);
    let resp = c.read_response()?;
    st.mark::<TRACE>(kind);
    Ok(resp)
}

fn handle_of(resp: Response) -> io::Result<u32> {
    match resp {
        Response::Handle(h) => Ok(h),
        other => Err(bad(format!("expected a handle, got {other:?}"))),
    }
}

fn access(handle: u32, obj: usize, write: bool) -> Request {
    Request::Access {
        handle,
        obj: obj as u32,
        write,
        delta: i64::from(write),
    }
}

/// `N1` with one round trip per frame. `Ok(false)` means the server refused
/// an access or a commit; the transaction has then been aborted at top level.
fn n1_pingpong<const TRACE: bool>(c: &mut Client, plan: Plan, st: &mut Stamps) -> io::Result<bool> {
    st.restart::<TRACE>();
    let top = handle_of(call::<TRACE>(c, st, Request::Begin, Kind::RttBegin)?)?;
    let mut abort_first = plan.abort_first;
    let committed = 'tx: {
        loop {
            let parent = top;
            let child = handle_of(call::<TRACE>(
                c,
                st,
                Request::Child { parent },
                Kind::RttChild,
            )?)?;
            let read = access(child, plan.a, false);
            if refused(call::<TRACE>(c, st, read, Kind::RttAccessR)?)? {
                break 'tx false;
            }
            let write = access(child, plan.b, true);
            if refused(call::<TRACE>(c, st, write, Kind::RttAccessW)?)? {
                break 'tx false;
            }
            let handle = child;
            if abort_first {
                call::<TRACE>(c, st, Request::Abort { handle }, Kind::RttAbort)?;
                abort_first = false;
                continue;
            }
            let commit = Request::Commit { handle };
            if refused(call::<TRACE>(c, st, commit, Kind::RttCommitChild)?)? {
                break 'tx false;
            }
            break;
        }
        let commit = Request::Commit { handle: top };
        !refused(call::<TRACE>(c, st, commit, Kind::RttCommitTop)?)?
    };
    if !committed {
        // Drops whatever is left of the tree; an already-consumed handle
        // answers ErrHandle, which is fine.
        c.call(Request::Abort { handle: top })?;
    }
    Ok(committed)
}

/// `N1` as one burst. Handles are sequential per connection, so the client
/// knows them before the server has answered.
fn n1_pipelined<const TRACE: bool>(
    c: &mut Client,
    next_handle: &mut u32,
    plan: Plan,
    st: &mut Stamps,
) -> io::Result<bool> {
    st.restart::<TRACE>();
    let top = *next_handle;
    let children = 1 + u32::from(plan.abort_first);
    *next_handle += 1 + children;
    let mut frames = 0;
    c.send(Request::Begin)?;
    for child in top + 1..=top + children {
        c.send(Request::Child { parent: top })?;
        c.send(access(child, plan.a, false))?;
        c.send(access(child, plan.b, true))?;
        c.send(if child == top + children {
            Request::Commit { handle: child }
        } else {
            Request::Abort { handle: child }
        })?;
        frames += 4;
    }
    c.send(Request::Commit { handle: top })?;
    st.mark::<TRACE>(Kind::ClientWrite);
    let got = handle_of(c.read_response()?)?;
    if got != top {
        return Err(bad(format!(
            "predicted handle {top}, server assigned {got}"
        )));
    }
    let mut all_ok = true;
    // The last three responses: the final child's write, its commit, and the
    // top-level commit. The increment landed iff all three succeeded.
    let mut landed = true;
    for i in 0..=frames {
        let ok = !refused(c.read_response()?)?;
        all_ok &= ok;
        if i + 3 > frames {
            landed &= ok;
        }
    }
    st.mark::<TRACE>(Kind::RttBurst);
    if landed && !all_ok {
        return Err(bad(
            "a transaction committed although a frame was refused".into()
        ));
    }
    Ok(all_ok)
}

/// The closed loop of one connection.
fn client_loop(
    c: &mut Client,
    next_handle: &mut u32,
    pipelined: bool,
    rng: &mut Rng,
    rec: &mut Recorder,
    t_prev: &mut u64,
) -> io::Result<()> {
    let keys = Keys::Uniform(OBJECTS);
    let mut st = Stamps::new(rec.clock());
    loop {
        let plan = Plan::draw(&keys, rng);
        let traced = rec.traces(*t_prev);
        let mut retries = 0;
        let ok = loop {
            let committed = match (pipelined, traced) {
                (false, false) => n1_pingpong::<false>(c, plan, &mut st)?,
                (false, true) => n1_pingpong::<true>(c, plan, &mut st)?,
                (true, false) => n1_pipelined::<false>(c, next_handle, plan, &mut st)?,
                (true, true) => n1_pipelined::<true>(c, next_handle, plan, &mut st)?,
            };
            if committed || retries == MAX_RETRIES {
                break committed;
            }
            retries += 1;
        };
        if !rec.end_tx(t_prev, ok, retries, traced.then_some(&st)) {
            return Ok(());
        }
    }
}

/// Read every counter over the wire inside one transaction and add them up.
fn sum_over_wire(c: &mut Client) -> io::Result<i64> {
    let top = c.begin()?;
    let mut sum = 0;
    for start in (0..OBJECTS).step_by(256) {
        let batch = start..(start + 256).min(OBJECTS);
        for obj in batch.clone() {
            c.send(access(top, obj, false))?;
        }
        for _ in batch {
            match c.read_response()? {
                Response::Value(v) => sum += v,
                other => return Err(bad(format!("expected a value, got {other:?}"))),
            }
        }
    }
    c.commit(top)?
        .map_err(|code| bad(format!("final commit answered {code:?}")))?;
    Ok(sum)
}

/// Run `wire_pingpong` or `wire_pipelined`.
pub fn run(opts: &Opts) -> Outcome {
    let clock = opts.clock;
    let pipelined = opts.workload == Workload::WirePipelined;

    let t_start = clock.now();
    // The server's threads inherit this; the clients move themselves away.
    super::run_on_last_cpu(false);
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            objects: OBJECTS,
            rt: RtConfig::default(),
            ..ServerConfig::default()
        },
    )
    .expect("bind a loopback port");
    let t_bound = clock.now();
    let conns: Vec<Client> = (0..CLIENTS)
        .map(|_| Client::connect(server.local_addr()).expect("connect to the server"))
        .collect();
    let t_connected = clock.now();

    let line = StartLine::new(CLIENTS);
    let mgr = server.manager();
    let mut before = mgr.stats();
    let (mut t0, mut queued_max, mut live_max) = (0, 0, 0);
    let recs: Vec<io::Result<Recorder>> = std::thread::scope(|s| {
        let clients: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                let line = &line;
                s.spawn(move || {
                    super::run_on_last_cpu(true);
                    let mut rng = Rng::for_client(opts.seed, c);
                    let mut rec = Recorder::new(clock, c, opts.slices(), opts.trace);
                    let mut next_handle = 1;
                    rec.start_warmup(opts.warmup_share(c, CLIENTS));
                    let warm = client_loop(
                        &mut conn,
                        &mut next_handle,
                        pipelined,
                        &mut rng,
                        &mut rec,
                        &mut 0,
                    );
                    // Reach the start line even after an error, or the other
                    // threads would wait for ever.
                    let mut t_prev = line.ready();
                    warm?;
                    rec.start_timed(t_prev, opts.slice_ns());
                    client_loop(
                        &mut conn,
                        &mut next_handle,
                        pipelined,
                        &mut rng,
                        &mut rec,
                        &mut t_prev,
                    )?;
                    Ok(rec)
                })
            })
            .collect();
        t0 = line.start(clock, || before = mgr.stats());
        at_slice_boundaries(opts, t0, || {
            queued_max = queued_max.max(mgr.queued_waiters());
            live_max = live_max.max(server.live_sessions());
        });
        clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let stats = stats_delta(&mgr.stats(), &before);
    let rss_mb = peak_rss_mb();

    let mut errors = Vec::new();
    let recs: Vec<Recorder> = recs
        .into_iter()
        .filter_map(|rec| {
            rec.map_err(|e| errors.push(format!("client failed: {e}")))
                .ok()
        })
        .collect();
    let mut out = Outcome {
        setup: Setup::new(opts, t_start, t_bound, t_connected, t0),
        recs,
        stats,
        queued_waiters_max: queued_max,
        // The server's object handles are private to it, so no version chain
        // can be measured from outside.
        chain_len_max: 0,
        peak_in_flight: live_max,
        rss_mb,
        probes: Probes::default(),
        durable: None,
        errors,
    };

    // The client connections closed when their threads ended. One more
    // connection reads the counters back; then the server must be empty.
    let committed: u64 = out.recs.iter().map(|r| r.committed).sum();
    match Client::connect(server.local_addr()).and_then(|mut c| sum_over_wire(&mut c)) {
        Ok(sum) => out.check(sum == committed as i64, || {
            format!("counters add up to {sum}, {committed} transactions committed")
        }),
        Err(e) => out
            .errors
            .push(format!("reading the counters back failed: {e}")),
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.live_sessions() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let live = server.live_sessions();
    out.check(live == 0, || {
        format!("{live} sessions live after every client closed")
    });
    let queued = mgr.queued_waiters();
    out.check(queued == 0, || format!("{queued} waiters still queued"));
    let appends = mgr.stats().wal_appends;
    out.check(appends == 0, || {
        format!("{appends} log appends without a log")
    });
    server.drain();

    if opts.trace {
        out.probes = crate::probes::wire_probes(opts);
    }
    out
}
