//! An idle server is idle. Alone in its file: the reactor threads are
//! found by name, so the process must hold exactly one server.

mod common;

use common::{cpu_ticks, wait_until};
use ntx_serve::client::Client;
use ntx_serve::wire::Request;
use ntx_serve::{Server, ServerConfig};
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

/// The threads of this process whose names start with `prefix`, once
/// there are `count` of them (the kernel keeps 15 bytes of a thread's
/// name, and a new thread names itself: hence the wait).
fn threads_named(prefix: &str, count: usize) -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let found: Vec<String> = std::fs::read_dir("/proc/self/task")
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|dir| {
                std::fs::read_to_string(dir.join("comm")).is_ok_and(|c| c.starts_with(prefix))
            })
            .map(|dir| dir.to_str().unwrap().to_string())
            .collect();
        if found.len() == count {
            return found;
        }
        assert!(
            found.len() < count && Instant::now() < deadline,
            "threads named {prefix}*: {found:?}, expected {count}"
        );
        std::thread::yield_now();
    }
}

/// (voluntary context switches, CPU ticks) of the thread under `task_dir`.
fn activity(task_dir: &str) -> (u64, u64) {
    let status = std::fs::read_to_string(format!("{task_dir}/status")).unwrap();
    let switches = status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .expect("voluntary_ctxt_switches")
        .trim()
        .parse()
        .unwrap();
    let stat = std::fs::read_to_string(format!("{task_dir}/stat")).unwrap();
    let ticks = cpu_ticks(&stat);
    (switches, ticks)
}

/// Over 300 ms no reactor wakes up (the old loop slept 200 µs at a time:
/// ~1500 voluntary switches) or burns CPU (a level-triggered event left
/// armed would spin it: ~30 ticks).
fn assert_reactors_idle(reactors: &[String], when: &str) {
    let before: Vec<(u64, u64)> = reactors.iter().map(|r| activity(r)).collect();
    std::thread::sleep(Duration::from_millis(300));
    for (reactor, (switches0, ticks0)) in reactors.iter().zip(before) {
        let (switches1, ticks1) = activity(reactor);
        let (switches, ticks) = (switches1 - switches0, ticks1 - ticks0);
        assert!(switches < 10, "{when}: {reactor} woke {switches} times");
        assert!(ticks < 5, "{when}: {reactor} burned {ticks} CPU ticks");
    }
}

/// A write on object 0, which `holder` has locked: the driver parks.
fn blocked_write(handle: u32) -> Vec<u8> {
    Request::Access {
        handle,
        obj: 0,
        write: true,
        delta: 1,
    }
    .encode()
}

#[test]
fn reactor_sleeps_unless_something_is_ready() {
    let cfg = ServerConfig::default();
    let workers = cfg.workers;
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    // One kind of server thread: `workers` reactors, nothing beside them.
    let reactors = threads_named("ntx-serve-", workers);
    let mgr = server.manager();

    // 100 open sessions with nothing to say.
    let mut silent: Vec<Client> = (0..100)
        .map(|_| Client::connect(server.local_addr()).unwrap())
        .collect();
    for c in &mut silent {
        c.begin().unwrap();
    }
    assert_eq!(server.live_sessions(), 100);
    assert_reactors_idle(&reactors, "100 silent sessions");
    // By now every server thread has named itself: none was missed.
    assert_eq!(threads_named("ntx-serve-", workers), reactors);

    let mut holder = Client::connect(server.local_addr()).unwrap();
    let h = holder.begin().unwrap();
    holder.add(h, 0, 1).unwrap().unwrap();

    // A half-closed socket is readable for ever. With its driver parked
    // behind the lock the connection cannot retire yet, so it must have
    // left the read set.
    let mut half = TcpStream::connect(server.local_addr()).unwrap();
    half.write_all(&Request::Begin.encode()).unwrap();
    half.write_all(&blocked_write(1)).unwrap();
    half.shutdown(Shutdown::Write).unwrap();
    wait_until("the half-closed session to park", || {
        mgr.queued_waiters() == 1
    });
    assert_reactors_idle(&reactors, "half-closed, driver parked");

    // A reset socket reports `EPOLLHUP` whatever its mask. Closing with
    // the `Begin` answer unread is what makes the kernel send the reset.
    let mut reset = TcpStream::connect(server.local_addr()).unwrap();
    reset.write_all(&Request::Begin.encode()).unwrap();
    reset.write_all(&blocked_write(1)).unwrap();
    wait_until("the doomed session to park", || mgr.queued_waiters() == 2);
    assert_eq!(reset.peek(&mut [0u8; 1]).unwrap(), 1);
    drop(reset);
    assert_reactors_idle(&reactors, "reset, driver parked");

    // Both parked drivers finish once the lock is free, and retire.
    holder.commit(h).unwrap().unwrap();
    wait_until("the parked sessions to retire", || {
        server.live_sessions() == 101
    });
    assert_eq!(mgr.queued_waiters(), 0);
    drop(half);
    drop(holder);
    drop(silent);
    server.drain();
}
