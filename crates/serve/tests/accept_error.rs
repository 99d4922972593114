//! Out of descriptors, the server neither spins nor stays deaf. Alone in
//! its file: it lowers the process's descriptor limit and reads the
//! process's CPU time.

mod common;

use common::{cpu_ticks, wait_until};
use ntx_serve::client::Client;
use ntx_serve::wire::{Request, Response};
use ntx_serve::{Server, ServerConfig};
use std::fs::File;
use std::io::{Read, Seek};
use std::os::fd::AsRawFd;
use std::time::Duration;

/// `struct rlimit`.
#[repr(C)]
struct Rlimit {
    cur: u64,
    max: u64,
}

const RLIMIT_NOFILE: i32 = 7;

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
}

/// Set the soft descriptor limit: descriptors numbered `cur` and up can no
/// longer be opened.
fn limit_descriptors(cur: u64) {
    let mut lim = Rlimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a live, writable `struct rlimit` for the whole call.
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) }, 0);
    lim.cur = cur.min(lim.max);
    // SAFETY: `lim` is a live `struct rlimit`, which the kernel only reads.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &lim) }, 0);
}

/// CPU time of the whole process so far, clock ticks. Takes
/// `/proc/self/stat` open, since there may be no descriptor to open it with.
fn process_ticks(mut stat_file: &File) -> u64 {
    let mut stat = String::new();
    stat_file.rewind().unwrap();
    stat_file.read_to_string(&mut stat).unwrap();
    cpu_ticks(&stat)
}

#[test]
fn accept_out_of_descriptors_waits_for_a_retirement() {
    // The connection that retires is the listener's reactor's own, then
    // another reactor's.
    for reactor in [0, 1] {
        out_of_descriptors_until_a_retirement_on(reactor);
    }
}

fn out_of_descriptors_until_a_retirement_on(reactor: usize) {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    // Connections are dealt to the reactors round-robin, from reactor 0
    // (the listener's): one idle session each puts `first` on `reactor`.
    let mut idle: Vec<Client> = (0..reactor)
        .map(|_| Client::connect(server.local_addr()).unwrap())
        .collect();
    for c in &mut idle {
        c.begin().unwrap();
    }
    let mut first = Client::connect(server.local_addr()).unwrap();
    let h = first.begin().unwrap();
    let stat = File::open("/proc/self/stat").unwrap();

    // Fill every hole in the descriptor table (the kernel hands out the
    // lowest free number, so the holes are gone once the numbers only
    // climb), then leave room for exactly one more: the second client's
    // own socket.
    let highest_open = std::fs::read_dir("/proc/self/fd")
        .unwrap()
        .map(|e| e.unwrap().file_name().to_str().unwrap().parse().unwrap())
        .max()
        .unwrap();
    let mut fillers: Vec<File> = Vec::new();
    while fillers.last().map_or(-1, |f| f.as_raw_fd()) <= highest_open {
        fillers.push(File::open("/dev/null").unwrap());
    }
    let top = fillers.last().unwrap().as_raw_fd() as u64;
    limit_descriptors(top + 2);

    // The handshake completes in the kernel; `accept` fails with EMFILE
    // and the connection stays in the backlog, its request with it.
    let mut second = Client::connect(server.local_addr()).unwrap();
    second.send(Request::Begin).unwrap();
    second.flush().unwrap();
    assert!(
        File::open("/dev/null").is_err(),
        "a descriptor is still free"
    );

    // A listener left in a level-triggered set would be ready all along
    // (as the accept thread this replaced was: `Err(_) => continue`).
    let before = process_ticks(&stat);
    std::thread::sleep(Duration::from_millis(300));
    let burned = process_ticks(&stat) - before;
    assert!(
        burned < 5,
        "{burned} CPU ticks burned while out of descriptors"
    );
    assert_eq!(server.accepted(), reactor + 1);

    // The first session ends, its retirement frees a descriptor and puts
    // the listener back, and the second is taken in.
    first.abort(h).unwrap().unwrap();
    drop(first);
    wait_until("the second connection to be accepted", || {
        server.accepted() == reactor + 2
    });
    match second.read_response().unwrap() {
        Response::Handle(1) => {}
        other => panic!("expected a handle, got {other:?}"),
    }
    drop((second, idle));
    limit_descriptors(u64::MAX);
    server.drain();
}
