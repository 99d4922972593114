//! Heap allocations per wire transaction, counted by a counting global
//! allocator over every thread of the process: the client's, and the one
//! reactor that serves it.
//!
//! The runtime's share of an `N1` is pinned by
//! `crates/runtime/tests/alloc_count.rs` (two `TxNode`s, an undo version,
//! a published version node), and each access future boxes its closure.
//! The wire path adds nothing per frame once its buffers have grown: the
//! client stages requests into one reused buffer and reads responses in
//! place, the server decodes each frame from its read buffer into the
//! inbox and encodes each answer straight into the outbox. This file pins
//! that, pipelined and ping-pong.
//!
//! One test, alone in its file: the count is process-wide, so nothing may
//! run beside it. Every measurement follows a warm-up on the same
//! connection and objects, so buffers, queues and lock tables have grown
//! to size.

use ntx_serve::client::Client;
use ntx_serve::wire::Request;
use ntx_serve::wire::Response::{self, Handle, Ok as Done, Value};
use ntx_serve::{Server, ServerConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a static atomic that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        // SAFETY: the caller's contract for `alloc_zeroed`, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc`, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const OBJECTS: u32 = 64;
const WARMUP: u32 = 2_000;
const MEASURED: u32 = 1_000;
/// Allocations one wire `N1` may make, all threads together.
const PER_TX: u64 = 5;

/// One connection to a one-reactor server, and the handle its next `BEGIN`
/// gets (handles count up per connection, so a pipelining client knows
/// them before the server answers).
struct Conn {
    client: Client,
    next_handle: u32,
}

impl Conn {
    /// `N1` number `i`: begin, child, read, write, child commit, top
    /// commit; with each frame's expected answer (a read's value is any).
    fn n1(&mut self, i: u32) -> [(Request, Response); 6] {
        let top = self.next_handle;
        let child = top + 1;
        self.next_handle += 2;
        let access = |obj, write| Request::Access {
            handle: child,
            obj: obj % OBJECTS,
            write,
            delta: 1,
        };
        [
            (Request::Begin, Handle(top)),
            (Request::Child { parent: top }, Handle(child)),
            (access(i, false), Value(0)),
            (access(i + 1, true), Value(0)),
            (Request::Commit { handle: child }, Done),
            (Request::Commit { handle: top }, Done),
        ]
    }

    /// Run `N1` number `i`, pipelined (every frame, then every answer) or
    /// one round trip per frame.
    fn run(&mut self, i: u32, pipelined: bool) {
        let frames = self.n1(i);
        if pipelined {
            for (req, _) in frames {
                self.client.send(req).unwrap();
            }
        }
        for (req, want) in frames {
            let got = if pipelined {
                self.client.read_response().unwrap()
            } else {
                self.client.call(req).unwrap()
            };
            match (got, want) {
                (Value(_), Value(_)) => {}
                (got, want) => assert_eq!(got, want, "answer to {req:?}"),
            }
        }
    }

    /// Allocations per `N1` over `MEASURED` transactions, after `WARMUP`.
    fn allocs_per_tx(&mut self, pipelined: bool) -> f64 {
        for i in 0..WARMUP {
            self.run(i, pipelined);
        }
        let before = ALLOCS.load(Ordering::SeqCst);
        for i in 0..MEASURED {
            self.run(i, pipelined);
        }
        let n = ALLOCS.load(Ordering::SeqCst) - before;
        n as f64 / f64::from(MEASURED)
    }
}

#[test]
fn wire_n1_allocates_at_most_five_times_pipelined_and_ping_pong() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            objects: OBJECTS as usize,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut conn = Conn {
        client: Client::connect(server.local_addr()).unwrap(),
        next_handle: 1,
    };
    let pipelined = conn.allocs_per_tx(true);
    let ping_pong = conn.allocs_per_tx(false);
    eprintln!("heap allocations per wire N1: pipelined {pipelined}, ping-pong {ping_pong}");
    for (mode, n) in [("pipelined", pipelined), ("ping-pong", ping_pong)] {
        assert!(
            n <= PER_TX as f64,
            "a {mode} wire N1 made {n} heap allocations, want <= {PER_TX}"
        );
    }
    drop(conn);
    server.drain();
}
