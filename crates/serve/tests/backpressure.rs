//! A peer that sends and never reads is stopped by the kernel, not
//! buffered by the server. Alone in its file: it measures the process's
//! resident set.

mod common;

use common::wait_until;
use ntx_serve::wire::{Request, Response};
use ntx_serve::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Resident set of this process, KiB.
fn rss_kib() -> usize {
    let statm = std::fs::read_to_string("/proc/self/statm").unwrap();
    let pages: usize = statm.split(' ').nth(1).unwrap().parse().unwrap();
    pages * 4
}

/// Pipeline `frames` `+1` writes on one object down a connection nobody
/// reads from. The chain outbox full → driver parks → inbox full → reads
/// stop → socket buffers full must stop the writer before it has sent
/// everything, with the server holding next to nothing; a reader that then
/// drains the connection sees every value, in order.
fn writer_stalls_and_reader_drains(frames: usize, rss_bound_kib: usize) {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = stream.try_clone().unwrap();
    let plus_one = Request::Access {
        handle: 1,
        obj: 0,
        write: true,
        delta: 1,
    };
    let chunk: Vec<u8> = (0..1000).flat_map(|_| plus_one.encode()).collect();
    let total = Request::Begin.encode().len() + frames / 1000 * chunk.len();
    let sent = AtomicUsize::new(0);
    let rss_before = rss_kib();

    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut stream = &stream;
            stream.write_all(&Request::Begin.encode()).unwrap();
            sent.fetch_add(Request::Begin.encode().len(), Ordering::SeqCst);
            for _ in 0..frames / 1000 {
                stream.write_all(&chunk).unwrap();
                sent.fetch_add(chunk.len(), Ordering::SeqCst);
            }
        });

        // Flat for half a second, short of the total: the writer is stuck
        // in `write`.
        let deadline = Instant::now() + Duration::from_secs(120);
        let (mut last, mut flat_since) = (0, Instant::now());
        while flat_since.elapsed() < Duration::from_millis(500) {
            std::thread::sleep(Duration::from_millis(20));
            let now = sent.load(Ordering::SeqCst);
            assert!(
                now < total,
                "all {total} bytes sent: the writer never stalled"
            );
            assert!(Instant::now() < deadline, "writer still moving after 120 s");
            if now != last {
                (last, flat_since) = (now, Instant::now());
            }
        }
        let grown = rss_kib().saturating_sub(rss_before);
        eprintln!("stalled after {last} of {total} bytes; resident set grew {grown} KiB");
        assert!(
            grown < rss_bound_kib,
            "resident set grew {grown} KiB with the writer stalled"
        );

        // `Handle(1)` for the `Begin`, then the counter's values in order.
        let answers = frames / 1000 * 1000 + 1;
        let (mut buf, mut seen) = (Vec::new(), 0);
        let mut tmp = vec![0u8; 64 * 1024];
        while seen < answers {
            let n = reader.read(&mut tmp).unwrap();
            assert!(n > 0, "hangup after {seen} answers");
            buf.extend_from_slice(&tmp[..n]);
            let mut at = 0;
            while let Some(len) = buf.get(at..at + 4) {
                let end = at + 4 + u32::from_le_bytes(len.try_into().unwrap()) as usize;
                let Some(body) = buf.get(at + 4..end) else {
                    break;
                };
                let expected = match seen {
                    0 => Response::Handle(1),
                    v => Response::Value(v as i64),
                };
                assert_eq!(Response::decode(body), Ok(expected));
                (at, seen) = (end, seen + 1);
            }
            buf.drain(..at);
        }
        writer.join().unwrap();
    });

    drop((stream, reader));
    wait_until("the session to retire", || server.live_sessions() == 0);
    assert_eq!(server.manager().queued_waiters(), 0);
    server.drain();
}

/// Sized for a debug build. On this host (`tcp_rmem` / `tcp_wmem` maxima
/// 32 MB / 4 MB) the writer stalls 520k frames in with the resident set
/// 0.1 MiB up; the poll-and-sleep server this replaced took all 800k
/// without a pause and grew by 33 MiB.
#[test]
fn unread_responses_stall_the_writer() {
    writer_stalls_and_reader_drains(800_000, 8 * 1024);
}

/// Enough frames to outlast socket buffers autotuned to their maxima.
#[test]
#[ignore = "pipelines 4M frames; run in release"]
fn full_size_unread_responses_stall_the_writer() {
    writer_stalls_and_reader_drains(4_000_000, 8 * 1024);
}
