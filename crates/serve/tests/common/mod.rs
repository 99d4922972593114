//! Helpers shared by the integration tests (each file is its own crate,
//! and not every one uses every helper).
#![allow(dead_code)]

use std::time::{Duration, Instant};

/// Poll `cond` every millisecond; panic if it is still false after 5 s.
pub fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// CPU time, in clock ticks (10 ms), from the text of a `/proc/…/stat`
/// file: utime + stime, fields 14 and 15. The name, field 2, may hold
/// spaces but ends at the last `)`.
pub fn cpu_ticks(stat: &str) -> u64 {
    let after_name = &stat[stat.rfind(')').expect("stat has a name") + 2..];
    let fields = after_name.split(' ').skip(11).take(2);
    fields.map(|t| t.parse::<u64>().expect("tick count")).sum()
}
