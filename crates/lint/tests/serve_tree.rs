//! The serving layer under the lint: `crates/serve` (executor, reactors,
//! wire server) must keep the workspace's lock discipline — every
//! `Relaxed` audited, every `unsafe` justified, no guard across a suspend
//! point and no blocking call where the executor polls a task or a
//! reactor polls a driver. It has no `cfg(loom)` build and so no sync
//! shim: R1 does not apply.

use std::path::Path;

#[test]
fn serve_tree_is_clean() {
    let serve = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("crates/")
        .join("serve");
    let report = ntx_lint::lint_crate(&serve).expect("read serve sources");
    assert!(
        report.files >= 6,
        "expected to lint the whole serve crate (lib, executor, wire, server, sys, client, bin)"
    );
    assert!(report.violations.is_empty(), "\n{report}");
}

#[test]
fn serve_allowlist_is_minimal_and_live() {
    let serve = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("crates/")
        .join("serve");
    let allow = std::fs::read_to_string(serve.join("relaxed-allowlist.txt"))
        .expect("crates/serve/relaxed-allowlist.txt");
    let tags = ntx_lint::parse_allowlist(&allow);
    // The executor is deliberately SeqCst-first; only the spawn cursor is
    // allowed to relax. Growing this list needs a documented audit.
    assert_eq!(
        tags.into_iter().collect::<Vec<_>>(),
        vec!["spawn-cursor".to_string()],
        "unexpected relaxed-allowlist growth in ntx-serve"
    );
}
