//! Lint the whole workspace: every member crate's `src/` tree must be
//! clean under R1–R8, through the one workspace loader (R8).
//!
//! `runtime_tree.rs` and `serve_tree.rs` pin those two crates' reports in
//! detail (allowlist contents included); this test is the wide net — the
//! bench, sim, conform, model, automata, tree, and hb crates ride the
//! same rules (R1 wherever a crate keeps a `src/sync.rs` shim), so a
//! regression anywhere in the workspace fails here with the full
//! violation list.

use ntx_lint::lint_workspace;
use std::path::Path;

/// Every workspace member with linted sources (vendored stand-ins are
/// explicitly out of scope: they mirror external crates' APIs).
const MEMBERS: &[&str] = &[
    "crates/automata",
    "crates/bench",
    "crates/conform",
    "crates/hb",
    "crates/lint",
    "crates/model",
    "crates/runtime",
    "crates/serve",
    "crates/sim",
    "crates/tree",
];

#[test]
fn whole_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_workspace(&root, MEMBERS).expect("workspace sources readable");
    assert!(
        report.files > 40,
        "sanity: the workspace walk must actually visit the member crates \
         (saw {} files)",
        report.files
    );
    assert!(
        report.violations.is_empty(),
        "workspace lint violations:\n{report}"
    );
}
