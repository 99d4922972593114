//! `ntx-lint`: the workspace's lock-discipline lint.
//!
//! Eight rules keep the sharded runtime — and, since the async era, the
//! executor and server riding on it — honest about their concurrency
//! contract (each is documented on [`Rule`]):
//!
//! - **R1 sync-import** — in a crate with a `crate::sync` shim (the
//!   runtime), synchronisation primitives come only from it, so
//!   `RUSTFLAGS="--cfg loom"` really swaps *every* primitive under the
//!   model checker.
//! - **R2 safety-comment** — every `unsafe` carries a `// SAFETY:`.
//! - **R3 relaxed-ordering** — `Ordering::Relaxed` only at sites with a
//!   `// relaxed(tag): justification` marker whose tag is recorded in
//!   the crate's `relaxed-allowlist.txt`.
//! - **R4 lock-order** — the documented order (object-slot mutex ≺
//!   wait-graph mutex; serve connection locks as leaves) is structurally
//!   enforced: wait-graph code never touches slots, serve code stays
//!   leaf-only, and no public function leaks a `MutexGuard`.
//! - **R5 guard-across-suspend** — no lock guard live across `.await`, a
//!   park, or a `Poll::Pending` return.
//! - **R6 blocking-in-worker** — no blocking calls inside executor worker
//!   task context (`// R6-OK(reason):` to waive).
//! - **R7 drop-state-machine** — a `Drop` impl on a CAS-state-machine
//!   type must touch its state field or carry `// DROP-SAFETY:`.
//! - **R8 allowlist-staleness** — every crate's relaxed allowlist loads
//!   through one loader and dead entries are errors, workspace-wide
//!   ([`lint_workspace`]).
//!
//! There is no `syn` in this offline workspace, so the lint runs on a
//! small masking lexer ([`lexer`]) rather than a full parse: comments and
//! string bodies are blanked, then the rules are line-based token checks.
//! That makes the lint auditable and fast, at the cost of being
//! best-effort — it is a tripwire for discipline drift, not a verifier.
//!
//! It runs as a normal `cargo test -p ntx-lint`: unit tests prove each
//! rule fires on seeded violations, and the `runtime_tree` integration
//! test lints the real `crates/runtime` sources.

pub mod lexer;
pub mod rules;

use std::collections::BTreeSet;
use std::path::Path;

pub use rules::{Config, FileReport, Rule, Violation};

/// Aggregate result of linting a crate tree.
#[derive(Debug, Default)]
pub struct TreeReport {
    /// Violations across all files, plus one per stale allowlist entry.
    pub violations: Vec<Violation>,
    /// Number of `.rs` files linted.
    pub files: usize,
}

impl std::fmt::Display for TreeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for v in &self.violations {
            writeln!(f, "{v}")?;
        }
        write!(
            f,
            "{} violation(s) across {} file(s)",
            self.violations.len(),
            self.files
        )
    }
}

/// Parse a `relaxed-allowlist.txt`: one `tag: justification` per line,
/// `#` comments and blank lines ignored.
pub fn parse_allowlist(text: &str) -> BTreeSet<String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split_once(':'))
        .map(|(tag, _)| tag.trim().to_string())
        .collect()
}

/// Lint every `.rs` file under `crate_root/src` (recursively) against the
/// crate's `relaxed-allowlist.txt`, including the staleness check: a tag
/// allowlisted but no longer used anywhere is itself a violation.
pub fn lint_crate(crate_root: &Path) -> std::io::Result<TreeReport> {
    let allow_path = crate_root.join("relaxed-allowlist.txt");
    let allow = match std::fs::read_to_string(&allow_path) {
        Ok(text) => parse_allowlist(&text),
        Err(_) => BTreeSet::new(),
    };
    let config = Config::workspace(allow.clone());
    // R1 guards the `cfg(loom)` swap, so it holds only where a shim is.
    let has_shim = crate_root.join("src/sync.rs").is_file();

    let mut files = Vec::new();
    collect_rs(&crate_root.join("src"), &mut files)?;
    files.sort();

    let mut report = TreeReport::default();
    let mut used = BTreeSet::new();
    for path in &files {
        let src = std::fs::read_to_string(path)?;
        let label = path.display().to_string();
        let fr = rules::lint_source(&label, &src, &config);
        report.violations.extend(
            fr.violations
                .into_iter()
                .filter(|v| has_shim || v.rule != Rule::SyncImport),
        );
        used.extend(fr.used_relaxed_tags);
        report.files += 1;
    }
    for stale in allow.difference(&used) {
        report.violations.push(Violation {
            file: allow_path.display().to_string(),
            line: 0,
            rule: Rule::AllowlistStale,
            msg: format!("allowlisted tag `{stale}` is no longer used by any source file"),
        });
    }
    Ok(report)
}

/// Lint several crates of one workspace in a single pass (R8): every
/// crate's `relaxed-allowlist.txt` goes through the same loader
/// ([`parse_allowlist`] via [`lint_crate`]), so the staleness guarantee —
/// dead entries are errors — holds uniformly across runtime, serve, and
/// every other member. Returns the concatenated report.
pub fn lint_workspace(root: &Path, crates: &[&str]) -> std::io::Result<TreeReport> {
    let mut total = TreeReport::default();
    for name in crates {
        let r = lint_crate(&root.join(name))?;
        total.violations.extend(r.violations);
        total.files += r.files;
    }
    Ok(total)
}

fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rules::lint_source;

    fn cfg_with(tags: &[&str]) -> Config {
        Config::workspace(tags.iter().map(|t| t.to_string()).collect())
    }

    fn rules_hit(report: &FileReport) -> Vec<Rule> {
        report.violations.iter().map(|v| v.rule).collect()
    }

    // ---- R1: sync imports --------------------------------------------

    #[test]
    fn r1_flags_direct_std_sync_import() {
        let r = lint_source(
            "src/foo.rs",
            "use std::sync::Mutex;\nfn f() {}\n",
            &cfg_with(&[]),
        );
        assert_eq!(rules_hit(&r), vec![Rule::SyncImport]);
        assert_eq!(r.violations[0].line, 1);
    }

    #[test]
    fn r1_flags_parking_lot_and_qualified_loom() {
        let src = "use parking_lot::RwLock;\nfn f() { loom::model(|| {}); }\n";
        let r = lint_source("src/foo.rs", src, &cfg_with(&[]));
        assert_eq!(rules_hit(&r), vec![Rule::SyncImport, Rule::SyncImport]);
    }

    #[test]
    fn r1_exempts_the_shim_and_loom_models() {
        let src = "use std::sync::Mutex;\nuse loom::sync::Condvar;\n";
        for file in [
            "crates/runtime/src/sync.rs",
            "crates/runtime/src/loom_models.rs",
        ] {
            let r = lint_source(file, src, &cfg_with(&[]));
            assert!(r.violations.is_empty(), "{file} must be exempt");
        }
    }

    #[test]
    fn r1_applies_only_to_crates_with_a_shim() {
        let root = std::env::temp_dir().join(format!("ntx-lint-r1-{}", std::process::id()));
        for (name, shim) in [("with", true), ("without", false)] {
            let src = root.join(name).join("src");
            std::fs::create_dir_all(&src).unwrap();
            std::fs::write(src.join("lib.rs"), "use std::sync::Mutex;\n").unwrap();
            if shim {
                std::fs::write(src.join("sync.rs"), "pub(crate) use std::sync::Mutex;\n").unwrap();
            }
            let rules: Vec<Rule> = lint_crate(&root.join(name))
                .unwrap()
                .violations
                .iter()
                .map(|v| v.rule)
                .collect();
            let want = if shim { vec![Rule::SyncImport] } else { vec![] };
            assert_eq!(rules, want, "R1 in the crate {name} a shim");
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn r1_exempts_cfg_test_modules() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::sync::Barrier;\n}\n";
        let r = lint_source("src/foo.rs", src, &cfg_with(&[]));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn r1_ignores_comments_and_strings() {
        let src = "// std::sync is banned here\nfn f() { g(\"parking_lot\"); }\n";
        let r = lint_source("src/foo.rs", src, &cfg_with(&[]));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    // ---- R2: SAFETY comments -----------------------------------------

    #[test]
    fn r2_flags_unsafe_without_safety_comment() {
        let src = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        let r = lint_source("src/foo.rs", src, &cfg_with(&[]));
        assert_eq!(rules_hit(&r), vec![Rule::SafetyComment]);
        assert_eq!(r.violations[0].line, 2);
    }

    #[test]
    fn r2_accepts_safety_comment_above_or_inline() {
        let src = "\
fn f(p: *const u8) -> u8 {
    // SAFETY: caller guarantees p is valid.
    unsafe { *p }
}
// SAFETY: no shared state.
unsafe impl Send for F {}
struct F;
";
        let r = lint_source("src/foo.rs", src, &cfg_with(&[]));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn r2_applies_inside_test_modules_too() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(p: *const u8) -> u8 { unsafe { *p } }\n}\n";
        let r = lint_source("src/foo.rs", src, &cfg_with(&[]));
        assert_eq!(rules_hit(&r), vec![Rule::SafetyComment]);
    }

    #[test]
    fn r2_ignores_unsafe_in_prose() {
        let src = "// this API is unsafe to misuse\nfn f() { g(\"unsafe\"); }\n";
        let r = lint_source("src/foo.rs", src, &cfg_with(&[]));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    // ---- R3: Relaxed allowlist ---------------------------------------

    #[test]
    fn r3_flags_unmarked_relaxed() {
        let src = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
        let r = lint_source("src/foo.rs", src, &cfg_with(&["ctr"]));
        assert_eq!(rules_hit(&r), vec![Rule::RelaxedOrdering]);
    }

    #[test]
    fn r3_flags_unknown_tag() {
        let src = "// relaxed(mystery): trust me\nlet x = c.load(Ordering::Relaxed);\n";
        let r = lint_source("src/foo.rs", src, &cfg_with(&["ctr"]));
        assert_eq!(rules_hit(&r), vec![Rule::RelaxedOrdering]);
        assert!(r.violations[0].msg.contains("mystery"));
    }

    #[test]
    fn r3_accepts_allowlisted_tag_and_records_usage() {
        let src = "\
fn f(c: &AtomicU64) {
    // relaxed(ctr): pure counter, atomicity is enough.
    let _ = c
        .fetch_add(1, Ordering::Relaxed);
}
";
        let r = lint_source("src/foo.rs", src, &cfg_with(&["ctr"]));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert!(r.used_relaxed_tags.contains("ctr"));
    }

    #[test]
    fn r3_marker_does_not_leak_across_statements() {
        let src = "\
// relaxed(ctr): covers only the next statement.
let a = c.load(Ordering::Relaxed);
let b = c.load(Ordering::Relaxed);
";
        let r = lint_source("src/foo.rs", src, &cfg_with(&["ctr"]));
        assert_eq!(rules_hit(&r), vec![Rule::RelaxedOrdering]);
        assert_eq!(r.violations[0].line, 3);
    }

    #[test]
    fn r3_skips_test_modules() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { c.load(Ordering::Relaxed); }\n}\n";
        let r = lint_source("src/foo.rs", src, &cfg_with(&[]));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    // ---- R4: lock order ----------------------------------------------

    #[test]
    fn r4_flags_slot_access_from_wait_graph_code() {
        let src = "fn bad(&self, m: &M) { let g = m.slot(3).inner.lock(); drop(g); }\n";
        let r = lint_source("src/deadlock.rs", src, &cfg_with(&[]));
        assert!(
            rules_hit(&r).contains(&Rule::LockOrder),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn r4_accepts_graph_code_that_stays_off_slots() {
        let src = "fn good(&self, top: u64) { let g = self.tops.lock(); drop(g); }\n";
        let r = lint_source("src/deadlock.rs", src, &cfg_with(&[]));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn r4_flags_public_guard_escape_anywhere() {
        let src = "pub fn guard(&self) -> MutexGuard<'_, State> { self.m.lock() }\n";
        let r = lint_source("src/object.rs", src, &cfg_with(&[]));
        assert_eq!(rules_hit(&r), vec![Rule::LockOrder]);
    }

    // ---- R4 (serve locks) --------------------------------------------

    #[test]
    fn r4_serve_flags_coupled_lock_acquisition() {
        let src = "fn bad(&self) { f(self.requests.lock(), conn.inbox.lock()); }\n";
        let r = lint_source("src/server.rs", src, &cfg_with(&[]));
        assert_eq!(rules_hit(&r), vec![Rule::LockOrder]);
        assert!(r.violations[0].msg.contains("one at a time"));
    }

    #[test]
    fn r4_serve_accepts_one_lock_per_statement() {
        let src = "\
fn good(&self) {
    let n = self.requests.lock().len();
    let msg = conn.inbox.lock().pop();
    conn.outbox.lock().push(msg);
}
";
        let r = lint_source("src/server.rs", src, &cfg_with(&[]));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn r4_serve_flags_locking_under_a_held_guard() {
        // Directly, and through the two helpers that lock inside.
        for nested in [
            "self.inbox.lock().clear();",
            "self.wake_driver();",
            "core.request(self.token);",
        ] {
            let src = format!(
                "fn bad(&self) {{\n    let mut out = self.outbox.lock();\n    {nested}\n}}\n"
            );
            let r = lint_source("src/server.rs", &src, &cfg_with(&[]));
            assert_eq!(rules_hit(&r), vec![Rule::LockOrder], "{nested}");
            assert!(r.violations[0].msg.contains("`out`"), "{nested}");
        }
    }

    #[test]
    fn r4_serve_accepts_write_under_the_outbox_guard_and_wake_after_it() {
        let src = "\
fn flush(&self) {
    let reopened = {
        let mut out = self.outbox.lock();
        let n = (&self.stream).write(&out).unwrap_or(0);
        out.drain(..n);
        out.is_empty()
    };
    if reopened {
        self.wake_driver();
    }
}
";
        let r = lint_source("src/server.rs", src, &cfg_with(&[]));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    // ---- R5: guards across suspend points ----------------------------

    #[test]
    fn r5_flags_guard_live_across_await() {
        let src = "\
async fn f(&self) {
    let q = self.queue.lock();
    self.notify().await;
}
";
        let r = lint_source("src/foo.rs", src, &cfg_with(&[]));
        assert_eq!(rules_hit(&r), vec![Rule::GuardAcrossSuspend]);
        assert!(r.violations[0].msg.contains("`q`"));
        assert_eq!(r.violations[0].line, 3);
    }

    #[test]
    fn r5_flags_guard_live_across_pending_return_and_park() {
        let src = "\
fn poll(&self) -> Poll<()> {
    let st = self.state.lock();
    if st.blocked { return Poll::Pending; }
    drop(st);
    let g = self.other.lock();
    std::thread::park();
    Poll::Ready(())
}
";
        let r = lint_source("src/foo.rs", src, &cfg_with(&[]));
        let hits = rules_hit(&r);
        assert_eq!(
            hits,
            vec![Rule::GuardAcrossSuspend, Rule::GuardAcrossSuspend],
            "{:?}",
            r.violations
        );
        assert_eq!(r.violations[0].line, 3); // `st` across the Pending return
        assert_eq!(r.violations[1].line, 6); // `g` across the park
    }

    #[test]
    fn r5_accepts_guard_dropped_before_suspending() {
        let src = "\
async fn f(&self) {
    let q = self.queue.lock();
    let next = q.front();
    drop(q);
    self.notify().await;
}
";
        let r = lint_source("src/foo.rs", src, &cfg_with(&[]));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn r5_accepts_guard_released_by_scope_exit() {
        let src = "\
async fn f(&self) {
    {
        let q = self.queue.lock();
        q.push(1);
    }
    self.notify().await;
}
";
        let r = lint_source("src/foo.rs", src, &cfg_with(&[]));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn r5_pending_match_arm_pattern_is_not_a_suspend() {
        // Inspecting a poll result (`Poll::Pending =>` as an arm pattern)
        // does not suspend the caller — the executor's poll_task does
        // exactly this with the future-slot guard live.
        let src = "\
fn poll_once(&self) {
    let slot = self.future.lock();
    match poll(&slot) {
        Poll::Pending => {}
        Poll::Ready(v) => finish(v),
    }
}
";
        let r = lint_source("src/foo.rs", src, &cfg_with(&[]));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn r5_skips_test_modules() {
        let src = "\
#[cfg(test)]
mod tests {
    async fn f(&self) {
        let q = self.queue.lock();
        g().await;
    }
}
";
        let r = lint_source("src/foo.rs", src, &cfg_with(&[]));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    // ---- R6: blocking calls in worker context ------------------------

    #[test]
    fn r6_flags_blocking_call_in_poll_task() {
        let src = "\
fn poll_task(&self, t: &Task) {
    let v = self.chan.recv();
    run(v);
}
";
        let r = lint_source("src/executor.rs", src, &cfg_with(&[]));
        assert_eq!(rules_hit(&r), vec![Rule::BlockingInWorker]);
        assert!(r.violations[0].msg.contains(".recv()"));
    }

    #[test]
    fn r6_waiver_comment_excuses_a_bounded_block() {
        let src = "\
fn poll_task(&self, t: &Task) {
    // R6-OK(shutdown): joining a finished thread, provably bounded.
    h.join();
}
";
        // `.join()` with no `()`-call match — use the exact needle form.
        let src = src.replace("h.join();", "let _ = h.join();");
        let r = lint_source("src/executor.rs", &src, &cfg_with(&[]));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn r6_blocking_is_fine_outside_worker_fns() {
        let src = "\
fn worker_loop(&self) {
    let mut q = self.queue.lock();
    self.cv.wait(&mut q);
}
fn poll_task(&self, t: &Task) { run(t); }
fn after(&self) { h.join().unwrap(); }
";
        let r = lint_source("src/executor.rs", src, &cfg_with(&[]));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    // ---- R7: Drop on CAS state machines ------------------------------

    #[test]
    fn r7_flags_drop_that_ignores_the_state_cas() {
        let src = "\
impl Drop for Access {
    fn drop(&mut self) {
        self.mgr.log(\"dropped\");
    }
}
";
        let r = lint_source("src/future.rs", src, &cfg_with(&[]));
        assert_eq!(rules_hit(&r), vec![Rule::DropStateMachine]);
        assert!(r.violations[0].msg.contains("Access"));
        assert_eq!(r.violations[0].line, 1);
    }

    #[test]
    fn r7_accepts_drop_that_touches_state() {
        let src = "\
impl Drop for Access {
    fn drop(&mut self) {
        match self.stage.swap(DONE) {
            GRANTED => self.release(),
            _ => {}
        }
    }
}
";
        let r = lint_source("src/future.rs", src, &cfg_with(&[]));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn r7_accepts_an_explicit_waiver() {
        let src = "\
// DROP-SAFETY: the manager's shutdown already withdrew this ticket.
impl Drop for TurnstileTicket {
    fn drop(&mut self) {
        self.mgr.log(\"dropped\");
    }
}
";
        let r = lint_source("src/turnstile.rs", src, &cfg_with(&[]));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn r7_ignores_drop_on_unlisted_types() {
        let src = "impl Drop for PlainBuffer {\n    fn drop(&mut self) {}\n}\n";
        let r = lint_source("src/foo.rs", src, &cfg_with(&[]));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    // ---- R8: allowlist staleness -------------------------------------

    #[test]
    fn r8_stale_allowlist_entry_is_an_error() {
        let dir = std::env::temp_dir().join(format!("ntx-lint-r8-{}", std::process::id()));
        let src_dir = dir.join("src");
        std::fs::create_dir_all(&src_dir).unwrap();
        std::fs::write(
            dir.join("relaxed-allowlist.txt"),
            "live: used below\nstale: nothing references this tag\n",
        )
        .unwrap();
        std::fs::write(
            src_dir.join("lib.rs"),
            "fn f(c: &AtomicU64) {\n    // relaxed(live): counter.\n    c.load(Ordering::Relaxed);\n}\n",
        )
        .unwrap();

        let r = lint_crate(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let hits: Vec<Rule> = r.violations.iter().map(|v| v.rule).collect();
        assert_eq!(hits, vec![Rule::AllowlistStale], "{:?}", r.violations);
        assert!(r.violations[0].msg.contains("stale"));
        assert!(r.violations[0].file.ends_with("relaxed-allowlist.txt"));
    }

    #[test]
    fn r8_lint_workspace_concatenates_member_reports() {
        let root = std::env::temp_dir().join(format!("ntx-lint-ws-{}", std::process::id()));
        for (member, tag) in [("a", "a-tag"), ("b", "b-tag")] {
            let src_dir = root.join(member).join("src");
            std::fs::create_dir_all(&src_dir).unwrap();
            std::fs::write(
                root.join(member).join("relaxed-allowlist.txt"),
                format!("{tag}: dead in both members\n"),
            )
            .unwrap();
            std::fs::write(src_dir.join("lib.rs"), "fn f() {}\n").unwrap();
        }

        let r = lint_workspace(&root, &["a", "b"]).unwrap();
        std::fs::remove_dir_all(&root).unwrap();
        assert_eq!(r.files, 2);
        assert_eq!(
            r.violations.iter().map(|v| v.rule).collect::<Vec<_>>(),
            vec![Rule::AllowlistStale, Rule::AllowlistStale]
        );
    }

    // ---- allowlist parsing -------------------------------------------

    #[test]
    fn allowlist_parses_tags_and_skips_comments() {
        let tags = parse_allowlist("# header\n\nctr: why\n  other-tag : because\n");
        assert_eq!(
            tags.into_iter().collect::<Vec<_>>(),
            vec!["ctr".to_string(), "other-tag".to_string()]
        );
    }
}
