//! The four lock-discipline rules.
//!
//! All rules are line-based best-effort checks over the masked source (see
//! [`crate::lexer`]): precise enough to catch every realistic violation in
//! this workspace, simple enough to audit by eye. Each rule documents the
//! invariant it protects and the escape hatch for legitimate exceptions.

use std::collections::BTreeSet;
use std::fmt;

use crate::lexer::{mask, test_regions};

/// Which rule a [`Violation`] broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// R1: in a crate with a `src/sync.rs` shim (the runtime, the one
    /// crate with a `cfg(loom)` build), synchronisation primitives are
    /// imported only through `crate::sync` — never `std::sync`,
    /// `parking_lot`, or `loom` directly. The shim is what makes the crate
    /// model-checkable: a direct import would silently escape loom's
    /// schedule exploration.
    SyncImport,
    /// R2: every `unsafe` block or impl carries a `// SAFETY:` comment on
    /// it or immediately above it.
    SafetyComment,
    /// R3: `Ordering::Relaxed` appears only next to a
    /// `// relaxed(<tag>): <justification>` marker whose tag is in the
    /// crate's `relaxed-allowlist.txt`.
    RelaxedOrdering,
    /// R4: the documented lock order — object-slot mutex ≺ the per-top
    /// wait-for records, taken in top-id order — is never inverted:
    /// wait-graph code (which holds record mutexes) must not reach into
    /// object slots.
    LockOrder,
    /// R5: no lock guard may be live across a suspend point — an `.await`,
    /// a park (the blocking driver's `Parker::park`, `thread::park`), or a
    /// `Poll::Pending` return out of a `poll`. A guard captured across
    /// suspension is held for an unbounded schedule gap and deadlocks the
    /// waker that needs the same lock to deliver the wake.
    GuardAcrossSuspend,
    /// R6: no blocking calls (`thread::sleep`, parks, channel receives,
    /// condvar waits, `join`) where a thread polls session futures — the
    /// executor's `poll_task` and the serve reactor's `poll_driver`. A
    /// blocked worker freezes every session multiplexed onto it.
    /// Legitimate exceptions carry `// R6-OK(reason):`.
    BlockingInWorker,
    /// R7: a `Drop` impl on a CAS-state-machine type must consume or test
    /// its state field (the drop/grant/timeout race is arbitrated by that
    /// CAS, and a drop that ignores it leaks queue nodes or double-frees a
    /// grant) — or carry an explicit `// DROP-SAFETY:` comment.
    DropStateMachine,
    /// R8: relaxed-allowlist staleness, workspace-wide: every crate's
    /// allowlist goes through the one loader, and an allowlisted tag no
    /// source file uses any more is an error — the audit cannot rot.
    AllowlistStale,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Rule::SyncImport => "R1/sync-import",
            Rule::SafetyComment => "R2/safety-comment",
            Rule::RelaxedOrdering => "R3/relaxed-ordering",
            Rule::LockOrder => "R4/lock-order",
            Rule::GuardAcrossSuspend => "R5/guard-across-suspend",
            Rule::BlockingInWorker => "R6/blocking-in-worker",
            Rule::DropStateMachine => "R7/drop-state-machine",
            Rule::AllowlistStale => "R8/allowlist-staleness",
        };
        f.write_str(s)
    }
}

/// One finding: file, 1-based line, rule, and a human message.
#[derive(Debug, Clone)]
pub struct Violation {
    /// File the violation is in (as labelled by the caller).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule broken.
    pub rule: Rule,
    /// What is wrong and how to fix it.
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// Lint configuration: exemptions and the Relaxed tag allowlist.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// File-name suffixes exempt from R1 (the shim itself, and the loom
    /// models that must name `loom::` APIs).
    pub sync_exempt: Vec<String>,
    /// Tags allowed in `// relaxed(tag):` markers.
    pub relaxed_tags: BTreeSet<String>,
    /// Function names whose bodies poll session futures on a shared
    /// thread: blocking calls inside them break every multiplexed session
    /// (R6).
    pub worker_fns: Vec<String>,
    /// R7's state map: CAS-state-machine type name → the state-field
    /// tokens its `Drop` impl must touch (any one suffices).
    pub drop_state: Vec<(String, Vec<String>)>,
}

impl Config {
    /// The workspace's standard configuration, with the given allowlist.
    pub fn workspace(relaxed_tags: BTreeSet<String>) -> Config {
        Config {
            sync_exempt: vec!["src/sync.rs".into(), "src/loom_models.rs".into()],
            relaxed_tags,
            worker_fns: vec!["poll_task".into(), "poll_driver".into()],
            drop_state: vec![
                ("Access".into(), vec!["stage".into()]),
                ("TurnstileTicket".into(), vec!["commit_ts".into()]),
            ],
        }
    }
}

/// Result of linting one file: findings plus the relaxed tags it used
/// (for allowlist staleness checks across the tree).
#[derive(Debug, Default)]
pub struct FileReport {
    /// All violations found, in line order.
    pub violations: Vec<Violation>,
    /// Every allowlisted tag referenced by a `// relaxed(tag):` marker.
    pub used_relaxed_tags: BTreeSet<String>,
}

/// True if `line` contains `word` bounded by non-identifier characters.
fn has_token(line: &str, word: &str) -> bool {
    let b = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let left_ok = start == 0 || !(b[start - 1].is_ascii_alphanumeric() || b[start - 1] == b'_');
        let right_ok = end >= b.len() || !(b[end].is_ascii_alphanumeric() || b[end] == b'_');
        if left_ok && right_ok {
            return true;
        }
        from = end;
    }
    false
}

/// Extract the tag of a `relaxed(<tag>)` marker on `raw`, if any.
fn relaxed_marker(raw: &str) -> Option<&str> {
    let at = raw.find("relaxed(")?;
    let rest = &raw[at + "relaxed(".len()..];
    let close = rest.find(')')?;
    Some(rest[..close].trim())
}

/// How far up a marker/SAFETY comment search walks before giving up.
const LOOKBACK: usize = 8;

/// Search `raw_lines[line]` and the preceding lines of the same statement
/// (stopping at `;`, `{`, or `}` in masked code) for `pred`.
fn find_upward<'a, T>(
    raw_lines: &'a [&str],
    masked_lines: &[&str],
    line: usize,
    pred: impl Fn(&'a str) -> Option<T>,
) -> Option<T> {
    if let Some(t) = pred(raw_lines[line]) {
        return Some(t);
    }
    for back in 1..=LOOKBACK.min(line) {
        let i = line - back;
        if let Some(t) = pred(raw_lines[i]) {
            return Some(t);
        }
        // A statement/item boundary ends the search — but only after the
        // line itself was checked (markers may trail the boundary line).
        if masked_lines[i].contains([';', '{', '}']) {
            break;
        }
    }
    None
}

fn in_regions(regions: &[(usize, usize)], line: usize) -> bool {
    regions.iter().any(|&(a, b)| a <= line && line <= b)
}

/// A `let`-bound lock guard tracked by R5.
struct LiveGuard {
    name: String,
    /// Brace depth the binding lives at; the guard dies when the scope
    /// closes (or at an explicit `drop(name)`).
    depth: usize,
    line: usize,
}

/// Extract the binding name of a `let <name> = ….lock()` on this masked
/// line, if any (single-line bindings only — the realistic shape).
fn guard_binding(code: &str) -> Option<String> {
    if !code.contains(".lock()") {
        return None;
    }
    let at = code.find("let ")?;
    let rest = code[at + 4..].trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    // Unwrap the common fallible-binding patterns of `if let`/`while let`.
    let rest = rest
        .strip_prefix("Some(")
        .or_else(|| rest.strip_prefix("Ok("))
        .unwrap_or(rest);
    let name: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty() && name != "_").then_some(name)
}

/// The suspend token on this masked line, if any: an `.await`, a waiter
/// park, or a `Poll::Pending` *produced* (returned or yielded by a match
/// arm — `Poll::Pending =>` as an arm *pattern* merely inspects one).
fn suspend_token(code: &str) -> Option<&'static str> {
    if code.contains(".await") {
        return Some(".await");
    }
    if code.contains("return Poll::Pending") || code.contains("=> Poll::Pending") {
        return Some("Poll::Pending");
    }
    for park in [".park(", "park_timeout(", "thread::park"] {
        if code.contains(park) {
            return Some("park");
        }
    }
    None
}

/// Calls that block the calling thread (R6's ban list for worker task
/// context). Lock acquisitions are deliberately absent: short leaf-ordered
/// mutexes are the workspace's bread and butter; what a worker must never
/// do is sleep, park, join, or wait on I/O or a channel.
const BLOCKING_CALLS: &[&str] = &[
    "thread::sleep",
    "thread::park",
    "park_timeout(",
    ".join()",
    ".recv()",
    ".recv_timeout(",
    ".wait(",
    ".wait_for(",
    "File::open",
    "File::create",
    "read_to_string(",
];

/// Lint one file's source text. `file` is the label used in findings and
/// for per-file rules (R1 exemptions match on suffix; R4's graph rule
/// applies to `deadlock.rs`).
pub fn lint_source(file: &str, src: &str, config: &Config) -> FileReport {
    let masked = mask(src);
    let tests = test_regions(&masked);
    let raw_lines: Vec<&str> = src.lines().collect();
    let masked_lines: Vec<&str> = masked.lines().collect();
    let mut report = FileReport::default();

    let sync_exempt = config
        .sync_exempt
        .iter()
        .any(|s| file.ends_with(s.as_str()));
    let is_wait_graph = file.ends_with("deadlock.rs");

    // Scope state for R5/R6: brace depth, live guards, and worker-fn
    // region entry depths.
    let mut depth = 0usize;
    let mut guards: Vec<LiveGuard> = Vec::new();
    let mut worker_entry: Vec<usize> = Vec::new();

    for (i, code) in masked_lines.iter().enumerate() {
        let in_test = in_regions(&tests, i);
        let depth_before = depth;
        let opens = code.matches('{').count();
        let closes = code.matches('}').count();
        depth = (depth + opens).saturating_sub(closes);

        // R5: a live guard across a suspend point. Checked before the
        // line's scope exits are applied to the guard set, so a suspend
        // and a close brace on one line still see the guard.
        if !in_test {
            if let Some(tok) = suspend_token(code) {
                for g in &guards {
                    report.violations.push(Violation {
                        file: file.into(),
                        line: i + 1,
                        rule: Rule::GuardAcrossSuspend,
                        msg: format!(
                            "lock guard `{}` (bound on line {}) is live across a \
                             suspend point (`{tok}`); drop it before suspending — \
                             the waker that resolves this suspension may need the \
                             same lock",
                            g.name,
                            g.line + 1
                        ),
                    });
                }
            }
            guards.retain(|g| !code.contains(&format!("drop({})", g.name)));
            if let Some(name) = guard_binding(code) {
                guards.push(LiveGuard {
                    name,
                    depth,
                    line: i,
                });
            }
        }
        guards.retain(|g| depth >= g.depth);

        // R6: worker task context tracking and blocking-call ban.
        if config
            .worker_fns
            .iter()
            .any(|f| code.contains("fn ") && has_token(code, f))
        {
            worker_entry.push(depth_before);
        }
        if !worker_entry.is_empty() && !in_test {
            if let Some(call) = BLOCKING_CALLS.iter().find(|c| code.contains(*c)) {
                let excused = find_upward(&raw_lines, &masked_lines, i, |raw| {
                    raw.contains("R6-OK(").then_some(())
                })
                .is_some();
                if !excused {
                    report.violations.push(Violation {
                        file: file.into(),
                        line: i + 1,
                        rule: Rule::BlockingInWorker,
                        msg: format!(
                            "blocking call `{call}` where a thread polls session \
                             futures; a blocked worker freezes every session \
                             multiplexed onto it (annotate `// R6-OK(reason):` \
                             if provably bounded)"
                        ),
                    });
                }
            }
        }
        while worker_entry.last().is_some_and(|&e| depth <= e) {
            worker_entry.pop();
        }

        // R1: imports and qualified paths outside the shim.
        if !sync_exempt && !in_test {
            for needle in ["std::sync", "parking_lot", "loom::"] {
                if code.contains(needle) {
                    report.violations.push(Violation {
                        file: file.into(),
                        line: i + 1,
                        rule: Rule::SyncImport,
                        msg: format!(
                            "`{needle}` referenced directly; import synchronisation \
                             primitives through `crate::sync` so loom builds stay exhaustive"
                        ),
                    });
                }
            }
        }

        // R2: unsafe needs SAFETY. Applies everywhere, tests included —
        // test unsafe is no safer.
        if has_token(code, "unsafe")
            && find_upward(&raw_lines, &masked_lines, i, |raw| {
                raw.contains("SAFETY:").then_some(())
            })
            .is_none()
        {
            report.violations.push(Violation {
                file: file.into(),
                line: i + 1,
                rule: Rule::SafetyComment,
                msg: "`unsafe` without a `// SAFETY:` comment on or above it".into(),
            });
        }

        // R3: Relaxed needs an allowlisted marker (production code only;
        // test-module atomics are not part of the audited surface).
        if !in_test && has_token(code, "Relaxed") {
            match find_upward(&raw_lines, &masked_lines, i, relaxed_marker) {
                None => report.violations.push(Violation {
                    file: file.into(),
                    line: i + 1,
                    rule: Rule::RelaxedOrdering,
                    msg: "`Ordering::Relaxed` without a `// relaxed(tag): justification` \
                          marker; use an allowlisted tag or a stronger ordering"
                        .into(),
                }),
                Some(tag) if !config.relaxed_tags.contains(tag) => {
                    report.violations.push(Violation {
                        file: file.into(),
                        line: i + 1,
                        rule: Rule::RelaxedOrdering,
                        msg: format!("relaxed tag `{tag}` is not in relaxed-allowlist.txt"),
                    });
                }
                Some(tag) => {
                    report.used_relaxed_tags.insert(tag.to_string());
                }
            }
        }

        // R4: lock-order discipline.
        if is_wait_graph {
            for needle in [".inner.lock()", "slot(", "objects.get("] {
                if code.contains(needle) {
                    report.violations.push(Violation {
                        file: file.into(),
                        line: i + 1,
                        rule: Rule::LockOrder,
                        msg: format!(
                            "wait-graph code must not touch object slots (`{needle}`): \
                             record mutexes are acquired after slot mutexes, never before"
                        ),
                    });
                }
            }
        }

        // R4 (all files): lock guards must not escape through public
        // signatures — a caller holding a guard is outside the discipline.
        if !in_test && code.contains("pub fn") && code.contains("->") && code.contains("MutexGuard")
        {
            report.violations.push(Violation {
                file: file.into(),
                line: i + 1,
                rule: Rule::LockOrder,
                msg: "public function returns a `MutexGuard`; guards must stay inside \
                      the module that owns the lock order"
                    .into(),
            });
        }
    }

    check_drop_impls(file, &raw_lines, &masked_lines, config, &mut report);
    report
}

/// R7: every `Drop` impl on a configured CAS-state-machine type must touch
/// one of its state-field tokens or carry a `// DROP-SAFETY:` comment in
/// (or directly above) the impl.
fn check_drop_impls(
    file: &str,
    raw_lines: &[&str],
    masked_lines: &[&str],
    config: &Config,
    report: &mut FileReport,
) {
    for (i, code) in masked_lines.iter().enumerate() {
        if !(code.contains("impl") && has_token(code, "Drop") && code.contains(" for ")) {
            continue;
        }
        let Some((ty, tokens)) = config.drop_state.iter().find(|(ty, _)| has_token(code, ty))
        else {
            continue;
        };
        // Walk the impl body to its closing brace.
        let mut depth = 0usize;
        let mut opened = false;
        let mut end = i;
        for (j, body) in masked_lines.iter().enumerate().skip(i) {
            depth += body.matches('{').count();
            if depth > 0 {
                opened = true;
            }
            depth = depth.saturating_sub(body.matches('}').count());
            end = j;
            if opened && depth == 0 {
                break;
            }
        }
        let touches_state = (i..=end).any(|j| tokens.iter().any(|t| has_token(masked_lines[j], t)));
        let has_waiver = (i.saturating_sub(2)..=end).any(|j| raw_lines[j].contains("DROP-SAFETY:"));
        if !touches_state && !has_waiver {
            report.violations.push(Violation {
                file: file.into(),
                line: i + 1,
                rule: Rule::DropStateMachine,
                msg: format!(
                    "`Drop` for CAS-state-machine type `{ty}` never touches its state \
                     field ({tokens:?}); the drop/grant race is arbitrated by that \
                     CAS — resolve it here or explain with `// DROP-SAFETY:`"
                ),
            });
        }
    }
}
