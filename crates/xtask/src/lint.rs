//! The partree lint pass: project-specific rules over the unsafe/atomic
//! core that `rustc` and clippy cannot express, because they encode
//! *repo policy*, not language rules.
//!
//! Rules (names are what waivers reference):
//!
//! * `safety-comment` — every `unsafe` block / `unsafe impl` carries a
//!   `// SAFETY:` comment on the same line or in the contiguous
//!   comment/attribute run directly above it.
//! * `ordering-comment` — every `Ordering::Relaxed` use and every
//!   `fence(..)` call in the lock-free core (`crates/exec/src`, plus
//!   `crates/gateway/src/breaker.rs`) carries a `// ordering:` comment
//!   explaining why the ordering suffices.
//! * `no-thread-spawn` — raw `std::thread` spawns are confined to the
//!   crates that own threading (`exec`, `service`, `gateway`,
//!   `verify`); pipeline crates must go through the executor.
//! * `determinism` — the deterministic pipeline crates (`huffman`,
//!   `monge`, `obst`, `trees`, `lcfl`, `pram`) may not read wall
//!   clocks or entropy (`Instant::now`, `SystemTime::now`,
//!   `thread_rng`, `from_entropy`, `rand::random`), and every
//!   `HashMap`/`HashSet` use needs a `// determinism:` comment arguing
//!   why iteration order cannot leak into output. The hash-container
//!   half also covers `store` (its on-disk index): compaction rewrites
//!   whatever order the container yields, so an unargued iteration
//!   would make segment layout — and recovery behaviour — vary by run.
//! * `no-unwrap` — no `.unwrap()` / `.expect(` on the request paths
//!   (`delta/src/{lib,drift,patch}.rs`,
//!   `service/src/{server,net,reactor,waker}.rs`,
//!   `gateway/src/{gateway,breaker,route,reactor,idle}.rs`, the store's
//!   request/recovery paths `store/src/{log,segment,record}.rs`, and
//!   the payload codec kernels `codes/src/{table,encoder,decoder}.rs`
//!   that run on every warm request): a poisoned lock, failed spawn
//!   or malformed payload there must be an explicit, waived decision.
//! * `forbid-unsafe` — crates outside the unsafe core declare
//!   `#![forbid(unsafe_code)]` in their `lib.rs`.
//!
//! Any finding can be waived in place with
//! `// lint: allow(<rule>): <reason>` on the offending line or in the
//! comment run directly above it; the reason is mandatory by
//! convention and by review, not by the parser.
//!
//! The pass is line-based on purpose: it runs in milliseconds with no
//! syn/proc-macro dependency (the container has no registry access),
//! and every rule is anchored to tokens (`unsafe {`, `Ordering::`)
//! whose line-level grep is precise enough in this codebase. Test code
//! is exempt: scanning stops at the first `#[cfg(test)]` line of each
//! file, and integration-test / bench directories are not walked.

use std::fs;
use std::path::{Path, PathBuf};

/// One rule violation at a file:line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule name, as accepted by `lint: allow(<rule>)`.
    pub rule: &'static str,
    /// Human-readable explanation with the expected fix.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Crates whose `lib.rs` must carry `#![forbid(unsafe_code)]`. The
/// unsafe core (`exec`, `monge`, `pram`) and the checker (`verify`,
/// which forbids it voluntarily) are the only exceptions.
const FORBID_UNSAFE_CRATES: &[&str] = &[
    "bench", "codecs", "codes", "core", "delta", "gateway", "huffman", "lcfl", "obst", "service",
    "store", "trees",
];

/// Crates allowed to call `std::thread` directly: the executor owns
/// worker threads, the service/gateway own acceptor/prober threads,
/// and the model checker schedules real threads by construction.
const THREAD_CRATES: &[&str] = &["exec", "gateway", "service", "verify"];

/// Crates on the deterministic pipeline: same input must give the same
/// bytes on every run and every machine.
const DETERMINISTIC_CRATES: &[&str] = &[
    "codecs", "delta", "huffman", "lcfl", "monge", "obst", "pram", "trees",
];

/// Crates where the hash-container half of `determinism` applies: the
/// pipeline crates plus the store, whose index feeds compaction — an
/// unargued iteration there would leak hash order into segment layout
/// and make two replicas' logs diverge on identical histories.
const HASH_CONTAINER_CRATES: &[&str] = &[
    "codecs", "delta", "huffman", "lcfl", "monge", "obst", "pram", "store", "trees",
];

/// Request-path files where a panic becomes a dropped connection or a
/// wedged worker rather than an error frame.
const REQUEST_PATH_FILES: &[&str] = &[
    "crates/codecs/src/two_queue.rs",
    "crates/codecs/src/tie_kernel.rs",
    "crates/delta/src/lib.rs",
    "crates/delta/src/drift.rs",
    "crates/delta/src/patch.rs",
    "crates/service/src/server.rs",
    "crates/service/src/net.rs",
    "crates/service/src/conn.rs",
    "crates/service/src/reactor.rs",
    "crates/service/src/waker.rs",
    "crates/gateway/src/gateway.rs",
    "crates/gateway/src/breaker.rs",
    "crates/gateway/src/route.rs",
    "crates/gateway/src/reactor.rs",
    "crates/gateway/src/idle.rs",
    "crates/store/src/log.rs",
    "crates/store/src/segment.rs",
    "crates/store/src/record.rs",
    "crates/codes/src/table.rs",
    "crates/codes/src/encoder.rs",
    "crates/codes/src/decoder.rs",
];

/// Entropy / wall-clock tokens banned from deterministic crates.
const NONDETERMINISM_TOKENS: &[&str] = &[
    "Instant::now",
    "SystemTime::now",
    "thread_rng",
    "from_entropy",
    "rand::random",
];

/// Returns the code portion of a line (everything before the first
/// `//`). Good enough here: the scanned sources do not put `//` inside
/// string literals on lines that also carry the lint-relevant tokens.
pub(crate) fn code_of(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

/// True if `needle` occurs in `hay` as a whole word (not embedded in a
/// longer identifier, so `pop_fence_ordering(` does not count as
/// `fence(`).
pub(crate) fn has_word(hay: &str, needle: &str) -> bool {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut from = 0;
    while let Some(off) = hay[from..].find(needle) {
        let start = from + off;
        let end = start + needle.len();
        let pre_ok = start == 0 || !ident(hay[..start].chars().next_back().unwrap_or(' '));
        let post_ok = hay[end..].chars().next().is_none_or(|c| !ident(c));
        if pre_ok && post_ok {
            return true;
        }
        from = end;
    }
    false
}

/// True if line `i` (0-based) or the contiguous run of comment (`//`)
/// and attribute (`#[`/`#![`) lines directly above it contains
/// `marker`. A plain code line breaks the run, so a marker cannot
/// vouch for code it is not adjacent to — but a long comment block
/// directly above its code counts in full.
pub(crate) fn annotated(lines: &[&str], i: usize, marker: &str) -> bool {
    if lines[i].contains(marker) {
        return true;
    }
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = lines[j].trim_start();
        if t.starts_with("//") {
            if t.contains(marker) {
                return true;
            }
        } else if !(t.starts_with("#[") || t.starts_with("#![")) {
            return false;
        }
    }
    false
}

/// True if the finding at line `i` is waived by a
/// `lint: allow(<rule>)` comment in scope.
pub(crate) fn waived(lines: &[&str], i: usize, rule: &str) -> bool {
    annotated(lines, i, &format!("lint: allow({rule})"))
}

/// Index of the first `#[cfg(test)]` line, i.e. where scanning stops.
fn test_code_start(lines: &[&str]) -> usize {
    lines
        .iter()
        .position(|l| l.contains("#[cfg(test)]"))
        .unwrap_or(lines.len())
}

/// Crate name (`exec`, `trees`, …) of a repo-relative path like
/// `crates/exec/src/deque.rs`, if it has that shape.
fn crate_of(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("crates/")?;
    rest.split('/').next()
}

/// Whether `ordering-comment` applies to this file: the lock-free core,
/// the breaker (whose counters ride outside its mutex), and the
/// reactor waker handshake (whose three-state flag is pure RMWs).
fn in_ordering_scope(path: &str) -> bool {
    path.starts_with("crates/exec/src/")
        || path == "crates/gateway/src/breaker.rs"
        || path == "crates/service/src/waker.rs"
}

/// Lint a single file's contents. `path` must be repo-relative with
/// `/` separators; it selects which rules apply.
pub fn lint_file(path: &str, content: &str) -> Vec<Finding> {
    let lines: Vec<&str> = content.lines().collect();
    let end = test_code_start(&lines);
    let krate = crate_of(path).unwrap_or("");
    let mut out = Vec::new();
    let mut push = |line: usize, rule: &'static str, message: String| {
        out.push(Finding {
            file: path.to_string(),
            line: line + 1,
            rule,
            message,
        });
    };

    for (i, raw) in lines.iter().enumerate().take(end) {
        let code = code_of(raw);

        // safety-comment: unsafe blocks and unsafe impls. `unsafe fn`
        // declarations document their contract in `# Safety` rustdoc
        // instead, and `unsafe_code` is the forbid attribute itself.
        if has_word(code, "unsafe")
            && !code.contains("unsafe fn")
            && !code.contains("unsafe trait")
            && !code.contains("unsafe_code")
            && !annotated(&lines, i, "SAFETY:")
            && !waived(&lines, i, "safety-comment")
        {
            push(
                i,
                "safety-comment",
                "`unsafe` without a `// SAFETY:` comment (same line or the \
                 preceding comment block) stating the invariant that makes it sound"
                    .to_string(),
            );
        }

        // ordering-comment: relaxed atomics and fences in the core.
        if in_ordering_scope(path)
            && (code.contains("Ordering::Relaxed")
                || has_word(code, "fence") && code.contains("fence("))
            && !annotated(&lines, i, "ordering:")
            && !waived(&lines, i, "ordering-comment")
        {
            push(
                i,
                "ordering-comment",
                "relaxed atomic / fence without a `// ordering:` comment arguing \
                 why this ordering suffices"
                    .to_string(),
            );
        }

        // no-thread-spawn: raw threads outside the threading crates.
        if !THREAD_CRATES.contains(&krate)
            && (code.contains("thread::spawn") || code.contains("thread::Builder"))
            && !waived(&lines, i, "no-thread-spawn")
        {
            push(
                i,
                "no-thread-spawn",
                format!(
                    "raw std::thread use in crate `{krate}`; pipeline crates must \
                     go through partree-exec so work is traced and bounded"
                ),
            );
        }

        if DETERMINISTIC_CRATES.contains(&krate) {
            // determinism: no clocks / entropy at all.
            for tok in NONDETERMINISM_TOKENS {
                if code.contains(tok) && !waived(&lines, i, "determinism") {
                    push(
                        i,
                        "determinism",
                        format!(
                            "`{tok}` in deterministic pipeline crate `{krate}`; \
                             outputs must be byte-stable across runs"
                        ),
                    );
                }
            }
        }

        // determinism: hash containers need an argument that their
        // iteration order cannot reach the output — in the pipeline
        // crates and in the store's index/recovery code.
        if HASH_CONTAINER_CRATES.contains(&krate)
            && (code.contains("HashMap") || code.contains("HashSet"))
            && !code.trim_start().starts_with("use ")
            && !annotated(&lines, i, "determinism:")
            && !waived(&lines, i, "determinism")
        {
            push(
                i,
                "determinism",
                "HashMap/HashSet in a determinism-scoped crate without a \
                 `// determinism:` comment arguing iteration order cannot \
                 leak into output (or switch to BTreeMap)"
                    .to_string(),
            );
        }

        // no-unwrap: request paths return error frames, not panics.
        if REQUEST_PATH_FILES.contains(&path)
            && (code.contains(".unwrap()") || code.contains(".expect("))
            && !waived(&lines, i, "no-unwrap")
        {
            push(
                i,
                "no-unwrap",
                "unwrap/expect on a request path; return an error frame, or waive \
                 with the reason a panic is the correct escalation here"
                    .to_string(),
            );
        }
    }
    out
}

/// Lint the whole tree under `root` (the repo root). Walks
/// `crates/*/src/**/*.rs` (not `tests/`, not `benches/`, not the
/// vendored stubs, not `xtask` itself — its fixtures and token tables
/// contain deliberate violations), then checks the `forbid-unsafe`
/// crate-level rule.
pub fn lint_tree(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", crates_dir.display()))
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    for crate_dir in &crate_dirs {
        if crate_dir.file_name().is_some_and(|n| n == "xtask") {
            continue;
        }
        let src = crate_dir.join("src");
        let mut files = Vec::new();
        collect_rs_files(&src, &mut files);
        files.sort();
        for file in files {
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            let content = match fs::read_to_string(&file) {
                Ok(c) => c,
                Err(e) => {
                    findings.push(Finding {
                        file: rel,
                        line: 0,
                        rule: "io",
                        message: format!("unreadable: {e}"),
                    });
                    continue;
                }
            };
            findings.extend(lint_file(&rel, &content));
        }
    }

    for name in FORBID_UNSAFE_CRATES {
        let lib = crates_dir.join(name).join("src/lib.rs");
        let rel = format!("crates/{name}/src/lib.rs");
        match fs::read_to_string(&lib) {
            Ok(c) if c.contains("#![forbid(unsafe_code)]") => {}
            Ok(_) => findings.push(Finding {
                file: rel,
                line: 1,
                rule: "forbid-unsafe",
                message: format!(
                    "crate `{name}` is outside the unsafe core and must declare \
                     `#![forbid(unsafe_code)]`"
                ),
            }),
            Err(e) => findings.push(Finding {
                file: rel,
                line: 0,
                rule: "forbid-unsafe",
                message: format!("unreadable: {e}"),
            }),
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(|e| e.ok()) {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(path: &str, content: &str) -> Vec<&'static str> {
        lint_file(path, content)
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn safety_less_unsafe_block_is_flagged() {
        // The seeded fixture from the acceptance criteria: an unsafe
        // block with no SAFETY comment anywhere near it must fail.
        let src = "fn f(p: *mut u8) {\n    let _ = unsafe { *p };\n}\n";
        let found = lint_file("crates/exec/src/seeded.rs", src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "safety-comment");
        assert_eq!(found[0].line, 2);
    }

    #[test]
    fn safety_comment_on_same_line_or_above_passes() {
        let same = "fn f(p: *mut u8) { let _ = unsafe { *p }; // SAFETY: p valid\n}\n";
        assert!(lint_file("crates/exec/src/a.rs", same).is_empty());
        let above = "// SAFETY: caller guarantees exclusive access\nunsafe impl Sync for X {}\n";
        assert!(lint_file("crates/exec/src/b.rs", above).is_empty());
    }

    #[test]
    fn safety_comment_survives_interleaved_attribute() {
        let src = "// SAFETY: shadow fence takes over under the model cfg\n\
                   #[cfg(not(partree_model))]\n\
                   let _ = unsafe { core::ptr::read(p) };\n";
        assert!(lint_file("crates/exec/src/a.rs", src).is_empty());
    }

    #[test]
    fn code_line_breaks_annotation_run() {
        // A SAFETY comment separated from the unsafe block by unrelated
        // code must not vouch for it.
        let src = "// SAFETY: about the other block\nlet x = 1;\nlet _ = unsafe { *p };\n";
        assert_eq!(rules("crates/exec/src/a.rs", src), vec!["safety-comment"]);
    }

    #[test]
    fn unsafe_fn_decl_and_forbid_attr_are_exempt() {
        let src = "#![forbid(unsafe_code)]\npub unsafe fn write(&self) {}\n";
        assert!(lint_file("crates/exec/src/a.rs", src).is_empty());
    }

    #[test]
    fn waiver_suppresses_with_reason() {
        let src = "// lint: allow(safety-comment): fixture exercised by tests only\n\
                   let _ = unsafe { *p };\n";
        assert!(lint_file("crates/exec/src/a.rs", src).is_empty());
    }

    #[test]
    fn relaxed_without_ordering_comment_is_flagged_in_scope_only() {
        let src = "let n = c.load(Ordering::Relaxed);\n";
        assert_eq!(rules("crates/exec/src/a.rs", src), vec!["ordering-comment"]);
        assert_eq!(
            rules("crates/gateway/src/breaker.rs", src),
            vec!["ordering-comment"]
        );
        // Out of scope: metrics counters elsewhere are not policed.
        assert!(lint_file("crates/gateway/src/gateway.rs", src).is_empty());
    }

    #[test]
    fn fence_word_boundary_is_not_fooled_by_identifiers() {
        let src = "fence(mutation::pop_fence_ordering());\n";
        // `fence(` matches; `pop_fence_ordering(` alone would not.
        assert_eq!(
            rules("crates/exec/src/deque.rs", src),
            vec!["ordering-comment"]
        );
        let ident_only = "let o = pop_fence_ordering();\n";
        assert!(lint_file("crates/exec/src/deque.rs", ident_only).is_empty());
    }

    #[test]
    fn ordering_comment_in_comment_run_passes() {
        let src = "// ordering: monotonic counter, read only for reporting\n\
                   let n = c.load(Ordering::Relaxed);\n";
        assert!(lint_file("crates/exec/src/a.rs", src).is_empty());
    }

    #[test]
    fn thread_spawn_is_confined_to_threading_crates() {
        let src = "let h = std::thread::spawn(move || run());\n";
        assert_eq!(rules("crates/trees/src/a.rs", src), vec!["no-thread-spawn"]);
        assert!(lint_file("crates/exec/src/a.rs", src).is_empty());
        assert!(lint_file("crates/service/src/a.rs", src).is_empty());
        // Comment mentions don't count.
        assert!(lint_file("crates/pram/src/a.rs", "// via thread::spawn\n").is_empty());
    }

    #[test]
    fn entropy_and_clocks_are_banned_from_pipeline_crates() {
        let src = "let t = Instant::now();\n";
        assert_eq!(rules("crates/huffman/src/a.rs", src), vec!["determinism"]);
        // The executor measures time all it wants.
        assert!(lint_file("crates/exec/src/a.rs", src).is_empty());
    }

    #[test]
    fn hash_containers_need_a_determinism_argument() {
        let bare = "let mut memo: HashMap<u64, usize> = HashMap::new();\n";
        let found = lint_file("crates/trees/src/a.rs", bare);
        // One finding per offending line, not per occurrence.
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "determinism");
        let argued = "// determinism: lookup-only; never iterated\n\
                      let mut memo: HashMap<u64, usize> = HashMap::new();\n";
        assert!(lint_file("crates/trees/src/a.rs", argued).is_empty());
        // Imports alone are fine; uses are what need arguing.
        assert!(lint_file("crates/trees/src/a.rs", "use std::collections::HashMap;\n").is_empty());
    }

    #[test]
    fn store_index_hash_containers_need_a_determinism_argument() {
        let bare = "let mut index: HashMap<u64, Loc> = HashMap::new();\n";
        assert_eq!(rules("crates/store/src/log.rs", bare), vec!["determinism"]);
        let argued = "// determinism: compaction sorts keys before rewriting\n\
                      let mut index: HashMap<u64, Loc> = HashMap::new();\n";
        assert!(lint_file("crates/store/src/log.rs", argued).is_empty());
        // But the store is not a pipeline crate: clocks are fine there
        // (fsync pacing, compaction timing).
        assert!(lint_file("crates/store/src/log.rs", "let t = Instant::now();\n").is_empty());
    }

    #[test]
    fn store_recovery_paths_ban_unwrap() {
        let src = "let g = self.inner.lock().unwrap();\n";
        assert_eq!(rules("crates/store/src/log.rs", src), vec!["no-unwrap"]);
        assert_eq!(rules("crates/store/src/segment.rs", src), vec!["no-unwrap"]);
        assert_eq!(rules("crates/store/src/record.rs", src), vec!["no-unwrap"]);
        // The in-memory tier is not on the recovery path.
        assert!(lint_file("crates/store/src/mem.rs", src).is_empty());
    }

    #[test]
    fn unwrap_is_flagged_on_request_paths_only() {
        let src = "let g = self.lock.lock().unwrap();\n";
        assert_eq!(
            rules("crates/gateway/src/reactor.rs", src),
            vec!["no-unwrap"]
        );
        assert!(lint_file("crates/gateway/src/metrics.rs", src).is_empty());
        let waived = "// lint: allow(no-unwrap): poisoned pool lock is unrecoverable\n\
                      let g = self.lock.lock().unwrap();\n";
        assert!(lint_file("crates/service/src/net.rs", waived).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src =
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let _ = unsafe { x() }; }\n}\n";
        assert!(lint_file("crates/exec/src/a.rs", src).is_empty());
    }

    #[test]
    fn findings_render_as_file_line_rule() {
        let f = lint_file("crates/exec/src/seeded.rs", "let _ = unsafe { *p };\n");
        let s = f[0].to_string();
        assert!(
            s.starts_with("crates/exec/src/seeded.rs:1: [safety-comment]"),
            "{s}"
        );
    }
}
