//! The partree contract pass: cross-file consistency checks between the
//! wire protocol, the metrics surface, the env-var knobs, and the
//! documents that promise them. Where `lint` polices single lines,
//! `contracts` polices *pairs of places that must agree* — the failure
//! mode it exists for is silent drift: an opcode added to `frame.rs`
//! but not to the EXPERIMENTS.md table, a counter asserted by a CI
//! smoke bin that no snapshot ever emits, an env knob the README still
//! advertises after the code stopped reading it.
//!
//! Rules (names are what waivers reference):
//!
//! * `opcode-undocumented` — a variant of `Opcode` in
//!   `service/src/frame.rs` has no `` `Name=0xNN` `` entry in
//!   EXPERIMENTS.md. Anchored at the variant's line.
//! * `opcode-drift` — EXPERIMENTS.md documents an opcode the enum does
//!   not have, or documents it with a different value. Anchored at the
//!   doc line.
//! * `errcode-undocumented` / `errcode-drift` — the same pair for
//!   `ErrorCode` variants vs the `` `Name=N` `` error-code list.
//! * `metric-unemitted` — a smoke bin under `crates/*/src/bin/` asserts
//!   a counter field of a metrics snapshot (`snap.steals`, …) that no
//!   `Stats` reply emits under that name; the CI signal would pass or
//!   fail on a number operators can never see. Both name sets come from
//!   the counter registry's declarations (`Counters::NAMES`), where a
//!   counter array (`family_requests`) is named once for all its
//!   per-family keys.
//! * `env-undocumented` — code reads a `PARTREE_*` variable the README
//!   does not document. Anchored at the first read site.
//! * `env-drift` — the README documents a `PARTREE_*` variable no code
//!   reads. Anchored at the README line.
//! * `unused-dependency` — an entry of a `crates/*/Cargo.toml`
//!   `[dependencies]` table whose crate ident (`partree_trees` for
//!   `partree-trees`) appears in no code line of that crate's `src/`
//!   ahead of the file's `cfg(test)` module. A dependency only tests
//!   use belongs in `[dev-dependencies]`. Anchored at the manifest
//!   line.
//!
//! Findings accept the same in-place waiver as the lint pass:
//! `// lint: allow(<rule>): <reason>` on the anchored line or the
//! comment run directly above it (for Markdown anchors, on the same
//! line; for manifest anchors, as a `#` comment on the same line or
//! the `#` comment run directly above it).
//!
//! Like the lint pass this is line/token-based on purpose: the enum
//! bodies and Markdown tables it parses are rigidly formatted in this
//! codebase, and staying dependency-free keeps the pass runnable in the
//! sealed container.

use crate::lint::{annotated, code_of, has_word, waived, Finding};
use partree_exec::metrics::Counters;
use partree_exec::ExecSnapshot;
use partree_gateway::{GatewaySnapshot, ReplicaSnapshot};
use partree_service::MetricsSnapshot;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// A `Name = value` constant parsed out of an enum body. `line` is
/// 0-based.
#[derive(Debug, PartialEq, Eq)]
struct EnumConst {
    name: String,
    value: u64,
    line: usize,
}

/// A `` `Name=value` `` pair parsed out of a Markdown document.
#[derive(Debug, PartialEq, Eq)]
struct DocPair {
    name: String,
    value: u64,
    /// Whether the doc wrote the value in hex — hex pairs are opcode
    /// claims, decimal pairs are error-code claims.
    hex: bool,
    line: usize,
}

fn parse_num(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(h) => u64::from_str_radix(h, 16).ok(),
        None => s.parse().ok(),
    }
}

/// CamelCase identifier with no underscore: the shape of opcode and
/// error-code variant names, and NOT the shape of `PARTREE_*` env
/// snippets, so stray `` `PARTREE_X=5` `` examples in docs are never
/// misread as protocol claims.
fn is_variant_name(s: &str) -> bool {
    let mut chars = s.chars();
    chars.next().is_some_and(|c| c.is_ascii_uppercase())
        && s.chars().all(|c| c.is_ascii_alphanumeric())
}

/// Extracts `Name = value,` constants from the body of
/// `pub enum <enum_name>` in `src`. Scanning starts after the enum
/// header and stops at the first line whose code begins with `}`.
fn parse_enum_consts(src: &str, enum_name: &str) -> Vec<EnumConst> {
    let header = format!("enum {enum_name}");
    let mut out = Vec::new();
    let mut in_enum = false;
    for (i, raw) in src.lines().enumerate() {
        let code = code_of(raw);
        if !in_enum {
            if code.contains(&header) {
                in_enum = true;
            }
            continue;
        }
        let t = code.trim();
        if t.starts_with('}') {
            break;
        }
        if let Some((name, rest)) = t.split_once('=') {
            let name = name.trim();
            let value = rest.trim().trim_end_matches(',').trim();
            if is_variant_name(name) {
                if let Some(v) = parse_num(value) {
                    out.push(EnumConst {
                        name: name.to_string(),
                        value: v,
                        line: i,
                    });
                }
            }
        }
    }
    out
}

/// Extracts every backticked `` `Name=value` `` pair from a Markdown
/// document, keeping only CamelCase names (see [`is_variant_name`]).
fn parse_doc_pairs(md: &str) -> Vec<DocPair> {
    let mut out = Vec::new();
    for (i, line) in md.lines().enumerate() {
        let mut inside = false;
        for seg in line.split('`') {
            if inside {
                if let Some((name, value)) = seg.split_once('=') {
                    if is_variant_name(name) {
                        let hex = value.starts_with("0x") || value.starts_with("0X");
                        if let Some(v) = parse_num(value) {
                            out.push(DocPair {
                                name: name.to_string(),
                                value: v,
                                hex,
                                line: i,
                            });
                        }
                    }
                }
            }
            inside = !inside;
        }
    }
    out
}

fn fmt_value(v: u64, hex: bool) -> String {
    if hex {
        format!("0x{v:02X}")
    } else {
        v.to_string()
    }
}

/// Cross-checks the `Opcode` and `ErrorCode` enums in `frame.rs`
/// against the EXPERIMENTS.md protocol tables, in both directions.
pub fn check_codes(
    frame_path: &str,
    frame_src: &str,
    doc_path: &str,
    doc_src: &str,
) -> Vec<Finding> {
    let frame_lines: Vec<&str> = frame_src.lines().collect();
    let doc_lines: Vec<&str> = doc_src.lines().collect();
    let pairs = parse_doc_pairs(doc_src);
    let mut out = Vec::new();

    let namespaces: [(&str, &'static str, &'static str, bool); 2] = [
        ("Opcode", "opcode-undocumented", "opcode-drift", true),
        ("ErrorCode", "errcode-undocumented", "errcode-drift", false),
    ];
    for (enum_name, rule_undoc, rule_drift, hex) in namespaces {
        let consts = parse_enum_consts(frame_src, enum_name);
        let claims: Vec<&DocPair> = pairs.iter().filter(|p| p.hex == hex).collect();

        // Code -> doc: every variant must be documented, at its value.
        for c in &consts {
            match claims.iter().find(|p| p.name == c.name) {
                None => {
                    if !waived(&frame_lines, c.line, rule_undoc) {
                        out.push(Finding {
                            file: frame_path.to_string(),
                            line: c.line + 1,
                            rule: rule_undoc,
                            message: format!(
                                "`{}::{} = {}` has no `{}={}` entry in {doc_path}; \
                                 document the wire value or waive with the reason \
                                 it is internal",
                                enum_name,
                                c.name,
                                fmt_value(c.value, hex),
                                c.name,
                                fmt_value(c.value, hex),
                            ),
                        });
                    }
                }
                Some(p) if p.value != c.value => {
                    if !waived(&doc_lines, p.line, rule_drift) {
                        out.push(Finding {
                            file: doc_path.to_string(),
                            line: p.line + 1,
                            rule: rule_drift,
                            message: format!(
                                "documents `{}={}` but {frame_path} defines \
                                 `{}::{} = {}`; the doc and the wire disagree",
                                p.name,
                                fmt_value(p.value, hex),
                                enum_name,
                                c.name,
                                fmt_value(c.value, hex),
                            ),
                        });
                    }
                }
                Some(_) => {}
            }
        }

        // Doc -> code: every documented name must exist in the enum.
        for p in &claims {
            if !consts.iter().any(|c| c.name == p.name) && !waived(&doc_lines, p.line, rule_drift) {
                out.push(Finding {
                    file: doc_path.to_string(),
                    line: p.line + 1,
                    rule: rule_drift,
                    message: format!(
                        "documents `{}={}` but {frame_path} has no `{}` variant \
                         named `{}`; stale doc entry or missing code",
                        p.name,
                        fmt_value(p.value, hex),
                        enum_name,
                        p.name,
                    ),
                });
            }
        }
    }
    out
}

/// Counter names for the `metric-unemitted` rule, read from the counter
/// registry's declarations: `(counters, emitted)`. `counters` is every
/// name a snapshot declares — service, gateway, replica rows and the
/// executor pool; `emitted` is the subset a `Stats` reply serializes.
/// The executor's counters reach `Stats` only renamed (`exec_steals`),
/// so a bin asserting `pool.steals` asserts a number operators never
/// see under that name.
fn registry_names() -> (BTreeSet<String>, BTreeSet<String>) {
    let emitted = [
        MetricsSnapshot::NAMES,
        GatewaySnapshot::NAMES,
        ReplicaSnapshot::NAMES,
    ]
    .concat();
    let counters = [emitted.as_slice(), ExecSnapshot::NAMES].concat();
    let set =
        |names: Vec<&str>| -> BTreeSet<String> { names.into_iter().map(String::from).collect() };
    (set(counters), set(emitted))
}

/// Flags counter fields asserted in a smoke bin (`.name` access) that
/// no `Stats` reply emits.
pub fn check_metrics_file(
    path: &str,
    src: &str,
    counters: &BTreeSet<String>,
    emitted: &BTreeSet<String>,
) -> Vec<Finding> {
    let lines: Vec<&str> = src.lines().collect();
    let mut out = Vec::new();
    for (i, raw) in lines.iter().enumerate() {
        let code = code_of(raw);
        for field in counters {
            if emitted.contains(field) {
                continue;
            }
            let probe = format!(".{field}");
            let mut from = 0;
            let mut hit = false;
            while let Some(off) = code[from..].find(&probe) {
                let end = from + off + probe.len();
                if code[end..]
                    .chars()
                    .next()
                    .is_none_or(|c| !(c.is_ascii_alphanumeric() || c == '_'))
                {
                    hit = true;
                    break;
                }
                from = end;
            }
            if hit && !waived(&lines, i, "metric-unemitted") {
                out.push(Finding {
                    file: path.to_string(),
                    line: i + 1,
                    rule: "metric-unemitted",
                    message: format!(
                        "asserts counter `{field}` but no `Stats` reply \
                         emits a `{field}` key; the CI signal is \
                         invisible to operators — emit it or waive with the \
                         reason it is test-only"
                    ),
                });
            }
        }
    }
    out
}

/// Extracts `PARTREE_*` tokens from `line`, leftmost-first.
fn env_tokens(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(off) = line[from..].find("PARTREE_") {
        let start = from + off;
        // Reject matches embedded in a longer identifier (X_PARTREE_…).
        let pre_ok = line[..start]
            .chars()
            .next_back()
            .is_none_or(|c| !(c.is_ascii_alphanumeric() || c == '_'));
        let end = start
            + line[start..]
                .chars()
                .take_while(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || *c == '_')
                .count();
        if pre_ok && end > start + "PARTREE_".len() {
            out.push(line[start..end].trim_end_matches('_').to_string());
        }
        from = end.max(start + 1);
    }
    out
}

/// Cross-checks `PARTREE_*` env vars read by code against the README's
/// documentation, in both directions. `code_files` are `(repo-relative
/// path, content)` pairs for every source file that may read env vars.
pub fn check_env(
    readme_path: &str,
    readme_src: &str,
    code_files: &[(String, String)],
) -> Vec<Finding> {
    let readme_lines: Vec<&str> = readme_src.lines().collect();
    let mut documented = BTreeSet::new();
    for line in &readme_lines {
        documented.extend(env_tokens(line));
    }

    // First read site per var, in path order, plus that file's lines for
    // the waiver check.
    let mut reads: BTreeMap<String, (usize, usize)> = BTreeMap::new(); // var -> (file idx, line)
    for (fi, (_, src)) in code_files.iter().enumerate() {
        for (li, raw) in src.lines().enumerate() {
            for var in env_tokens(code_of(raw)) {
                reads.entry(var).or_insert((fi, li));
            }
        }
    }

    let mut out = Vec::new();
    for (var, (fi, li)) in &reads {
        if documented.contains(var) {
            continue;
        }
        let (path, src) = &code_files[*fi];
        let lines: Vec<&str> = src.lines().collect();
        if !waived(&lines, *li, "env-undocumented") {
            out.push(Finding {
                file: path.clone(),
                line: li + 1,
                rule: "env-undocumented",
                message: format!(
                    "reads `{var}` but {readme_path} does not document it; \
                     every operator-facing knob must be in the README"
                ),
            });
        }
    }

    let mut flagged = BTreeSet::new();
    for (i, line) in readme_lines.iter().enumerate() {
        for var in env_tokens(line) {
            if reads.contains_key(&var) || !flagged.insert(var.clone()) {
                continue;
            }
            if !annotated(&readme_lines, i, "lint: allow(env-drift)") {
                out.push(Finding {
                    file: readme_path.to_string(),
                    line: i + 1,
                    rule: "env-drift",
                    message: format!(
                        "documents `{var}` but no code reads it; stale doc \
                         entry or the knob lost its wiring"
                    ),
                });
            }
        }
    }
    out
}

/// The `[dependencies]` entries of a Cargo manifest as `(name, line)`
/// pairs, `line` 0-based. Only the plain table counts: dev, build and
/// target-specific tables do not link into the library.
fn normal_deps(manifest: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let mut in_deps = false;
    for (i, line) in manifest.lines().enumerate() {
        let t = line.trim();
        if t.starts_with('[') {
            in_deps = t == "[dependencies]";
            continue;
        }
        let name: String = t
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
            .collect();
        if in_deps && !name.is_empty() {
            out.push((name, i));
        }
    }
    out
}

/// True if manifest line `i` or the run of `#` comment lines directly
/// above it carries the `unused-dependency` waiver.
fn manifest_waived(lines: &[&str], i: usize) -> bool {
    let marker = "lint: allow(unused-dependency)";
    lines[i].contains(marker)
        || lines[..i]
            .iter()
            .rev()
            .take_while(|l| l.trim_start().starts_with('#'))
            .any(|l| l.contains(marker))
}

/// Flags `[dependencies]` entries of `manifest_src` whose crate ident
/// no non-test code line of `sources` (the crate's `src/` files, as
/// `(path, content)` pairs) mentions.
pub fn check_unused_deps(
    manifest_path: &str,
    manifest_src: &str,
    sources: &[(String, String)],
) -> Vec<Finding> {
    let code: Vec<&str> = sources
        .iter()
        .flat_map(|(_, src)| {
            src.lines()
                .take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"))
                .map(code_of)
        })
        .collect();
    let lines: Vec<&str> = manifest_src.lines().collect();
    normal_deps(manifest_src)
        .into_iter()
        .filter(|(name, i)| {
            let ident = name.replace('-', "_");
            !code.iter().any(|l| has_word(l, &ident)) && !manifest_waived(&lines, *i)
        })
        .map(|(name, i)| Finding {
            file: manifest_path.to_string(),
            line: i + 1,
            rule: "unused-dependency",
            message: format!(
                "`{name}` is a [dependencies] entry but no non-test code in \
                 src/ names `{}`; delete it, or move it to \
                 [dev-dependencies] if only tests use it",
                name.replace('-', "_")
            ),
        })
        .collect()
}

/// Runs every contract over the real tree under `root`.
pub fn contracts_tree(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    let read = |rel: &str, findings: &mut Vec<Finding>| -> Option<String> {
        match fs::read_to_string(root.join(rel)) {
            Ok(c) => Some(c),
            Err(e) => {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: 0,
                    rule: "io",
                    message: format!("unreadable: {e}"),
                });
                None
            }
        }
    };

    // Protocol constants vs the EXPERIMENTS.md tables.
    if let (Some(frame), Some(experiments)) = (
        read("crates/service/src/frame.rs", &mut findings),
        read("EXPERIMENTS.md", &mut findings),
    ) {
        findings.extend(check_codes(
            "crates/service/src/frame.rs",
            &frame,
            "EXPERIMENTS.md",
            &experiments,
        ));
    }

    // Metric names asserted by smoke bins vs emitted snapshot keys.
    let (counters, emitted) = registry_names();
    for (rel, src) in collect_sources(root, &mut findings, true) {
        findings.extend(check_metrics_file(&rel, &src, &counters, &emitted));
    }

    // Env knobs vs the README.
    if let Some(readme) = read("README.md", &mut findings) {
        let code_files = collect_sources(root, &mut findings, false);
        findings.extend(check_env("README.md", &readme, &code_files));
    }

    // Manifest dependencies vs what each crate's code names.
    for (name, rel) in crate_manifests(root) {
        if let Some(manifest) = read(&rel, &mut findings) {
            let mut files = Vec::new();
            collect_rs(&root.join("crates").join(&name).join("src"), &mut files);
            files.sort();
            let sources: Vec<(String, String)> = files
                .iter()
                .filter_map(|f| Some((f.display().to_string(), fs::read_to_string(f).ok()?)))
                .collect();
            findings.extend(check_unused_deps(&rel, &manifest, &sources));
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

/// Source files for a pass: with `bins_only`, the CI smoke bins
/// (`crates/*/src/bin/*.rs`); otherwise every `.rs` under `crates/*/src`
/// and `vendor/*/src` (the rayon shim reads env vars too). `xtask`
/// itself is skipped in both modes — its fixtures and token tables
/// contain deliberate violations.
fn collect_sources(
    root: &Path,
    findings: &mut Vec<Finding>,
    bins_only: bool,
) -> Vec<(String, String)> {
    let mut files: Vec<PathBuf> = Vec::new();
    for top in ["crates", "vendor"] {
        if bins_only && top == "vendor" {
            continue;
        }
        let Ok(entries) = fs::read_dir(root.join(top)) else {
            continue;
        };
        for entry in entries.filter_map(|e| e.ok()) {
            let dir = entry.path();
            if !dir.is_dir() || dir.file_name().is_some_and(|n| n == "xtask") {
                continue;
            }
            let src = if bins_only {
                dir.join("src/bin")
            } else {
                dir.join("src")
            };
            collect_rs(&src, &mut files);
        }
    }
    files.sort();
    let mut out = Vec::new();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        match fs::read_to_string(&file) {
            Ok(c) => out.push((rel, c)),
            Err(e) => findings.push(Finding {
                file: rel,
                line: 0,
                rule: "io",
                message: format!("unreadable: {e}"),
            }),
        }
    }
    out
}

/// `(crate dir name, repo-relative manifest path)` for every
/// `crates/*/Cargo.toml`, sorted.
fn crate_manifests(root: &Path) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = fs::read_dir(root.join("crates"))
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().join("Cargo.toml").is_file())
        .map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            let rel = format!("crates/{name}/Cargo.toml");
            (name, rel)
        })
        .collect();
    out.sort();
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(|e| e.ok()) {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "Opcodes: requests `Encode=0x01`, `Stats=0x03`;\n\
                       responses `EncodeOk=0x81`.\n\
                       Error codes: `Malformed=1`, `Internal=6`.\n";

    fn frame(extra: &str) -> String {
        format!(
            "pub enum Opcode {{\n    Encode = 0x01,\n    Stats = 0x03,\n    \
             EncodeOk = 0x81,\n{extra}}}\n\
             pub enum ErrorCode {{\n    Malformed = 1,\n    Internal = 6,\n}}\n"
        )
    }

    fn rules(f: &[Finding]) -> Vec<&'static str> {
        f.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn matching_code_and_doc_is_clean() {
        let found = check_codes("frame.rs", &frame(""), "EXPERIMENTS.md", DOC);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn seeded_drift_fixture_is_flagged() {
        // The acceptance-criteria fixture: an opcode present in frame.rs
        // but absent from EXPERIMENTS.md must fail the pass.
        let src = frame("    Frobnicate = 0x42,\n");
        let found = check_codes("frame.rs", &src, "EXPERIMENTS.md", DOC);
        assert_eq!(rules(&found), vec!["opcode-undocumented"], "{found:?}");
        assert_eq!(found[0].file, "frame.rs");
        assert!(found[0].message.contains("Frobnicate"), "{}", found[0]);
    }

    #[test]
    fn doc_value_mismatch_is_opcode_drift() {
        let doc = "`Encode=0x02`, `Stats=0x03`, `EncodeOk=0x81`,\n\
                   `Malformed=1`, `Internal=6`.\n";
        let found = check_codes("frame.rs", &frame(""), "EXPERIMENTS.md", doc);
        assert_eq!(rules(&found), vec!["opcode-drift"], "{found:?}");
        assert_eq!(found[0].file, "EXPERIMENTS.md");
        assert_eq!(found[0].line, 1);
    }

    #[test]
    fn doc_only_opcode_is_opcode_drift() {
        let doc = "`Encode=0x01`, `Stats=0x03`, `EncodeOk=0x81`, `Vanish=0x7F`,\n\
                   `Malformed=1`, `Internal=6`.\n";
        let found = check_codes("frame.rs", &frame(""), "EXPERIMENTS.md", doc);
        assert_eq!(rules(&found), vec!["opcode-drift"], "{found:?}");
        assert!(found[0].message.contains("Vanish"));
    }

    #[test]
    fn errcode_directions_are_symmetric() {
        // Undocumented in code: ErrorCode::Overload = 9 not in docs.
        let src = "pub enum Opcode {\n    Encode = 0x01,\n    Stats = 0x03,\n    \
                   EncodeOk = 0x81,\n}\n\
                   pub enum ErrorCode {\n    Malformed = 1,\n    Internal = 6,\n    \
                   Overload = 9,\n}\n";
        let found = check_codes("frame.rs", src, "EXPERIMENTS.md", DOC);
        assert_eq!(rules(&found), vec!["errcode-undocumented"], "{found:?}");
        // Documented but missing from code: Phantom=4.
        let doc = "`Encode=0x01`, `Stats=0x03`, `EncodeOk=0x81`,\n\
                   `Malformed=1`, `Internal=6`, `Phantom=4`.\n";
        let found = check_codes("frame.rs", &frame(""), "EXPERIMENTS.md", doc);
        assert_eq!(rules(&found), vec!["errcode-drift"], "{found:?}");
    }

    #[test]
    fn hex_and_decimal_namespaces_do_not_cross() {
        // `Malformed=1` is decimal, so it is never compared against the
        // opcode table even though 0x01 == 1 == Encode.
        let found = check_codes("frame.rs", &frame(""), "EXPERIMENTS.md", DOC);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn env_snippets_in_docs_are_not_protocol_claims() {
        let doc = format!("{DOC}Run with `PARTREE_THREADS=4` for the small boxes.\n");
        let found = check_codes("frame.rs", &frame(""), "EXPERIMENTS.md", &doc);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn waiver_suppresses_undocumented_opcode() {
        let src = frame(
            "    // lint: allow(opcode-undocumented): internal debug opcode, \
             never on the public wire\n    Frobnicate = 0x42,\n",
        );
        let found = check_codes("frame.rs", &src, "EXPERIMENTS.md", DOC);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn registry_names_split_exec_from_emitted() {
        let (counters, emitted) = registry_names();
        for name in [
            "encoded",
            "family_requests",
            "retries",
            "attempts",
            "latency_us_max",
        ] {
            assert!(
                emitted.contains(name),
                "{name} must be emitted: {emitted:?}"
            );
        }
        assert!(counters.is_superset(&emitted));
        assert!(counters.contains("steals") && !emitted.contains("steals"));
        assert!(
            !counters.contains("latency"),
            "plain fields are not counters"
        );
    }

    #[test]
    fn asserted_but_unemitted_counter_is_flagged() {
        let counters: BTreeSet<String> = ["retries".to_string(), "encoded".to_string()]
            .into_iter()
            .collect();
        let emitted: BTreeSet<String> = ["encoded".to_string()].into_iter().collect();
        let bin = "fn main() {\n    if snap.retries == 0 {\n        panic!();\n    }\n    \
                   assert!(snap.encoded > 0);\n}\n";
        let found = check_metrics_file("crates/g/src/bin/smoke.rs", bin, &counters, &emitted);
        assert_eq!(rules(&found), vec!["metric-unemitted"], "{found:?}");
        assert_eq!(found[0].line, 2);
    }

    #[test]
    fn field_access_requires_exact_name() {
        // `.retries_total` must not match the `retries` counter.
        let counters: BTreeSet<String> = ["retries".to_string()].into_iter().collect();
        let emitted = BTreeSet::new();
        let bin = "fn main() { let x = snap.retries_total; }\n";
        let found = check_metrics_file("b.rs", bin, &counters, &emitted);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn array_counter_assertion_matches_template_emission() {
        let counters: BTreeSet<String> = ["family_requests".to_string()].into_iter().collect();
        let emitted: BTreeSet<String> = ["family_requests".to_string()].into_iter().collect();
        let bin = "fn main() { assert!(snap.family_requests[1] > 0); }\n";
        assert!(check_metrics_file("b.rs", bin, &counters, &emitted).is_empty());
    }

    #[test]
    fn metric_waiver_suppresses() {
        let counters: BTreeSet<String> = ["retries".to_string()].into_iter().collect();
        let emitted = BTreeSet::new();
        let bin = "fn main() {\n    // lint: allow(metric-unemitted): harness-internal probe\n    \
                   let _ = snap.retries;\n}\n";
        assert!(check_metrics_file("b.rs", bin, &counters, &emitted).is_empty());
    }

    #[test]
    fn undocumented_env_read_is_flagged() {
        let code = vec![(
            "crates/exec/src/lib.rs".to_string(),
            "let n = std::env::var(\"PARTREE_SECRET_KNOB\").ok();\n".to_string(),
        )];
        let found = check_env("README.md", "no env vars here\n", &code);
        assert_eq!(rules(&found), vec!["env-undocumented"], "{found:?}");
        assert_eq!(found[0].file, "crates/exec/src/lib.rs");
        assert!(found[0].message.contains("PARTREE_SECRET_KNOB"));
    }

    #[test]
    fn documented_unread_env_is_drift() {
        let found = check_env("README.md", "Set `PARTREE_GHOST=1` to enable.\n", &[]);
        assert_eq!(rules(&found), vec!["env-drift"], "{found:?}");
        assert_eq!(found[0].file, "README.md");
    }

    #[test]
    fn matched_env_var_is_clean_and_comment_reads_do_not_count() {
        let code = vec![(
            "crates/store/src/lib.rs".to_string(),
            "// PARTREE_PHANTOM is described here but never read\n\
             let d = std::env::var(\"PARTREE_STORE_DIR\");\n"
                .to_string(),
        )];
        let readme = "`PARTREE_STORE_DIR` — where segments live.\n";
        let found = check_env("README.md", readme, &code);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn env_token_boundaries() {
        assert_eq!(env_tokens("var(\"PARTREE_A_B\") x"), vec!["PARTREE_A_B"]);
        // Embedded in a longer identifier: not a read.
        assert!(env_tokens("MY_PARTREE_THING").is_empty());
        // Bare prefix with no suffix: not a var.
        assert!(env_tokens("the PARTREE_ prefix").is_empty());
    }

    #[test]
    fn env_waivers_suppress_both_directions() {
        let code = vec![(
            "crates/exec/src/lib.rs".to_string(),
            "// lint: allow(env-undocumented): internal test hook\n\
             let n = std::env::var(\"PARTREE_HIDDEN\").ok();\n"
                .to_string(),
        )];
        assert!(check_env("README.md", "\n", &code).is_empty());
        let readme =
            "`PARTREE_FUTURE=1` reserved. <!-- lint: allow(env-drift): ships next PR -->\n";
        assert!(check_env("README.md", readme, &[]).is_empty());
    }

    const MANIFEST: &str = "[package]\nname = \"partree-demo\"\n\n\
                            [dependencies]\n\
                            partree-core.workspace = true\n\
                            partree-trees.workspace = true\n\
                            rayon = { path = \"../../vendor/rayon\" }\n\n\
                            [dev-dependencies]\n\
                            proptest.workspace = true\n";

    fn src(code: &str) -> Vec<(String, String)> {
        vec![("crates/demo/src/lib.rs".to_string(), code.to_string())]
    }

    #[test]
    fn used_dependencies_are_clean() {
        let code = "use partree_core::Error;\nuse partree_trees::kraft;\n\
                    fn f() { rayon::join(|| 1, || 2); }\n";
        let found = check_unused_deps("crates/demo/Cargo.toml", MANIFEST, &src(code));
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn dependency_named_only_in_comments_or_tests_is_unused() {
        let code = "use partree_core::Error;\n\
                    // partree_trees would do this too\n\
                    #[cfg(test)]\nmod tests {\n    use partree_trees::kraft;\n}\n";
        let found = check_unused_deps("crates/demo/Cargo.toml", MANIFEST, &src(code));
        let named: Vec<(usize, &str)> = found.iter().map(|f| (f.line, f.rule)).collect();
        // partree-trees (line 6) and rayon (line 7); dev-dependencies
        // are out of scope, so proptest is never flagged.
        assert_eq!(
            named,
            vec![(6, "unused-dependency"), (7, "unused-dependency")]
        );
        assert!(
            found[0].message.contains("`partree_trees`"),
            "{}",
            found[0].message
        );
    }

    #[test]
    fn ident_must_match_as_a_whole_word() {
        let code = "use partree_core::Error;\nuse partree_trees_ext::x;\n\
                    fn f() { my_rayon::go(); }\n";
        let found = check_unused_deps("crates/demo/Cargo.toml", MANIFEST, &src(code));
        assert_eq!(found.len(), 2, "{found:?}");
    }

    #[test]
    fn unused_dependency_waiver_suppresses() {
        let manifest = MANIFEST
            .replace(
                "partree-trees.workspace = true",
                "# lint: allow(unused-dependency): linked for its #[no_mangle] symbols\n\
                 partree-trees.workspace = true",
            )
            .replace(
                "rayon = { path = \"../../vendor/rayon\" }",
                "rayon = { path = \"../../vendor/rayon\" } # lint: allow(unused-dependency): feature unification",
            );
        let code = "use partree_core::Error;\n";
        let found = check_unused_deps("crates/demo/Cargo.toml", &manifest, &src(code));
        assert!(found.is_empty(), "{found:?}");
    }
}
