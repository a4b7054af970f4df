//! Workspace automation: `cargo run -p xtask -- lint`.
//!
//! A lightweight, dependency-free lint pass enforcing repo invariants that
//! clippy cannot express (see `DESIGN.md` §7). The scan is token-level — a
//! small state machine strips comments and string literals per line — so it
//! is fast and has no `syn`/proc-macro footprint, at the cost of ignoring
//! anything that needs real name resolution. The rules:
//!
//! * **panic** — non-test library code in first-party crates must not call
//!   `.unwrap()` / `.expect(…)` / `.expect_err(…)`. Each deliberate exception
//!   carries an inline `// lint: allow(panic) — <reason>` annotation; the
//!   reason is mandatory, so `cargo run -p xtask -- lint` passing means every
//!   remaining panic site in library code is individually documented.
//! * **index** — in the concurrency-critical modules (`lane.rs`, `pipeline.rs`,
//!   `recovery.rs`, `serve.rs`, `sync.rs` of `ttc-social-media`), direct index
//!   expressions `x[i]` are panic sites too; use `.get()` or annotate with
//!   `// lint: allow(index) — <reason>`.
//! * **raw-send** — in the same strict modules, every channel `.send(…)` /
//!   `.try_send(…)` must go through the counted, status-returning helpers;
//!   the helpers' own internals are the only annotated exceptions
//!   (`// lint: allow(raw-send) — <reason>`).
//! * **lock-policy** — in the strict modules, every `.lock()` must state its
//!   poisoning policy: the word "poison" must appear on the same line or in
//!   the three lines above (a doc comment on a wrapper method counts).
//! * **pub-doc** — the serving surface (`serve.rs`) is consumed by readers
//!   outside the engine, so every public item in it must carry a `///` doc
//!   comment. `#![warn(missing_docs)]` already nags; this rule makes the
//!   contract a hard failure even when warnings are tolerated.
//! * **crate-hygiene** — every crate in the workspace, vendored stand-ins
//!   included, carries `#![forbid(unsafe_code)]` and crate-level `//!` docs
//!   in its root module.

#![forbid(unsafe_code)]

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => match run_lint(&workspace_root()) {
            Ok(findings) if findings.is_empty() => {
                println!("xtask lint: clean");
                ExitCode::SUCCESS
            }
            Ok(findings) => {
                for finding in &findings {
                    println!("{finding}");
                }
                println!("xtask lint: {} finding(s)", findings.len());
                ExitCode::FAILURE
            }
            Err(err) => {
                eprintln!("xtask lint: {err}");
                ExitCode::FAILURE
            }
        },
        Some(other) => {
            eprintln!("xtask: unknown task `{other}` (try `lint`)");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("xtask: no task given (try `lint`)");
            ExitCode::FAILURE
        }
    }
}

/// The workspace root, resolved from this crate's own manifest directory so
/// the lint works from any invocation directory.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask always sits two levels under the workspace root")
        .to_path_buf()
}

/// One lint violation, rendered `path:line: [rule] message`.
struct Finding {
    path: String,
    line: usize,
    rule: &'static str,
    message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Modules under the full panic/index/send/lock regime: the crash-recovery
/// protocol, the epoch-published read path, and their synchronization facade.
const STRICT_MODULES: [&str; 5] = [
    "crates/ttc-social-media/src/lane.rs",
    "crates/ttc-social-media/src/pipeline.rs",
    "crates/ttc-social-media/src/recovery.rs",
    "crates/ttc-social-media/src/serve.rs",
    "crates/ttc-social-media/src/sync.rs",
];

/// Modules whose public API is read outside the engine and therefore must be
/// documented item by item (the `pub-doc` rule).
const DOC_MODULES: [&str; 2] = [
    "crates/ttc-social-media/src/serve.rs",
    "crates/graphblas/src/index.rs",
];

fn run_lint(root: &Path) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();
    let mut files = Vec::new();
    for top in ["crates", "vendor"] {
        collect_rust_files(&root.join(top), &mut files)?;
    }
    files.sort();

    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("failed to read {rel}: {e}"))?;
        lint_file(&rel, &source, &mut findings);
    }

    check_crate_hygiene(root, &files, &mut findings);
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(findings)
}

fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {dir:?}: {e}"))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {dir:?}: {e}"))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rust_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Where a file sits in the workspace, deciding which rules apply.
struct FileScope {
    /// `crates/**` (vendored stand-ins are only under the hygiene rule).
    first_party: bool,
    /// Library code: under `src/`, not a binary target, not tests/examples.
    lib_code: bool,
    /// One of [`STRICT_MODULES`].
    strict: bool,
    /// One of [`DOC_MODULES`]: public items must carry doc comments.
    doc_strict: bool,
}

fn classify(rel: &str) -> FileScope {
    let first_party = rel.starts_with("crates/");
    let in_src = rel.contains("/src/");
    let binary = rel.contains("/src/bin/") || rel.ends_with("/src/main.rs");
    let lib_code = in_src && !binary;
    FileScope {
        first_party,
        lib_code,
        strict: STRICT_MODULES.contains(&rel),
        doc_strict: DOC_MODULES.contains(&rel),
    }
}

fn lint_file(rel: &str, source: &str, findings: &mut Vec<Finding>) {
    let scope = classify(rel);
    if !(scope.first_party && scope.lib_code) {
        return;
    }
    let lines = split_code_and_comments(source);
    let test_mask = test_region_mask(&lines);

    for (idx, line) in lines.iter().enumerate() {
        if test_mask[idx] {
            continue;
        }
        let number = idx + 1;
        let allow = |rule: &str| allows(&lines, idx, rule);

        for pattern in [".unwrap()", ".expect(", ".expect_err("] {
            if line.code.contains(pattern) && !allow("panic") {
                findings.push(Finding {
                    path: rel.to_string(),
                    line: number,
                    rule: "panic",
                    message: format!(
                        "`{pattern}` in library code — handle the error or annotate \
                         `// lint: allow(panic) — <reason>`"
                    ),
                });
            }
        }

        if scope.doc_strict
            && is_public_item(&line.code)
            && !has_doc_above(&lines, idx)
            && !allow("pub-doc")
        {
            findings.push(Finding {
                path: rel.to_string(),
                line: number,
                rule: "pub-doc",
                message: "public item without a `///` doc comment in a documented \
                          module — document it or annotate `// lint: allow(pub-doc) — <reason>`"
                    .to_string(),
            });
        }

        if !scope.strict {
            continue;
        }

        if has_index_expression(&line.code) && !allow("index") {
            findings.push(Finding {
                path: rel.to_string(),
                line: number,
                rule: "index",
                message: "direct index expression in a strict module — use `.get()` \
                          or annotate `// lint: allow(index) — <reason>`"
                    .to_string(),
            });
        }

        if (line.code.contains(".send(") || line.code.contains(".try_send(")) && !allow("raw-send")
        {
            findings.push(Finding {
                path: rel.to_string(),
                line: number,
                rule: "raw-send",
                message: "raw channel send in a strict module — route it through the \
                          counted helpers or annotate `// lint: allow(raw-send) — <reason>`"
                    .to_string(),
            });
        }

        if line.code.contains(".lock()") {
            let start = idx.saturating_sub(3);
            let documented = lines[start..=idx].iter().any(|l| {
                l.code.to_lowercase().contains("poison")
                    || l.comment.to_lowercase().contains("poison")
            });
            if !documented {
                findings.push(Finding {
                    path: rel.to_string(),
                    line: number,
                    rule: "lock-policy",
                    message: "`.lock()` without a stated poisoning policy — mention \
                              \"poison\" on the line or within the 3 lines above"
                        .to_string(),
                });
            }
        }
    }
}

/// `// lint: allow(rule) — reason` on the same line or the line above; the
/// reason (any word characters after the closing paren) is mandatory.
fn allows(lines: &[SplitLine], idx: usize, rule: &str) -> bool {
    let mut candidates = vec![&lines[idx].comment];
    if idx > 0 && lines[idx - 1].code.trim().is_empty() {
        candidates.push(&lines[idx - 1].comment);
    }
    for comment in candidates {
        if let Some(pos) = comment.find("lint: allow(") {
            let rest = &comment[pos + "lint: allow(".len()..];
            if let Some(close) = rest.find(')') {
                let named = &rest[..close];
                let reason = &rest[close + 1..];
                if named == rule && reason.chars().any(|c| c.is_alphanumeric()) {
                    return true;
                }
            }
        }
    }
    false
}

/// A line declaring a public item that needs its own doc comment: `pub fn`,
/// `pub struct`, … Re-exports (`pub use`) and visibility-restricted items
/// (`pub(crate)`, `pub(super)`) are documented at their definition site and
/// are exempt, as are public struct fields (covered by the item's doc).
fn is_public_item(code: &str) -> bool {
    let trimmed = code.trim_start();
    [
        "pub fn ",
        "pub struct ",
        "pub enum ",
        "pub trait ",
        "pub const ",
        "pub static ",
        "pub type ",
        "pub mod ",
    ]
    .iter()
    .any(|p| trimmed.starts_with(p))
}

/// Whether the nearest content above `idx` — walking over attribute lines and
/// plain `//` comments, which do not detach docs — is a `///` doc comment.
/// A fully blank line breaks the attachment, mirroring rustdoc.
fn has_doc_above(lines: &[SplitLine], idx: usize) -> bool {
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let line = &lines[i];
        let comment = line.comment.trim_start();
        if comment.starts_with("///") {
            return true;
        }
        let code = line.code.trim();
        if code.starts_with("#[") || (code.is_empty() && !comment.is_empty()) {
            continue;
        }
        return false;
    }
    false
}

/// A `[` that indexes a value: directly preceded by an identifier character,
/// `)` or `]`. Excludes attributes (`#[…]`), macro bangs (`vec![…]`) and type
/// positions (preceded by punctuation).
fn has_index_expression(code: &str) -> bool {
    let bytes = code.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' || i == 0 {
            continue;
        }
        let prev = bytes[i - 1];
        if prev.is_ascii_alphanumeric() || prev == b'_' || prev == b')' || prev == b']' {
            return true;
        }
    }
    false
}

/// One source line, split into compilable code and comment text (string and
/// char literal contents blanked out of `code`).
struct SplitLine {
    code: String,
    comment: String,
}

/// Strip comments and literal contents with a line-spanning state machine
/// (block comments, raw strings). Good enough for token scanning; not a
/// parser.
fn split_code_and_comments(source: &str) -> Vec<SplitLine> {
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Code,
        Block(u32),
        Str,
        RawStr(u8),
    }
    // byte-oriented: every delimiter is ASCII and ASCII bytes never occur
    // inside a multi-byte UTF-8 sequence, so byte comparisons are safe even
    // when the scan position sits mid-character
    fn starts(bytes: &[u8], i: usize, pat: &[u8]) -> bool {
        bytes[i..].starts_with(pat)
    }
    let mut state = State::Code;
    let mut out = Vec::new();
    for raw in source.lines() {
        let mut code = String::with_capacity(raw.len());
        let mut comment = String::new();
        let bytes = raw.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            match state {
                State::Block(depth) => {
                    if starts(bytes, i, b"*/") {
                        state = if depth == 1 {
                            State::Code
                        } else {
                            State::Block(depth - 1)
                        };
                        i += 2;
                    } else if starts(bytes, i, b"/*") {
                        state = State::Block(depth + 1);
                        i += 2;
                    } else {
                        comment.push(bytes[i] as char);
                        i += 1;
                    }
                }
                State::Str => {
                    if bytes[i] == b'\\' {
                        i += 2; // skip the escaped byte, whatever it is
                    } else if bytes[i] == b'"' {
                        code.push('"');
                        state = State::Code;
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
                State::RawStr(hashes) => {
                    if bytes[i] == b'"'
                        && bytes[i + 1..].iter().take_while(|&&b| b == b'#').count()
                            >= hashes as usize
                    {
                        code.push('"');
                        state = State::Code;
                        i += 1 + hashes as usize;
                    } else {
                        i += 1;
                    }
                }
                State::Code => {
                    if starts(bytes, i, b"//") {
                        comment.push_str(&raw[i..]);
                        i = bytes.len();
                    } else if starts(bytes, i, b"/*") {
                        state = State::Block(1);
                        i += 2;
                    } else if bytes[i] == b'"' {
                        code.push('"');
                        state = State::Str;
                        i += 1;
                    } else if bytes[i] == b'r'
                        && matches!(bytes.get(i + 1), Some(b'"') | Some(b'#'))
                        && !prev_is_ident(&code)
                    {
                        let hashes = bytes[i + 1..].iter().take_while(|&&b| b == b'#').count();
                        if bytes.get(i + 1 + hashes) == Some(&b'"') {
                            code.push('"');
                            state = State::RawStr(hashes as u8);
                            i += 2 + hashes;
                        } else {
                            code.push('r');
                            i += 1;
                        }
                    } else if bytes[i] == b'\'' {
                        // char literal vs lifetime: a literal closes with a
                        // quote within a few bytes; a lifetime never does
                        if let Some(len) = char_literal_len(&raw[i..]) {
                            code.push_str("' '");
                            i += len;
                        } else {
                            code.push('\'');
                            i += 1;
                        }
                    } else {
                        code.push(bytes[i] as char);
                        i += 1;
                    }
                }
            }
        }
        if state == State::Str {
            state = State::Code; // plain string literals don't span lines here; reset defensively
        }
        out.push(SplitLine { code, comment });
    }
    out
}

fn prev_is_ident(code: &str) -> bool {
    code.bytes()
        .next_back()
        .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
}

/// Length of a char literal starting at `s` (which begins with `'`), or
/// `None` if this is a lifetime.
fn char_literal_len(s: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    if bytes.len() >= 2 && bytes[1] == b'\\' {
        // escaped char: find the closing quote
        return s[2..].find('\'').map(|p| p + 3);
    }
    // unescaped: exactly one char between quotes (multi-byte chars included)
    let mut chars = s.char_indices().skip(1);
    chars.next()?;
    if let Some((close_idx, '\'')) = chars.next() {
        return Some(close_idx + 1);
    }
    None
}

/// Mark lines inside `#[cfg(test)]`-gated items (test modules, test-only
/// helpers) by tracking the brace region that follows the attribute.
fn test_region_mask(lines: &[SplitLine]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut pending = false; // saw the attribute, waiting for the opening brace
    let mut depth: i32 = 0; // brace depth inside the gated region
    for (idx, line) in lines.iter().enumerate() {
        let code = &line.code;
        if depth > 0 {
            mask[idx] = true;
            depth += brace_delta(code);
            continue;
        }
        if pending {
            mask[idx] = true;
            if code.contains('{') {
                pending = false;
                depth = brace_delta(code).max(0);
            } else if code.contains(';') {
                pending = false; // gated a braceless item (`use`, `const`)
            }
            continue;
        }
        if let Some(pos) = code.find("#[cfg(test)]") {
            pending = true;
            mask[idx] = true;
            let after = &code[pos + "#[cfg(test)]".len()..];
            if after.contains('{') {
                pending = false;
                depth = brace_delta(after).max(0);
            }
        }
    }
    mask
}

fn brace_delta(code: &str) -> i32 {
    code.bytes().fold(0i32, |acc, b| match b {
        b'{' => acc + 1,
        b'}' => acc - 1,
        _ => acc,
    })
}

/// Every crate root must forbid `unsafe` and document itself.
fn check_crate_hygiene(root: &Path, files: &[PathBuf], findings: &mut Vec<Finding>) {
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let is_root = rel.ends_with("/src/lib.rs")
            || (rel.ends_with("/src/main.rs") && !rel.contains("/src/bin/"));
        if !is_root {
            continue;
        }
        // a crate with both lib.rs and main.rs: lib.rs is the crate root
        if rel.ends_with("/src/main.rs") && file.with_file_name("lib.rs").exists() {
            continue;
        }
        let Ok(source) = std::fs::read_to_string(file) else {
            continue;
        };
        if !source.contains("#![forbid(unsafe_code)]") {
            findings.push(Finding {
                path: rel.clone(),
                line: 1,
                rule: "crate-hygiene",
                message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
            });
        }
        if !source.lines().any(|l| l.starts_with("//!")) {
            findings.push(Finding {
                path: rel.clone(),
                line: 1,
                rule: "crate-hygiene",
                message: "crate root is missing crate-level `//!` documentation".to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(rel: &str, source: &str) -> Vec<String> {
        let mut findings = Vec::new();
        lint_file(rel, source, &mut findings);
        findings.iter().map(|f| f.to_string()).collect()
    }

    const LIB: &str = "crates/datagen/src/generator.rs";
    const STRICT: &str = "crates/ttc-social-media/src/pipeline.rs";

    #[test]
    fn unwrap_in_library_code_is_flagged() {
        let hits = lint_str(LIB, "fn f() { x.unwrap(); }\n");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].contains("[panic]"));
    }

    #[test]
    fn an_annotated_unwrap_with_a_reason_passes() {
        let src = "fn f() { x.unwrap(); } // lint: allow(panic) — checked above\n";
        assert!(lint_str(LIB, src).is_empty());
        let above = "// lint: allow(panic) — checked above\nfn g() { x.unwrap(); }\n";
        assert!(lint_str(LIB, above).is_empty());
    }

    #[test]
    fn an_annotation_without_a_reason_does_not_count() {
        let src = "fn f() { x.unwrap(); } // lint: allow(panic)\n";
        assert_eq!(lint_str(LIB, src).len(), 1);
    }

    #[test]
    fn test_modules_binaries_and_strings_are_exempt() {
        let test_mod = "#[cfg(test)]\nmod tests {\n  fn f() { x.unwrap(); }\n}\n";
        assert!(lint_str(LIB, test_mod).is_empty());
        let binary = "fn main() { x.unwrap(); }\n";
        assert!(lint_str("crates/bench/src/bin/run.rs", binary).is_empty());
        let in_string = "fn f() -> &'static str { \".unwrap()\" }\n";
        assert!(lint_str(LIB, in_string).is_empty());
        let in_comment = "// .unwrap() is forbidden here\nfn f() {}\n";
        assert!(lint_str(LIB, in_comment).is_empty());
    }

    #[test]
    fn strict_modules_flag_indexing_sends_and_undocumented_locks() {
        assert!(lint_str(LIB, "fn f(v: &[u8]) -> u8 { v[0] }\n").is_empty());
        let hits = lint_str(STRICT, "fn f(v: &[u8]) -> u8 { v[0] }\n");
        assert!(hits.iter().any(|h| h.contains("[index]")), "{hits:?}");

        let hits = lint_str(STRICT, "fn f() { let _ = tx.send(1); }\n");
        assert!(hits.iter().any(|h| h.contains("[raw-send]")), "{hits:?}");

        let hits = lint_str(STRICT, "fn f() { let _ = m.lock(); }\n");
        assert!(hits.iter().any(|h| h.contains("[lock-policy]")), "{hits:?}");
        let documented = "// on poison: recover via into_inner\nfn f() { let _ = m.lock(); }\n";
        assert!(lint_str(STRICT, documented).is_empty());
    }

    const DOC: &str = "crates/ttc-social-media/src/serve.rs";

    #[test]
    fn undocumented_public_items_in_the_serving_module_are_flagged() {
        let hits = lint_str(DOC, "pub fn latest() {}\n");
        assert!(hits.iter().any(|h| h.contains("[pub-doc]")), "{hits:?}");
        // the same item outside a DOC_MODULES file passes
        assert!(lint_str(LIB, "pub fn latest() {}\n").is_empty());
    }

    #[test]
    fn documented_attributed_and_private_items_pass_pub_doc() {
        assert!(lint_str(DOC, "/// Returns the view.\npub fn latest() {}\n").is_empty());
        let attributed = "/// A sealed view.\n#[derive(Clone)]\npub struct QueryView;\n";
        assert!(lint_str(DOC, attributed).is_empty());
        assert!(lint_str(DOC, "fn private() {}\n").is_empty());
        assert!(lint_str(DOC, "pub(crate) fn internal() {}\n").is_empty());
    }

    #[test]
    fn a_blank_line_detaches_the_doc_comment() {
        let detached = "/// Orphaned doc.\n\npub fn latest() {}\n";
        let hits = lint_str(DOC, detached);
        assert!(hits.iter().any(|h| h.contains("[pub-doc]")), "{hits:?}");
        // a plain comment between doc and item does not detach it
        let bridged = "/// Returns the view.\n// implementation note\npub fn latest() {}\n";
        assert!(lint_str(DOC, bridged).is_empty());
    }

    #[test]
    fn attributes_and_macros_are_not_index_expressions() {
        assert!(!has_index_expression("#[derive(Debug)]"));
        assert!(!has_index_expression("let v = vec![1, 2];"));
        assert!(!has_index_expression("fn f(x: [u8; 4]) {}"));
        assert!(has_index_expression("let x = data[i];"));
        assert!(has_index_expression("let x = f()[0];"));
    }

    #[test]
    fn the_repo_lints_clean() {
        let findings = run_lint(&workspace_root()).expect("lint runs");
        assert!(
            findings.is_empty(),
            "workspace lint found:\n{}",
            findings
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
