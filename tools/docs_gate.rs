//! CI docs gate: verify that the repo's guide documents do not rot.
//!
//! Given markdown files (default: `README.md ARCHITECTURE.md
//! ROADMAP.md`), this tool checks, outside fenced code blocks:
//!
//! * **Relative links** `[text](path)` — the path must exist on disk,
//!   resolved against the linking file's directory.
//! * **Anchors** `[text](path#anchor)` / `[text](#anchor)` — the anchor
//!   must match a heading of the target file, using GitHub's slug rules
//!   (lowercase, alphanumerics kept, spaces become hyphens, other
//!   punctuation dropped, duplicates suffixed `-1`, `-2`, …).
//! * **Backticked repo paths** — an inline code span that looks like a
//!   repo path (no whitespace, contains `/`, first segment is a
//!   top-level directory such as `crates/` or `tools/`) must exist, so
//!   prose referring to a file that was moved or deleted fails the
//!   build instead of silently going stale.
//! * **Backticked items** `file.rs::item` (or `file.rs::Type::method`,
//!   the file named bare or by its repo path) — a `.rs` file of that name
//!   must exist under one of those top-level directories and define every
//!   name after it as a `fn`, `struct`, `enum`, `trait`, `type`, `const`
//!   or `mod`, so prose citing a deleted function fails too.
//!
//! `http(s):`/`mailto:` targets are skipped — CI has no network. The same
//! run checks the `//!` and `///` docs of every Rust file under those
//! top-level directories: each `.md` name they cite must exist, as written
//! from the repo root or from the citing file's package directory.
//!
//! With `--changes` it checks only the size budget of a changelog
//! (default `CHANGES.md`): every entry from PR 22 on — a top-level `- `
//! bullet and the lines under it — is at most 15 non-blank lines. Link
//! and path checks stay off there, because an entry legitimately names
//! the paths it deleted.
//!
//! With `--surface <allowlist>` it checks the library crates' public
//! surface instead (see [`surface`]): a public item that no production
//! code names must be on the allowlist with a reason, and every allowlist
//! line must still name such an item, so the list only shrinks.
//!
//! ```text
//! docs_gate [markdown]...
//! docs_gate --changes [changelog]...
//! docs_gate --surface <allowlist>
//! ```
//!
//! Exit status: 0 when every reference resolves (every entry fits, every
//! dead item is listed), 1 otherwise (each failure is reported as
//! `file:line: message`).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Top-level directories whose backticked mentions are treated as repo
/// paths and checked for existence.
const PATH_ROOTS: [&str; 7] = ["crates", "tools", "tests", "shims", "examples", "src", ".github"];

/// The first PR whose changelog entry is held to [`ENTRY_MAX_LINES`].
const BUDGETED_FROM_PR: u32 = 22;

/// Non-blank lines one budgeted changelog entry may take.
const ENTRY_MAX_LINES: usize = 15;

/// GitHub's heading-to-anchor slug: lowercase, keep alphanumerics and
/// hyphens, map spaces to hyphens, drop everything else.
fn slug(heading: &str) -> String {
    let mut out = String::new();
    for c in heading.trim().chars() {
        if c.is_alphanumeric() {
            out.extend(c.to_lowercase());
        } else if c == ' ' || c == '-' {
            out.push('-');
        }
    }
    out
}

/// Strip markdown formatting GitHub ignores when slugging a heading:
/// backticks, emphasis markers, and link syntax (`[text](target)` keeps
/// only `text`).
fn heading_text(raw: &str) -> String {
    let mut out = String::new();
    let mut chars = raw.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '`' | '*' => {}
            '[' => {}
            ']' => {
                // Drop a following "(target)" group, if any.
                if chars.peek() == Some(&'(') {
                    for t in chars.by_ref() {
                        if t == ')' {
                            break;
                        }
                    }
                }
            }
            _ => out.push(c),
        }
    }
    out
}

/// All heading anchors of a markdown document, with GitHub's duplicate
/// suffixing.
fn anchors(text: &str) -> Vec<String> {
    let mut seen: Vec<(String, usize)> = Vec::new();
    let mut out = Vec::new();
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence || !line.starts_with('#') {
            continue;
        }
        let title = line.trim_start_matches('#');
        if !title.starts_with(' ') && !title.is_empty() {
            continue; // "#foo" is not a heading
        }
        let base = slug(&heading_text(title));
        match seen.iter_mut().find(|(s, _)| *s == base) {
            Some((_, n)) => {
                *n += 1;
                out.push(format!("{base}-{n}"));
            }
            None => {
                seen.push((base.clone(), 0));
                out.push(base);
            }
        }
    }
    out
}

/// Extract `[text](target)` targets from one line, ignoring inline code
/// spans (odd segments of a backtick split).
fn link_targets(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (i, seg) in line.split('`').enumerate() {
        if i % 2 == 1 {
            continue;
        }
        let mut rest = seg;
        while let Some(pos) = rest.find("](") {
            let after = &rest[pos + 2..];
            match after.find(')') {
                Some(end) => {
                    out.push(after[..end].to_string());
                    rest = &after[end + 1..];
                }
                None => break,
            }
        }
    }
    out
}

/// Extract backticked repo-path candidates from one line.
fn path_mentions(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (i, seg) in line.split('`').enumerate() {
        if i % 2 == 0 || seg.contains(char::is_whitespace) || !seg.contains('/') {
            continue;
        }
        let first = seg.split('/').next().unwrap_or("");
        if PATH_ROOTS.contains(&first) {
            out.push(seg.to_string());
        }
    }
    out
}

/// Extract backticked `file.rs::item` spans from one line, as the file
/// and the names after it.
fn item_mentions(line: &str) -> Vec<(String, Vec<String>)> {
    let mut out = Vec::new();
    for (i, seg) in line.split('`').enumerate() {
        let Some((file, items)) = seg.split_once(".rs::") else { continue };
        if i % 2 == 0 || seg.contains(char::is_whitespace) {
            continue;
        }
        out.push((format!("{file}.rs"), items.split("::").map(str::to_string).collect()));
    }
    out
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Item keywords a definition line may start with (after its visibility
/// and qualifiers such as `const fn`).
const ITEM_KINDS: [&str; 8] = ["fn", "struct", "enum", "trait", "type", "const", "static", "mod"];

/// The item one line defines, as `(public, keyword, name)`; `public` is
/// plain `pub`, not `pub(...)`.
fn definition(line: &str) -> Option<(bool, &str, &str)> {
    let mut rest = line.trim_start();
    let public = rest.starts_with("pub ");
    if public {
        rest = &rest[4..];
    } else if rest.starts_with("pub(") {
        rest = &rest[rest.find(')')? + 1..];
    }
    let words: Vec<&str> = rest.split_whitespace().take(4).collect();
    for (i, w) in words.iter().enumerate() {
        let next = words.get(i + 1).copied().unwrap_or("");
        if ITEM_KINDS.contains(w) && !ITEM_KINDS.contains(&next) {
            let name = &next[..next.find(|c| !is_ident(c)).unwrap_or(next.len())];
            return (!name.is_empty()).then_some((public, *w, name));
        }
        if !["const", "unsafe", "async"].contains(w) {
            return None;
        }
    }
    None
}

/// Whether `source` defines `item` as a `fn`, `struct`, `enum`, `trait`,
/// `type`, `const`, `static` or `mod`.
fn defines(source: &str, item: &str) -> bool {
    source.lines().any(|line| definition(line).is_some_and(|(_, _, name)| name == item))
}

/// Every file under `dir`, recursively, in path order.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir).into_iter().flatten().flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// Whether some `.rs` file named `file` under a path root of `root`
/// defines every one of `items`.
fn item_resolves(root: &Path, file: &str, items: &[String]) -> bool {
    let mut candidates = Vec::new();
    for top in PATH_ROOTS {
        walk(&root.join(top), &mut candidates);
    }
    candidates.iter().filter(|path| path.ends_with(file)).any(|path| {
        let source = fs::read_to_string(path).unwrap_or_default();
        items.iter().all(|item| defines(&source, item))
    })
}

/// Check one markdown file; push failures as `file:line: message`.
fn check_file(path: &Path, failures: &mut Vec<String>) {
    let Ok(text) = fs::read_to_string(path) else {
        failures.push(format!("{}: unreadable", path.display()));
        return;
    };
    let own_anchors = anchors(&text);
    let dir = path.parent().unwrap_or(Path::new("."));
    let mut in_fence = false;
    for (idx, line) in text.lines().enumerate() {
        let at = format!("{}:{}", path.display(), idx + 1);
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        for target in link_targets(line) {
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with("mailto:")
            {
                continue;
            }
            let (file_part, anchor) = match target.split_once('#') {
                Some((f, a)) => (f, Some(a.to_string())),
                None => (target.as_str(), None),
            };
            let (resolved, target_anchors): (PathBuf, Vec<String>) = if file_part.is_empty() {
                (path.to_path_buf(), own_anchors.clone())
            } else {
                let resolved = dir.join(file_part);
                if !resolved.exists() {
                    failures.push(format!("{at}: dead link target `{file_part}`"));
                    continue;
                }
                let linked = match anchor {
                    Some(_) => fs::read_to_string(&resolved).unwrap_or_default(),
                    None => String::new(),
                };
                (resolved, anchors(&linked))
            };
            if let Some(a) = anchor {
                if !target_anchors.contains(&a) {
                    failures.push(format!("{at}: dead anchor `#{a}` in `{}`", resolved.display()));
                }
            }
        }
        for mention in path_mentions(line) {
            if !Path::new(mention.trim_end_matches('/')).exists() {
                failures.push(format!("{at}: stale repo path `{mention}`"));
            }
        }
        for (file, items) in item_mentions(line) {
            if !item_resolves(Path::new("."), &file, &items) {
                let span = format!("{file}::{}", items.join("::"));
                failures.push(format!("{at}: `{span}` names no item of a file `{file}`"));
            }
        }
    }
}

/// The changelog entries over budget, as `(first line, PR, non-blank
/// lines)`. An entry starts at a top-level `- ` bullet and is budgeted
/// when the first `PR <n>` on that line has `n >= BUDGETED_FROM_PR`.
fn entries_over_budget(text: &str) -> Vec<(usize, u32, usize)> {
    let mut entries: Vec<(usize, Option<u32>, usize)> = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if let Some(head) = line.strip_prefix("- ") {
            let pr = head.split("PR ").nth(1).and_then(|rest| {
                let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
                digits.parse().ok()
            });
            entries.push((idx + 1, pr, 1));
        } else if let Some(entry) = entries.last_mut().filter(|_| !line.trim().is_empty()) {
            entry.2 += 1;
        }
    }
    entries
        .into_iter()
        .filter_map(|(at, pr, lines)| Some((at, pr?, lines)))
        .filter(|&(_, pr, lines)| pr >= BUDGETED_FROM_PR && lines > ENTRY_MAX_LINES)
        .collect()
}

/// Check one changelog's size budget; push failures as `file:line: message`.
fn check_changes(path: &Path, failures: &mut Vec<String>) {
    let Ok(text) = fs::read_to_string(path) else {
        failures.push(format!("{}: unreadable", path.display()));
        return;
    };
    for (at, pr, lines) in entries_over_budget(&text) {
        failures.push(format!(
            "{}:{at}: the PR {pr} entry is {lines} lines; entries from PR {BUDGETED_FROM_PR} on \
             take at most {ENTRY_MAX_LINES}",
            path.display()
        ));
    }
}

/// The `.rs` files under the `dirs` of `root`, as (path relative to
/// `root`, text), in path order.
fn rust_sources(root: &Path, dirs: &[&str]) -> Vec<(String, String)> {
    let mut files = Vec::new();
    for dir in dirs {
        walk(&root.join(dir), &mut files);
    }
    let rust = files.into_iter().filter(|path| path.extension().is_some_and(|e| e == "rs"));
    rust.map(|path| {
        let rel = path.strip_prefix(root).unwrap_or(&path).display().to_string();
        (rel, fs::read_to_string(&path).unwrap_or_default())
    })
    .collect()
}

/// A file's production text: the lines above its first `#[cfg(test)]`,
/// each cut at its first `//`.
fn production(source: &str) -> impl Iterator<Item = &str> {
    let lines = source.lines().take_while(|line| !line.contains("#[cfg(test)]"));
    lines.map(|line| line.find("//").map_or(line, |at| &line[..at]))
}

/// Word-boundary tokens of a text: its maximal runs of identifier chars.
fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c| !is_ident(c)).filter(|w| !w.is_empty())
}

/// The public surface under `root`, as `(path::name, dead)`: every
/// plain-`pub` `fn`, `struct`, `enum`, `trait`, `type`, `const` or
/// `static` whose definition starts a line (indented or not) of
/// `crates/*/src`, outside `src/bin` and above the file's first
/// `#[cfg(test)]`. It is dead when its name, as a word, occurs in no
/// production text but its own definition; production text is those
/// files plus `crates/*/src/bin`, `crates/*/benches`, `src`, `examples`,
/// `tools` and `benchmark/src`.
fn surface(root: &Path) -> Vec<(String, bool)> {
    fn part(rel: &str, n: usize) -> &str {
        rel.split('/').nth(n).unwrap_or("")
    }
    let mut sources = rust_sources(root, &["crates", "src", "examples", "tools", "benchmark/src"]);
    sources
        .retain(|(rel, _)| part(rel, 0) != "crates" || ["src", "benches"].contains(&part(rel, 2)));
    let mut uses = std::collections::HashMap::<&str, usize>::new();
    for word in sources.iter().flat_map(|(_, source)| production(source)).flat_map(words) {
        *uses.entry(word).or_default() += 1;
    }
    let mut items = Vec::new();
    for (rel, source) in &sources {
        if part(rel, 0) != "crates" || part(rel, 2) != "src" || part(rel, 3) == "bin" {
            continue;
        }
        for line in production(source) {
            if let Some((_, _, name)) =
                definition(line).filter(|&(public, kind, _)| public && kind != "mod")
            {
                let own = words(line).filter(|w| *w == name).count();
                items.push((format!("{rel}::{name}"), uses[name] == own));
            }
        }
    }
    items
}

/// Check `items` against the allowlist `list` of dead ones
/// (`path::name  reason` lines; `#` starts a comment): every dead item
/// needs a line, and every line must name a dead item and give a reason.
fn check_surface(items: &[(String, bool)], list: &str, allowlist: &str) -> Vec<String> {
    let mut failures = Vec::new();
    let mut listed = Vec::new();
    for (idx, line) in allowlist.lines().enumerate() {
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let (item, reason) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        listed.push(item);
        let problem = match items.iter().find(|(path, _)| path == item) {
            _ if reason.trim().is_empty() => "gives no reason",
            None => "is stale: no such public item",
            Some((_, false)) => "is stale: production code names it now",
            Some(_) => continue,
        };
        failures.push(format!("{list}:{}: `{item}` {problem}", idx + 1));
    }
    for (path, _) in items.iter().filter(|(path, dead)| *dead && !listed.contains(&path.as_str())) {
        failures.push(format!(
            "{path}: public, but no production code names it; delete it, make it \
             pub(crate), or list it with a reason"
        ));
    }
    failures
}

/// The `.md` names cited in the `//!` and `///` lines of a Rust source,
/// as `(line, name)`.
fn md_citations(source: &str) -> Vec<(usize, &str)> {
    let docs = source.lines().enumerate().filter(|(_, line)| {
        let line = line.trim_start();
        line.starts_with("//!") || line.starts_with("///")
    });
    let words = docs.flat_map(|(idx, line)| {
        let words = line.split(|c: char| !is_ident(c) && !"./-".contains(c));
        words.map(move |word| (idx + 1, word.trim_end_matches('.')))
    });
    words
        .filter(|(_, word)| word.strip_suffix(".md").is_some_and(|stem| stem.ends_with(is_ident)))
        .collect()
}

/// Check that every `.md` name cited in the Rust docs under the path
/// roots of `root` exists, as written from `root` or from the citing
/// file's package directory (its nearest ancestor with a `Cargo.toml`).
fn check_rust_docs(root: &Path, failures: &mut Vec<String>) {
    for (rel, source) in rust_sources(root, &PATH_ROOTS) {
        let path = root.join(&rel);
        let package = path.ancestors().skip(1).find(|dir| dir.join("Cargo.toml").exists());
        for (line, name) in md_citations(&source) {
            if !root.join(name).exists() && !package.is_some_and(|dir| dir.join(name).exists()) {
                failures.push(format!("{rel}:{line}: cites `{name}`, which does not exist"));
            }
        }
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut failures = Vec::new();
    let clean = match args.first().map(String::as_str) {
        Some("--surface") => {
            let Some(list) = args.get(1) else {
                eprintln!("usage: docs_gate --surface <allowlist>");
                return ExitCode::from(2);
            };
            let allowlist = fs::read_to_string(list).unwrap_or_else(|e| {
                failures.push(format!("{list}: {e}"));
                String::new()
            });
            let items = surface(Path::new("."));
            let dead = items.iter().filter(|(_, dead)| *dead).count();
            println!("docs_gate: {} public items, {dead} named by no production code", items.len());
            failures.extend(check_surface(&items, list, &allowlist));
            format!("every one of the {dead} is on {list}")
        }
        Some("--changes") => {
            args.remove(0);
            if args.is_empty() {
                args = vec!["CHANGES.md".into()];
            }
            for f in &args {
                check_changes(Path::new(f), &mut failures);
            }
            format!("{} file(s) clean", args.len())
        }
        _ => {
            if args.is_empty() {
                args = vec!["README.md".into(), "ARCHITECTURE.md".into(), "ROADMAP.md".into()];
            }
            for f in &args {
                check_file(Path::new(f), &mut failures);
            }
            check_rust_docs(Path::new("."), &mut failures);
            format!("{} file(s) and the Rust docs clean", args.len())
        }
    };
    if failures.is_empty() {
        println!("docs_gate: {clean}");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("{f}");
        }
        eprintln!("docs_gate: {} failure(s)", failures.len());
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs_match_github() {
        assert_eq!(slug("The adaptive runtime"), "the-adaptive-runtime");
        assert_eq!(slug("Failure model & recovery"), "failure-model--recovery");
        assert_eq!(slug("Networking & service"), "networking--service");
        assert_eq!(
            slug(&heading_text(" The one-round / multi-round story")),
            "the-one-round--multi-round-story"
        );
        assert_eq!(slug(&heading_text(" A `code` [link](x.md) title")), "a-code-link-title");
    }

    #[test]
    fn duplicate_headings_are_suffixed() {
        let text = "# A\n## Same\n## Same\n";
        assert_eq!(anchors(text), vec!["a", "same", "same-1"]);
    }

    #[test]
    fn fenced_blocks_are_ignored() {
        let text = "# Top\n```text\n# not a heading\n[x](nowhere.md)\n```\n";
        assert_eq!(anchors(text), vec!["top"]);
        let fenced_line: Vec<String> = link_targets("[x](real.md) `[y](fake.md)`");
        assert_eq!(fenced_line, vec!["real.md"]);
    }

    #[test]
    fn changes_entries_from_the_budgeted_pr_on_fit_the_budget() {
        let entry = |head: &str, lines: usize| {
            let body = "  more\n".repeat(lines - 1);
            format!("- {head}\n{body}\n")
        };
        let text = [
            "# CHANGES\n\n".to_string(),
            entry("PR 21: long, but before the budget", 40),
            entry("**PR 22 · exactly at the budget**", ENTRY_MAX_LINES),
            entry("**PR 23 · one line over**", ENTRY_MAX_LINES + 1),
            entry("PR 24, second pass: short", 2),
        ]
        .concat();
        let first_line_of_23 = 3 + 41 + 16;
        assert_eq!(entries_over_budget(&text), vec![(first_line_of_23, 23, ENTRY_MAX_LINES + 1)]);
        assert!(entries_over_budget("- no PR named here\n  x\n").is_empty());
    }

    #[test]
    fn item_spans_resolve_only_to_defined_items() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("the repo root");
        let line = "`docs_gate.rs::defines` and `tools/docs_gate.rs::gone_fn`, `a.rs::b c`";
        let mentions = item_mentions(line);
        assert_eq!(mentions.len(), 2, "{mentions:?}");
        let resolves = |(file, items): &(String, Vec<String>)| item_resolves(root, file, items);
        assert!(resolves(&mentions[0]), "a defined fn resolves");
        assert!(!resolves(&mentions[1]), "a deleted fn does not");
        let missing_file = ("nowhere.rs".to_string(), vec!["main".to_string()]);
        assert!(!resolves(&missing_file), "nor an item of a file that does not exist");
        assert!(defines("pub(crate) struct Master {", "Master"));
        assert!(!defines("fn on_event()", "on"), "a prefix of a name is not the name");
    }

    #[test]
    fn path_mentions_are_filtered() {
        assert_eq!(path_mentions("see `crates/lp/src` and `n_R/p_x` maths"), vec!["crates/lp/src"]);
        assert!(path_mentions("ratio `fresh/base` only").is_empty());
        assert!(path_mentions("no spans here").is_empty());
    }

    /// Run `check` on a throwaway tree of `(path, text)` files.
    fn in_tree<T>(name: &str, files: &[(&str, &str)], check: impl FnOnce(&Path) -> T) -> T {
        let root = std::env::temp_dir().join(format!("docs_gate_{}_{name}", std::process::id()));
        for (path, text) in files {
            fs::create_dir_all(root.join(path).parent().expect("a parent")).unwrap();
            fs::write(root.join(path), text).unwrap();
        }
        let out = check(&root);
        fs::remove_dir_all(&root).unwrap();
        out
    }

    #[test]
    fn definitions_are_read_off_the_line_start() {
        assert_eq!(definition("    pub const fn x() {"), Some((true, "fn", "x")));
        assert_eq!(definition("pub const LIMIT: u8 = 1;"), Some((true, "const", "LIMIT")));
        assert_eq!(definition("pub(crate) struct S;"), Some((false, "struct", "S")));
        assert_eq!(definition("pub mod grid;"), Some((true, "mod", "grid")));
        assert_eq!(definition("pub use a::b;"), None);
        assert_eq!(definition("let fn_x = 1;"), None);
    }

    #[test]
    fn only_production_callers_keep_public_items_alive() {
        let lib = "pub fn by_example() {}\npub fn by_bench() {}\npub fn by_bin() {}\n\
                   pub fn in_comment() {}\npub fn in_cfg_test() {}\npub fn in_tests() {}\n\
                   pub(crate) fn internal() {}\n// in_comment()\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { super::in_cfg_test(); }\n}\n";
        let files = [
            ("crates/a/src/lib.rs", lib),
            ("crates/a/src/bin/tool.rs", "pub fn helper() {}\nfn main() { a::by_bin(); }"),
            ("crates/a/benches/b.rs", "fn main() { a::by_bench(); }"),
            ("examples/e.rs", "fn main() { a::by_example(); }"),
            ("crates/a/tests/t.rs", "fn t() { a::in_tests(); }"),
            ("tests/t.rs", "fn t() { a::in_tests(); }"),
        ];
        let items = in_tree("surface", &files, surface);
        let names: Vec<(&str, bool)> = items
            .iter()
            .map(|(path, dead)| (&path["crates/a/src/lib.rs::".len()..], *dead))
            .collect();
        let alive = [("by_example", false), ("by_bench", false), ("by_bin", false)];
        let dead = [("in_comment", true), ("in_cfg_test", true), ("in_tests", true)];
        assert_eq!(names, [alive, dead].concat(), "no bin item, no pub(crate) item");
        let failures = check_surface(&items, "allow", "");
        assert_eq!(failures.len(), 3, "{failures:?}");
        assert!(failures[0].starts_with("crates/a/src/lib.rs::in_comment: public, but"));
    }

    #[test]
    fn stale_allowlist_lines_fail() {
        let items = [("a.rs::dead".to_string(), true), ("a.rs::called".to_string(), false)];
        assert!(check_surface(&items, "allow", "# why\na.rs::dead  a reason\n").is_empty());
        let stale = "a.rs::dead  r\na.rs::called  r\na.rs::gone  r\na.rs::dead\n";
        let failures = check_surface(&items, "allow", stale);
        assert_eq!(
            failures,
            [
                "allow:2: `a.rs::called` is stale: production code names it now",
                "allow:3: `a.rs::gone` is stale: no such public item",
                "allow:4: `a.rs::dead` gives no reason",
            ]
        );
    }

    #[test]
    fn rust_docs_cite_only_existing_markdown() {
        let source =
            "//! See README.md and `crates/a/NOTES.md`.\n/// Also GONE.md, not *.md.\nfn x() {}";
        let cited = md_citations(source);
        assert_eq!(cited, [(1, "README.md"), (1, "crates/a/NOTES.md"), (2, "GONE.md")]);
        let lib = "//! The root README.md, the package NOTES.md, and GONE.md.\n";
        let files = [
            ("README.md", ""),
            ("crates/a/Cargo.toml", ""),
            ("crates/a/NOTES.md", ""),
            ("crates/a/src/lib.rs", lib),
        ];
        let mut failures = Vec::new();
        in_tree("md", &files, |root| check_rust_docs(root, &mut failures));
        assert_eq!(failures, ["crates/a/src/lib.rs:1: cites `GONE.md`, which does not exist"]);
    }
}
