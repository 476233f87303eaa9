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
//! `http(s):`/`mailto:` targets are skipped — CI has no network.
//!
//! With `--changes` it checks only the size budget of a changelog
//! (default `CHANGES.md`): every entry from PR 22 on — a top-level `- `
//! bullet and the lines under it — is at most 15 non-blank lines. Link
//! and path checks stay off there, because an entry legitimately names
//! the paths it deleted.
//!
//! ```text
//! docs_gate [file.md]...
//! docs_gate --changes [CHANGES.md]...
//! ```
//!
//! Exit status: 0 when every reference resolves (every entry fits), 1
//! otherwise (each failure is reported as `file:line: message`).

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

/// Whether `source` defines `item` as a `fn`, `struct`, `enum`, `trait`,
/// `type`, `const` or `mod`.
fn defines(source: &str, item: &str) -> bool {
    ["fn", "struct", "enum", "trait", "type", "const", "mod"].iter().any(|kw| {
        let needle = format!("{kw} {item}");
        source.match_indices(&needle).any(|(at, _)| {
            let before = source[..at].chars().next_back();
            let after = source[at + needle.len()..].chars().next();
            !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
        })
    })
}

/// Every file under `dir` whose path ends in `file` (a bare name or a
/// repo path).
fn files_ending_in(dir: &Path, file: &str, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            files_ending_in(&path, file, out);
        } else if path.ends_with(file) {
            out.push(path);
        }
    }
}

/// Whether some `.rs` file named `file` under a path root of `root`
/// defines every one of `items`.
fn item_resolves(root: &Path, file: &str, items: &[String]) -> bool {
    let mut candidates = Vec::new();
    for top in PATH_ROOTS {
        files_ending_in(&root.join(top), file, &mut candidates);
    }
    candidates.iter().any(|path| {
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

fn main() -> ExitCode {
    let mut files: Vec<String> = std::env::args().skip(1).collect();
    let changes = files.first().is_some_and(|a| a == "--changes");
    let check: fn(&Path, &mut Vec<String>) = if changes {
        files.remove(0);
        if files.is_empty() {
            files = vec!["CHANGES.md".into()];
        }
        check_changes
    } else {
        if files.is_empty() {
            files = vec!["README.md".into(), "ARCHITECTURE.md".into(), "ROADMAP.md".into()];
        }
        check_file
    };
    let mut failures = Vec::new();
    for f in &files {
        check(Path::new(f), &mut failures);
    }
    if failures.is_empty() {
        println!("docs_gate: {} file(s) clean", files.len());
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
}
