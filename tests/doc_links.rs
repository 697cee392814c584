//! Doc-link integrity: every relative markdown link in the top-level
//! docs and `docs/*.md` must point at a file (or directory) that
//! exists, so renames and deletions can't silently strand readers.
//! External (`http…`), `mailto:`, and pure-anchor links are skipped;
//! `#fragment` suffixes are stripped before the existence check.

use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The documentation set the checker walks.
fn doc_files() -> Vec<PathBuf> {
    let root = repo_root();
    let mut files = vec![root.join("README.md"), root.join("DESIGN.md")];
    let docs = root.join("docs");
    let entries = std::fs::read_dir(&docs).expect("docs/ directory exists");
    for entry in entries {
        let path = entry.expect("read docs/ entry").path();
        if path.extension().is_some_and(|e| e == "md") {
            files.push(path);
        }
    }
    files.sort();
    assert!(
        files.len() >= 7,
        "expected README, DESIGN, and at least five docs/*.md, found {files:?}"
    );
    files
}

/// Extracts inline markdown link targets: the `target` of `[text](target)`.
/// Fenced code blocks are skipped (their brackets are code, not links).
fn link_targets(text: &str) -> Vec<String> {
    let mut targets = Vec::new();
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let bytes = line.as_bytes();
        let mut i = 0;
        while i + 1 < bytes.len() {
            if bytes[i] == b']' && bytes[i + 1] == b'(' {
                if let Some(close) = line[i + 2..].find(')') {
                    targets.push(line[i + 2..i + 2 + close].to_string());
                    i += 2 + close;
                    continue;
                }
            }
            i += 1;
        }
    }
    targets
}

#[test]
fn no_dangling_relative_links() {
    let mut dangling: Vec<String> = Vec::new();
    let mut checked = 0usize;
    for file in doc_files() {
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
        let base = file.parent().expect("doc file has a parent directory");
        for target in link_targets(&text) {
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with("mailto:")
                || target.starts_with('#')
            {
                continue;
            }
            let path_part = target.split('#').next().unwrap_or(&target);
            if path_part.is_empty() {
                continue;
            }
            checked += 1;
            let resolved = base.join(path_part);
            if !resolved.exists() {
                dangling.push(format!(
                    "{}: [..]({target}) -> {}",
                    file.strip_prefix(repo_root()).unwrap_or(&file).display(),
                    resolved.display()
                ));
            }
        }
    }
    assert!(
        checked >= 10,
        "link scan found only {checked} relative links — scanner is likely broken"
    );
    assert!(
        dangling.is_empty(),
        "dangling doc links:\n  {}",
        dangling.join("\n  ")
    );
}

/// The docs index must list every guide that exists, and only guides
/// that exist (the existence half is covered above; this pins the
/// coverage half so a new guide can't be forgotten).
#[test]
fn docs_index_lists_every_guide() {
    let root = repo_root();
    let index = std::fs::read_to_string(root.join("docs/README.md")).expect("docs/README.md");
    for file in doc_files() {
        let name = file.file_name().unwrap().to_string_lossy().into_owned();
        if file.parent().unwrap() != root.join("docs") || name == "README.md" {
            continue;
        }
        assert!(
            index.contains(&format!("({name})")),
            "docs/README.md does not link {name}"
        );
    }
}

/// The names that follow `--bin ` in `text`.
fn bin_names(text: &str) -> Vec<&str> {
    text.split("--bin ")
        .skip(1)
        .map(|rest| {
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(rest.len());
            &rest[..end]
        })
        .collect()
}

/// Every `--bin NAME` in the docs names a binary that exists
/// (`crates/*/src/bin/NAME.rs`), so a command for a deleted tool can't
/// be left behind for readers to copy.
#[test]
fn docs_name_only_binaries_that_exist() {
    assert_eq!(
        bin_names("cargo run --bin fig2 -- --cores 16\n--bin cohesion_loadgen"),
        vec!["fig2", "cohesion_loadgen"]
    );
    let exists = |name: &str| {
        std::fs::read_dir(repo_root().join("crates"))
            .expect("crates/ directory")
            .any(|krate| {
                let krate = krate.expect("read crates/ entry").path();
                krate.join(format!("src/bin/{name}.rs")).is_file()
            })
    };
    let mut checked = 0usize;
    let mut unknown = Vec::new();
    for file in doc_files() {
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
        for name in bin_names(&text) {
            checked += 1;
            if !exists(name) {
                unknown.push(format!(
                    "{}: --bin {name}",
                    file.strip_prefix(repo_root()).unwrap_or(&file).display()
                ));
            }
        }
    }
    assert!(
        checked >= 10,
        "found only {checked} `--bin` commands — scanner is likely broken"
    );
    assert!(
        unknown.is_empty(),
        "docs name binaries that do not exist:\n  {}",
        unknown.join("\n  ")
    );
}

#[test]
fn top_level_readme_links_the_docs_index() {
    let text = std::fs::read_to_string(repo_root().join("README.md")).expect("README.md");
    assert!(
        text.contains("(docs/README.md)"),
        "README.md must link the documentation index"
    );
}

#[test]
fn scanner_parses_links_and_skips_fences() {
    let md = "see [a](docs/a.md) and [b](https://x/y#z)\n```\n[not](a-link.md)\n```\n[c](../up.md#frag)";
    assert_eq!(
        link_targets(md),
        vec!["docs/a.md", "https://x/y#z", "../up.md#frag"]
    );
}
