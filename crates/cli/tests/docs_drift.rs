//! Anti-rot enforcement for the `docs/` book:
//!
//! * every ` ```sh run ` block in `docs/OPERATIONS.md` and
//!   `docs/SERVING.md` is executed, in order, against the real `hotnoc`
//!   binary (CARGO_BIN_EXE) in one shared scratch directory per document
//!   — if a runbook drifts from the CLI, this test fails;
//! * every `hotnoc-*-vN` schema id named in `docs/ARTIFACTS.md` must
//!   appear in the source tree — documenting a schema nothing emits (or
//!   renaming one without updating the reference) fails;
//! * every CI step a `docs/*.md` file names as `step "…"` is a step of
//!   `.github/workflows/ci.yml`, and every backticked `Type::fn` path it
//!   names is a `fn` of an `impl Type` block in the source tree.

use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hotnoc-docs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Extracts the bodies of fenced code blocks whose info string is
/// exactly `tag` (e.g. `sh run`), in document order.
fn fenced_blocks(markdown: &str, tag: &str) -> Vec<String> {
    let mut blocks = Vec::new();
    let mut current: Option<String> = None;
    for line in markdown.lines() {
        match &mut current {
            None => {
                if line.trim() == format!("```{tag}") {
                    current = Some(String::new());
                }
            }
            Some(body) => {
                if line.trim() == "```" {
                    blocks.push(current.take().expect("open block"));
                } else {
                    body.push_str(line);
                    body.push('\n');
                }
            }
        }
    }
    assert!(current.is_none(), "unterminated ```{tag} block");
    blocks
}

/// Replays a document's ` ```sh run ` blocks against the current binary,
/// sequentially, sharing one working directory (later blocks consume
/// earlier blocks' outputs).
fn replay_doc_blocks(doc_rel: &str, tag: &str, min_blocks: usize) {
    let doc = std::fs::read_to_string(repo_root().join(doc_rel))
        .unwrap_or_else(|e| panic!("{doc_rel}: {e}"));
    let blocks = fenced_blocks(&doc, "sh run");
    assert!(
        blocks.len() >= min_blocks,
        "expected a substantial runbook in {doc_rel}, found {} runnable block(s)",
        blocks.len()
    );

    // Put a `hotnoc` symlink to the test binary on PATH so the blocks
    // read exactly like real fleet commands.
    let work = scratch_dir(tag);
    let bin_dir = work.join(".bin");
    std::fs::create_dir_all(&bin_dir).expect("create bin dir");
    #[cfg(unix)]
    std::os::unix::fs::symlink(env!("CARGO_BIN_EXE_hotnoc"), bin_dir.join("hotnoc"))
        .expect("symlink hotnoc");
    #[cfg(not(unix))]
    std::fs::copy(env!("CARGO_BIN_EXE_hotnoc"), bin_dir.join("hotnoc.exe"))
        .map(|_| ())
        .expect("copy hotnoc");
    let path = format!(
        "{}:{}",
        bin_dir.display(),
        std::env::var("PATH").unwrap_or_default()
    );

    for (i, block) in blocks.iter().enumerate() {
        let script = format!("set -eu\n{block}");
        let out = std::process::Command::new("sh")
            .arg("-c")
            .arg(&script)
            .current_dir(&work)
            .env("PATH", &path)
            .output()
            .expect("spawn sh");
        assert!(
            out.status.success(),
            "runnable block #{} failed (exit {:?}):\n--- script ---\n{script}\n--- stdout ---\n{}\n--- stderr ---\n{}",
            i + 1,
            out.status.code(),
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
    }
    let _ = std::fs::remove_dir_all(&work);
}

/// The OPERATIONS.md fleet runbook actually works.
#[test]
fn operations_runbook_blocks_execute_against_the_binary() {
    replay_doc_blocks("docs/OPERATIONS.md", "ops", 4);
}

/// The SERVING.md daemon walkthrough actually works: start a daemon,
/// submit the same spec twice (`cmp`-identical, second from cache),
/// survive a bad spec, drain cleanly.
#[test]
fn serving_reference_blocks_execute_against_the_binary() {
    replay_doc_blocks("docs/SERVING.md", "serving", 4);
}

/// Collects every `hotnoc-...-vN` schema token in `text`.
fn schema_ids(text: &str) -> Vec<String> {
    let mut ids = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while let Some(pos) = text[i..].find("hotnoc-") {
        let start = i + pos;
        let mut end = start;
        while end < bytes.len()
            && (bytes[end].is_ascii_lowercase()
                || bytes[end].is_ascii_digit()
                || bytes[end] == b'-')
        {
            end += 1;
        }
        let token = &text[start..end];
        // A schema id ends in a -v<digits> version suffix; other
        // hotnoc-* tokens (crate names like hotnoc-scenario) are not
        // schema ids.
        if let Some(tail) = token.rfind("-v") {
            let version = &token[tail + 2..];
            if !version.is_empty() && version.bytes().all(|b| b.is_ascii_digit()) {
                ids.push(token.to_string());
            }
        }
        i = end.max(start + 1);
    }
    ids.sort();
    ids.dedup();
    ids
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every schema id ARTIFACTS.md documents exists in the source tree,
/// and the known emitted schemas are all documented.
#[test]
fn artifacts_reference_matches_source_schemas() {
    let root = repo_root();
    let doc =
        std::fs::read_to_string(root.join("docs/ARTIFACTS.md")).expect("read docs/ARTIFACTS.md");
    let documented = schema_ids(&doc);

    for required in [
        "hotnoc-campaign-spec-v1",
        "hotnoc-campaign-v1",
        "hotnoc-campaign-shard-v1",
        "hotnoc-campaign-aggregate-v1",
        "hotnoc-campaign-manifest-v1",
        "hotnoc-bench-v2",
        "hotnoc-trace-v1",
        "hotnoc-profile-v1",
        "hotnoc-serve-journal-v1",
    ] {
        assert!(
            documented.iter().any(|d| d == required),
            "docs/ARTIFACTS.md does not document {required}"
        );
    }

    let mut sources = Vec::new();
    rust_sources(&root.join("crates"), &mut sources);
    rust_sources(&root.join("vendor"), &mut sources);
    let mut all_source_text = String::new();
    for path in &sources {
        all_source_text.push_str(&std::fs::read_to_string(path).expect("read source"));
    }
    for id in &documented {
        assert!(
            all_source_text.contains(id.as_str()),
            "docs/ARTIFACTS.md documents {id}, but no source under crates/ or vendor/ mentions it"
        );
    }
}

/// Every CI step the docs name as `step "…"` (a name wrapped across
/// lines included) is a `- name:` in the CI workflow, so a renamed or
/// deleted step cannot stay cited.
#[test]
fn ci_steps_named_in_the_docs_exist() {
    let root = repo_root();
    let ci = std::fs::read_to_string(root.join(".github/workflows/ci.yml")).expect("read ci.yml");
    let steps: Vec<&str> = ci
        .lines()
        .filter_map(|l| l.trim().strip_prefix("- name:"))
        .map(str::trim)
        .collect();
    let mut cited = 0;
    for (doc, text) in docs(&root) {
        for quoted in text.split("step \"").skip(1) {
            let quoted = quoted.split('"').next().expect("split yields one piece");
            let name = quoted.split_whitespace().collect::<Vec<_>>().join(" ");
            cited += 1;
            assert!(
                steps.contains(&name.as_str()),
                "{doc} cites CI step \"{name}\", which .github/workflows/ci.yml does not have"
            );
        }
    }
    assert!(cited > 0, "no doc cites a CI step");
}

/// Every backticked `Type::function` path in the docs names a function
/// that an `impl` block of that type in the source tree defines. Paths
/// into the standard library (`Iterator::sum` today) are not checked.
#[test]
fn type_paths_named_in_the_docs_exist() {
    const STD: &[&str] = &["Iterator"];
    let root = repo_root();
    let mut sources = Vec::new();
    for dir in ["crates", "src", "vendor"] {
        rust_sources(&root.join(dir), &mut sources);
    }
    // (type, function) for every `fn` inside an `impl` block of that type,
    // which ends at the first `}` line indented as its header (rustfmt).
    let mut defined = std::collections::HashSet::new();
    for path in &sources {
        let text = std::fs::read_to_string(path).expect("read source");
        let mut block: Option<(&str, usize)> = None;
        for line in text.lines() {
            let code = line.trim_start();
            let indent = line.len() - code.len();
            match block {
                None => block = impl_type(code).map(|ty| (ty, indent)),
                Some((_, end)) if code == "}" && indent == end => block = None,
                Some((ty, _)) => {
                    if let Some(name) = fn_name(code) {
                        defined.insert((ty.to_string(), name.to_string()));
                    }
                }
            }
        }
    }
    let mut cited = 0;
    for (doc, text) in docs(&root) {
        for span in text.split('`').skip(1).step_by(2) {
            let Some((ty, name)) = span.split_once("::") else {
                continue;
            };
            let is_ident = |s: &str| {
                !s.is_empty() && s.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_')
            };
            if !(ty.starts_with(|c: char| c.is_ascii_uppercase())
                && name.starts_with(|c: char| c.is_ascii_lowercase())
                && is_ident(ty)
                && is_ident(name))
                || STD.contains(&ty)
            {
                continue;
            }
            cited += 1;
            assert!(
                defined.contains(&(ty.to_string(), name.to_string())),
                "{doc} names `{ty}::{name}`, but no `impl {ty}` in the source tree defines `fn {name}`"
            );
        }
    }
    assert!(cited > 0, "no doc names a `Type::function` path");
}

/// Every `docs/*.md` file and its text, by file name.
fn docs(root: &Path) -> Vec<(String, String)> {
    let mut docs: Vec<(String, String)> = std::fs::read_dir(root.join("docs"))
        .expect("read docs/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "md"))
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("read doc");
            (
                format!("docs/{}", p.file_name().unwrap().to_string_lossy()),
                text,
            )
        })
        .collect();
    docs.sort();
    docs
}

/// The self type of an `impl` block's header line: `Network` for
/// `impl Network {`, `impl<'a> Network<'a> {` and
/// `impl fmt::Debug for Network {`.
fn impl_type(line: &str) -> Option<&str> {
    if !line.ends_with('{') {
        return None;
    }
    let rest = line.strip_prefix("impl")?;
    let rest = match rest.strip_prefix('<') {
        Some(generic) => generic.split_once('>')?.1,
        None => rest.strip_prefix(' ')?,
    };
    let rest = rest.rsplit(" for ").next()?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
        .unwrap_or(rest.len());
    rest[..end].rsplit("::").next()
}

/// The name of the function a line declares, if it declares one.
fn fn_name(line: &str) -> Option<&str> {
    let at = line.find("fn ")?;
    let before = &line[..at];
    if !before
        .split_whitespace()
        .all(|w| w.starts_with("pub") || ["const", "async", "unsafe"].contains(&w))
    {
        return None;
    }
    let rest = &line[at + 3..];
    let end = rest.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))?;
    Some(&rest[..end])
}
