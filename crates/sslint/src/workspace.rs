//! Loads the workspace into the model the rules operate on: one
//! [`CrateInfo`] per member crate, each holding its parsed manifest and the
//! lexed, test-masked source files under `src/`, plus a reference corpus
//! (crate `tests/`/`benches/` dirs and the root `tests/`/`examples/`
//! dirs) that the cross-reference rules (`dead-pub`, `trace-coverage`)
//! count identifier uses in without auditing it.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lex::{self, Lexed};
use crate::manifest::{self, Manifest};

/// One lexed source file.
pub struct SrcFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    /// Whether the file lives under `src/bin/` or is `src/main.rs` — CLI
    /// entry points, exempt from the library panic rules.
    pub is_bin: bool,
    /// The token stream plus allow-comment annotations.
    pub lexed: Lexed,
    /// `mask[i]` is true when token `i` sits inside `#[cfg(test)]` /
    /// `#[test]` gated code.
    pub mask: Vec<bool>,
}

/// One file of the reference corpus: lexed but not audited. Used only to
/// count identifier references (is a pub item used cross-crate? is a
/// trace variant checked by a test?).
pub struct RefFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    /// Which crate's `tests/`/`benches/` dir the file came from, by
    /// directory name (`None` for the root `tests/`/`examples/` dirs).
    pub owner: Option<String>,
    /// The token stream.
    pub lexed: Lexed,
}

/// One workspace member crate.
pub struct CrateInfo {
    /// Directory name under `crates/` (the identity the layering DAG uses).
    pub dir_name: String,
    /// Manifest path relative to the workspace root.
    pub manifest_rel: String,
    /// Parsed `Cargo.toml`.
    pub manifest: Manifest,
    /// Lexed files under `src/`, sorted by path.
    pub files: Vec<SrcFile>,
}

/// The loaded workspace.
pub struct Workspace {
    /// The root `Cargo.toml`, when present.
    pub root_manifest: Option<Manifest>,
    /// Member crates, sorted by directory name.
    pub crates: Vec<CrateInfo>,
    /// Reference corpus: crate `tests/`/`benches/` files plus root
    /// `tests/`/`examples/` files, sorted by path.
    pub ref_files: Vec<RefFile>,
}

/// Which bucket a discovered `.rs` file lands in.
enum Bucket {
    /// `crates/<dir>/src/**` — audited source of crate `crate_idx`.
    Src { crate_idx: usize },
    /// Reference-only corpus file, owned by a crate dir or the root.
    Reference { owner: Option<String> },
}

/// Loads the workspace rooted at `root`. Only `crates/*/` directories
/// that contain a `Cargo.toml` become members; everything is read
/// eagerly so the rules run over a consistent snapshot.
pub fn load(root: &Path) -> io::Result<Workspace> {
    let root_manifest = match fs::read_to_string(root.join("Cargo.toml")) {
        Ok(text) => Some(manifest::parse(&text)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => None,
        Err(e) => return Err(e),
    };

    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = Vec::new();
    for entry in fs::read_dir(&crates_dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() && path.join("Cargo.toml").is_file() {
            crate_dirs.push(path);
        }
    }
    crate_dirs.sort();

    let mut crates = Vec::new();
    // Work list: every file to lex, with its destination bucket. Sorted
    // path order within each bucket keeps the model deterministic.
    let mut work: Vec<(PathBuf, Bucket)> = Vec::new();
    for dir in &crate_dirs {
        let dir_name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let manifest_text = fs::read_to_string(dir.join("Cargo.toml"))?;
        let crate_idx = crates.len();
        let src = dir.join("src");
        if src.is_dir() {
            let mut rs_files = Vec::new();
            collect_rs(&src, &mut rs_files)?;
            rs_files.sort();
            for path in rs_files {
                work.push((path, Bucket::Src { crate_idx }));
            }
        }
        for sub in ["tests", "benches"] {
            let d = dir.join(sub);
            if d.is_dir() {
                let mut rs_files = Vec::new();
                collect_rs(&d, &mut rs_files)?;
                rs_files.sort();
                for path in rs_files {
                    work.push((
                        path,
                        Bucket::Reference {
                            owner: Some(dir_name.clone()),
                        },
                    ));
                }
            }
        }
        crates.push(CrateInfo {
            manifest_rel: rel_to(root, &dir.join("Cargo.toml")),
            dir_name,
            manifest: manifest::parse(&manifest_text),
            files: Vec::new(),
        });
    }
    for sub in ["tests", "examples"] {
        let d = root.join(sub);
        if d.is_dir() {
            let mut rs_files = Vec::new();
            collect_rs(&d, &mut rs_files)?;
            rs_files.sort();
            for path in rs_files {
                work.push((path, Bucket::Reference { owner: None }));
            }
        }
    }

    let mut ref_files = Vec::new();
    for (path, bucket) in work {
        let lexed = lex::lex(&fs::read_to_string(&path)?);
        let rel = rel_to(root, &path);
        match bucket {
            Bucket::Src { crate_idx } => {
                let is_bin = rel.contains("/src/bin/") || rel.ends_with("/src/main.rs");
                let mask = lex::test_mask(&lexed.tokens);
                crates[crate_idx].files.push(SrcFile {
                    rel,
                    is_bin,
                    lexed,
                    mask,
                });
            }
            Bucket::Reference { owner } => ref_files.push(RefFile { rel, owner, lexed }),
        }
    }

    Ok(Workspace {
        root_manifest,
        crates,
        ref_files,
    })
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
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

fn rel_to(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}
