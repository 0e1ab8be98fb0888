//! Stamps the binary with the commit it was built from (when the source
//! tree is a git checkout) and a hash of the library sources it measures,
//! which identifies the code even in an exported tree without `.git`.

use std::fs;
use std::path::{Path, PathBuf};

fn main() {
    let root = Path::new("..");
    // A path that does not exist would rerun this script, and relink the
    // benchmark, on every build: watch `.git` only where there is one.
    for watched in ["../crates", "../Cargo.toml", "../.git/HEAD", "../.git/refs"] {
        if Path::new(watched).exists() {
            println!("cargo:rerun-if-changed={watched}");
        }
    }
    println!("cargo:rustc-env=PERFBENCH_COMMIT={}", commit(root));
    println!(
        "cargo:rustc-env=PERFBENCH_SOURCE_HASH={:016x}",
        source_hash(root)
    );
}

fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(sha) = fs::read_to_string(git.join(reference)) {
        return sha.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the workspace manifest and every file under `crates/`, in
/// sorted path order.
fn source_hash(root: &Path) -> u64 {
    let mut files = vec![root.join("Cargo.toml")];
    collect(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else {
            out.push(p);
        }
    }
}
