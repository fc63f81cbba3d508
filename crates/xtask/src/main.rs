//! Workspace maintenance tasks, invoked as `cargo run -p xtask -- <task>`.
//!
//! The only task so far is `lint-kernels`: a static pass over the
//! warp-centric kernel sources enforcing the memory-access discipline the
//! `gpucheck` sanitizer assumes. Kernel code must go through the
//! `WarpCtx` operations and `Buf::at`/`Buf::slice` addressing — raw
//! `GlobalMem` access, `.addr` arithmetic, `unwrap`/`expect` in data
//! paths, and `unsafe` all bypass the instrumentation (and on real
//! hardware, the equivalent of `compute-sanitizer`'s patching), so they
//! are build errors in CI rather than review comments.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Kernel sources held to the lint (workspace-relative).
const KERNEL_SOURCES: &[&str] =
    &["crates/locassm/src/gpu/kernel.rs", "crates/locassm/src/gpu/kernel_v1.rs"];

/// Substrings banned from kernel code, with the reason shown on failure.
const NEEDLES: &[(&str, &str)] = &[
    ("GlobalMem", "raw GlobalMem access bypasses WarpCtx accounting and the sanitizer"),
    (".addr", "Buf address arithmetic bypasses at()/slice() bounds checking"),
    (".unwrap()", "kernel data paths must degrade, not panic"),
    (".expect(", "kernel data paths must degrade, not panic"),
    ("unsafe", "kernel code must stay in safe Rust"),
];

/// One lint violation: file, 1-based line, offending needle, and the line.
#[derive(Debug, PartialEq, Eq)]
struct Finding {
    file: String,
    line: usize,
    needle: &'static str,
    text: String,
}

/// Scan one kernel source. Only code above the first `#[cfg(test)]` is
/// held to the discipline (tests seed defects on purpose); `//` comment
/// lines and lines carrying a `kernel-lint: allow(...)` marker are
/// exempt.
fn scan(file: &str, src: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (i, line) in src.lines().enumerate() {
        if line.contains("#[cfg(test)]") {
            break;
        }
        if line.trim_start().starts_with("//") || line.contains("kernel-lint: allow(") {
            continue;
        }
        for &(needle, _) in NEEDLES {
            if line.contains(needle) {
                findings.push(Finding {
                    file: file.to_string(),
                    line: i + 1,
                    needle,
                    text: line.trim().to_string(),
                });
            }
        }
    }
    findings
}

/// The workspace root: xtask runs from its own crate dir under `cargo run`,
/// so walk up until a directory containing the kernel sources appears.
fn workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join(KERNEL_SOURCES[0]).exists() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn lint_kernels(root: &Path) -> ExitCode {
    let mut findings = Vec::new();
    for file in KERNEL_SOURCES {
        let path = root.join(file);
        let src = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        findings.extend(scan(file, &src));
    }
    if findings.is_empty() {
        println!("kernel-lint: {} file(s) clean", KERNEL_SOURCES.len());
        return ExitCode::SUCCESS;
    }
    for f in &findings {
        let why = NEEDLES.iter().find(|(n, _)| *n == f.needle).map_or("", |(_, w)| w);
        eprintln!("{}:{}: banned `{}` — {}\n    {}", f.file, f.line, f.needle, why, f.text);
    }
    eprintln!("kernel-lint: {} finding(s)", findings.len());
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint-kernels") => {
            let Some(root) = workspace_root() else {
                eprintln!("error: cannot locate the workspace root");
                return ExitCode::FAILURE;
            };
            lint_kernels(&root)
        }
        other => {
            eprintln!(
                "usage: cargo run -p xtask -- <task>\n\ntasks:\n  lint-kernels    \
                 enforce the WarpCtx/Buf discipline in kernel sources"
            );
            if let Some(t) = other {
                eprintln!("\nunknown task: {t}");
            }
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_source_passes() {
        let src = "fn k(ctx: &mut WarpCtx) {\n    let a = buf.at(3);\n    ctx.ld_global(&a);\n}\n";
        assert!(scan("k.rs", src).is_empty());
    }

    #[test]
    fn raw_addr_arithmetic_flagged() {
        let src = "let a = buf.addr + off;\n";
        let f = scan("k.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].needle, ".addr");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn unwrap_and_expect_flagged() {
        let src = "let x = v.unwrap();\nlet y = w.expect(\"msg\");\n";
        let f = scan("k.rs", src);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn comments_and_allow_markers_exempt() {
        let src = "// GlobalMem is discussed here, .addr too\n\
                   let a = buf.addr; // kernel-lint: allow(benchmark probe)\n";
        assert!(scan("k.rs", src).is_empty());
    }

    #[test]
    fn test_module_is_not_scanned() {
        let src = "fn k() {}\n#[cfg(test)]\nmod tests {\n    fn t() { v.unwrap(); }\n}\n";
        assert!(scan("k.rs", src).is_empty());
    }

    #[test]
    fn real_kernel_sources_are_clean() {
        // The lint's own regression: the checked-in kernels stay clean.
        let Some(root) = workspace_root() else {
            panic!("workspace root not found");
        };
        for file in KERNEL_SOURCES {
            let src = std::fs::read_to_string(root.join(file)).expect(file);
            let f = scan(file, &src);
            assert!(f.is_empty(), "{file} has findings: {f:?}");
        }
    }
}
