//! `siri-lint` — workspace invariant linter.
//!
//! A hand-rolled, offline static-analysis pass (no external parser crates)
//! that walks the workspace and enforces the project invariants from
//! DESIGN.md §9 as CI-gated diagnostics:
//!
//! * `no-panic` — no `unwrap()`/`expect()`/`panic!` in library crate
//!   non-test code;
//! * `fallible-store` — index/engine crates call `try_put`/`try_get`, never
//!   the panicking sugar;
//! * `safety-comment` — every `unsafe` carries a `// SAFETY:` comment;
//! * `determinism` — no wall clock or OS randomness in digest/encode/chunk
//!   paths;
//! * `lock-order` — never acquire the branch-map lock while a slot-head
//!   guard is held.
//!
//! Findings can be suppressed by `lint.toml` allowlist entries, each of
//! which must carry a reason. The static pass is paired with a runtime
//! lock-order tracker in the vendored `parking_lot` shim (armed in every
//! debug build).

pub mod config;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod workspace;

use std::path::{Path, PathBuf};

pub use config::Config;
pub use diag::Diagnostic;
pub use rules::{Profile, RULES};
pub use workspace::FileKind;

/// Result of linting a file set against a config.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings that survived the allowlist, ready to print.
    pub diags: Vec<Diagnostic>,
    /// Findings suppressed by a lint.toml entry.
    pub suppressed: usize,
    /// Allowlist entries that suppressed nothing (likely stale).
    pub unused_allows: Vec<config::AllowEntry>,
    /// Number of files linted.
    pub files: usize,
}

/// Lint one source text with an explicit profile, no allowlist. The building
/// block for both the workspace walk and the fixture tests.
pub fn lint_source(path: &Path, source: &str, profile: Profile) -> Vec<Diagnostic> {
    rules::run_rules(path, source, profile)
}

/// Lint the workspace rooted at `root` against `config`.
pub fn lint_workspace(root: &Path, config: &Config) -> Result<Report, String> {
    let files = workspace::collect_rs_files(root)?;
    let mut used = vec![false; config.allows.len()];
    let mut report = Report::default();

    for rel in &files {
        let abs = root.join(rel);
        let source =
            std::fs::read_to_string(&abs).map_err(|e| format!("read {}: {e}", abs.display()))?;
        report.files += 1;
        let kind = workspace::classify(rel);
        let profile = Profile::for_kind(&kind, rel);
        for d in rules::run_rules(rel, &source, profile) {
            let line_text = source.lines().nth(d.line as usize - 1).unwrap_or("");
            match config.allows_match(d.rule, &d.path, line_text) {
                Some(idx) => {
                    used[idx] = true;
                    report.suppressed += 1;
                }
                None => report.diags.push(d),
            }
        }
    }

    report.unused_allows =
        config.allows.iter().zip(&used).filter(|(_, u)| !**u).map(|(a, _)| a.clone()).collect();
    Ok(report)
}

/// Lint explicitly named files with the strict profile (every rule on) and
/// no allowlist — the mode the fixture tests and ad-hoc CLI invocations use.
pub fn lint_files_strict(paths: &[PathBuf]) -> Result<Vec<Diagnostic>, String> {
    let mut diags = Vec::new();
    for path in paths {
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        diags.extend(rules::run_rules(path, &source, Profile::strict()));
    }
    Ok(diags)
}

/// Load `lint.toml` from the workspace root, if present.
pub fn load_config(root: &Path) -> Result<Config, String> {
    let path = root.join("lint.toml");
    if !path.is_file() {
        return Ok(Config::default());
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read lint.toml: {e}"))?;
    Config::parse(&text)
}
