//! The rule catalog. Each rule is a token-pattern matcher over
//! [`crate::lexer::Lexed`]; DESIGN.md §9 documents the invariant behind
//! each one and the procedure for adding more.

use std::path::Path;

use crate::diag::Diagnostic;
use crate::lexer::{lex, test_regions, Lexed, TokKind};
use crate::workspace::FileKind;

/// Which rule families apply to a file. `safety-comment` and `lock-order`
/// always run; the other three are discipline-scoped by crate kind.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    pub no_panic: bool,
    pub fallible_store: bool,
    pub determinism: bool,
}

impl Profile {
    /// The profile the workspace walk applies, derived from the file's kind.
    pub fn for_kind(kind: &FileKind, path: &Path) -> Profile {
        Profile {
            no_panic: kind.panic_disciplined(),
            fallible_store: kind.store_disciplined(),
            determinism: kind.determinism_disciplined(path),
        }
    }

    /// Everything on — used for explicitly named files (CLI args) and the
    /// checked-in bad fixtures, where the point is to exercise every rule.
    pub fn strict() -> Profile {
        Profile { no_panic: true, fallible_store: true, determinism: true }
    }
}

/// Rule ids with one-line summaries, for `--list-rules`.
pub const RULES: &[(&str, &str)] = &[
    ("no-panic", "no unwrap()/expect()/panic! in library crate non-test code"),
    ("fallible-store", "index/engine code must use try_put/try_get, not panicking sugar"),
    ("safety-comment", "every `unsafe` needs a // SAFETY: (or /// # Safety) comment"),
    ("determinism", "no Instant::now/SystemTime::now/thread_rng in digest/encode/chunk paths"),
    ("lock-order", "never acquire the branch-map lock while a slot-head lock is held"),
];

/// Lex `source` and run every applicable rule.
pub fn run_rules(path: &Path, source: &str, profile: Profile) -> Vec<Diagnostic> {
    let lexed = lex(source);
    let in_test = test_regions(&lexed);
    let mut diags = Vec::new();
    if profile.no_panic {
        no_panic(path, &lexed, &in_test, &mut diags);
    }
    if profile.fallible_store {
        fallible_store(path, &lexed, &in_test, &mut diags);
    }
    if profile.determinism {
        determinism(path, &lexed, &in_test, &mut diags);
    }
    safety_comment(path, &lexed, &mut diags);
    lock_order(path, &lexed, &in_test, &mut diags);
    diags.sort_by_key(|d| (d.line, d.col));
    diags
}

fn diag(
    path: &Path,
    lexed: &Lexed,
    tok: usize,
    rule: &'static str,
    message: String,
    help: String,
) -> Diagnostic {
    let t = &lexed.tokens[tok];
    Diagnostic { path: path.to_path_buf(), line: t.line, col: t.col, rule, message, help }
}

/// Rule 1: panicking constructs in library non-test code. `assert!`,
/// `debug_assert!` and `unreachable!` are deliberate exceptions — they state
/// invariants, not error handling.
fn no_panic(path: &Path, lexed: &Lexed, in_test: &[bool], out: &mut Vec<Diagnostic>) {
    for (i, &in_t) in in_test.iter().enumerate() {
        if in_t {
            continue;
        }
        let Some(name) = lexed.ident_at(i) else { continue };
        match name {
            "unwrap" | "expect"
                if lexed.punct_at(i.wrapping_sub(1)) == Some('.')
                    && lexed.punct_at(i + 1) == Some('(') =>
            {
                out.push(diag(
                    path,
                    lexed,
                    i,
                    "no-panic",
                    format!("`.{name}()` in library non-test code"),
                    "propagate with `?` (or handle the None/Err arm); if the panic is an \
                     intentional API contract, allowlist it in lint.toml with a reason"
                        .into(),
                ));
            }
            "panic" | "todo" | "unimplemented" if lexed.punct_at(i + 1) == Some('!') => {
                out.push(diag(
                    path,
                    lexed,
                    i,
                    "no-panic",
                    format!("`{name}!` in library non-test code"),
                    "return an error variant instead; use `unreachable!`/`assert!` only for \
                     invariants that cannot be reached from caller input"
                        .into(),
                ));
            }
            _ => {}
        }
    }
}

/// Rule 2: calls to the panicking store sugar (`put`/`get`/`put_raw`/
/// `put_many`) on a store-shaped receiver in index/engine code. The sugar
/// exists for tests, benches and the CLI; engine paths must surface
/// `StoreError` through `try_*`.
fn fallible_store(path: &Path, lexed: &Lexed, in_test: &[bool], out: &mut Vec<Diagnostic>) {
    for (i, &in_t) in in_test.iter().enumerate() {
        if in_t {
            continue;
        }
        let Some(method) = lexed.ident_at(i) else { continue };
        if !matches!(method, "put" | "get" | "put_raw" | "put_many") {
            continue;
        }
        if lexed.punct_at(i.wrapping_sub(1)) != Some('.') || lexed.punct_at(i + 1) != Some('(') {
            continue;
        }
        let Some(recv) = (i >= 2).then(|| lexed.ident_at(i - 2)).flatten() else { continue };
        let store_shaped = matches!(recv, "store" | "server") || recv.ends_with("_store");
        if store_shaped {
            out.push(diag(
                path,
                lexed,
                i,
                "fallible-store",
                format!("panicking store sugar `{recv}.{method}(..)` in engine code"),
                format!("call `{recv}.try_{method}(..)?` and propagate the StoreError"),
            ));
        }
    }
}

/// Rule 3: every `unsafe` keyword needs a `// SAFETY:` comment (or a
/// `/// # Safety` doc section for `unsafe fn`) within 8 lines above it, on
/// the same line, or on the line right below (first line of the block).
fn safety_comment(path: &Path, lexed: &Lexed, out: &mut Vec<Diagnostic>) {
    // Coalesce adjacent comment lines into blocks, so a multi-line
    // `/// # Safety` section (one Comment per `///` line) is judged by the
    // distance from its *last* line to the `unsafe` token.
    let mut blocks: Vec<(u32, u32, bool)> = Vec::new(); // (line, end_line, has_marker)
    for c in &lexed.comments {
        let marker = c.text.contains("SAFETY:") || c.text.contains("# Safety");
        match blocks.last_mut() {
            Some((_, end, has)) if c.line <= *end + 1 => {
                *end = (*end).max(c.end_line);
                *has |= marker;
            }
            _ => blocks.push((c.line, c.end_line, marker)),
        }
    }
    for i in 0..lexed.tokens.len() {
        if lexed.ident_at(i) != Some("unsafe") {
            continue;
        }
        let line = lexed.tokens[i].line;
        let covered = blocks.iter().any(|(start, end, has)| {
            *has && *start <= line + 1 && end + 8 >= line && *end <= line + 1
        });
        if !covered {
            let what = match lexed.ident_at(i + 1) {
                Some("fn") => "unsafe fn",
                Some("impl") => "unsafe impl",
                _ => "unsafe block",
            };
            out.push(diag(
                path,
                lexed,
                i,
                "safety-comment",
                format!("{what} without a SAFETY comment"),
                "add `// SAFETY: <why the preconditions hold here>` directly above (for \
                 `unsafe fn`, a `/// # Safety` doc section also counts)"
                    .into(),
            ));
        }
    }
}

/// Rule 4: wall-clock and OS randomness in digest/encode/chunking paths.
/// Roots must be a pure function of the data — see DESIGN.md §8.
fn determinism(path: &Path, lexed: &Lexed, in_test: &[bool], out: &mut Vec<Diagnostic>) {
    for (i, &in_t) in in_test.iter().enumerate() {
        if in_t {
            continue;
        }
        let Some(name) = lexed.ident_at(i) else { continue };
        let hit = match name {
            "Instant" | "SystemTime" => {
                lexed.punct_at(i + 1) == Some(':')
                    && lexed.punct_at(i + 2) == Some(':')
                    && lexed.ident_at(i + 3) == Some("now")
            }
            "thread_rng" => true,
            _ => false,
        };
        if hit {
            out.push(diag(
                path,
                lexed,
                i,
                "determinism",
                format!("`{name}` in a determinism-disciplined module"),
                "digest/encode/chunking output must depend only on the input bytes; take \
                 timestamps/seeds as parameters at the boundary instead"
                    .into(),
            ));
        }
    }
}

/// What lock a `.read()/.write()/.lock()` receiver chain refers to, as a
/// rank in the documented acquisition order (lower rank first).
fn lock_rank(chain: &[&str]) -> Option<(u8, &'static str)> {
    if chain.iter().any(|c| *c == "branches" || *c == "branch_map") {
        Some((0, "branch-map"))
    } else if chain.contains(&"head") {
        Some((1, "slot-head"))
    } else {
        None
    }
}

/// Rule 5: static nested-lock scan. Tracks let-bound guards per brace scope
/// and statement temporaries, and flags any acquisition whose rank is lower
/// than a lock already held (e.g. the branch-map lock while a slot-head
/// guard is live). Heuristic by design: receiver chains are
/// matched by field name, and guards are assumed to live to the end of
/// their statement (temporaries) or scope (let-bound), which over- rather
/// than under-approximates if-let scrutinee extension.
fn lock_order(path: &Path, lexed: &Lexed, in_test: &[bool], out: &mut Vec<Diagnostic>) {
    #[derive(Clone)]
    struct Held {
        rank: u8,
        what: &'static str,
        name: Option<String>,
    }
    let mut scopes: Vec<Vec<Held>> = vec![Vec::new()];
    let mut stmt_temps: Vec<Held> = Vec::new();

    for i in 0..lexed.tokens.len() {
        match lexed.tokens[i].kind {
            TokKind::Punct('{') => {
                // If-let/match scrutinee temporaries outlive the `{`; plain
                // `if` temporaries do not, but carrying them into the scope
                // only over-approximates what is held.
                let mut scope = Vec::new();
                scope.append(&mut stmt_temps);
                scopes.push(scope);
            }
            TokKind::Punct('}') => {
                // Tail-expression temporaries (no trailing `;`) die with
                // their scope.
                stmt_temps.clear();
                scopes.pop();
                if scopes.is_empty() {
                    scopes.push(Vec::new());
                }
            }
            TokKind::Punct(';') => stmt_temps.clear(),
            TokKind::Ident => {
                // Explicit `drop(guard)` releases a let-bound guard early.
                if lexed.ident_at(i) == Some("drop")
                    && lexed.punct_at(i + 1) == Some('(')
                    && lexed.punct_at(i + 3) == Some(')')
                {
                    if let Some(dropped) = lexed.ident_at(i + 2) {
                        for scope in &mut scopes {
                            scope.retain(|h| h.name.as_deref() != Some(dropped));
                        }
                    }
                    continue;
                }
                if !matches!(lexed.ident_at(i), Some("read") | Some("write") | Some("lock")) {
                    continue;
                }
                if lexed.punct_at(i.wrapping_sub(1)) != Some('.')
                    || lexed.punct_at(i + 1) != Some('(')
                    || lexed.punct_at(i + 2) != Some(')')
                {
                    continue;
                }
                // Walk the receiver chain backwards: `slot.head.read()`
                // yields ["head", "slot"].
                let mut chain: Vec<&str> = Vec::new();
                let mut j = i - 1; // the '.' before the method
                while j >= 1 {
                    let Some(id) = lexed.ident_at(j - 1) else { break };
                    chain.push(id);
                    if j >= 3 && lexed.punct_at(j - 2) == Some('.') {
                        j -= 2;
                    } else {
                        break;
                    }
                }
                let Some((rank, what)) = lock_rank(&chain) else { continue };
                if in_test.get(i).copied() != Some(true) {
                    let held_higher =
                        scopes.iter().flatten().chain(stmt_temps.iter()).find(|h| h.rank > rank);
                    if let Some(h) = held_higher {
                        out.push(diag(
                            path,
                            lexed,
                            i,
                            "lock-order",
                            format!("{what} lock acquired while a {} guard is held", h.what),
                            "the documented order is branch map -> slot head -> shard \
                             head (DESIGN.md \u{a7}9); release the inner guard first or \
                             restructure to acquire in order"
                                .into(),
                        ));
                    }
                }
                // Record the new guard: `let g = x.read();` binds it for the
                // scope; anything else is a statement temporary.
                let bound_name = if lexed.punct_at(i + 3) == Some(';') {
                    statement_let_binding(lexed, j.saturating_sub(1))
                } else {
                    None
                };
                let held = Held { rank, what, name: bound_name.clone() };
                if bound_name.is_some() {
                    if let Some(scope) = scopes.last_mut() {
                        scope.push(held);
                    }
                } else {
                    stmt_temps.push(held);
                }
            }
            _ => {}
        }
    }
}

/// If the statement containing token `at` starts with `let [mut] name`,
/// return the bound name.
fn statement_let_binding(lexed: &Lexed, at: usize) -> Option<String> {
    let mut k = at;
    loop {
        if matches!(lexed.punct_at(k), Some(';') | Some('{') | Some('}')) {
            k += 1;
            break;
        }
        if k == 0 {
            break;
        }
        k -= 1;
    }
    if lexed.ident_at(k) != Some("let") {
        return None;
    }
    let mut n = k + 1;
    if lexed.ident_at(n) == Some("mut") {
        n += 1;
    }
    lexed.ident_at(n).map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn run(src: &str) -> Vec<Diagnostic> {
        run_rules(Path::new("lib.rs"), src, Profile::strict())
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn no_panic_flags_and_spares() {
        let d = run("fn f(x: Option<u8>) -> u8 { x.unwrap() }");
        assert_eq!(rules_of(&d), ["no-panic"]);
        let d = run("fn f() { panic!(\"boom\"); }");
        assert_eq!(rules_of(&d), ["no-panic"]);
        // Test code, assert!, unreachable! and unwrap_or_else are all fine.
        let d = run("#[cfg(test)] mod t { fn f(x: Option<u8>) { x.unwrap(); panic!(); } }\n\
             fn g(x: Option<u8>) -> u8 { assert!(true); x.unwrap_or_else(|| 0) }\n\
             fn h() { unreachable!() }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn fallible_store_flags_sugar_only() {
        let d = run("fn f() { store.put(&page); }");
        assert_eq!(rules_of(&d), ["fallible-store"]);
        let d = run("fn f() { client_store.get(&h); }");
        assert_eq!(rules_of(&d), ["fallible-store"]);
        let d = run("fn f() -> Result<(), E> { store.try_put(&page)?; map.get(&k); Ok(()) }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn safety_comment_required_and_accepted() {
        let d = run("fn f() { unsafe { core::hint::unreachable_unchecked() } }");
        assert_eq!(rules_of(&d), ["safety-comment"]);
        let d = run("fn f() {\n    // SAFETY: caller checked the discriminant above.\n    \
             unsafe { core::hint::unreachable_unchecked() }\n}");
        assert!(d.is_empty(), "{d:?}");
        // Doc-style # Safety section on an unsafe fn.
        let d = run("/// Does a thing.\n///\n/// # Safety\n/// `ptr` must be valid.\n\
             pub unsafe fn g(ptr: *const u8) {}");
        assert!(d.is_empty(), "{d:?}");
        // A SAFETY comment 20 lines away does not count.
        let far = format!("// SAFETY: stale.\n{}fn f() {{ unsafe {{ g() }} }}", "\n".repeat(20));
        assert_eq!(rules_of(&run(&far)), ["safety-comment"]);
    }

    #[test]
    fn determinism_flags_clocks_and_rng() {
        let d = run("fn f() { let t = Instant::now(); }");
        assert_eq!(rules_of(&d), ["determinism"]);
        let d = run("fn f() { let t = std::time::SystemTime::now(); }");
        assert_eq!(rules_of(&d), ["determinism"]);
        let d = run("fn f() { let mut rng = thread_rng(); }");
        assert_eq!(rules_of(&d), ["determinism"]);
        // A type mention without ::now is fine.
        let d = run("fn f(deadline: Instant) {}");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn lock_order_flags_inversion() {
        // Slot-head guard held, then branch map: inversion.
        let d = run("fn f(&self) {\n    let g = self.slot.head.read();\n    \
             let b = self.branches.write();\n}");
        assert_eq!(rules_of(&d), ["lock-order"]);
        // A shard-head guard (same field name, same class) held, then the
        // branch map as a statement temporary: inversion.
        let d = run("fn f(&self) {\n    let s = t.shards[i].head.write();\n    \
             self.branches.read();\n}");
        assert_eq!(rules_of(&d), ["lock-order"]);
    }

    #[test]
    fn lock_order_accepts_documented_order_and_drops() {
        // branch map -> slot head -> shard head is the documented order.
        let d = run(
            "fn f(&self) {\n    let m = self.branches.read();\n    let t = slot.head.read();\n    \
             let s = t.shards[i].head.read();\n}",
        );
        assert!(d.is_empty(), "{d:?}");
        // Temporaries die at the end of their statement.
        let d = run("fn f(&self) {\n    let base = slot.head.read().clone();\n    \
             let m = self.branches.read();\n}");
        assert!(d.is_empty(), "{d:?}");
        // An explicit drop() releases the guard.
        let d = run("fn f(&self) {\n    let h = slot.head.read();\n    drop(h);\n    \
             let m = self.branches.read();\n}");
        assert!(d.is_empty(), "{d:?}");
        // Scope exit releases the guard.
        let d = run("fn f(&self) {\n    { let h = slot.head.read(); }\n    \
             let m = self.branches.read();\n}");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn lock_order_tail_expression_temp_dies_with_its_fn() {
        // The head guard in f's tail expression must not leak into g.
        let d = run("fn f(&self) -> V { self.slot.head.read().get(k) }\n\
             fn g(&self) { let m = self.branches.write(); }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn lock_order_ignores_unrelated_locks() {
        let d = run("fn f(&self) {\n    let s = self.shards[i].lock();\n    \
             let m = self.branches.read();\n}");
        assert!(d.is_empty(), "{d:?}");
    }
}
