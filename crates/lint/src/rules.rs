//! The rule registry, the inline-allow mechanism, and the
//! single-file token rules (unsafe-hygiene, panic-free-serving,
//! debug-assert-discipline).
//!
//! The concurrency rules live in [`crate::concurrency`] and the
//! call-graph dataflow rules in [`crate::dataflow`]; all of them
//! report [`Diagnostic`]s at `file:line` granularity and honour the
//! allow convention:
//!
//! ```text
//! // lint: allow(<rule-name>) — <justification>
//! ```
//!
//! A *justified* allow (on its own line: covers the next code line;
//! trailing: covers its own line) suppresses that rule there. A bare
//! allow — missing or trivially short justification, or an unknown
//! rule name — is itself a violation (`allow-syntax`): the point of
//! the mechanism is to force the "why" into the tree.

use std::fmt;
use std::path::{Path, PathBuf};

use crate::lexer::{Comment, Lexed, TokKind, Token};

/// The rule a diagnostic belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// `unsafe` blocks/fns must be immediately preceded by a
    /// `// SAFETY:` comment (a `# Safety` doc section also counts).
    UnsafeHygiene,
    /// No `unwrap()` / `expect()` / `panic!` / `todo!` /
    /// `unimplemented!` in non-test serving-crate library code.
    PanicFreeServing,
    /// `pub fn` search/mutation entry points must transitively reach a
    /// degenerate-input guard through the call graph.
    GuardDataflow,
    /// `feature = "…"` names must exist in the crate's `Cargo.toml`,
    /// and declared feature chains must propagate to every dependency
    /// that declares the same feature.
    FeatureGates,
    /// Bare `assert!` / `assert_eq!` / `assert_ne!` in hot-path
    /// modules must be `debug_assert!` or carry a justified allow.
    DebugAssertDiscipline,
    /// Every `Ordering::` use is `Relaxed` inside an allowlisted
    /// counter module, or carries a `// HB:` comment naming its
    /// happens-before partner site.
    AtomicOrderingDiscipline,
    /// `Arc::make_mut` only inside `core/src/shard.rs` functions that
    /// consult the dirty gate (`has_dirty_nodes`) first.
    CowDiscipline,
    /// A pinned epoch must flow into a binding or return value, never
    /// be dropped in the statement that pinned it.
    EpochPinBalance,
    /// Public `try_*`/fallible serving APIs return `Result` with a
    /// workspace-defined error enum, never `String`/`Box<dyn Error>`.
    TypedErrorDiscipline,
    /// Malformed `lint: allow` comments (bare, unknown rule).
    AllowSyntax,
}

impl Rule {
    /// The kebab-case name used in allow comments and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnsafeHygiene => "unsafe-hygiene",
            Rule::PanicFreeServing => "panic-free-serving",
            Rule::GuardDataflow => "guard-dataflow",
            Rule::FeatureGates => "feature-gates",
            Rule::DebugAssertDiscipline => "debug-assert-discipline",
            Rule::AtomicOrderingDiscipline => "atomic-ordering-discipline",
            Rule::CowDiscipline => "cow-discipline",
            Rule::EpochPinBalance => "epoch-pin-balance",
            Rule::TypedErrorDiscipline => "typed-error-discipline",
            Rule::AllowSyntax => "allow-syntax",
        }
    }

    /// Parses an allow-comment rule name. `allow-syntax` is not
    /// allowable by design — a malformed allow cannot excuse itself.
    pub fn from_name(name: &str) -> Option<Rule> {
        match name {
            "unsafe-hygiene" => Some(Rule::UnsafeHygiene),
            "panic-free-serving" => Some(Rule::PanicFreeServing),
            "guard-dataflow" => Some(Rule::GuardDataflow),
            "feature-gates" => Some(Rule::FeatureGates),
            "debug-assert-discipline" => Some(Rule::DebugAssertDiscipline),
            "atomic-ordering-discipline" => Some(Rule::AtomicOrderingDiscipline),
            "cow-discipline" => Some(Rule::CowDiscipline),
            "epoch-pin-balance" => Some(Rule::EpochPinBalance),
            "typed-error-discipline" => Some(Rule::TypedErrorDiscipline),
            _ => None,
        }
    }

    /// Every rule, for `--list-rules`.
    pub const ALL: [Rule; 10] = [
        Rule::UnsafeHygiene,
        Rule::PanicFreeServing,
        Rule::GuardDataflow,
        Rule::FeatureGates,
        Rule::DebugAssertDiscipline,
        Rule::AtomicOrderingDiscipline,
        Rule::CowDiscipline,
        Rule::EpochPinBalance,
        Rule::TypedErrorDiscipline,
        Rule::AllowSyntax,
    ];
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One violation.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub file: PathBuf,
    pub line: u32,
    pub rule: Rule,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Which rules apply to one source file (decided per crate/module by
/// the engine in `lib.rs`).
#[derive(Debug, Clone, Copy, Default)]
pub struct FilePolicy {
    /// Apply [`Rule::PanicFreeServing`].
    pub panic_free: bool,
    /// Apply [`Rule::DebugAssertDiscipline`].
    pub hot_path: bool,
    /// Apply [`Rule::GuardDataflow`] to this file's entry points.
    pub guard_surface: bool,
    /// Apply the concurrency rules ([`Rule::AtomicOrderingDiscipline`],
    /// [`Rule::CowDiscipline`], [`Rule::EpochPinBalance`]).
    pub concurrency: bool,
    /// This file is an allowlisted counter module: bare
    /// `Ordering::Relaxed` is the sanctioned idiom here.
    pub atomic_counters: bool,
    /// This file is the sanctioned copy-on-write home
    /// (`core/src/shard.rs`): `Arc::make_mut` is legal when the
    /// enclosing function consults the dirty gate first.
    pub cow_home: bool,
    /// Apply [`Rule::TypedErrorDiscipline`] to this file's public
    /// fallible APIs.
    pub typed_errors: bool,
}

/// A parsed, well-formed allow comment.
#[derive(Debug)]
pub struct Allow {
    pub rule: Rule,
    /// The inclusive line range this allow covers: a trailing allow
    /// covers its own line; an own-line allow covers the statement
    /// that starts on the next code line (through the terminating
    /// `;`/`,`, or up to a block opener — multi-line method chains are
    /// one suppression site, function bodies are not).
    pub target: (u32, u32),
}

/// Whether `allows` suppresses `rule` at `line`.
pub fn is_allowed(allows: &[Allow], rule: Rule, line: u32) -> bool {
    allows
        .iter()
        .any(|a| a.rule == rule && a.target.0 <= line && line <= a.target.1)
}

/// `(line_start, line_end)` inclusive ranges exempt from the panic and
/// assert rules (`#[cfg(test)]` modules, `#[test]`/`#[bench]` items).
pub type Regions = Vec<(u32, u32)>;

pub fn in_regions(regions: &Regions, line: u32) -> bool {
    regions.iter().any(|&(a, b)| a <= line && line <= b)
}

// ---------------------------------------------------------------------------
// Allow comments
// ---------------------------------------------------------------------------

/// Minimum characters a justification must carry to count as one.
const MIN_JUSTIFICATION: usize = 8;

pub fn parse_allows(path: &Path, lexed: &Lexed) -> (Vec<Allow>, Vec<Diagnostic>) {
    let mut allows = Vec::new();
    let mut diags = Vec::new();
    for c in &lexed.comments {
        // Allow directives are plain `//` comments; doc comments that
        // merely *describe* the syntax are not directives.
        let t = c.text.trim_start();
        if t.starts_with("///")
            || t.starts_with("//!")
            || t.starts_with("/**")
            || t.starts_with("/*!")
        {
            continue;
        }
        let Some(pos) = c.text.find("lint:") else {
            continue;
        };
        let rest = c.text[pos + 5..].trim_start();
        let Some(rest) = rest.strip_prefix("allow") else {
            diags.push(Diagnostic {
                file: path.to_path_buf(),
                line: c.line,
                rule: Rule::AllowSyntax,
                message: "`lint:` comment is not of the form \
                          `lint: allow(<rule>) — <justification>`"
                    .to_string(),
            });
            continue;
        };
        let rest = rest.trim_start();
        let (name, after) = match rest.strip_prefix('(').and_then(|r| r.split_once(')')) {
            Some((n, a)) => (n.trim(), a),
            None => {
                diags.push(Diagnostic {
                    file: path.to_path_buf(),
                    line: c.line,
                    rule: Rule::AllowSyntax,
                    message: "malformed allow: expected `allow(<rule>)`".to_string(),
                });
                continue;
            }
        };
        let Some(rule) = Rule::from_name(name) else {
            diags.push(Diagnostic {
                file: path.to_path_buf(),
                line: c.line,
                rule: Rule::AllowSyntax,
                message: format!(
                    "unknown rule `{name}` in allow (known: {})",
                    Rule::ALL.map(Rule::name).join(", ")
                ),
            });
            continue;
        };
        // The justification: everything after the closing paren, sans
        // separator dashes. Must actually say something.
        let justification = after
            .trim_start()
            .trim_start_matches(['—', '–', '-', ':'])
            .trim();
        if justification.chars().count() < MIN_JUSTIFICATION {
            diags.push(Diagnostic {
                file: path.to_path_buf(),
                line: c.line,
                rule: Rule::AllowSyntax,
                message: format!(
                    "bare allow for `{name}`: a justification is required \
                     (`lint: allow({name}) — <why this is sound here>`)"
                ),
            });
            continue;
        }
        let target = if c.trailing {
            (c.line, c.line)
        } else {
            statement_extent(lexed, c.end_line)
        };
        allows.push(Allow { rule, target });
    }
    (allows, diags)
}

/// The inclusive line span of the statement starting on the first code
/// line after `after`: it runs through the terminating `;` or `,` at
/// bracket depth zero, and stops early at a block opener `{` or an
/// unmatched closer — so an allow before a multi-line method chain
/// covers the whole chain, but an allow before a `fn` does not blanket
/// its body.
pub fn statement_extent(lexed: &Lexed, after: u32) -> (u32, u32) {
    let toks = &lexed.tokens;
    let Some(first) = toks.iter().position(|t| t.line > after) else {
        return (after + 1, after + 1);
    };
    let start = toks[first].line;
    let mut depth = 0i32;
    for t in &toks[first..] {
        match t.kind {
            TokKind::Punct(b'(') | TokKind::Punct(b'[') => depth += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') => {
                if depth == 0 {
                    return (start, t.line);
                }
                depth -= 1;
            }
            TokKind::Punct(b'{') | TokKind::Punct(b'}') if depth == 0 => {
                return (start, t.line);
            }
            TokKind::Punct(b';') | TokKind::Punct(b',') if depth == 0 => {
                return (start, t.line);
            }
            _ => {}
        }
    }
    (start, toks.last().map(|t| t.line).unwrap_or(start))
}

// ---------------------------------------------------------------------------
// Attribute / test-region scanning
// ---------------------------------------------------------------------------

/// One pass over the token stream: records the line span of every
/// attribute (so the comment-adjacency walks can step over them) and
/// the line regions of test-gated items (`#[cfg(test)] mod`,
/// `#[test] fn`, …).
pub fn scan_attributes(tokens: &[Token]) -> (Regions, Regions) {
    let mut test_regions: Regions = Vec::new();
    let mut attr_lines: Regions = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_punct(b'#') {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        let inner = j < tokens.len() && tokens[j].is_punct(b'!');
        if inner {
            j += 1;
        }
        if j >= tokens.len() || !tokens[j].is_punct(b'[') {
            i += 1;
            continue;
        }
        // Consume to the matching `]`.
        let start_line = tokens[i].line;
        let mut depth = 0i32;
        let mut has_test = false;
        let mut has_not = false;
        while j < tokens.len() {
            let t = &tokens[j];
            match t.kind {
                TokKind::Punct(b'[') => depth += 1,
                TokKind::Punct(b']') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokKind::Ident => {
                    if t.text == "test" || t.text == "bench" {
                        has_test = true;
                    }
                    if t.text == "not" {
                        has_not = true;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let attr_end = j.min(tokens.len().saturating_sub(1));
        attr_lines.push((start_line, tokens[attr_end].line));
        j += 1; // past `]`
                // `#[cfg(not(test))]` gates *non*-test code: not exempt.
        if has_test && !has_not && !inner {
            if let Some((_, end_line)) = item_extent(tokens, j) {
                test_regions.push((start_line, end_line));
            }
        }
        i = j;
    }
    (test_regions, attr_lines)
}

/// From token index `j` (just past an item's attributes), the item's
/// extent: `(open index, last line)`. The item ends at the matching
/// `}` of its first top-level brace, or at a top-level `;`.
pub fn item_extent(tokens: &[Token], mut j: usize) -> Option<(usize, u32)> {
    let mut paren = 0i32;
    while j < tokens.len() {
        match tokens[j].kind {
            TokKind::Punct(b'(') | TokKind::Punct(b'[') => paren += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') => paren -= 1,
            TokKind::Punct(b';') if paren == 0 => return Some((j, tokens[j].line)),
            TokKind::Punct(b'{') if paren == 0 => {
                let open = j;
                let mut depth = 0i32;
                while j < tokens.len() {
                    match tokens[j].kind {
                        TokKind::Punct(b'{') => depth += 1,
                        TokKind::Punct(b'}') => {
                            depth -= 1;
                            if depth == 0 {
                                return Some((open, tokens[j].line));
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                return Some((open, tokens.last()?.line));
            }
            _ => {}
        }
        j += 1;
    }
    None
}

// ---------------------------------------------------------------------------
// Comment-adjacency walks (SAFETY / HB)
// ---------------------------------------------------------------------------

/// Walks upward from `line` through contiguous comment/attribute lines
/// looking for a comment satisfying `pred`. A blank line or a code
/// line ends the walk. A trailing comment on `line` itself also
/// counts.
pub fn comment_covers(
    lexed: &Lexed,
    attr_lines: &Regions,
    line: u32,
    pred: &dyn Fn(&Comment) -> bool,
) -> bool {
    let comment_at = |l: u32| {
        lexed
            .comments
            .iter()
            .find(|c| c.line <= l && l <= c.end_line)
    };
    if let Some(c) = comment_at(line) {
        if c.trailing && pred(c) {
            return true;
        }
    }
    let mut l = line;
    while l > 1 {
        l -= 1;
        if let Some(c) = comment_at(l) {
            if pred(c) {
                return true;
            }
            l = c.line; // jump to the top of a multi-line comment
            continue;
        }
        if in_regions(attr_lines, l) {
            continue;
        }
        // A code statement or a blank line breaks adjacency:
        // "immediately preceding" means contiguous.
        return false;
    }
    false
}

// ---------------------------------------------------------------------------
// Rule: unsafe-hygiene
// ---------------------------------------------------------------------------

pub fn check_unsafe_hygiene(
    path: &Path,
    lexed: &Lexed,
    attr_lines: &Regions,
    allowed: &dyn Fn(Rule, u32) -> bool,
    diags: &mut Vec<Diagnostic>,
) {
    let is_safety = |c: &Comment| c.text.contains("SAFETY:") || c.text.contains("# Safety");
    for t in &lexed.tokens {
        if !t.is_ident("unsafe") {
            continue;
        }
        let line = t.line;
        if allowed(Rule::UnsafeHygiene, line) {
            continue;
        }
        if comment_covers(lexed, attr_lines, line, &is_safety) {
            continue;
        }
        diags.push(Diagnostic {
            file: path.to_path_buf(),
            line,
            rule: Rule::UnsafeHygiene,
            message: "`unsafe` without an immediately preceding `// SAFETY:` comment \
                      stating the invariant it relies on"
                .to_string(),
        });
    }
}

// ---------------------------------------------------------------------------
// Rule: panic-free-serving
// ---------------------------------------------------------------------------

pub fn check_panic_free(
    path: &Path,
    lexed: &Lexed,
    test_regions: &Regions,
    allowed: &dyn Fn(Rule, u32) -> bool,
    diags: &mut Vec<Diagnostic>,
) {
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let construct = match t.text.as_str() {
            "unwrap" | "expect" => {
                let dotted = i > 0 && toks[i - 1].is_punct(b'.');
                let called = toks.get(i + 1).is_some_and(|n| n.is_punct(b'('));
                if dotted && called {
                    format!(".{}()", t.text)
                } else {
                    continue;
                }
            }
            "panic" | "todo" | "unimplemented" => {
                if toks.get(i + 1).is_some_and(|n| n.is_punct(b'!')) {
                    format!("{}!", t.text)
                } else {
                    continue;
                }
            }
            _ => continue,
        };
        let line = t.line;
        if in_regions(test_regions, line) || allowed(Rule::PanicFreeServing, line) {
            continue;
        }
        diags.push(Diagnostic {
            file: path.to_path_buf(),
            line,
            rule: Rule::PanicFreeServing,
            message: format!(
                "`{construct}` in serving-path library code: return a typed error \
                 (`PipelineError` at the pipeline layer) or add a justified \
                 `// lint: allow(panic-free-serving)`"
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// Rule: debug-assert-discipline
// ---------------------------------------------------------------------------

pub fn check_debug_assert(
    path: &Path,
    lexed: &Lexed,
    test_regions: &Regions,
    allowed: &dyn Fn(Rule, u32) -> bool,
    diags: &mut Vec<Diagnostic>,
) {
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident
            || !matches!(t.text.as_str(), "assert" | "assert_eq" | "assert_ne")
            || !toks.get(i + 1).is_some_and(|n| n.is_punct(b'!'))
        {
            continue;
        }
        let line = t.line;
        if in_regions(test_regions, line) || allowed(Rule::DebugAssertDiscipline, line) {
            continue;
        }
        diags.push(Diagnostic {
            file: path.to_path_buf(),
            line,
            rule: Rule::DebugAssertDiscipline,
            message: format!(
                "bare `{}!` in a hot-path module: use `debug_{}!`, or keep it with a \
                 justified `// lint: allow(debug-assert-discipline)` when the check is \
                 load-bearing in release builds",
                t.text, t.text
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// Entry-point convention (consumed by the guard-dataflow rule)
// ---------------------------------------------------------------------------

/// Whether a `pub fn` name is a search/mutation entry point by the
/// repo convention. The adaptive-topology surface (split/merge,
/// policy stepping, worker partitioning, per-subset serving) is
/// entry-point surface too: each must refuse quarantined or
/// stale-pinned shards before touching topology, or filter them
/// before serving.
pub fn is_entry_point_name(name: &str) -> bool {
    name == "knn"
        || name == "nearest"
        || name == "insert"
        || name == "delete"
        || name == "split_shard"
        || name == "merge_shards"
        || name == "adapt_step"
        || name == "worker_partition"
        || name == "search_batch_shards"
        || (name.starts_with("radius_") && name != "radius_is_searchable")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_file;

    fn check(src: &str, policy: FilePolicy) -> Vec<Diagnostic> {
        check_file(Path::new("mem.rs"), src, policy)
    }

    const ALL: FilePolicy = FilePolicy {
        panic_free: true,
        hot_path: true,
        guard_surface: true,
        concurrency: false,
        atomic_counters: false,
        cow_home: false,
        typed_errors: false,
    };

    #[test]
    fn unsafe_block_requires_safety_comment() {
        let bad = "fn f() {\n    unsafe { g(); }\n}\n";
        let d = check(bad, ALL);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::UnsafeHygiene);
        assert_eq!(d[0].line, 2);

        let good =
            "fn f() {\n    // SAFETY: g has no preconditions here.\n    unsafe { g(); }\n}\n";
        assert!(check(good, ALL).is_empty());
    }

    #[test]
    fn safety_walk_steps_over_attributes_and_doc_blocks() {
        let good = "/// Does things.\n///\n/// # Safety\n///\n/// Caller checks bounds.\n\
                    #[inline]\npub unsafe fn f() {}\n";
        assert!(check(good, ALL).is_empty());
        let bad = "/// Does things, no safety section.\n#[inline]\npub unsafe fn f() {}\n";
        let d = check(bad, ALL);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::UnsafeHygiene);
    }

    #[test]
    fn blank_line_breaks_safety_adjacency() {
        let bad = "// SAFETY: stale comment far above.\n\nfn f() {\n    unsafe { g(); }\n}\n";
        assert_eq!(check(bad, ALL).len(), 1);
    }

    #[test]
    fn panic_free_flags_and_allows() {
        let bad = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let d = check(bad, ALL);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::PanicFreeServing);

        let allowed = "fn f(x: Option<u32>) -> u32 {\n    \
            // lint: allow(panic-free-serving) — x is Some by construction two lines up.\n    \
            x.unwrap()\n}\n";
        assert!(check(allowed, ALL).is_empty());

        let trailing = "fn f(x: Option<u32>) -> u32 {\n    \
            x.unwrap() // lint: allow(panic-free-serving) — Some by construction.\n}\n";
        assert!(check(trailing, ALL).is_empty());
    }

    #[test]
    fn test_code_is_exempt_from_panic_rules() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u32>.unwrap(); panic!(\"x\"); assert!(true); }\n}\n";
        assert!(check(src, ALL).is_empty());
        // …but cfg(not(test)) is not test code.
        let src = "#[cfg(not(test))]\nfn f(x: Option<u32>) { x.unwrap(); }\n";
        assert_eq!(check(src, ALL).len(), 1);
    }

    #[test]
    fn bare_allow_is_rejected() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    // lint: allow(panic-free-serving)\n    x.unwrap()\n}\n";
        let d = check(src, ALL);
        // The bare allow is flagged AND does not suppress the unwrap.
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().any(|x| x.rule == Rule::AllowSyntax));
        assert!(d.iter().any(|x| x.rule == Rule::PanicFreeServing));
    }

    #[test]
    fn unknown_rule_allow_is_rejected() {
        let src = "// lint: allow(warp-drive) — engage.\nfn f() {}\n";
        let d = check(src, ALL);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::AllowSyntax);
    }

    #[test]
    fn retired_guard_coverage_name_is_unknown() {
        let src = "// lint: allow(guard-coverage) — the rule this excused is retired.\nfn f() {}\n";
        let d = check(src, ALL);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::AllowSyntax);
    }

    #[test]
    fn bare_assert_flagged_in_hot_path_only() {
        let src = "fn f(n: usize) { assert!(n > 0); debug_assert!(n < 10); }\n";
        let hot = check(src, ALL);
        assert_eq!(hot.len(), 1);
        assert_eq!(hot[0].rule, Rule::DebugAssertDiscipline);
        let cold = check(
            src,
            FilePolicy {
                hot_path: false,
                ..ALL
            },
        );
        assert!(cold.is_empty());
    }
}
