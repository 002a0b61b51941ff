#![forbid(unsafe_code)]
//! `bonsai-lint`: the K-D Bonsai workspace's self-contained static
//! analyzer.
//!
//! The runtime defenses (deep auditor, chaos harness) catch invariant
//! violations *after* they happen; this crate makes the conventions
//! those defenses exist to police regression-proof at review time.
//! The rules run over a minimal hand-rolled Rust lexer (the workspace
//! is offline — no `syn`, no rustc driver) plus an analysis layer —
//! a symbol table ([`symbols`]) and a conservative workspace call
//! graph ([`callgraph`]) — for the checks token patterns cannot see:
//!
//! 1. **unsafe-hygiene** — every `unsafe` is immediately preceded by a
//!    `// SAFETY:` comment (or a `# Safety` doc section).
//! 2. **panic-free-serving** — no `unwrap()`/`expect()`/`panic!`/
//!    `todo!`/`unimplemented!` in non-test library code of the serving
//!    crates; `chaos.rs` fault injectors are exempt but still scanned
//!    by every other rule.
//! 3. **guard-dataflow** — `pub fn` search/mutation entry points
//!    transitively reach a degenerate-input guard
//!    (`radius_is_searchable`/`query_is_searchable`/`is_finite`)
//!    through the call graph; `#[cfg(test)]`-only callees don't count.
//! 4. **feature-gates** — `feature = "…"` names exist in the crate's
//!    `Cargo.toml`, feature entries reference real dependencies and
//!    real features, and a declared feature propagates (transitively)
//!    to every direct dependency that declares the same feature.
//! 5. **debug-assert-discipline** — bare `assert!` in hot-path
//!    modules is either `debug_assert!` or carries a justified allow.
//! 6. **atomic-ordering-discipline** — every `Ordering::` use is
//!    `Relaxed` inside an allowlisted counter module, or carries a
//!    `// HB:` comment naming its Acquire/Release partner site.
//! 7. **cow-discipline** — `Arc::make_mut` only inside the
//!    copy-on-write home (`core/src/shard.rs`), in functions that
//!    consult the dirty gate (`has_dirty_nodes`) first.
//! 8. **epoch-pin-balance** — a pinned epoch flows into a binding or
//!    return value, never dropped in the statement that pinned it.
//! 9. **typed-error-discipline** — public `try_*`/fallible serving
//!    APIs return `Result` with a workspace-defined error enum, never
//!    `String`/`Box<dyn Error>`.
//!
//! Suppression is per-site and must be justified:
//!
//! ```text
//! // lint: allow(<rule>) — <why this is sound here>
//! ```
//!
//! Bare allows and unknown rule names are violations themselves
//! (`allow-syntax`). Run with `cargo run -p bonsai-lint -- --check`
//! (add `--json` for machine-readable diagnostics).

pub mod callgraph;
pub mod concurrency;
pub mod dataflow;
pub mod lexer;
pub mod manifest;
pub mod rules;
pub mod symbols;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use callgraph::CallGraph;
use lexer::TokKind;
use manifest::Manifest;
pub use rules::{Diagnostic, FilePolicy, Rule};

/// Crates whose library code must stay panic-free (rule 2).
pub const SERVING_CRATES: &[&str] = &[
    "bonsai-kdtree",
    "bonsai-core",
    "bonsai-cluster",
    "bonsai-pipeline",
    "bonsai-serve",
];

/// Crates whose `pub fn` entry points are held to guard-dataflow.
pub const GUARD_CRATES: &[&str] = &["bonsai-kdtree", "bonsai-core", "bonsai-serve"];

/// Crates whose public fallible APIs are held to
/// typed-error-discipline.
pub const TYPED_ERROR_CRATES: &[&str] = &[
    "bonsai-core",
    "bonsai-cluster",
    "bonsai-pipeline",
    "bonsai-serve",
];

/// Hot-path modules (rule 5): the search / sweep / mutate files whose
/// release-build cost a bare `assert!` lands on.
pub const HOT_MODULES: &[(&str, &str)] = &[
    ("bonsai-kdtree", "search.rs"),
    ("bonsai-kdtree", "scratch.rs"),
    ("bonsai-kdtree", "knn.rs"),
    ("bonsai-kdtree", "simd.rs"),
    ("bonsai-kdtree", "mutate.rs"),
    ("bonsai-core", "engine.rs"),
    ("bonsai-core", "shell.rs"),
    ("bonsai-core", "simd.rs"),
    ("bonsai-core", "tree.rs"),
    ("bonsai-core", "shard.rs"),
];

/// Counter modules where bare `Ordering::Relaxed` is the sanctioned
/// idiom: load-accounting counters whose readers tolerate staleness by
/// design (`ShardLoad` decay sampling). Everything else needs an
/// `// HB:` comment or a justified allow.
pub const ATOMIC_COUNTER_MODULES: &[(&str, &str)] = &[("bonsai-core", "adapt.rs")];

/// The one file sanctioned to call `Arc::make_mut` on shard snapshots
/// (cow-discipline): the copy-on-write commit path behind the dirty
/// gate.
pub const COW_HOME: (&str, &str) = ("bonsai-core", "shard.rs");

/// One crate of the workspace: its directory and parsed manifest.
#[derive(Debug)]
pub struct WorkspaceCrate {
    pub dir: PathBuf,
    pub manifest: Manifest,
}

/// Loads the workspace rooted at `root` (the directory holding the
/// workspace `Cargo.toml`): the root package plus every member.
pub fn load_workspace(root: &Path) -> Vec<WorkspaceCrate> {
    let root_manifest = manifest::parse(&root.join("Cargo.toml"));
    let mut crates = Vec::new();
    let mut seen = BTreeSet::new();
    let mut push = |dir: PathBuf, crates: &mut Vec<WorkspaceCrate>| {
        if seen.insert(dir.clone()) {
            let m = manifest::parse(&dir.join("Cargo.toml"));
            if !m.name.is_empty() {
                crates.push(WorkspaceCrate { dir, manifest: m });
            }
        }
    };
    push(root.to_path_buf(), &mut crates);
    for member in &root_manifest.members {
        push(root.join(member), &mut crates);
    }
    // Workspace-dependency paths cover members the members list might
    // alias; harmless when redundant.
    for p in root_manifest.workspace_dep_paths.values() {
        push(root.join(p), &mut crates);
    }
    crates
}

/// One source file queued for analysis: path (as diagnostics should
/// print it), contents, and the per-file rule policy.
#[derive(Debug)]
pub struct SourceSpec {
    pub path: PathBuf,
    pub src: String,
    pub policy: FilePolicy,
}

/// The per-file half of an [`analyze`] run, kept so callers can
/// inspect what the analysis layer extracted.
struct FileAnalysis {
    lexed: lexer::Lexed,
    symbols: symbols::FileSymbols,
    allows: Vec<rules::Allow>,
    test_regions: rules::Regions,
    attr_lines: rules::Regions,
}

/// Runs every source-level rule over a batch of files **as one
/// analysis unit**: the call graph, alias table and error-enum set
/// span the whole batch, so guard-dataflow sees cross-file delegation
/// chains. (Feature-gates is manifest-level and runs separately in
/// [`check_workspace`].)
pub fn check_sources(inputs: &[SourceSpec]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut files = Vec::with_capacity(inputs.len());
    for spec in inputs {
        let lexed = lexer::lex(&spec.src);
        let (allows, mut allow_diags) = rules::parse_allows(&spec.path, &lexed);
        diags.append(&mut allow_diags);
        let (test_regions, attr_lines) = rules::scan_attributes(&lexed.tokens);
        let symbols = symbols::scan(&lexed, &test_regions);
        files.push(FileAnalysis {
            lexed,
            symbols,
            allows,
            test_regions,
            attr_lines,
        });
    }

    // Workspace-level context: the call graph and the error-enum set.
    let pairs: Vec<(&lexer::Lexed, &symbols::FileSymbols)> =
        files.iter().map(|f| (&f.lexed, &f.symbols)).collect();
    let graph = CallGraph::build(&pairs);
    let enums: BTreeSet<String> = files
        .iter()
        .flat_map(|f| f.symbols.enums.iter().cloned())
        .collect();

    for (idx, (spec, fa)) in inputs.iter().zip(files.iter()).enumerate() {
        let allowed = |rule: Rule, line: u32| rules::is_allowed(&fa.allows, rule, line);
        let policy = spec.policy;
        rules::check_unsafe_hygiene(&spec.path, &fa.lexed, &fa.attr_lines, &allowed, &mut diags);
        if policy.panic_free {
            rules::check_panic_free(
                &spec.path,
                &fa.lexed,
                &fa.test_regions,
                &allowed,
                &mut diags,
            );
        }
        if policy.hot_path {
            rules::check_debug_assert(
                &spec.path,
                &fa.lexed,
                &fa.test_regions,
                &allowed,
                &mut diags,
            );
        }
        if policy.concurrency {
            concurrency::check_atomic_ordering(
                &spec.path,
                &fa.lexed,
                &fa.symbols,
                &fa.test_regions,
                &fa.attr_lines,
                policy,
                &allowed,
                &mut diags,
            );
            concurrency::check_cow(
                &spec.path,
                &fa.lexed,
                &fa.symbols,
                &fa.test_regions,
                policy,
                &allowed,
                &mut diags,
            );
            concurrency::check_pin_balance(
                &spec.path,
                &fa.lexed,
                &fa.symbols,
                &fa.test_regions,
                &allowed,
                &mut diags,
            );
        }
        dataflow::check_guard_dataflow(
            &spec.path,
            &fa.symbols,
            &graph,
            idx,
            policy,
            &allowed,
            &mut diags,
        );
        dataflow::check_typed_errors(
            &spec.path,
            &fa.lexed,
            &fa.symbols,
            &enums,
            policy,
            &allowed,
            &mut diags,
        );
    }
    diags
}

/// Checks one source file in isolation (fixtures, unit tests). The
/// call graph and enum set cover just this file; cross-file
/// delegation needs [`check_sources`].
pub fn check_file(path: &Path, src: &str, policy: FilePolicy) -> Vec<Diagnostic> {
    check_sources(&[SourceSpec {
        path: path.to_path_buf(),
        src: src.to_string(),
        policy,
    }])
}

/// Runs every rule over the workspace at `root`. The returned
/// diagnostics are sorted by file then line.
pub fn check_workspace(root: &Path) -> Vec<Diagnostic> {
    let crates = load_workspace(root);
    let mut sources: Vec<SourceSpec> = Vec::new();
    // (crate index, file, line, feature name) of every `feature = "…"`
    // occurrence, across src/tests/benches/examples.
    let mut feature_uses: Vec<(usize, PathBuf, u32, String)> = Vec::new();

    for (ci, c) in crates.iter().enumerate() {
        let name = c.manifest.name.as_str();
        for file in crate_sources(&c.dir, root) {
            let Ok(src) = std::fs::read_to_string(&file) else {
                continue;
            };
            let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
            let in_src = file
                .strip_prefix(&c.dir)
                .map(|p| p.starts_with("src"))
                .unwrap_or(false);
            if in_src {
                let file_name = file
                    .file_name()
                    .map(|f| f.to_string_lossy().into_owned())
                    .unwrap_or_default();
                let serving = SERVING_CRATES.contains(&name);
                let is_chaos = file_name == "chaos.rs";
                let policy = FilePolicy {
                    panic_free: serving && !is_chaos,
                    hot_path: HOT_MODULES.contains(&(name, file_name.as_str())),
                    guard_surface: GUARD_CRATES.contains(&name) && !is_chaos,
                    concurrency: serving && !is_chaos,
                    atomic_counters: ATOMIC_COUNTER_MODULES.contains(&(name, file_name.as_str())),
                    cow_home: (name, file_name.as_str()) == COW_HOME,
                    typed_errors: TYPED_ERROR_CRATES.contains(&name) && !is_chaos,
                };
                sources.push(SourceSpec {
                    path: rel.clone(),
                    src: src.clone(),
                    policy,
                });
            }
            for (feat, line) in extract_feature_uses(&src) {
                feature_uses.push((ci, rel.clone(), line, feat));
            }
        }
    }

    let mut diags = check_sources(&sources);
    diags.extend(check_feature_gates(root, &crates, &feature_uses));
    diags.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    diags
}

/// Renders diagnostics as a JSON array (the `--json` CLI contract):
/// `[{"file": …, "line": …, "rule": …, "message": …}, …]`. Hand-rolled
/// like the rest of the crate — the workspace is offline.
pub fn render_json(diags: &[Diagnostic]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for ch in s.chars() {
            match ch {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
            esc(&d.file.to_string_lossy().replace('\\', "/")),
            d.line,
            d.rule,
            esc(&d.message)
        ));
    }
    if !diags.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// The `.rs` files rule scanning covers for one crate: everything
/// under `src/`, plus `tests/`, `benches/` and `examples/` (those are
/// only consulted for feature usage). Fixture corpora — deliberately
/// bad snippets — are skipped wholesale.
fn crate_sources(dir: &Path, root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for sub in ["src", "tests", "benches", "examples"] {
        let d = dir.join(sub);
        if d.is_dir() {
            walk_rs(&d, &mut files);
        }
    }
    // Fixture corpora are judged relative to the crate being scanned,
    // so pointing the analyzer *at* a fixture workspace (the self-tests
    // do) still scans that workspace's own sources.
    files.retain(|f| {
        let rel = f.strip_prefix(dir).unwrap_or(f);
        !rel.components()
            .any(|c| c.as_os_str() == "fixtures" || c.as_os_str() == "target")
    });
    let _ = root;
    files.sort();
    files
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            walk_rs(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

/// Every `feature = "name"` token triple in `src` (covers
/// `#[cfg(feature = "…")]`, `cfg!(feature = "…")` and
/// `#[cfg_attr(feature = "…", …)]` alike), with its line.
pub fn extract_feature_uses(src: &str) -> Vec<(String, u32)> {
    let lexed = lexer::lex(src);
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("feature") {
            continue;
        }
        let Some(eq) = toks.get(i + 1) else { continue };
        let Some(s) = toks.get(i + 2) else { continue };
        if eq.is_punct(b'=') && s.kind == TokKind::Str {
            let name = s
                .text
                .trim_start_matches(['r', 'b', '#'])
                .trim_matches(['"', '#'])
                .to_string();
            out.push((name, s.line));
        }
    }
    out
}

/// The feature-gates rule over the whole workspace; see the crate docs.
fn check_feature_gates(
    root: &Path,
    crates: &[WorkspaceCrate],
    feature_uses: &[(usize, PathBuf, u32, String)],
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let root_manifest = manifest::parse(&root.join("Cargo.toml"));
    // Dependency-name → crate index, via the workspace path table.
    let by_dir: std::collections::BTreeMap<PathBuf, usize> = crates
        .iter()
        .enumerate()
        .map(|(i, c)| (c.dir.clone(), i))
        .collect();
    let resolve = |dep: &str| -> Option<usize> {
        let p = root_manifest.workspace_dep_paths.get(dep)?;
        by_dir.get(&root.join(p)).copied()
    };

    // (a) used feature names must be declared.
    for (ci, file, line, feat) in feature_uses {
        let c = &crates[*ci];
        if !c.manifest.has_feature(feat) {
            diags.push(Diagnostic {
                file: file.clone(),
                line: *line,
                rule: Rule::FeatureGates,
                message: format!(
                    "`feature = \"{feat}\"` is not declared in {}'s Cargo.toml \
                     [features] table — the gated code can never be enabled",
                    c.manifest.name
                ),
            });
        }
    }

    for c in crates {
        let toml_rel = c
            .dir
            .join("Cargo.toml")
            .strip_prefix(root)
            .map(Path::to_path_buf)
            .unwrap_or_else(|_| c.dir.join("Cargo.toml"));
        let line_of = |f: &str| c.manifest.feature_lines.get(f).copied().unwrap_or(1);

        // (b) every feature entry references something real.
        for (fname, entries) in &c.manifest.features {
            for e in entries {
                if let Some(stripped) = e.strip_prefix("dep:") {
                    if !c.manifest.deps.iter().any(|d| d == stripped) {
                        diags.push(Diagnostic {
                            file: toml_rel.clone(),
                            line: line_of(fname),
                            rule: Rule::FeatureGates,
                            message: format!(
                                "feature `{fname}` enables `dep:{stripped}`, which is \
                                 not a dependency of {}",
                                c.manifest.name
                            ),
                        });
                    }
                } else if let Some((dep, df)) = e.split_once('/') {
                    let dep = dep.trim_end_matches('?');
                    if !c.manifest.deps.iter().any(|d| d == dep) {
                        diags.push(Diagnostic {
                            file: toml_rel.clone(),
                            line: line_of(fname),
                            rule: Rule::FeatureGates,
                            message: format!(
                                "feature `{fname}` forwards to `{dep}/{df}`, but `{dep}` \
                                 is not a dependency of {}",
                                c.manifest.name
                            ),
                        });
                    } else if let Some(di) = resolve(dep) {
                        if !crates[di].manifest.has_feature(df) {
                            diags.push(Diagnostic {
                                file: toml_rel.clone(),
                                line: line_of(fname),
                                rule: Rule::FeatureGates,
                                message: format!(
                                    "feature `{fname}` forwards to `{dep}/{df}`, but \
                                     `{dep}` declares no feature `{df}`"
                                ),
                            });
                        }
                    }
                } else if !c.manifest.has_feature(e) {
                    diags.push(Diagnostic {
                        file: toml_rel.clone(),
                        line: line_of(fname),
                        rule: Rule::FeatureGates,
                        message: format!(
                            "feature `{fname}` lists `{e}`, which is neither a declared \
                             feature of {} nor a `dep/feature` forward",
                            c.manifest.name
                        ),
                    });
                }
            }
        }

        // (c) propagation completeness: a feature the crate declares
        // must reach — possibly through intermediate crates — every
        // direct workspace dependency that declares the same feature.
        // (This is what keeps the facade→cluster→core→kdtree `chaos`
        // and `simd` chains honest.)
        for (fname, _) in &c.manifest.features {
            if fname == "default" {
                continue;
            }
            let reached = feature_closure(c, fname, crates, &resolve);
            for dep in &c.manifest.deps {
                let Some(di) = resolve(dep) else { continue };
                if crates[di].manifest.has_feature(fname)
                    && !reached.contains(&(dep.clone(), fname.clone()))
                {
                    diags.push(Diagnostic {
                        file: toml_rel.clone(),
                        line: line_of(fname),
                        rule: Rule::FeatureGates,
                        message: format!(
                            "feature gate drift: {} declares `{fname}` and depends on \
                             `{dep}`, which also declares `{fname}`, but `{fname}` never \
                             propagates there (add `{dep}/{fname}` to the chain)",
                            c.manifest.name
                        ),
                    });
                }
            }
        }
    }
    diags
}

/// The set of `(dep-name, feature)` pairs transitively enabled by
/// turning on `feature` of `krate`.
fn feature_closure(
    krate: &WorkspaceCrate,
    feature: &str,
    crates: &[WorkspaceCrate],
    resolve: &dyn Fn(&str) -> Option<usize>,
) -> BTreeSet<(String, String)> {
    let mut reached = BTreeSet::new();
    // Work queue of (crate manifest, feature) to expand.
    let mut queue: Vec<(&Manifest, String)> = vec![(&krate.manifest, feature.to_string())];
    let mut expanded: BTreeSet<(String, String)> = BTreeSet::new();
    while let Some((m, f)) = queue.pop() {
        if !expanded.insert((m.name.clone(), f.clone())) {
            continue;
        }
        let Some(entries) = m.feature_entries(&f) else {
            continue;
        };
        for e in entries {
            if let Some((dep, df)) = e.split_once('/') {
                let dep = dep.trim_end_matches('?');
                reached.insert((dep.to_string(), df.to_string()));
                if let Some(di) = resolve(dep) {
                    queue.push((&crates[di].manifest, df.to_string()));
                }
            } else if !e.starts_with("dep:") {
                queue.push((m, e.clone()));
            }
        }
    }
    reached
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_uses_are_extracted_with_lines() {
        let src =
            "#[cfg(feature = \"simd\")]\nmod x;\nfn f() { if cfg!(feature = \"parallel\") {} }\n";
        let uses = extract_feature_uses(src);
        assert_eq!(
            uses,
            vec![("simd".to_string(), 1), ("parallel".to_string(), 3)]
        );
    }

    #[test]
    fn entry_point_convention_matches_issue_spec() {
        for n in [
            "radius_search",
            "radius_search_scratch",
            "knn",
            "nearest",
            "insert",
            "delete",
            "split_shard",
            "merge_shards",
            "adapt_step",
            "worker_partition",
            "search_batch_shards",
        ] {
            assert!(rules::is_entry_point_name(n), "{n}");
        }
        for n in [
            "radius_is_searchable",
            "shard_is_adaptable",
            "rebuild_shard",
            "search_batch",
            "commit",
            "load_report",
        ] {
            assert!(!rules::is_entry_point_name(n), "{n}");
        }
    }

    #[test]
    fn cross_file_delegation_satisfies_guard_dataflow() {
        // The entry point delegates into another file that guards:
        // single-file analysis would flag it, batch analysis must not.
        let entry = SourceSpec {
            path: PathBuf::from("a.rs"),
            src: "pub fn radius_probe(&self, r: f32) -> u32 { checked_walk(r) }\n".into(),
            policy: FilePolicy {
                guard_surface: true,
                ..FilePolicy::default()
            },
        };
        let helper = SourceSpec {
            path: PathBuf::from("b.rs"),
            src: "pub(crate) fn checked_walk(r: f32) -> u32 {\n    if !radius_is_searchable(r) { return 0; }\n    1\n}\n".into(),
            policy: FilePolicy::default(),
        };
        assert!(check_sources(&[entry, helper]).is_empty());
    }

    #[test]
    fn json_rendering_escapes_and_round_trips_the_fields() {
        let diags = vec![Diagnostic {
            file: PathBuf::from("crates/x/src/a.rs"),
            line: 7,
            rule: Rule::GuardDataflow,
            message: "say \"why\" — a\\b".to_string(),
        }];
        let json = render_json(&diags);
        assert!(json.contains("\"file\":\"crates/x/src/a.rs\""));
        assert!(json.contains("\"line\":7"));
        assert!(json.contains("\"rule\":\"guard-dataflow\""));
        assert!(json.contains("say \\\"why\\\" — a\\\\b"));
        assert_eq!(render_json(&[]), "[]\n");
    }
}
