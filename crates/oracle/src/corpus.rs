//! The committed regression corpus: adversarial cases that once found
//! (or nearly found) a divergence, shrunk to minimal form and replayed
//! on every CI run.
//!
//! The on-disk format is a dependency-free text format. A corpus file
//! holds one or more entries separated by `---` lines; each entry is
//! `key: value` pairs. Lines starting with `#` are comments.
//!
//! ```text
//! kind: array
//! name: duplicate-at-chunk-join
//! shape: duplicate-at-boundary
//! domain: 20000
//! expect: accept
//! data: 0 1 2 2 3
//! ---
//! kind: predicate
//! name: sqrtmax-product-overflow
//! check: a*b <= c
//! bind: a=3037000500 b=3037000500 c=0
//! expect: overflow
//! ---
//! kind: kernel
//! name: amgmk-seed7
//! kernel: AMGmk
//! seed: 7
//! ---
//! kind: reinspect
//! name: heal-at-block-join
//! domain: 100
//! data: 0 1 2 3
//! mutations: 2=0 2=2 1=999
//! ---
//! kind: source
//! name: unclosed-brace
//! source: void f() {\n    x = 1;
//! ---
//! kind: fingerprint
//! name: one-past-a-block
//! domain: 1000003
//! len: 4097
//! seed: 12
//! mutations: 0=5 4096=7
//! ```
//!
//! A `source` entry replays C source text through the frontend
//! differential check ([`crate::srcgen::check_frontend`]): no panics,
//! deterministic span-correct diagnostics, round-trip identity on
//! acceptance. The source is stored on one line with `\n` escaping
//! newlines and `\\` escaping backslashes.
//!
//! A `reinspect` entry replays `at=value` writes through `mutate_range`
//! (out-of-domain values exercise the reject-and-rollback path) and
//! diffs the incremental block-summary state against a full scan after
//! every write.
//!
//! A `fingerprint` entry holds the content checksum against the naive
//! reference of the format ([`crate::fingerprint::check_fingerprint`])
//! after ingest and after every `at=value` write. Its array is either
//! listed (`data:`, what a shrunk reproducer looks like) or named by
//! `len:` + `seed:` ([`crate::fingerprint::gen_fingerprint_data`]), so
//! a multi-block case stays one line long.
//!
//! Binding names with a `_max` suffix are installed with
//! [`Bindings::set_post_max`], matching the parser's treatment of
//! `X_max` symbols in check sources.

use crate::diff::{check_composed, check_index_array, check_kernel, check_reinspect, Divergence};
use crate::fingerprint::{check_fingerprint, gen_fingerprint_data};
use crate::gen::{brute_force_monotone, ArrayShape, GeneratedArray, MutationStep};
use crate::refeval::{compare, ref_eval, PredicateAgreement};
use crate::srcgen::{check_frontend, FUZZ_BUDGET};
use std::fmt;
use std::path::{Path, PathBuf};
use subsub_kernels::kernel_by_name;
use subsub_omprt::ThreadPool;
use subsub_rtcheck::{parse_check, Bindings, CompiledCheck, EvalError};

/// What a predicate entry expects the *compiled* evaluator to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredicateExpect {
    /// `Ok(true)`.
    True,
    /// `Ok(false)`.
    False,
    /// `Err(EvalError::Overflow)` — the conservative deny.
    Overflow,
    /// `Err(EvalError::Unbound)`.
    Unbound,
}

impl fmt::Display for PredicateExpect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PredicateExpect::True => "true",
            PredicateExpect::False => "false",
            PredicateExpect::Overflow => "overflow",
            PredicateExpect::Unbound => "unbound",
        };
        write!(f, "{s}")
    }
}

/// One value a predicate entry binds, keeping the textual name so the
/// `_max` suffix survives a round-trip.
#[derive(Debug, Clone)]
pub struct Bind {
    /// Binding name as written (`n`, `m_max`, ...).
    pub name: String,
    /// The bound value.
    pub value: i64,
}

/// One replayable corpus entry.
#[derive(Debug, Clone)]
pub enum CorpusEntry {
    /// An index array replayed through ingestion and both inspectors.
    Array {
        /// Entry id used in failure messages.
        name: String,
        /// Generator shape it regression-tests.
        shape: ArrayShape,
        /// Exclusive domain bound for ingestion.
        domain: usize,
        /// Whether ingestion must reject it.
        expect_reject: bool,
        /// The subscript values.
        data: Vec<usize>,
    },
    /// A (check, bindings) pair replayed through both evaluators.
    Predicate {
        /// Entry id.
        name: String,
        /// Check source, re-parsed at replay time.
        check: String,
        /// Bindings to install.
        binds: Vec<Bind>,
        /// Expected compiled-evaluator outcome.
        expect: PredicateExpect,
    },
    /// A kernel × campaign-seed pair replayed through [`check_kernel`].
    Kernel {
        /// Entry id.
        name: String,
        /// Registry name of the kernel.
        kernel: String,
        /// Campaign seed (selects pool size and schedule).
        seed: u64,
    },
    /// A mutate-then-reinspect plan replayed through
    /// [`check_reinspect`]: incremental block-summary state diffed
    /// against the full-scan reference after every write, plus the
    /// bypassing-writer tamper leg.
    Reinspect {
        /// Entry id.
        name: String,
        /// Exclusive domain bound for ingestion and mutation.
        domain: usize,
        /// The seed array (ingestion must accept it).
        data: Vec<usize>,
        /// Writes applied through `mutate_range`, in order.
        plan: Vec<MutationStep>,
    },
    /// A C source replayed through the frontend differential check
    /// ([`crate::srcgen::check_frontend`]).
    Source {
        /// Entry id.
        name: String,
        /// The source text (unescaped).
        source: String,
    },
    /// A two-level pair replayed through [`check_composed`]: the
    /// composed verdict over `outer[inner[j]]` must never claim a
    /// monotonicity flavour the materialized composition lacks.
    Composed {
        /// Entry id.
        name: String,
        /// Exclusive domain bound for the outer array.
        domain: usize,
        /// The outer (value-providing) array.
        outer: Vec<usize>,
        /// The inner array; validated against `outer.len()`.
        inner: Vec<usize>,
    },
    /// An array and a write plan replayed through
    /// [`check_fingerprint`]: production checksum against the naive
    /// reference of the format at every step.
    Fingerprint {
        /// Entry id.
        name: String,
        /// Exclusive domain bound (at least 1).
        domain: usize,
        /// The seed array, listed or generated from `len` + `seed`.
        data: Vec<usize>,
        /// Writes applied through `mutate_range`, in order.
        plan: Vec<MutationStep>,
    },
}

impl CorpusEntry {
    /// The entry's id.
    pub fn name(&self) -> &str {
        match self {
            CorpusEntry::Array { name, .. }
            | CorpusEntry::Predicate { name, .. }
            | CorpusEntry::Kernel { name, .. }
            | CorpusEntry::Reinspect { name, .. }
            | CorpusEntry::Source { name, .. }
            | CorpusEntry::Composed { name, .. }
            | CorpusEntry::Fingerprint { name, .. } => name,
        }
    }
}

/// Why a corpus file failed to load.
#[derive(Debug)]
pub enum CorpusError {
    /// Filesystem error reading the file or directory.
    Io(String),
    /// Structural problem in an entry.
    Malformed {
        /// File the entry came from.
        file: PathBuf,
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Io(e) => write!(f, "corpus io error: {e}"),
            CorpusError::Malformed { file, detail } => {
                write!(f, "malformed corpus entry in {}: {detail}", file.display())
            }
        }
    }
}

impl std::error::Error for CorpusError {}

/// Encodes source text onto one corpus line: `\` → `\\`, newline → `\n`.
pub fn escape_source(src: &str) -> String {
    src.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Inverse of [`escape_source`]; rejects dangling or unknown escapes so
/// a corrupted entry fails loudly instead of replaying the wrong bytes.
pub fn unescape_source(line: &str) -> Result<String, String> {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('\\') => out.push('\\'),
            Some(other) => return Err(format!("unknown escape `\\{other}`")),
            None => return Err("dangling `\\` at end of source".to_string()),
        }
    }
    Ok(out)
}

fn parse_entry(block: &str, file: &Path) -> Result<Option<CorpusEntry>, CorpusError> {
    let mut kind = None;
    let mut fields: Vec<(String, String)> = Vec::new();
    for line in block.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line.split_once(':').ok_or_else(|| CorpusError::Malformed {
            file: file.to_path_buf(),
            detail: format!("line without `key: value` form: `{line}`"),
        })?;
        let (key, value) = (key.trim().to_string(), value.trim().to_string());
        if key == "kind" {
            kind = Some(value);
        } else {
            fields.push((key, value));
        }
    }
    let Some(kind) = kind else {
        // A block of only comments/blank lines (e.g. a trailing `---`).
        if fields.is_empty() {
            return Ok(None);
        }
        return Err(CorpusError::Malformed {
            file: file.to_path_buf(),
            detail: "entry missing `kind:`".to_string(),
        });
    };
    let get = |key: &str| -> Result<String, CorpusError> {
        fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .ok_or_else(|| CorpusError::Malformed {
                file: file.to_path_buf(),
                detail: format!("{kind} entry missing `{key}:`"),
            })
    };
    let malformed = |detail: String| CorpusError::Malformed {
        file: file.to_path_buf(),
        detail,
    };
    let parse_list = |key: &str| -> Result<Vec<usize>, CorpusError> {
        let mut out = Vec::new();
        for tok in get(key)?.split_whitespace() {
            out.push(
                tok.parse::<usize>()
                    .map_err(|e| malformed(format!("bad {key} value `{tok}`: {e}")))?,
            );
        }
        Ok(out)
    };
    // A list that may be left out (an empty array).
    let parse_list_or_empty = |key: &str| -> Result<Vec<usize>, CorpusError> {
        if get(key).is_ok() {
            parse_list(key)
        } else {
            Ok(Vec::new())
        }
    };
    let parse_usize = |key: &str| -> Result<usize, CorpusError> {
        get(key)?
            .parse::<usize>()
            .map_err(|e| malformed(format!("bad {key}: {e}")))
    };
    let parse_mutations = |text: String| -> Result<Vec<MutationStep>, CorpusError> {
        let mut plan = Vec::new();
        for tok in text.split_whitespace() {
            let (at, value) = tok
                .split_once('=')
                .ok_or_else(|| malformed(format!("bad mutation `{tok}` (want at=value)")))?;
            plan.push(MutationStep {
                at: at
                    .parse::<usize>()
                    .map_err(|e| malformed(format!("bad mutation index `{tok}`: {e}")))?,
                value: value
                    .parse::<usize>()
                    .map_err(|e| malformed(format!("bad mutation value `{tok}`: {e}")))?,
            });
        }
        Ok(plan)
    };
    match kind.as_str() {
        "array" => {
            let shape_s = get("shape")?;
            let shape = ArrayShape::parse(&shape_s)
                .ok_or_else(|| malformed(format!("unknown shape `{shape_s}`")))?;
            let domain = parse_usize("domain")?;
            let expect_s = get("expect")?;
            let expect_reject = match expect_s.as_str() {
                "accept" => false,
                "reject" => true,
                other => {
                    return Err(malformed(format!(
                        "array expect must be accept|reject, got `{other}`"
                    )))
                }
            };
            Ok(Some(CorpusEntry::Array {
                name: get("name")?,
                shape,
                domain,
                expect_reject,
                data: parse_list_or_empty("data")?,
            }))
        }
        "predicate" => {
            let mut binds = Vec::new();
            for tok in get("bind").unwrap_or_default().split_whitespace() {
                let (name, value) = tok
                    .split_once('=')
                    .ok_or_else(|| malformed(format!("bad bind `{tok}` (want name=value)")))?;
                binds.push(Bind {
                    name: name.to_string(),
                    value: value
                        .parse::<i64>()
                        .map_err(|e| malformed(format!("bad bind value `{tok}`: {e}")))?,
                });
            }
            let expect_s = get("expect")?;
            let expect = match expect_s.as_str() {
                "true" => PredicateExpect::True,
                "false" => PredicateExpect::False,
                "overflow" => PredicateExpect::Overflow,
                "unbound" => PredicateExpect::Unbound,
                other => {
                    return Err(malformed(format!(
                        "predicate expect must be true|false|overflow|unbound, got `{other}`"
                    )))
                }
            };
            Ok(Some(CorpusEntry::Predicate {
                name: get("name")?,
                check: get("check")?,
                binds,
                expect,
            }))
        }
        "kernel" => Ok(Some(CorpusEntry::Kernel {
            name: get("name")?,
            kernel: get("kernel")?,
            seed: get("seed")?
                .parse::<u64>()
                .map_err(|e| malformed(format!("bad seed: {e}")))?,
        })),
        "reinspect" => Ok(Some(CorpusEntry::Reinspect {
            name: get("name")?,
            domain: parse_usize("domain")?,
            data: parse_list_or_empty("data")?,
            plan: parse_mutations(get("mutations")?)?,
        })),
        "fingerprint" => {
            let domain = parse_usize("domain")?;
            if domain == 0 {
                return Err(malformed("fingerprint domain must be >= 1".to_string()));
            }
            let data = match get("data") {
                Ok(_) => parse_list("data")?,
                Err(_) => {
                    let seed = get("seed")?
                        .parse::<u64>()
                        .map_err(|e| malformed(format!("bad seed: {e}")))?;
                    gen_fingerprint_data(parse_usize("len")?, seed, domain)
                }
            };
            Ok(Some(CorpusEntry::Fingerprint {
                name: get("name")?,
                domain,
                data,
                plan: parse_mutations(get("mutations").unwrap_or_default())?,
            }))
        }
        "source" => Ok(Some(CorpusEntry::Source {
            name: get("name")?,
            source: unescape_source(&get("source")?)
                .map_err(|e| malformed(format!("bad source escape: {e}")))?,
        })),
        "composed" => Ok(Some(CorpusEntry::Composed {
            name: get("name")?,
            domain: parse_usize("domain")?,
            outer: parse_list("outer")?,
            inner: parse_list("inner")?,
        })),
        other => Err(malformed(format!("unknown kind `{other}`"))),
    }
}

/// Parses every entry in one corpus file's contents.
pub fn parse_corpus(text: &str, file: &Path) -> Result<Vec<CorpusEntry>, CorpusError> {
    let mut out = Vec::new();
    for block in text.split("\n---") {
        if let Some(entry) = parse_entry(block, file)? {
            out.push(entry);
        }
    }
    Ok(out)
}

/// Loads every `.corpus` file in `dir` (sorted by name, so replay order
/// is stable across platforms).
pub fn load_dir(dir: &Path) -> Result<Vec<CorpusEntry>, CorpusError> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| CorpusError::Io(format!("{}: {e}", dir.display())))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "corpus"))
        .collect();
    files.sort();
    let mut out = Vec::new();
    for f in files {
        let text = std::fs::read_to_string(&f)
            .map_err(|e| CorpusError::Io(format!("{}: {e}", f.display())))?;
        out.extend(parse_corpus(&text, &f)?);
    }
    Ok(out)
}

fn describe_compiled(r: &Result<bool, EvalError>) -> String {
    match r {
        Ok(v) => format!("Ok({v})"),
        Err(e) => format!("Err({e})"),
    }
}

/// Replays one entry; returns human-readable failure descriptions
/// (empty = clean).
pub fn replay(entry: &CorpusEntry, pool: &ThreadPool) -> Vec<String> {
    match entry {
        CorpusEntry::Array {
            name,
            shape,
            domain,
            expect_reject,
            data,
        } => {
            let g = GeneratedArray {
                shape: *shape,
                data: data.clone(),
                domain: *domain,
                expect_reject: *expect_reject,
            };
            let mut out: Vec<String> = check_index_array(&g, pool)
                .into_iter()
                .map(|d: Divergence| format!("[{name}] {d}"))
                .collect();
            // Belt and braces: corpus data must still match its shape's
            // advertised monotonicity class where one is implied.
            let (nonstrict, _) = brute_force_monotone(data);
            if matches!(shape, ArrayShape::Sawtooth) && nonstrict && data.len() > 1 {
                out.push(format!(
                    "[{name}] sawtooth entry degenerated to a monotone array"
                ));
            }
            out
        }
        CorpusEntry::Predicate {
            name,
            check,
            binds,
            expect,
        } => {
            let parsed = match parse_check(check) {
                Ok(c) => c,
                Err(e) => return vec![format!("[{name}] check failed to parse: {e}")],
            };
            let compiled = match CompiledCheck::compile(&parsed) {
                Ok(c) => c,
                Err(e) => return vec![format!("[{name}] check failed to compile: {e}")],
            };
            let mut b = Bindings::new();
            for bind in binds {
                match bind.name.strip_suffix("_max") {
                    Some(base) => b.set_post_max(base, bind.value),
                    None => b.set_var(&bind.name, bind.value),
                };
            }
            let got = compiled.eval(&b);
            let matches_expect = matches!(
                (&got, expect),
                (Ok(true), PredicateExpect::True)
                    | (Ok(false), PredicateExpect::False)
                    | (Err(EvalError::Overflow { .. }), PredicateExpect::Overflow)
                    | (Err(EvalError::Unbound { .. }), PredicateExpect::Unbound)
            );
            let mut out = Vec::new();
            if !matches_expect {
                out.push(format!(
                    "[{name}] compiled evaluator returned {}, corpus expects {expect}",
                    describe_compiled(&got)
                ));
            }
            let reference = ref_eval(&parsed, &b);
            if compare(&got, &reference) == PredicateAgreement::Diverged {
                out.push(format!(
                    "[{name}] compiled {} diverges from reference {:?}",
                    describe_compiled(&got),
                    reference
                ));
            }
            out
        }
        CorpusEntry::Kernel { name, kernel, seed } => match kernel_by_name(kernel) {
            Some(k) => check_kernel(k.as_ref(), *seed)
                .into_iter()
                .map(|d| format!("[{name}] {d}"))
                .collect(),
            None => vec![format!("[{name}] unknown kernel `{kernel}`")],
        },
        CorpusEntry::Reinspect {
            name,
            domain,
            data,
            plan,
        } => check_reinspect(name, data, *domain, plan)
            .into_iter()
            .map(|d| format!("[{name}] {d}"))
            .collect(),
        CorpusEntry::Source { name, source } => check_frontend(name, source, &FUZZ_BUDGET)
            .into_iter()
            .map(|d| format!("[{name}] {d}"))
            .collect(),
        CorpusEntry::Composed {
            name,
            domain,
            outer,
            inner,
        } => check_composed(name, outer, *domain, inner)
            .into_iter()
            .map(|d| format!("[{name}] {d}"))
            .collect(),
        CorpusEntry::Fingerprint {
            name,
            domain,
            data,
            plan,
        } => check_fingerprint(name, data, *domain, plan)
            .into_iter()
            .map(|d| format!("[{name}] {d}"))
            .collect(),
    }
}

/// Replays every entry; returns all failures.
pub fn replay_all(entries: &[CorpusEntry], pool: &ThreadPool) -> Vec<String> {
    entries.iter().flat_map(|e| replay(e, pool)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_one(text: &str) -> CorpusEntry {
        let mut v = parse_corpus(text, Path::new("test.corpus")).expect("parses");
        assert_eq!(v.len(), 1);
        v.remove(0)
    }

    #[test]
    fn parses_all_three_kinds() {
        let entries = parse_corpus(
            "# comment\nkind: array\nname: a\nshape: plateau\ndomain: 10\nexpect: accept\n\
             data: 3 3 3\n---\nkind: predicate\nname: p\ncheck: n <= m\nbind: n=1 m=2\n\
             expect: true\n---\nkind: kernel\nname: k\nkernel: AMGmk\nseed: 7\n",
            Path::new("test.corpus"),
        )
        .expect("parses");
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].name(), "a");
        assert!(matches!(entries[1], CorpusEntry::Predicate { .. }));
        assert!(matches!(entries[2], CorpusEntry::Kernel { .. }));
    }

    #[test]
    fn malformed_entries_are_rejected_with_context() {
        for bad in [
            "kind: array\nname: a\nshape: nosuch\ndomain: 1\nexpect: accept\ndata:\n",
            "kind: frobnicate\nname: x\n",
            "name: missing-kind\n",
            "kind: predicate\nname: p\ncheck: n <= m\nbind: n+1\nexpect: true\n",
        ] {
            assert!(
                matches!(
                    parse_corpus(bad, Path::new("t.corpus")),
                    Err(CorpusError::Malformed { .. })
                ),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn array_replay_catches_expectation_flips() {
        let entry = parse_one(
            "kind: array\nname: oob\nshape: out-of-domain\ndomain: 4\nexpect: accept\ndata: 9\n",
        );
        let pool = ThreadPool::new(2);
        let failures = replay(&entry, &pool);
        assert!(!failures.is_empty());
        assert!(failures[0].contains("[oob]"), "{failures:?}");
    }

    #[test]
    fn predicate_replay_checks_both_expectation_and_reference() {
        let pool = ThreadPool::new(2);
        let clean = parse_one(
            "kind: predicate\nname: p\ncheck: a*b <= c\nbind: a=3037000500 b=3037000500 c=0\n\
             expect: overflow\n",
        );
        assert!(replay(&clean, &pool).is_empty());
        let flipped = parse_one(
            "kind: predicate\nname: p2\ncheck: a*b <= c\nbind: a=3037000500 b=3037000500 c=0\n\
             expect: true\n",
        );
        assert!(!replay(&flipped, &pool).is_empty());
    }

    #[test]
    fn reinspect_entries_parse_and_replay() {
        let pool = ThreadPool::new(2);
        let clean = parse_one(
            "kind: reinspect\nname: r\ndomain: 10\ndata: 0 1 2 3\nmutations: 2=0 2=2 1=999\n",
        );
        assert!(matches!(clean, CorpusEntry::Reinspect { .. }));
        assert!(replay(&clean, &pool).is_empty());
        // A seed array ingestion rejects is a malformed case, not a
        // silent skip.
        let bad = parse_one("kind: reinspect\nname: r2\ndomain: 4\ndata: 0 9\nmutations: 0=1\n");
        let failures = replay(&bad, &pool);
        assert!(!failures.is_empty());
        assert!(failures[0].contains("[r2]"), "{failures:?}");
    }

    #[test]
    fn malformed_reinspect_mutations_are_rejected() {
        for bad in [
            "kind: reinspect\nname: r\ndomain: 10\ndata: 0 1\nmutations: 1+2\n",
            "kind: reinspect\nname: r\ndomain: 10\ndata: 0 1\nmutations: x=2\n",
            "kind: reinspect\nname: r\ndomain: 10\ndata: 0 1\n",
        ] {
            assert!(
                matches!(
                    parse_corpus(bad, Path::new("t.corpus")),
                    Err(CorpusError::Malformed { .. })
                ),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn source_entries_unescape_and_replay() {
        let pool = ThreadPool::new(2);
        // A malformed source replays clean: typed rejection IS the
        // expected behaviour, only panics/instability are failures.
        let entry = parse_one("kind: source\nname: s\nsource: void f() {\\n    x = 1;\n");
        match &entry {
            CorpusEntry::Source { source, .. } => {
                assert_eq!(source, "void f() {\n    x = 1;");
            }
            other => panic!("wrong kind: {other:?}"),
        }
        assert!(replay(&entry, &pool).is_empty());
        // A well-formed source exercises the round-trip identity leg.
        let ok = parse_one("kind: source\nname: ok\nsource: void f() { x = 1; }\n");
        assert!(replay(&ok, &pool).is_empty());
    }

    #[test]
    fn source_escape_round_trips() {
        let src = "a\\b\nc\\\\d\n";
        assert_eq!(unescape_source(&escape_source(src)).unwrap(), src);
        assert!(unescape_source("bad \\q escape").is_err());
        assert!(unescape_source("dangling \\").is_err());
    }

    #[test]
    fn malformed_source_entries_are_rejected() {
        for bad in [
            "kind: source\nname: s\n",
            "kind: source\nname: s\nsource: x \\q y\n",
        ] {
            assert!(
                matches!(
                    parse_corpus(bad, Path::new("t.corpus")),
                    Err(CorpusError::Malformed { .. })
                ),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn fingerprint_entries_parse_listed_or_generated_and_replay() {
        let pool = ThreadPool::new(2);
        let listed =
            parse_one("kind: fingerprint\nname: f\ndomain: 10\ndata: 0 9 3\nmutations: 1=2\n");
        assert!(replay(&listed, &pool).is_empty());
        let generated = parse_one("kind: fingerprint\nname: g\ndomain: 1000\nlen: 4097\nseed: 3\n");
        match &generated {
            CorpusEntry::Fingerprint { data, plan, .. } => {
                assert_eq!((data.len(), plan.len()), (4097, 0));
            }
            other => panic!("wrong kind: {other:?}"),
        }
        assert!(replay(&generated, &pool).is_empty());
        for bad in [
            "kind: fingerprint\nname: f\ndomain: 0\ndata:\n",
            "kind: fingerprint\nname: f\ndomain: 10\nlen: 4\n",
            "kind: fingerprint\nname: f\ndomain: 10\ndata: 1 2\nmutations: 1+2\n",
        ] {
            assert!(
                matches!(
                    parse_corpus(bad, Path::new("t.corpus")),
                    Err(CorpusError::Malformed { .. })
                ),
                "{bad:?}"
            );
        }
        // An out-of-bounds write is a malformed case, reported by name.
        let oob = parse_one("kind: fingerprint\nname: f2\ndomain: 10\ndata: 1\nmutations: 5=0\n");
        let failures = replay(&oob, &pool);
        assert!(failures[0].contains("[f2]"), "{failures:?}");
    }

    #[test]
    fn composed_entries_parse_and_replay() {
        let pool = ThreadPool::new(2);
        let clean =
            parse_one("kind: composed\nname: c\ndomain: 10\nouter: 0 2 4 6\ninner: 0 1 2 3\n");
        assert!(matches!(clean, CorpusEntry::Composed { .. }));
        assert!(replay(&clean, &pool).is_empty());
        // An inner entry past the outer's length breaks the chain at
        // ingestion; the replay reports it instead of indexing OOB.
        let bad = parse_one("kind: composed\nname: c2\ndomain: 10\nouter: 0 2\ninner: 5\n");
        let failures = replay(&bad, &pool);
        assert!(!failures.is_empty());
        assert!(failures[0].contains("[c2]"), "{failures:?}");
    }

    #[test]
    fn post_max_binds_round_trip() {
        let pool = ThreadPool::new(2);
        let entry = parse_one(
            "kind: predicate\nname: pm\ncheck: n - 1 <= m_max\nbind: n=10 m_max=9\nexpect: true\n",
        );
        assert!(replay(&entry, &pool).is_empty());
    }
}
