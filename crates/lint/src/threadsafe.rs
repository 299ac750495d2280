//! Static thread-safety analysis: struct/field discovery, thread-escape
//! roots, per-field access maps with locksets, and atomic-ordering roles.
//!
//! This is the third analysis layer of dlog-lint (after the lexical rules
//! and the CFG/dataflow engine): a whole-workspace pass that answers
//! "which state is thread-shared, which lock protects each field, and
//! which atomics carry cross-thread protocol meaning" — the machine-checked
//! precondition for sharding the server event loop (ROADMAP item 3).
//!
//! The pass is deliberately conservative in what it *tracks* (only structs
//! that provably escape to another thread: Arc payloads, statics, structs
//! with sync interior, and anything reachable from those through field
//! types) and in what it *flags* (a field must have a write access outside
//! `&mut self`/owned-`self` methods and an empty intersection of locksets
//! across all shared accesses).

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{CallGraph, FnId};
use crate::cfg::{Cfg, Stmt, StmtKind};
use crate::dataflow::{let_bindings, receiver_path, StmtCx};
use crate::lexer::TokenKind;
use crate::source::{FnSpan, SourceFile};

/// Default bound on interprocedural entry-lockset fixpoint rounds.
/// `--deep` (nightly lane) lifts this to an effectively unbounded value.
pub const DEFAULT_ROUNDS: usize = 64;

/// Atomic integer/bool/ptr type names from `std::sync::atomic`. A fixed
/// list so project structs like `AtomicNetStats` don't misclassify.
const ATOMIC_TYPES: &[&str] = &[
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
];

const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "fetch_add",
    "fetch_sub",
    "fetch_max",
    "fetch_min",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
];

const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Method names that mutate a container or cell in place.
const MUTATING_METHODS: &[&str] = &[
    "push",
    "push_back",
    "push_front",
    "pop",
    "pop_front",
    "pop_back",
    "insert",
    "remove",
    "take",
    "replace",
    "clear",
    "extend",
    "truncate",
    "resize",
    "drain",
    "retain",
    "append",
    "get_mut",
    "entry",
    "sort",
    "sort_unstable",
    "swap",
    "push_str",
    "set",
];

/// Concurrency role of a struct field, from its declared type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// A std atomic (possibly behind `Arc<...>`).
    Atomic,
    /// `Mutex<...>` or `RwLock<...>`.
    Lock,
    /// `Condvar`.
    Condvar,
    /// Anything else — the kind `shared-field-lockset` polices.
    Plain,
}

/// One parsed struct field.
#[derive(Debug, Clone)]
pub struct FieldInfo {
    /// Field name (tuple fields are "0", "1", …).
    pub name: String,
    /// Concurrency role from the declared type.
    pub kind: FieldKind,
    /// Type tokens joined for diagnostics.
    pub ty: String,
    /// For `Lock` fields: the protected struct name, when it names a
    /// struct we track (`Mutex<Inbox>` → `Some("Inbox")`).
    pub content: Option<String>,
    /// 1-based line of the field declaration.
    pub line: u32,
}

/// One parsed struct definition plus its thread-escape status.
#[derive(Debug, Clone)]
pub struct StructInfo {
    /// Struct name (the synthetic struct "static" holds static items).
    pub name: String,
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// 1-based line of the definition.
    pub line: u32,
    /// Declared fields, in order.
    pub fields: Vec<FieldInfo>,
    /// Why this struct is considered thread-shared, if it is.
    /// `"arc" | "static" | "sync-interior" | "via <S>"`.
    pub escape: Option<String>,
}

impl StructInfo {
    /// Look up a field by name.
    pub fn field(&self, name: &str) -> Option<&FieldInfo> {
        self.fields.iter().find(|f| f.name == name)
    }
}

/// One syntactic access to a tracked struct's field.
#[derive(Debug, Clone)]
pub struct AccessSite {
    /// Owning struct name.
    pub strukt: String,
    /// Field name.
    pub field: String,
    /// Workspace-relative path of the accessing file.
    pub file: String,
    /// 1-based line of the access.
    pub line: u32,
    /// Enclosing function name.
    pub func: String,
    /// Token index of the field name in the file's token stream.
    pub token: usize,
    /// The access mutates the field (assignment, compound assignment,
    /// in-place mutating method, or `&mut` borrow).
    pub write: bool,
    /// Access happens through `&mut self` or owned `self` — the borrow
    /// checker already serialises these, so they don't race.
    pub exclusive: bool,
    /// Lock ids ("Struct.field" / "static.NAME") held at the access,
    /// local facts plus the interprocedural entry lockset.
    pub lockset: BTreeSet<String>,
}

/// One call of an atomic method.
#[derive(Debug, Clone)]
pub struct AtomicAccess {
    /// Workspace-relative path of the accessing file.
    pub file: String,
    /// 1-based line of the access.
    pub line: u32,
    /// Enclosing function name.
    pub func: String,
    /// Token index of the method name.
    pub token: usize,
    /// Atomic method called (`load`, `store`, `fetch_add`, …).
    pub method: String,
    /// Memory ordering argument (`Relaxed`, …, or "default").
    pub ordering: String,
    /// For loads used as a branch condition: the token span of the
    /// guarded body (absolute indices into the file's token stream).
    pub guard_span: Option<(usize, usize)>,
}

/// All discovered accesses to one atomic, keyed by its identity.
#[derive(Debug, Clone, Default)]
pub struct AtomicInfo {
    /// "Struct.field", "static.NAME", or "local.fn.name".
    pub id: String,
    /// Every atomic-method call resolved to this identity.
    pub accesses: Vec<AtomicAccess>,
}

impl AtomicInfo {
    /// "handoff" if any load of this atomic guards a branch, else "counter".
    pub fn role(&self) -> &'static str {
        if self.accesses.iter().any(|a| a.guard_span.is_some()) {
            "handoff"
        } else {
            "counter"
        }
    }
}

/// Result of the whole-workspace thread-safety analysis.
pub struct ThreadSafety {
    /// All parsed structs, escaped or not, by name.
    pub structs: BTreeMap<String, StructInfo>,
    /// All shared-field accesses, sorted by (struct, field, file, token).
    pub accesses: Vec<AccessSite>,
    /// All atomics with at least one access, by identity.
    pub atomics: BTreeMap<String, AtomicInfo>,
    /// fn path -> (entry lockset, witness call chain rendered as a string).
    pub entry_chains: BTreeMap<String, (BTreeSet<String>, String)>,
    /// Functions that spawn threads (`thread::spawn` / `.spawn(`).
    pub thread_roots: Vec<String>,
}

impl ThreadSafety {
    /// Every recorded access to `strukt.field`.
    pub fn field_sites(&self, strukt: &str, field: &str) -> Vec<&AccessSite> {
        self.accesses
            .iter()
            .filter(|a| a.strukt == strukt && a.field == field)
            .collect()
    }

    /// Render the full access map as deterministic JSON — the
    /// `race-report.json` artifact (`dlog-lint --race-report`).
    #[must_use]
    pub fn race_report_json(&self) -> String {
        use crate::report::json_str;
        let set_json = |s: &BTreeSet<String>| -> String {
            let items: Vec<String> = s.iter().map(|l| json_str(l)).collect();
            format!("[{}]", items.join(","))
        };
        let mut structs = Vec::new();
        for (name, s) in &self.structs {
            if s.escape.is_none() {
                continue;
            }
            let mut fields = Vec::new();
            for fi in &s.fields {
                let kind = match fi.kind {
                    FieldKind::Atomic => "atomic",
                    FieldKind::Lock => "lock",
                    FieldKind::Condvar => "condvar",
                    FieldKind::Plain => "plain",
                };
                let common = self
                    .common_lockset(name, &fi.name)
                    .map_or("null".to_string(), |c| set_json(&c));
                let mut sites = Vec::new();
                for a in self.field_sites(name, &fi.name) {
                    sites.push(format!(
                        "{{\"file\":{},\"line\":{},\"fn\":{},\"write\":{},\"exclusive\":{},\"lockset\":{}}}",
                        json_str(&a.file),
                        a.line,
                        json_str(&a.func),
                        a.write,
                        a.exclusive,
                        set_json(&a.lockset)
                    ));
                }
                fields.push(format!(
                    "{{\"name\":{},\"kind\":{},\"common_lockset\":{},\"accesses\":[{}]}}",
                    json_str(&fi.name),
                    json_str(kind),
                    common,
                    sites.join(",")
                ));
            }
            structs.push(format!(
                "{{\"name\":{},\"file\":{},\"escape\":{},\"fields\":[{}]}}",
                json_str(name),
                json_str(&s.file),
                json_str(s.escape.as_deref().unwrap_or("")),
                fields.join(",")
            ));
        }
        let mut atomics = Vec::new();
        for (id, info) in &self.atomics {
            let mut sites = Vec::new();
            for a in &info.accesses {
                sites.push(format!(
                    "{{\"file\":{},\"line\":{},\"fn\":{},\"method\":{},\"ordering\":{},\"guarding\":{}}}",
                    json_str(&a.file),
                    a.line,
                    json_str(&a.func),
                    json_str(&a.method),
                    json_str(&a.ordering),
                    a.guard_span.is_some()
                ));
            }
            atomics.push(format!(
                "{{\"id\":{},\"role\":{},\"accesses\":[{}]}}",
                json_str(id),
                json_str(info.role()),
                sites.join(",")
            ));
        }
        let mut entries = Vec::new();
        for (f, (locks, chain)) in &self.entry_chains {
            entries.push(format!(
                "{{\"fn\":{},\"locks\":{},\"chain\":{}}}",
                json_str(f),
                set_json(locks),
                json_str(chain)
            ));
        }
        let roots: Vec<String> = self.thread_roots.iter().map(|r| json_str(r)).collect();
        format!(
            "{{\n  \"structs\": [{}],\n  \"atomics\": [{}],\n  \"entry_locksets\": [{}],\n  \"thread_roots\": [{}]\n}}\n",
            structs.join(","),
            atomics.join(","),
            entries.join(","),
            roots.join(",")
        )
    }

    /// Intersection of locksets over all non-exclusive accesses to a field.
    /// `None` when the field has no shared accesses.
    pub fn common_lockset(&self, strukt: &str, field: &str) -> Option<BTreeSet<String>> {
        let mut out: Option<BTreeSet<String>> = None;
        for a in self.accesses.iter() {
            if a.strukt != strukt || a.field != field || a.exclusive {
                continue;
            }
            out = Some(match out {
                None => a.lockset.clone(),
                Some(cur) => cur.intersection(&a.lockset).cloned().collect(),
            });
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Struct / static / field parsing
// ---------------------------------------------------------------------------

fn classify_type(ty_tokens: &[String]) -> (FieldKind, Option<String>) {
    let has = |n: &str| ty_tokens.iter().any(|t| t == n);
    if ATOMIC_TYPES.iter().any(|a| has(a)) {
        return (FieldKind::Atomic, None);
    }
    if has("Mutex") || has("RwLock") {
        // The protected type is the ident right after the lock's `<`.
        let mut content = None;
        for (i, t) in ty_tokens.iter().enumerate() {
            if (t == "Mutex" || t == "RwLock") && ty_tokens.get(i + 1).is_some_and(|n| n == "<") {
                content = ty_tokens.get(i + 2).cloned();
            }
        }
        return (FieldKind::Lock, content);
    }
    if has("Condvar") {
        return (FieldKind::Condvar, None);
    }
    (FieldKind::Plain, None)
}

/// Skip a generic parameter list starting at `<`; returns index past `>`.
/// Tolerates `->` inside (its `>` is preceded by `-`).
fn skip_generics(file: &SourceFile, mut i: usize) -> usize {
    let toks = &file.tokens;
    if !toks.get(i).is_some_and(|t| t.is("<")) {
        return i;
    }
    let mut depth = 0usize;
    while i < toks.len() {
        if toks[i].is("<") {
            depth += 1;
        } else if toks[i].is(">") && !(i > 0 && toks[i - 1].is("-")) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

fn parse_struct_fields(file: &SourceFile, body_open: usize) -> Vec<FieldInfo> {
    let toks = &file.tokens;
    let close = match file.matching_brace(body_open) {
        Some(c) => c,
        None => return Vec::new(),
    };
    let mut fields = Vec::new();
    let mut i = body_open + 1;
    while i < close {
        // Skip attributes on the field.
        while toks[i].is("#") {
            if toks.get(i + 1).is_some_and(|t| t.is("[")) {
                let mut d = 0usize;
                let mut j = i + 1;
                while j < close {
                    if toks[j].is("[") {
                        d += 1;
                    } else if toks[j].is("]") {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                i = j + 1;
            } else {
                i += 1;
            }
        }
        // Skip visibility.
        if toks.get(i).is_some_and(|t| t.is("pub")) {
            i += 1;
            if toks.get(i).is_some_and(|t| t.is("(")) {
                let mut d = 0usize;
                while i < close {
                    if toks[i].is("(") {
                        d += 1;
                    } else if toks[i].is(")") {
                        d -= 1;
                        if d == 0 {
                            i += 1;
                            break;
                        }
                    }
                    i += 1;
                }
            }
        }
        // Field: Ident ':' type-tokens (until ',' at depth 0).
        if i + 1 < close && toks[i].kind == TokenKind::Ident && toks[i + 1].is(":") {
            let name = toks[i].text.clone();
            let line = toks[i].line;
            let mut j = i + 2;
            let mut depth = 0isize;
            let mut ty = Vec::new();
            while j < close {
                let t = &toks[j];
                if depth == 0 && t.is(",") {
                    break;
                }
                if t.is("<") || t.is("(") || t.is("[") {
                    depth += 1;
                } else if t.is(")") || t.is("]") || (t.is(">") && !toks[j - 1].is("-")) {
                    depth -= 1;
                }
                ty.push(t.text.clone());
                j += 1;
            }
            let (kind, content) = classify_type(&ty);
            fields.push(FieldInfo {
                name,
                kind,
                ty: ty.join(""),
                content,
                line,
            });
            i = j + 1;
        } else {
            i += 1;
        }
    }
    fields
}

fn parse_structs(file: &SourceFile, out: &mut BTreeMap<String, StructInfo>) {
    let toks = &file.tokens;
    let mut i = 0;
    while i < toks.len() {
        if file.test[i] || !toks[i].is("struct") {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            break;
        };
        if name_tok.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        let name = name_tok.text.clone();
        let line = name_tok.line;
        let mut j = skip_generics(file, i + 2);
        // Skip a `where` clause: scan to `{` or `;` at angle depth 0.
        while j < toks.len() && !toks[j].is("{") && !toks[j].is(";") && !toks[j].is("(") {
            j += 1;
        }
        let fields = if j < toks.len() && toks[j].is("{") {
            parse_struct_fields(file, j)
        } else if j < toks.len() && toks[j].is("(") {
            // Tuple struct: fields named "0", "1", ...
            let mut fields = Vec::new();
            let mut d = 0usize;
            let mut k = j;
            let mut start = j + 1;
            let mut idx = 0usize;
            while k < toks.len() {
                if toks[k].is("(") {
                    d += 1;
                } else if toks[k].is(")") {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                } else if d == 1 && toks[k].is(",") {
                    let ty: Vec<String> = toks[start..k].iter().map(|t| t.text.clone()).collect();
                    if !ty.is_empty() {
                        let (kind, content) = classify_type(&ty);
                        fields.push(FieldInfo {
                            name: idx.to_string(),
                            kind,
                            ty: ty.join(""),
                            content,
                            line: toks[start].line,
                        });
                        idx += 1;
                    }
                    start = k + 1;
                }
                k += 1;
            }
            if start < k {
                let ty: Vec<String> = toks[start..k].iter().map(|t| t.text.clone()).collect();
                if !ty.is_empty() {
                    let (kind, content) = classify_type(&ty);
                    fields.push(FieldInfo {
                        name: idx.to_string(),
                        kind,
                        ty: ty.join(""),
                        content,
                        line: toks[start].line,
                    });
                }
            }
            fields
        } else {
            Vec::new()
        };
        // First definition wins; duplicate names across crates are rare
        // and the analysis is per-name.
        out.entry(name.clone()).or_insert(StructInfo {
            name,
            file: file.path.clone(),
            line,
            fields,
            escape: None,
        });
        i += 1;
    }
}

/// Parse `static NAME: Type = ...;` items into synthetic tracked state.
fn parse_statics(
    file: &SourceFile,
    structs: &mut BTreeMap<String, StructInfo>,
    escaped_structs: &mut Vec<(String, String)>,
) {
    let toks = &file.tokens;
    let mut i = 0;
    while i + 2 < toks.len() {
        if file.test[i] || !toks[i].is("static") || toks.get(i + 1).is_some_and(|t| t.is("mut")) {
            i += 1;
            continue;
        }
        let name_tok = &toks[i + 1];
        if name_tok.kind != TokenKind::Ident || !toks[i + 2].is(":") {
            i += 1;
            continue;
        }
        let name = name_tok.text.clone();
        let line = name_tok.line;
        let mut j = i + 3;
        let mut ty = Vec::new();
        while j < toks.len() && !toks[j].is("=") && !toks[j].is(";") {
            ty.push(toks[j].text.clone());
            j += 1;
        }
        let (kind, content) = classify_type(&ty);
        match kind {
            FieldKind::Atomic | FieldKind::Lock => {
                let e = structs.entry("static".to_string()).or_insert(StructInfo {
                    name: "static".to_string(),
                    file: file.path.clone(),
                    line,
                    fields: Vec::new(),
                    escape: Some("static".to_string()),
                });
                if e.field(&name).is_none() {
                    e.fields.push(FieldInfo {
                        name: name.clone(),
                        kind,
                        ty: ty.join(""),
                        content,
                        line,
                    });
                }
            }
            _ => {
                // A static of a struct type marks that struct escaped.
                for t in &ty {
                    escaped_structs.push((t.clone(), "static".to_string()));
                }
            }
        }
        i = j;
    }
}

/// Mark structs as thread-escaped: Arc payloads, statics, sync interior,
/// and the transitive closure through field types.
fn discover_escapes(
    files: &[&SourceFile],
    structs: &mut BTreeMap<String, StructInfo>,
    static_escapes: &[(String, String)],
) {
    let names: BTreeSet<String> = structs.keys().cloned().collect();
    let mut mark: BTreeMap<String, String> = BTreeMap::new();
    // Arc payloads: `Arc < S` or `Arc :: new ( S`.
    for file in files {
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if file.test[i] || !toks[i].is("Arc") {
                continue;
            }
            if toks.get(i + 1).is_some_and(|t| t.is("<")) {
                if let Some(t) = toks.get(i + 2) {
                    if names.contains(&t.text) {
                        mark.entry(t.text.clone()).or_insert_with(|| "arc".into());
                    }
                }
            }
            if toks.get(i + 1).is_some_and(|t| t.is(":"))
                && toks.get(i + 2).is_some_and(|t| t.is(":"))
                && toks.get(i + 3).is_some_and(|t| t.is("new"))
                && toks.get(i + 4).is_some_and(|t| t.is("("))
            {
                if let Some(t) = toks.get(i + 5) {
                    if names.contains(&t.text) {
                        mark.entry(t.text.clone()).or_insert_with(|| "arc".into());
                    }
                }
            }
        }
    }
    for (name, why) in static_escapes {
        if names.contains(name) {
            mark.entry(name.clone()).or_insert_with(|| why.clone());
        }
    }
    // Sync interior: a struct holding a lock/atomic/condvar is designed
    // to be shared — track it even if we miss the Arc site.
    for (name, s) in structs.iter() {
        if name == "static" {
            continue;
        }
        if s.fields.iter().any(|f| f.kind != FieldKind::Plain) {
            mark.entry(name.clone())
                .or_insert_with(|| "sync-interior".into());
        }
    }
    // Transitive: escaped S's field types mentioning a known struct T
    // escape T ("via S"). Lock contents are the canonical case.
    loop {
        let mut added = false;
        let snapshot: Vec<(String, Vec<String>)> = structs
            .iter()
            .filter(|(n, _)| mark.contains_key(*n))
            .map(|(n, s)| {
                let mut tys = Vec::new();
                for f in &s.fields {
                    // A JoinHandle payload is handed to exactly one
                    // joiner — ownership transfer, not sharing.
                    if f.ty.contains("JoinHandle") {
                        continue;
                    }
                    if let Some(c) = &f.content {
                        tys.push(c.clone());
                    }
                    for part in names.iter() {
                        if f.ty.contains(part.as_str()) {
                            tys.push(part.clone());
                        }
                    }
                }
                (n.clone(), tys)
            })
            .collect();
        for (src, tys) in snapshot {
            for t in tys {
                if names.contains(&t) && !mark.contains_key(&t) {
                    mark.insert(t.clone(), format!("via {src}"));
                    added = true;
                }
            }
        }
        if !added {
            break;
        }
    }
    for (name, why) in mark {
        if let Some(s) = structs.get_mut(&name) {
            s.escape = Some(why);
        }
    }
}

// ---------------------------------------------------------------------------
// Impl spans (for `self.field` resolution)
// ---------------------------------------------------------------------------

/// (open brace, close brace, struct name) for each `impl` block whose
/// subject is a tracked struct.
fn impl_spans(file: &SourceFile, names: &BTreeSet<String>) -> Vec<(usize, usize, String)> {
    let toks = &file.tokens;
    let mut spans = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is("impl") {
            i += 1;
            continue;
        }
        // Scan to the body `{`, remembering idents; subject is the first
        // tracked-struct ident after `for` when present, else the first
        // tracked-struct ident at all.
        let mut j = i + 1;
        let mut subject: Option<String> = None;
        let mut after_for = false;
        let mut saw_for = false;
        while j < toks.len() && !toks[j].is("{") && !toks[j].is(";") {
            if toks[j].is("for") {
                saw_for = true;
                after_for = true;
                subject = None;
            } else if toks[j].kind == TokenKind::Ident
                && names.contains(&toks[j].text)
                && (subject.is_none() || (saw_for && after_for))
            {
                subject = Some(toks[j].text.clone());
                after_for = false;
            }
            j += 1;
        }
        if j < toks.len() && toks[j].is("{") {
            if let (Some(name), Some(close)) = (subject, file.matching_brace(j)) {
                spans.push((j, close, name));
            }
            i = j + 1;
        } else {
            i = j + 1;
        }
    }
    spans
}

fn impl_ctx(spans: &[(usize, usize, String)], tok: usize) -> Option<&str> {
    // Innermost (smallest) enclosing span wins.
    spans
        .iter()
        .filter(|(o, c, _)| *o < tok && tok < *c)
        .min_by_key(|(o, c, _)| c - o)
        .map(|(_, _, n)| n.as_str())
}

// ---------------------------------------------------------------------------
// Lockset must-analysis over one function body
// ---------------------------------------------------------------------------

/// A live lock guard binding: `let g = x.lock()…` at token `decl`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Guard {
    name: String,
    lock: String,
    decl: usize,
}

type Guards = BTreeSet<Guard>;

/// Iteration backstop for the per-function must-fixpoint.
const MAX_PASSES: usize = 512;

/// Lookup tables derived from the tracked structs.
struct Ctx<'a> {
    structs: &'a BTreeMap<String, StructInfo>,
    /// Lock field name → owning tracked structs (for unique fallback).
    lock_owner: BTreeMap<String, Vec<String>>,
    /// Plain field name → owning *escaped* structs.
    plain_owner: BTreeMap<String, Vec<String>>,
    /// Atomic field name → owning tracked structs.
    atomic_owner: BTreeMap<String, Vec<String>>,
}

impl<'a> Ctx<'a> {
    fn build(structs: &'a BTreeMap<String, StructInfo>) -> Ctx<'a> {
        let mut lock_owner: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut plain_owner: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut atomic_owner: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for (name, s) in structs {
            for f in &s.fields {
                let slot = match f.kind {
                    FieldKind::Lock => &mut lock_owner,
                    FieldKind::Atomic => &mut atomic_owner,
                    FieldKind::Plain if s.escape.is_some() => &mut plain_owner,
                    _ => continue,
                };
                slot.entry(f.name.clone()).or_default().push(name.clone());
            }
        }
        Ctx {
            structs,
            lock_owner,
            plain_owner,
            atomic_owner,
        }
    }

    /// Step from struct `cur` through field `field` to the struct it
    /// holds (lock content or a tracked struct named in the field type).
    fn step(&self, cur: &str, field: &str) -> Option<String> {
        let s = self.structs.get(cur)?;
        let fi = s.field(field)?;
        if let Some(c) = &fi.content {
            if self.structs.contains_key(c) {
                return Some(c.clone());
            }
        }
        for name in self.structs.keys() {
            if name != "static" && name != cur && fi.ty.contains(name.as_str()) {
                return Some(name.clone());
            }
        }
        None
    }

    /// The struct a guard over `lock_id` ("S.f") dereferences to.
    fn lock_content(&self, lock_id: &str) -> Option<String> {
        let (s, f) = lock_id.split_once('.')?;
        let c = self.structs.get(s)?.field(f)?.content.clone()?;
        self.structs.contains_key(&c).then_some(c)
    }

    fn static_field_kind(&self, name: &str) -> Option<FieldKind> {
        Some(self.structs.get("static")?.field(name)?.kind)
    }
}

/// Resolve the struct owning the final segment of dotted `path`, walking
/// from `self` (impl context) or a live guard binding, with a
/// unique-field-name fallback over `owner_map`. Returns the owner name.
fn resolve_owner(
    ctx: &Ctx<'_>,
    path: &str,
    guards: &Guards,
    ictx: Option<&str>,
    local_binds: &BTreeSet<String>,
    owner_map: &BTreeMap<String, Vec<String>>,
) -> Option<String> {
    let segs: Vec<&str> = path.split('.').collect();
    let field = *segs.last()?;
    if segs.len() == 1 {
        if ctx.static_field_kind(field).is_some() {
            return Some("static".to_string());
        }
        return None;
    }
    let head = segs[0];
    if local_binds.contains(head) {
        // Bound to a function-local struct literal: not shared state.
        return None;
    }
    let mut cur: Option<String> = None;
    if head == "self" {
        cur = ictx.map(str::to_string);
    } else if let Some(g) = guards.iter().find(|g| g.name == head) {
        cur = ctx.lock_content(&g.lock);
    }
    if let Some(start) = cur {
        let mut c = start;
        let mut ok = true;
        for seg in &segs[1..segs.len() - 1] {
            match ctx.step(&c, seg) {
                Some(n) => c = n,
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if ok
            && ctx
                .structs
                .get(&c)
                .is_some_and(|s| s.field(field).is_some())
        {
            return Some(c);
        }
    }
    match owner_map.get(field) {
        Some(owners) if owners.len() == 1 => Some(owners[0].clone()),
        _ => None,
    }
}

/// Lock identity ("Struct.field" / "static.NAME" / "?.field") for an
/// acquisition whose receiver path is `path`.
fn resolve_lock(
    ctx: &Ctx<'_>,
    path: Option<String>,
    guards: &Guards,
    ictx: Option<&str>,
    local_binds: &BTreeSet<String>,
) -> String {
    let Some(path) = path else {
        return "?.unknown".to_string();
    };
    let segs: Vec<&str> = path.split('.').collect();
    let field = segs.last().copied().unwrap_or("unknown");
    if segs.len() == 1 {
        if ctx.static_field_kind(field) == Some(FieldKind::Lock) {
            return format!("static.{field}");
        }
        if let Some(owners) = ctx.lock_owner.get(field) {
            if owners.len() == 1 {
                return format!("{}.{field}", owners[0]);
            }
        }
        return format!("?.{field}");
    }
    match resolve_owner(ctx, &path, guards, ictx, local_binds, &ctx.lock_owner) {
        Some(owner) => format!("{owner}.{field}"),
        None => format!("?.{field}"),
    }
}

/// Lock/RwLock acquisitions inside statement tokens `[lo, hi)`:
/// `(method token, lock id)` for `.lock()` / `.read()` / `.write()`
/// with empty argument lists. `read`/`write` additionally require the
/// receiver's final segment to name a known lock field, so trait methods
/// like `io::Read::read(buf)` never alias in.
fn stmt_acquisitions(
    file: &SourceFile,
    lo: usize,
    hi: usize,
    guards: &Guards,
    ictx: Option<&str>,
    ctx: &Ctx<'_>,
    local_binds: &BTreeSet<String>,
) -> Vec<(usize, String)> {
    let toks = &file.tokens;
    let hi = hi.min(toks.len());
    let mut out = Vec::new();
    for m in (lo + 1)..hi.saturating_sub(2) {
        if !toks[m - 1].is(".") || toks[m].kind != TokenKind::Ident {
            continue;
        }
        if !toks[m + 1].is("(") || !toks[m + 2].is(")") {
            continue;
        }
        let name = toks[m].text.as_str();
        if name != "lock" && name != "read" && name != "write" {
            continue;
        }
        let path = if m >= 2 {
            receiver_path(file, m - 2)
        } else {
            None
        };
        if name != "lock" {
            let Some(p) = &path else { continue };
            let last = p.rsplit('.').next().unwrap_or("");
            let known = ctx.lock_owner.contains_key(last)
                || ctx.static_field_kind(last) == Some(FieldKind::Lock);
            if !known {
                continue;
            }
        }
        let id = resolve_lock(ctx, path, guards, ictx, local_binds);
        out.push((m, id));
    }
    out
}

/// Function-local bindings initialized from a struct literal
/// (`let x = S { … }`): accesses through them are to local state.
fn local_struct_binds(file: &SourceFile, f: &FnSpan, ctx: &Ctx<'_>) -> BTreeSet<String> {
    let toks = &file.tokens;
    let mut out = BTreeSet::new();
    let mut i = f.open;
    while i + 4 < f.close {
        if toks[i].is("let") {
            let mut p = i + 1;
            if toks[p].is("mut") {
                p += 1;
            }
            if toks[p].kind == TokenKind::Ident
                && toks.get(p + 1).is_some_and(|t| t.is("="))
                && toks.get(p + 2).is_some_and(|t| {
                    t.kind == TokenKind::Ident && ctx.structs.contains_key(&t.text)
                })
                && (toks.get(p + 3).is_some_and(|t| t.is("{"))
                    // `let x = S::ctor(…)`: an owned value, not shared.
                    || (toks.get(p + 3).is_some_and(|t| t.is(":"))
                        && toks.get(p + 4).is_some_and(|t| t.is(":"))))
            {
                out.insert(toks[p].text.clone());
            }
        }
        i += 1;
    }
    out
}

/// Transfer one CFG statement across the guard set.
fn transfer(
    file: &SourceFile,
    func: &FnSpan,
    st: &Stmt,
    g: &mut Guards,
    ctx: &Ctx<'_>,
    ictx: Option<&str>,
    local_binds: &BTreeSet<String>,
) {
    match st.kind {
        StmtKind::ScopeExit => {
            g.retain(|gd| !(gd.decl > st.lo && gd.decl < st.hi));
        }
        StmtKind::Plain => {
            let toks = &file.tokens;
            let lo = st.lo;
            let hi = st.hi.min(toks.len());
            // Explicit `drop(g)` releases.
            for i in lo..hi.saturating_sub(3) {
                if toks[i].is("drop")
                    && toks[i + 1].is("(")
                    && toks[i + 2].kind == TokenKind::Ident
                    && toks[i + 3].is(")")
                {
                    let name = toks[i + 2].text.clone();
                    g.retain(|gd| gd.name != name);
                }
            }
            let cx = StmtCx {
                file,
                func,
                stmt: *st,
            };
            let binds = let_bindings(&cx);
            for (_, name) in &binds {
                g.retain(|gd| gd.name != *name);
            }
            let acqs = stmt_acquisitions(file, lo, hi, g, ictx, ctx, local_binds);
            if let (Some((decl, name)), Some((_, lock))) = (binds.first(), acqs.first()) {
                g.insert(Guard {
                    name: name.clone(),
                    lock: lock.clone(),
                    decl: *decl,
                });
            }
        }
    }
}

/// `(exclusive, is_pub)` from the function signature: exclusive means
/// the receiver is `&mut self` or owned `self`, so the borrow checker
/// already serializes the accesses inside.
fn fn_sig(file: &SourceFile, f: &FnSpan) -> (bool, bool) {
    let toks = &file.tokens;
    let mut fn_idx = None;
    let mut k = f.open;
    while k > 0 {
        k -= 1;
        if toks[k].is("fn") && toks.get(k + 1).is_some_and(|t| t.text == f.name) {
            fn_idx = Some(k);
            break;
        }
    }
    let Some(k) = fn_idx else {
        return (false, false);
    };
    let is_pub = (k.saturating_sub(4)..k).any(|i| toks[i].is("pub"));
    let mut j = k + 2;
    while j < f.open && !toks[j].is("(") {
        j += 1;
    }
    let mut p = j + 1;
    let mut saw_amp = false;
    let mut saw_mut = false;
    while p < f.open {
        let t = &toks[p];
        if t.is("&") {
            saw_amp = true;
        } else if t.kind == TokenKind::Lifetime {
            // skip
        } else if t.is("mut") {
            saw_mut = true;
        } else {
            break;
        }
        p += 1;
    }
    let exclusive = toks.get(p).is_some_and(|t| t.is("self")) && (!saw_amp || saw_mut);
    (exclusive, is_pub)
}

/// `(cond_lo, cond_hi, body_lo, body_hi)` for every `if`/`while`
/// condition in the file, token-index spans.
fn cond_spans(file: &SourceFile) -> Vec<(usize, usize, usize, usize)> {
    let toks = &file.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is("if") && !toks[i].is("while") {
            continue;
        }
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut found = None;
        while j < toks.len() {
            let t = &toks[j];
            if t.is("(") || t.is("[") {
                depth += 1;
            } else if t.is(")") || t.is("]") {
                depth -= 1;
            } else if depth == 0 && t.is("{") {
                found = Some(j);
                break;
            } else if depth == 0 && (t.is(";") || t.is("}")) {
                break;
            }
            j += 1;
        }
        if let Some(open) = found {
            if let Some(close) = file.matching_brace(open) {
                out.push((i + 1, open, open, close));
            }
        }
    }
    out
}

/// Whether the field/tuple access ending at token `t` is a write:
/// assignment, compound assignment, in-place mutating method, or a
/// `&mut` borrow of the whole path.
fn is_write(file: &SourceFile, t: usize) -> bool {
    let toks = &file.tokens;
    let t1 = toks.get(t + 1);
    let t2 = toks.get(t + 2);
    let t3 = toks.get(t + 3);
    if t1.is_some_and(|x| x.is("=")) && !t2.is_some_and(|x| x.is("=") || x.is(">")) {
        return true;
    }
    const COMPOUND: &[&str] = &["+", "-", "*", "/", "%", "&", "|", "^"];
    if t1.is_some_and(|x| COMPOUND.iter().any(|op| x.is(op))) && t2.is_some_and(|x| x.is("=")) {
        return true;
    }
    // Shifts: `<<=` / `>>=` lex as three tokens.
    if t1.is_some_and(|x| x.is("<") || x.is(">"))
        && t2.is_some_and(|x| x.is("<") || x.is(">"))
        && t3.is_some_and(|x| x.is("="))
    {
        return true;
    }
    if t1.is_some_and(|x| x.is("."))
        && t2.is_some_and(|x| MUTATING_METHODS.contains(&x.text.as_str()))
        && t3.is_some_and(|x| x.is("("))
    {
        return true;
    }
    // `&mut path.field`: walk back to the path head.
    let mut i = t;
    while i >= 2
        && toks[i - 1].is(".")
        && (toks[i - 2].kind == TokenKind::Ident || toks[i - 2].kind == TokenKind::Literal)
    {
        i -= 2;
    }
    i >= 2 && toks[i - 1].is("mut") && toks[i - 2].is("&")
}

/// Per-function alias map: local binding name → atomic id. Resolves the
/// `let stop2 = stop.clone()` idiom by first attributing struct-literal
/// values (`ShardSupervisor { stop, … }` maps the local `stop` to
/// `ShardSupervisor.stop`) and then chasing `let a = b.clone()` /
/// `Arc::clone(&b)` / `let a = b;` chains.
fn atomic_aliases(file: &SourceFile, f: &FnSpan, ctx: &Ctx<'_>) -> BTreeMap<String, String> {
    let toks = &file.tokens;
    let mut map: BTreeMap<String, String> = BTreeMap::new();
    // Pass 1: struct-literal attribution.
    let mut i = f.open;
    while i + 1 < f.close {
        let t = &toks[i];
        if t.kind == TokenKind::Ident && toks[i + 1].is("{") {
            if let Some(s) = ctx.structs.get(&t.text) {
                if s.fields.iter().any(|fl| fl.kind == FieldKind::Atomic) {
                    if let Some(close) = file.matching_brace(i + 1) {
                        let mut d = 0usize;
                        let mut j = i + 1;
                        while j < close.min(f.close) {
                            if toks[j].is("{") {
                                d += 1;
                            } else if toks[j].is("}") {
                                d -= 1;
                            } else if d == 1
                                && toks[j].kind == TokenKind::Ident
                                && (toks[j - 1].is("{") || toks[j - 1].is(","))
                                && s.field(&toks[j].text)
                                    .is_some_and(|fl| fl.kind == FieldKind::Atomic)
                            {
                                let id = format!("{}.{}", s.name, toks[j].text);
                                if toks.get(j + 1).is_some_and(|x| x.is(":")) {
                                    // `field: value` — only a bare ident or
                                    // `ident.clone()` value is an alias.
                                    if toks.get(j + 2).is_some_and(|v| v.kind == TokenKind::Ident)
                                        && toks
                                            .get(j + 3)
                                            .is_some_and(|x| x.is(",") || x.is("}") || x.is("."))
                                    {
                                        map.insert(toks[j + 2].text.clone(), id);
                                    }
                                } else {
                                    // Shorthand `field,`.
                                    map.insert(toks[j].text.clone(), id);
                                }
                            }
                            j += 1;
                        }
                    }
                }
            }
        }
        i += 1;
    }
    // Pass 2 (run to a small closure): `let a = b.clone()` etc.
    for _ in 0..3 {
        let mut j = f.open;
        while j + 3 < f.close {
            if toks[j].is("let") {
                let mut p = j + 1;
                if toks[p].is("mut") {
                    p += 1;
                }
                if toks[p].kind == TokenKind::Ident
                    && toks.get(p + 1).is_some_and(|t| t.is("="))
                    && !toks.get(p + 2).is_some_and(|t| t.is("="))
                {
                    let name = toks[p].text.clone();
                    let v = p + 2;
                    if let Some(vt) = toks.get(v) {
                        if vt.kind == TokenKind::Ident {
                            let src = vt.text.clone();
                            let tail_clone = toks.get(v + 1).is_some_and(|t| t.is("."))
                                && toks.get(v + 2).is_some_and(|t| t.is("clone"));
                            let tail_end = toks.get(v + 1).is_some_and(|t| t.is(";"));
                            // `Arc::clone(&b)`
                            let arc_clone = src == "Arc"
                                && toks.get(v + 3).is_some_and(|t| t.is("clone"))
                                && toks.get(v + 5).is_some_and(|t| t.is("&"))
                                && toks.get(v + 6).is_some_and(|t| t.kind == TokenKind::Ident);
                            if arc_clone {
                                if let Some(id) = map.get(&toks[v + 6].text).cloned() {
                                    map.insert(name, id);
                                }
                            } else if (tail_clone || tail_end) && src != name {
                                if let Some(id) = map.get(&src).cloned() {
                                    map.insert(name, id);
                                }
                            }
                        }
                    }
                }
            }
            j += 1;
        }
    }
    map
}

/// Atomic identity for an access whose receiver path is `path`.
fn resolve_atomic(
    ctx: &Ctx<'_>,
    path: Option<String>,
    guards: &Guards,
    ictx: Option<&str>,
    aliases: &BTreeMap<String, String>,
    fname: &str,
) -> String {
    let Some(path) = path else {
        return format!("local.{fname}.unknown");
    };
    let segs: Vec<&str> = path.split('.').collect();
    let field = segs.last().copied().unwrap_or("unknown");
    if segs.len() == 1 {
        if ctx.static_field_kind(field) == Some(FieldKind::Atomic) {
            return format!("static.{field}");
        }
        if let Some(id) = aliases.get(field) {
            return id.clone();
        }
        if let Some(owners) = ctx.atomic_owner.get(field) {
            if owners.len() == 1 {
                return format!("{}.{field}", owners[0]);
            }
        }
        return format!("local.{fname}.{field}");
    }
    let empty = BTreeSet::new();
    match resolve_owner(ctx, &path, guards, ictx, &empty, &ctx.atomic_owner) {
        Some(owner) => format!("{owner}.{field}"),
        None => format!("local.{fname}.{field}"),
    }
}

/// Mutable accumulator threaded through the per-function passes.
#[derive(Default)]
struct Acc {
    /// Access plus the id of the enclosing fn in the call graph.
    accesses: Vec<(AccessSite, Option<FnId>)>,
    atomics: BTreeMap<String, AtomicInfo>,
    /// (caller, callee, lockset at the call site).
    edges: Vec<(FnId, FnId, BTreeSet<String>)>,
    thread_roots: Vec<String>,
}

#[allow(clippy::too_many_arguments)]
fn collect_stmt(
    file: &SourceFile,
    func: &FnSpan,
    st: &Stmt,
    g: &Guards,
    ctx: &Ctx<'_>,
    ictx: Option<&str>,
    local_binds: &BTreeSet<String>,
    aliases: &BTreeMap<String, String>,
    conds: &[(usize, usize, usize, usize)],
    fsites: &BTreeMap<usize, (FnId, usize)>,
    graph: &CallGraph,
    def_id: Option<FnId>,
    exclusive: bool,
    acc: &mut Acc,
) {
    let toks = &file.tokens;
    let lo = st.lo;
    let hi = st.hi.min(toks.len());
    let base: BTreeSet<String> = g.iter().map(|gd| gd.lock.clone()).collect();
    let acqs = stmt_acquisitions(file, lo, hi, g, ictx, ctx, local_binds);
    let cx = StmtCx {
        file,
        func,
        stmt: *st,
    };
    let binds = let_bindings(&cx);
    let lockset_at = |t: usize| -> BTreeSet<String> {
        let mut s = base.clone();
        for (m, id) in &acqs {
            if *m < t {
                s.insert(id.clone());
            }
        }
        s
    };
    for t in (lo + 1)..hi {
        // Confident call sites: record the caller's lockset for the
        // interprocedural entry-lockset fixpoint.
        if let (Some(caller), Some(&(cf, si))) = (def_id, fsites.get(&t)) {
            let site = &graph.calls[cf][si];
            if cf == caller {
                let ls = lockset_at(t);
                for &callee in &site.callees {
                    acc.edges.push((caller, callee, ls.clone()));
                }
            }
        }
        let tok = &toks[t];
        if (tok.kind != TokenKind::Ident && tok.kind != TokenKind::Literal) || !toks[t - 1].is(".")
        {
            continue;
        }
        let is_call = toks.get(t + 1).is_some_and(|x| x.is("("));
        if is_call {
            if ATOMIC_METHODS.contains(&tok.text.as_str()) {
                let path = if t >= 2 {
                    receiver_path(file, t - 2)
                } else {
                    None
                };
                let id = resolve_atomic(ctx, path, g, ictx, aliases, &func.name);
                // Ordering: first Ordering ident inside the arg parens.
                let mut ordering = "default".to_string();
                let mut d = 0i32;
                let mut j = t + 1;
                while j < toks.len() {
                    if toks[j].is("(") {
                        d += 1;
                    } else if toks[j].is(")") {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    } else if toks[j].kind == TokenKind::Ident
                        && ORDERINGS.contains(&toks[j].text.as_str())
                    {
                        ordering = toks[j].text.clone();
                        break;
                    }
                    j += 1;
                }
                // Does this load guard a branch?
                let mut guard_span = None;
                if tok.text == "load" {
                    for &(clo, chi, blo, bhi) in conds {
                        if clo <= t && t < chi {
                            guard_span = Some((blo, bhi));
                            break;
                        }
                    }
                    if guard_span.is_none() {
                        // One level of `let v = x.load(..);  if v { … }`.
                        if let Some((_, var)) = binds.first() {
                            for &(clo, chi, blo, bhi) in conds {
                                if clo > t
                                    && toks[clo..chi]
                                        .iter()
                                        .any(|x| x.kind == TokenKind::Ident && x.text == *var)
                                {
                                    guard_span = Some((blo, bhi));
                                    break;
                                }
                            }
                        }
                    }
                }
                acc.atomics
                    .entry(id.clone())
                    .or_insert_with(|| AtomicInfo {
                        id,
                        accesses: Vec::new(),
                    })
                    .accesses
                    .push(AtomicAccess {
                        file: file.path.clone(),
                        line: tok.line,
                        func: func.name.clone(),
                        token: t,
                        method: tok.text.clone(),
                        ordering,
                        guard_span,
                    });
            }
            continue;
        }
        // Field access.
        let path = receiver_path(file, t);
        let owner = match &path {
            Some(p) => resolve_owner(ctx, p, g, ictx, local_binds, &ctx.plain_owner),
            None => match ctx.plain_owner.get(&tok.text) {
                // Receiver hangs off a call result (`….read().unwrap().f`):
                // fall back to the unique owner of the field name.
                Some(owners) if owners.len() == 1 => Some(owners[0].clone()),
                _ => None,
            },
        };
        let Some(owner) = owner else { continue };
        let Some(s) = ctx.structs.get(&owner) else {
            continue;
        };
        if s.escape.is_none() {
            continue;
        }
        let Some(fi) = s.field(&tok.text) else {
            continue;
        };
        if fi.kind != FieldKind::Plain {
            continue;
        }
        // A method call on a field whose type is itself a tracked struct
        // (`core.trace.push(…)` where `trace: TraceLog`) mutates *inside*
        // that struct — its own fields are analyzed on their own terms,
        // so don't book it as a raw write of the outer field.
        if toks.get(t + 1).is_some_and(|x| x.is("."))
            && toks.get(t + 3).is_some_and(|x| x.is("("))
            && ctx.step(&owner, &tok.text).is_some()
        {
            continue;
        }
        acc.accesses.push((
            AccessSite {
                strukt: owner,
                field: tok.text.clone(),
                file: file.path.clone(),
                line: tok.line,
                func: func.name.clone(),
                token: t,
                write: is_write(file, t),
                exclusive,
                lockset: lockset_at(t),
            },
            def_id,
        ));
    }
}

#[allow(clippy::too_many_arguments)]
fn analyze_fn(
    file: &SourceFile,
    f: &FnSpan,
    ctx: &Ctx<'_>,
    impls: &[(usize, usize, String)],
    conds: &[(usize, usize, usize, usize)],
    fsites: &BTreeMap<usize, (FnId, usize)>,
    graph: &CallGraph,
    def_id: Option<FnId>,
    acc: &mut Acc,
) {
    let ictx = impl_ctx(impls, f.open);
    let (exclusive, _) = fn_sig(file, f);
    let aliases = atomic_aliases(file, f, ctx);
    let local_binds = local_struct_binds(file, f, ctx);
    let cfg = Cfg::build(file, f);
    let n = cfg.blocks.len();
    // Must-analysis fixpoint: in[b] = ∩ over preds; None is ⊤.
    let mut inn: Vec<Option<Guards>> = vec![None; n];
    inn[cfg.entry] = Some(Guards::new());
    let mut work = vec![cfg.entry];
    let mut passes = 0usize;
    while let Some(b) = work.pop() {
        passes += 1;
        if passes > MAX_PASSES * n.max(1) {
            break;
        }
        let Some(mut g) = inn[b].clone() else {
            continue;
        };
        for st in &cfg.blocks[b].stmts {
            transfer(file, f, st, &mut g, ctx, ictx, &local_binds);
        }
        for &s in &cfg.blocks[b].succs {
            let new: Guards = match &inn[s] {
                None => g.clone(),
                Some(cur) => cur.intersection(&g).cloned().collect(),
            };
            if inn[s].as_ref() != Some(&new) {
                inn[s] = Some(new);
                work.push(s);
            }
        }
    }
    // Reporting pass over the stable in-sets.
    let reach = cfg.reachable();
    for (bi, block) in cfg.blocks.iter().enumerate() {
        if !reach[bi] {
            continue;
        }
        let Some(mut g) = inn[bi].clone() else {
            continue;
        };
        for st in &block.stmts {
            if st.kind == StmtKind::Plain {
                collect_stmt(
                    file,
                    f,
                    st,
                    &g,
                    ctx,
                    ictx,
                    &local_binds,
                    &aliases,
                    conds,
                    fsites,
                    graph,
                    def_id,
                    exclusive,
                    acc,
                );
            }
            transfer(file, f, st, &mut g, ctx, ictx, &local_binds);
        }
    }
    // Thread-spawn roots (reporting only).
    let toks = &file.tokens;
    let mut spawns = false;
    for i in f.open..f.close.min(toks.len()) {
        if toks[i].is("spawn")
            && toks.get(i + 1).is_some_and(|t| t.is("("))
            && i >= 1
            && (toks[i - 1].is(".") || toks[i - 1].is(":"))
        {
            spawns = true;
            break;
        }
    }
    if spawns {
        acc.thread_roots.push(format!("{}::{}", file.path, f.name));
    }
}

// ---------------------------------------------------------------------------
// Whole-workspace analysis
// ---------------------------------------------------------------------------

/// Is `defs[i]` declared `pub`? Pub functions may be entered without any
/// caller we can see, so their entry lockset is pinned to ∅.
fn is_pub_def(files: &[&SourceFile], graph: &CallGraph, i: FnId) -> bool {
    let d = &graph.defs[i];
    let Some(file) = files.iter().find(|f| f.path == d.path) else {
        return true; // unknown file: be conservative
    };
    file.fns
        .iter()
        .find(|f| f.open == d.open)
        .map(|f| fn_sig(file, f).1)
        .unwrap_or(true)
}

/// Run the thread-safety analysis over `files`. `rounds` bounds the
/// interprocedural entry-lockset fixpoint (`None` = effectively
/// unbounded, the `--deep` nightly mode).
#[must_use]
pub fn analyze(files: &[&SourceFile], graph: &CallGraph, rounds: Option<usize>) -> ThreadSafety {
    let mut structs = BTreeMap::new();
    for f in files {
        parse_structs(f, &mut structs);
    }
    let mut static_escapes = Vec::new();
    for f in files {
        parse_statics(f, &mut structs, &mut static_escapes);
    }
    discover_escapes(files, &mut structs, &static_escapes);
    let ctx = Ctx::build(&structs);
    let names: BTreeSet<String> = structs.keys().cloned().collect();

    let mut def_of: BTreeMap<(&str, usize), FnId> = BTreeMap::new();
    for (i, d) in graph.defs.iter().enumerate() {
        def_of.insert((d.path.as_str(), d.open), i);
    }
    let mut sites_by_file: BTreeMap<&str, BTreeMap<usize, (FnId, usize)>> = BTreeMap::new();
    for (fi, calls) in graph.calls.iter().enumerate() {
        for (si, site) in calls.iter().enumerate() {
            if site.confident && !site.callees.is_empty() {
                sites_by_file
                    .entry(graph.defs[fi].path.as_str())
                    .or_default()
                    .insert(site.token, (fi, si));
            }
        }
    }

    let mut acc = Acc::default();
    let empty_sites = BTreeMap::new();
    for file in files {
        let impls = impl_spans(file, &names);
        let conds = cond_spans(file);
        let fsites = sites_by_file
            .get(file.path.as_str())
            .unwrap_or(&empty_sites);
        for f in &file.fns {
            if file.test[f.open] {
                continue;
            }
            let did = def_of.get(&(file.path.as_str(), f.open)).copied();
            analyze_fn(file, f, &ctx, &impls, &conds, fsites, graph, did, &mut acc);
        }
    }

    // Interprocedural entry-lockset fixpoint over confident call edges:
    // entry(callee) = ∩ over call sites of (entry(caller) ∪ site lockset),
    // with pub fns and fns without incoming confident edges pinned to ∅
    // (they may be entered lock-free from anywhere).
    let n = graph.defs.len();
    let mut incoming: Vec<Vec<(FnId, &BTreeSet<String>)>> = vec![Vec::new(); n];
    for (caller, callee, set) in &acc.edges {
        incoming[*callee].push((*caller, set));
    }
    let forced: Vec<bool> = (0..n)
        .map(|i| incoming[i].is_empty() || is_pub_def(files, graph, i))
        .collect();
    let mut entry: Vec<Option<BTreeSet<String>>> =
        (0..n).map(|i| forced[i].then(BTreeSet::new)).collect();
    let mut parent: Vec<Option<FnId>> = vec![None; n];
    let max_rounds = rounds.unwrap_or(1_000_000).max(1);
    for _ in 0..max_rounds {
        let mut changed = false;
        for callee in 0..n {
            if forced[callee] {
                continue;
            }
            let mut meet: Option<BTreeSet<String>> = None;
            let mut who: Option<FnId> = None;
            for (caller, set) in &incoming[callee] {
                let Some(ce) = &entry[*caller] else { continue };
                let mut contrib: BTreeSet<String> = ce.clone();
                contrib.extend(set.iter().cloned());
                meet = Some(match meet {
                    None => {
                        who = Some(*caller);
                        contrib
                    }
                    Some(cur) => cur.intersection(&contrib).cloned().collect(),
                });
            }
            if meet.is_some() && entry[callee] != meet {
                entry[callee] = meet;
                parent[callee] = who;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Fold entry locksets into the recorded accesses; render witness
    // chains for functions that inherit a non-empty lockset.
    let mut entry_chains = BTreeMap::new();
    for (i, slot) in entry.iter().enumerate().take(n) {
        let Some(e) = slot else { continue };
        if e.is_empty() {
            continue;
        }
        let mut chain = vec![graph.defs[i].name.clone()];
        let mut cur = i;
        for _ in 0..8 {
            match parent[cur] {
                Some(p) if p != cur => {
                    chain.push(graph.defs[p].name.clone());
                    cur = p;
                }
                _ => break,
            }
        }
        let key = format!("{}::{}", graph.defs[i].path, graph.defs[i].name);
        entry_chains.insert(key, (e.clone(), chain.join(" ← ")));
    }
    let mut accesses = Vec::with_capacity(acc.accesses.len());
    for (mut site, did) in acc.accesses {
        if let Some(i) = did {
            if let Some(e) = &entry[i] {
                site.lockset.extend(e.iter().cloned());
            }
        }
        accesses.push(site);
    }
    accesses.sort_by(|a, b| {
        (&a.strukt, &a.field, &a.file, a.token).cmp(&(&b.strukt, &b.field, &b.file, b.token))
    });
    acc.thread_roots.sort();
    acc.thread_roots.dedup();

    ThreadSafety {
        structs,
        accesses,
        atomics: acc.atomics,
        entry_chains,
        thread_roots: acc.thread_roots,
    }
}
