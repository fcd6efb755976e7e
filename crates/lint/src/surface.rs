//! The surface rules (U1–U3): which library `pub` items the rest of the
//! workspace actually reaches, told apart by the *shape* of each mention.
//!
//! Every indexed file is cut into tokens on the lexer's code channel. A
//! mention of a name counts only in a call or path shape:
//!
//! * `.name(` (or `.name::<…>(`): a method call. The receiver's type is
//!   unknown, so it reaches every inherent method of that name;
//! * `Type::name`: reaches only the methods of an `impl Type` block when
//!   some indexed file has one (`Self::name` resolves to the enclosing
//!   `impl`); a lowercase qualifier (`module::name`) reaches free fns, a
//!   foreign type (`Vec::new`) nothing, and a one-letter generic (`B::new`)
//!   or an unresolved qualifier every fn of the name;
//! * `name(`, or `name` passed bare as an argument (`map(name)`): a free fn;
//! * `name` anywhere inside the arguments of a workspace `macro_rules!`
//!   macro, which may expand it into a call of any kind.
//!
//! A `let name` binding, a `name:` field init, an import, a comment or a
//! string is not a use. Fields are read by `.name` without a call, or by a
//! `{ name, .. }` destructuring pattern.

use crate::lexer::SourceLine;
use crate::rules::{FileKind, RuleId};
use std::collections::{BTreeMap, BTreeSet};

/// One candidate surface finding in a file (0-based `line`). Severity and
/// allow directives are applied by the per-file pass.
#[derive(Debug, Clone)]
pub(crate) struct SurfaceHit {
    pub rule: RuleId,
    pub line: usize,
    pub message: String,
}

/// What `crate::lint_sources` knows about one indexed file.
pub(crate) struct IndexedFile<'a> {
    pub lines: &'a [SourceLine],
    /// `None` for files only read for references (e2ebench), which count
    /// as real callers.
    pub kind: Option<FileKind>,
    /// 0-based lines inside `#[cfg(test)]` / `#[test]` items.
    pub test_lines: &'a BTreeSet<usize>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tok<'a> {
    Ident(&'a str),
    Punct(char),
    /// A number literal (its suffix included).
    Lit,
}

#[derive(Debug, Clone, Copy)]
struct Token<'a> {
    tok: Tok<'a>,
    line: usize,
}

fn tokenize(lines: &[SourceLine]) -> Vec<Token<'_>> {
    let mut tokens = Vec::new();
    for (line, source) in lines.iter().enumerate() {
        let code = source.code.as_str();
        let mut chars = code.char_indices().peekable();
        while let Some((start, c)) = chars.next() {
            if c.is_whitespace() {
                continue;
            }
            if c.is_alphanumeric() || c == '_' {
                let mut end = start + c.len_utf8();
                while let Some(&(at, n)) = chars.peek() {
                    if !(n.is_alphanumeric() || n == '_') {
                        break;
                    }
                    end = at + n.len_utf8();
                    chars.next();
                }
                let tok = if c.is_ascii_digit() {
                    Tok::Lit
                } else {
                    Tok::Ident(&code[start..end])
                };
                tokens.push(Token { tok, line });
            } else {
                tokens.push(Token {
                    tok: Tok::Punct(c),
                    line,
                });
            }
        }
    }
    tokens
}

/// How a mention may reach a fn of its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reach<'a> {
    /// `.name(`: any inherent method.
    Method,
    /// `Type::name` with `Type` resolved (or not) against the impl index.
    Path(Option<&'a str>),
    /// `name(` or a bare fn value: a free fn.
    Free,
    /// Inside a workspace macro's arguments: anything.
    Any,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FieldUse {
    Read,
    /// A struct-literal init (`name: v`, `name`) or `.name = v`.
    Write,
}

#[derive(Debug, Clone, Copy)]
struct Mention<'a> {
    file: usize,
    in_test: bool,
    reach: Reach<'a>,
}

#[derive(Debug, Clone, Copy)]
struct FieldMention {
    file: usize,
    used: FieldUse,
}

/// A non-test library `pub fn` or `pub` struct field.
#[derive(Debug, Clone, Copy)]
struct Def<'a> {
    name: &'a str,
    /// The `impl` (for a fn) or `struct` (for a field) it belongs to.
    owner: Option<&'a str>,
    line: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Group<'a> {
    Impl(&'a str),
    Struct(&'a str),
    /// An enum body or anything inside a struct/enum definition.
    TypeDef,
    /// The arguments of a workspace `macro_rules!` invocation.
    MacroArgs,
    /// A `{ …, .. }` destructuring pattern.
    RestPattern,
    Other,
}

/// Every mention the scan records, across all indexed files.
#[derive(Default)]
struct Mentions<'a> {
    calls: BTreeMap<&'a str, Vec<Mention<'a>>>,
    fields: BTreeMap<&'a str, Vec<FieldMention>>,
    /// Type names built by a `Name { … }` literal, with the files that do.
    literals: BTreeMap<&'a str, BTreeSet<usize>>,
    /// Every type some indexed file has an `impl` block for.
    impl_types: BTreeSet<&'a str>,
}

#[derive(Default)]
struct Facts<'a> {
    fns: Vec<Def<'a>>,
    fields: Vec<Def<'a>>,
}

/// Whether the token before an item keyword puts it at item position.
fn item_position(prev: Option<Tok<'_>>) -> bool {
    matches!(
        prev,
        None | Some(
            Tok::Punct(';' | '{' | '}' | ']' | ')') | Tok::Ident("pub" | "unsafe" | "default")
        )
    )
}

fn is_item_keyword_at(tokens: &[Token<'_>], k: usize, word: &str) -> bool {
    tokens[k].tok == Tok::Ident(word) && item_position(k.checked_sub(1).map(|p| tokens[p].tok))
}

/// The type an `impl` header at `tokens[k]` (the `impl` keyword) is for,
/// and the index of the `{` that opens its body.
fn impl_header<'a>(tokens: &[Token<'a>], k: usize) -> Option<(&'a str, usize)> {
    let mut angle = 0i32;
    let mut self_type = None;
    let mut in_where = false;
    for (j, t) in tokens.iter().enumerate().skip(k + 1) {
        match t.tok {
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') if tokens[j - 1].tok != Tok::Punct('-') => angle -= 1,
            Tok::Punct('{') if angle == 0 => return self_type.map(|name| (name, j)),
            Tok::Punct(';') => return None,
            Tok::Ident("where") if angle == 0 => in_where = true,
            // `impl Trait for Type`: the type comes after `for`.
            Tok::Ident("for") if angle == 0 && !in_where => self_type = None,
            Tok::Ident(name) if angle == 0 && !in_where && name != "dyn" => {
                self_type = Some(name);
            }
            _ => {}
        }
    }
    None
}

/// The name a `struct`/`enum` keyword at `k` declares and the `{` of its
/// body, if it has a braced body.
fn type_header<'a>(tokens: &[Token<'a>], k: usize) -> Option<(&'a str, usize)> {
    let Some(Tok::Ident(name)) = tokens.get(k + 1).map(|t| t.tok) else {
        return None;
    };
    let mut angle = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(k + 2) {
        match t.tok {
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') if tokens[j - 1].tok != Tok::Punct('-') => angle -= 1,
            Tok::Punct('{') if angle == 0 => return Some((name, j)),
            Tok::Punct(';' | '(') if angle == 0 => return None,
            _ => {}
        }
    }
    None
}

/// For each opening delimiter, the index of its closing partner.
fn matching_closers(tokens: &[Token<'_>]) -> BTreeMap<usize, usize> {
    let mut open = Vec::new();
    let mut pairs = BTreeMap::new();
    for (k, t) in tokens.iter().enumerate() {
        match t.tok {
            Tok::Punct('(' | '[' | '{') => open.push(k),
            Tok::Punct(')' | ']' | '}') => {
                if let Some(o) = open.pop() {
                    pairs.insert(o, k);
                }
            }
            _ => {}
        }
    }
    pairs
}

/// Every `macro_rules!` macro declared in `tokens` that takes an `ident`
/// fragment: only those can turn a bare name in their arguments into a
/// call. An expression-taking macro (`emitln!`) evaluates its arguments as
/// code, so a bare name there is a value like any other.
fn ident_macros<'a>(tokens: &[Token<'a>]) -> Vec<&'a str> {
    let closers = matching_closers(tokens);
    let mut names = Vec::new();
    for (k, w) in tokens.windows(4).enumerate() {
        let (Tok::Ident("macro_rules"), Tok::Punct('!'), Tok::Ident(name)) =
            (w[0].tok, w[1].tok, w[2].tok)
        else {
            continue;
        };
        let Some(&close) = closers.get(&(k + 3)) else {
            continue;
        };
        let body = &tokens[k + 3..close];
        if body.windows(4).any(|b| {
            (b[0].tok, b[2].tok, b[3].tok)
                == (Tok::Punct('$'), Tok::Punct(':'), Tok::Ident("ident"))
        }) {
            names.push(name);
        }
    }
    names
}

/// Walks one file's tokens, recording its surface definitions (when it is
/// library code) and every call-, path- and field-shaped mention.
fn scan_file<'a>(
    file: usize,
    tokens: &[Token<'a>],
    is_lib: bool,
    test_file: bool,
    test_lines: &BTreeSet<usize>,
    macros: &BTreeSet<&'a str>,
    index: &mut Mentions<'a>,
) -> Facts<'a> {
    let closers = matching_closers(tokens);
    let mut facts = Facts::default();
    // Opening delimiters that start a classified group, by token index.
    let mut pending: BTreeMap<usize, Group<'a>> = BTreeMap::new();
    let mut stack: Vec<Group<'a>> = Vec::new();
    let mut skip_until = 0usize;
    let tok = |k: usize| tokens.get(k).map(|t| t.tok);
    for (k, t) in tokens.iter().enumerate() {
        match t.tok {
            Tok::Punct('(' | '[' | '{') => {
                let enclosing = stack.last().copied();
                let group = match pending.remove(&k) {
                    Some(g) => g,
                    None if matches!(enclosing, Some(Group::Struct(_) | Group::TypeDef)) => {
                        Group::TypeDef
                    }
                    None if t.tok == Tok::Punct('{')
                        && closers.get(&k).is_some_and(|&c| {
                            c >= 2
                                && tok(c - 1) == Some(Tok::Punct('.'))
                                && tok(c - 2) == Some(Tok::Punct('.'))
                        }) =>
                    {
                        Group::RestPattern
                    }
                    None if enclosing == Some(Group::MacroArgs) => Group::MacroArgs,
                    None => {
                        if let Some(Tok::Ident(name)) = k.checked_sub(1).and_then(tok) {
                            if t.tok == Tok::Punct('{') && name.starts_with(char::is_uppercase) {
                                index.literals.entry(name).or_default().insert(file);
                            }
                        }
                        Group::Other
                    }
                };
                stack.push(group);
                continue;
            }
            Tok::Punct(')' | ']' | '}') => {
                stack.pop();
                continue;
            }
            _ => {}
        }
        if k < skip_until {
            continue;
        }
        let Tok::Ident(name) = t.tok else {
            continue;
        };
        let prev = k.checked_sub(1).and_then(tok);
        let next = tok(k + 1);
        let top = stack.last().copied();
        let in_test = test_file || test_lines.contains(&t.line);

        // Item headers: classify the body they open.
        if is_item_keyword_at(tokens, k, "impl") {
            if let Some((self_type, open)) = impl_header(tokens, k) {
                pending.insert(open, Group::Impl(self_type));
                index.impl_types.insert(self_type);
            }
            continue;
        }
        if is_item_keyword_at(tokens, k, "struct") || is_item_keyword_at(tokens, k, "enum") {
            if let Some((type_name, open)) = type_header(tokens, k) {
                let group = if name == "struct" {
                    Group::Struct(type_name)
                } else {
                    Group::TypeDef
                };
                pending.insert(open, group);
            }
            continue;
        }
        // An import names a path but calls nothing.
        if is_item_keyword_at(tokens, k, "use") {
            skip_until = tokens[k..]
                .iter()
                .position(|t| t.tok == Tok::Punct(';'))
                .map_or(tokens.len(), |p| k + p);
            continue;
        }
        if name == "pub" && next != Some(Tok::Punct('(')) {
            if is_lib && !in_test {
                record_def(tokens, k, top, &mut facts);
            }
            continue;
        }
        if next == Some(Tok::Punct('!')) {
            if macros.contains(name) {
                pending.insert(k + 2, Group::MacroArgs);
            }
            continue;
        }
        if matches!(prev, Some(Tok::Ident("fn") | Tok::Punct('$'))) {
            continue;
        }
        if matches!(top, Some(Group::Struct(_) | Group::TypeDef)) {
            continue;
        }
        let single_colon_next =
            next == Some(Tok::Punct(':')) && tok(k + 2) != Some(Tok::Punct(':'));
        let call_next = next == Some(Tok::Punct('('))
            || (next == Some(Tok::Punct(':')) && tok(k + 3) == Some(Tok::Punct('<')));
        let mut push = |reach| {
            index.calls.entry(name).or_default().push(Mention {
                file,
                in_test,
                reach,
            });
        };

        // `0..name` is a range, not a member access.
        let member =
            prev == Some(Tok::Punct('.')) && (k < 2 || tok(k - 2) != Some(Tok::Punct('.')));
        if member {
            if call_next {
                push(Reach::Method);
            } else {
                let assigned = next == Some(Tok::Punct('=')) && tok(k + 2) != Some(Tok::Punct('='));
                let used = if assigned {
                    FieldUse::Write
                } else {
                    FieldUse::Read
                };
                index
                    .fields
                    .entry(name)
                    .or_default()
                    .push(FieldMention { file, used });
            }
            continue;
        }
        if prev == Some(Tok::Punct(':')) && k >= 2 && tok(k - 2) == Some(Tok::Punct(':')) {
            let qualifier = match k.checked_sub(3).and_then(tok) {
                Some(Tok::Ident("Self")) => stack.iter().rev().find_map(|g| match g {
                    Group::Impl(self_type) => Some(*self_type),
                    _ => None,
                }),
                Some(Tok::Ident(q)) => Some(q),
                _ => None,
            };
            push(Reach::Path(qualifier));
            continue;
        }
        if call_next {
            push(Reach::Free);
            continue;
        }
        if top == Some(Group::MacroArgs) {
            push(Reach::Any);
            continue;
        }
        let field_slot = matches!(prev, Some(Tok::Punct('{' | ',')))
            && (single_colon_next || matches!(next, Some(Tok::Punct(',' | '}'))));
        if field_slot && matches!(top, Some(Group::Other | Group::RestPattern)) {
            let used = if top == Some(Group::RestPattern) {
                FieldUse::Read
            } else {
                FieldUse::Write
            };
            index
                .fields
                .entry(name)
                .or_default()
                .push(FieldMention { file, used });
            continue;
        }
        if matches!(prev, Some(Tok::Punct('(' | ',')))
            && matches!(next, Some(Tok::Punct(')' | ',')))
        {
            push(Reach::Free);
        }
    }
    facts
}

/// Records the `pub fn` or `pub` field whose `pub` is at `tokens[k]`.
fn record_def<'a>(tokens: &[Token<'a>], k: usize, top: Option<Group<'a>>, facts: &mut Facts<'a>) {
    let line = tokens[k].line;
    let mut j = k + 1;
    while matches!(
        tokens.get(j).map(|t| t.tok),
        Some(Tok::Ident("const" | "async" | "unsafe"))
    ) {
        j += 1;
    }
    match (
        tokens.get(j).map(|t| t.tok),
        tokens.get(j + 1).map(|t| t.tok),
    ) {
        (Some(Tok::Ident("fn")), Some(Tok::Ident(name))) => {
            let owner = match top {
                Some(Group::Impl(self_type)) => Some(self_type),
                _ => None,
            };
            facts.fns.push(Def { name, owner, line });
        }
        (Some(Tok::Ident(name)), Some(Tok::Punct(':'))) if j == k + 1 => {
            if let Some(Group::Struct(owner)) = top {
                facts.fields.push(Def {
                    name,
                    owner: Some(owner),
                    line,
                });
            }
        }
        _ => {}
    }
}

/// Whether a mention can reach the fn `def`. `impl_types` holds every
/// type some indexed file has an `impl` block for.
fn reaches(reach: Reach<'_>, def: &Def<'_>, impl_types: &BTreeSet<&str>) -> bool {
    match reach {
        Reach::Any => true,
        Reach::Method => def.owner.is_some(),
        Reach::Free => def.owner.is_none(),
        Reach::Path(Some(q)) if impl_types.contains(q) => def.owner == Some(q),
        Reach::Path(Some(q)) if q.starts_with(|c: char| c.is_lowercase()) => def.owner.is_none(),
        // A type no indexed file implements is foreign (`Vec::new`); a
        // one-letter one is a generic parameter and could be any type.
        Reach::Path(Some(q)) if q.len() > 1 => false,
        Reach::Path(_) => true,
    }
}

fn describe(def: &Def<'_>) -> String {
    match def.owner {
        Some(owner) => format!("`pub fn {owner}::{}`", def.name),
        None => format!("`pub fn {}`", def.name),
    }
}

/// Runs U1, U2 and U3 across the indexed files. Returns the candidate
/// hits of each file, in `files` order.
pub(crate) fn surface_hits(files: &[IndexedFile<'_>]) -> Vec<Vec<SurfaceHit>> {
    let tokens: Vec<Vec<Token<'_>>> = files.iter().map(|f| tokenize(f.lines)).collect();
    let macros: BTreeSet<&str> = tokens.iter().flat_map(|t| ident_macros(t)).collect();
    let mut index = Mentions::default();
    let facts: Vec<Facts<'_>> = files
        .iter()
        .zip(&tokens)
        .enumerate()
        .map(|(i, (f, toks))| {
            scan_file(
                i,
                toks,
                f.kind == Some(FileKind::Lib),
                f.kind == Some(FileKind::Test),
                f.test_lines,
                &macros,
                &mut index,
            )
        })
        .collect();

    let mut hits: Vec<Vec<SurfaceHit>> = vec![Vec::new(); files.len()];
    for (i, file_facts) in facts.iter().enumerate() {
        for def in &file_facts.fns {
            let reaching: Vec<&Mention<'_>> = index
                .calls
                .get(def.name)
                .into_iter()
                .flatten()
                .filter(|m| reaches(m.reach, def, &index.impl_types))
                .collect();
            let elsewhere = reaching.iter().any(|m| m.file != i);
            let used_here = reaching.iter().any(|m| m.file == i && !m.in_test);
            let subject = describe(def);
            let hit = if !elsewhere {
                let message = if used_here {
                    format!(
                        "{subject} is called by no other file; only this file calls it, \
                         so make it private"
                    )
                } else {
                    format!(
                        "{subject} is called by no other file and by no non-test code \
                         here; delete it (and the tests that are its only callers)"
                    )
                };
                Some((RuleId::U1, message))
            } else if reaching.iter().all(|m| m.in_test) {
                Some((
                    RuleId::U2,
                    format!(
                        "{subject} is called only from test code; delete it with those \
                         tests, or allow(U2) naming the test it serves as an oracle"
                    ),
                ))
            } else {
                None
            };
            if let Some((rule, message)) = hit {
                hits[i].push(SurfaceHit {
                    rule,
                    line: def.line,
                    message,
                });
            }
        }
        for def in &file_facts.fields {
            let uses = index.fields.get(def.name).map_or(&[][..], Vec::as_slice);
            let read = |here: bool| {
                uses.iter()
                    .any(|m| (m.file == i) == here && m.used == FieldUse::Read)
            };
            if read(false) {
                continue;
            }
            let owner = def.owner.unwrap_or("?");
            // A struct another file builds with a literal (`..Default::
            // default()` included) needs its fields public to compile.
            let set_elsewhere = uses.iter().any(|m| m.file != i)
                || index
                    .literals
                    .get(owner)
                    .is_some_and(|files| files.iter().any(|&f| f != i));
            let message = if !read(true) {
                format!(
                    "`{owner}::{}` (pub field) is read nowhere; delete it",
                    def.name
                )
            } else if !set_elsewhere {
                format!(
                    "`{owner}::{}` (pub field) is read and set only in this file; \
                     make it private",
                    def.name
                )
            } else {
                continue;
            };
            hits[i].push(SurfaceHit {
                rule: RuleId::U3,
                line: def.line,
                message,
            });
        }
    }
    hits
}
