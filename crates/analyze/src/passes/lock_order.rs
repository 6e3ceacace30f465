//! `lock-order-cycle`: static acquisition-order analysis.
//!
//! Every `Mutex`/`RwLock` in the workspace is assigned a *lock class*
//! keyed by `(file, binding name)` — field declarations, `let`
//! bindings, and struct-literal constructor sites all feed the same
//! class, and `Arc::clone` aliases (including tuple destructures)
//! resolve back to it. Each function body is then simulated linearly:
//! guards are considered held until their enclosing block closes (an
//! over-approximation of real guard lifetimes — which is the safe
//! direction: the runtime detector can only ever observe a subset of
//! the static edges), a blocking acquisition while other classes are
//! held records `held -> acquired` edges, and `try_*` acquisitions
//! record the hold but no incoming edge, mirroring the runtime
//! detector's `on_try_acquire`. Nesting propagates through the call
//! graph: at each call site, every class the callee may blocking-acquire
//! (transitively) gets an edge from every class held at the call.
//! A cycle in the resulting class graph is a potential deadlock,
//! reported at analysis time — before any interleaving runs it.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::callgraph::CallGraph;
use crate::lexer::{Tok, TokKind};
use crate::lints::Violation;
use crate::parse::ParsedFile;

use super::Workspace;

/// The lint name this pass reports under.
pub const LINT: &str = "lock-order-cycle";

const BLOCKING_METHODS: &[&str] = &["lock", "read", "write"];
const TRY_METHODS: &[&str] = &["try_lock", "try_read", "try_write"];
const WRAPPERS: &[&str] = &["Arc", "Box", "Rc"];

/// One lock class: every `Mutex`/`RwLock` bound to `name` in `file`.
#[derive(Debug, Clone)]
pub struct LockClass {
    /// Index into the `files` slice the graph was built from.
    pub file: usize,
    /// Binding, field, or parameter name the lock lives under.
    pub name: String,
    /// 1-based lines of `Mutex::new`/`RwLock::new` constructor sites.
    pub ctor_lines: Vec<u32>,
}

/// The static acquisition-order graph.
#[derive(Debug)]
pub struct LockGraph {
    /// All lock classes, in discovery order.
    pub classes: Vec<LockClass>,
    /// `held -> acquired` edges with one representative site
    /// `(file index, line)` — the acquisition or call that created it.
    pub edges: BTreeMap<(usize, usize), (usize, u32)>,
}

impl LockGraph {
    /// Edges as `(from, to)` class indices, in stable order.
    pub fn edge_pairs(&self) -> Vec<(usize, usize)> {
        self.edges.keys().copied().collect()
    }

    /// Every edge expanded to constructor-site pairs rendered as
    /// `path:line` — the same shape the runtime detector's
    /// `deadlock::edges()` reports, so the subset cross-check is a
    /// direct set comparison.
    pub fn site_edges(&self, files: &[ParsedFile]) -> BTreeSet<(String, String)> {
        let mut out = BTreeSet::new();
        for &(from, to) in self.edges.keys() {
            let f = &self.classes[from];
            let t = &self.classes[to];
            for &fl in &f.ctor_lines {
                for &tl in &t.ctor_lines {
                    out.insert((
                        format!("{}:{}", files[f.file].path, fl),
                        format!("{}:{}", files[t.file].path, tl),
                    ));
                }
            }
        }
        out
    }

    /// Detects cycles in the class graph. Each cycle is returned once as
    /// a class-index path `[a, b, .., a]`.
    pub fn cycles(&self) -> Vec<Vec<usize>> {
        let mut adj: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &(a, b) in self.edges.keys() {
            adj.entry(a).or_default().push(b);
        }
        let mut color: HashMap<usize, u8> = HashMap::new(); // 1 = on stack, 2 = done
        let mut cycles = Vec::new();
        let mut reported: BTreeSet<BTreeSet<usize>> = BTreeSet::new();
        for &start in adj.keys() {
            if color.get(&start).copied().unwrap_or(0) != 0 {
                continue;
            }
            // Iterative DFS with an explicit path stack.
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            let mut path: Vec<usize> = vec![start];
            color.insert(start, 1);
            while let Some(&(node, next)) = stack.last() {
                let succs = adj.get(&node).cloned().unwrap_or_default();
                if next < succs.len() {
                    let s = succs[next];
                    if let Some(top) = stack.last_mut() {
                        top.1 += 1;
                    }
                    match color.get(&s).copied().unwrap_or(0) {
                        1 => {
                            // Back edge: the cycle is the path suffix from s.
                            if let Some(pos) = path.iter().position(|&p| p == s) {
                                let mut cyc: Vec<usize> = path[pos..].to_vec();
                                cyc.push(s);
                                let key: BTreeSet<usize> = cyc.iter().copied().collect();
                                if reported.insert(key) {
                                    cycles.push(cyc);
                                }
                            }
                        }
                        0 => {
                            color.insert(s, 1);
                            stack.push((s, 0));
                            path.push(s);
                        }
                        _ => {}
                    }
                } else {
                    color.insert(node, 2);
                    stack.pop();
                    path.pop();
                }
            }
        }
        cycles
    }

    /// Graphviz DOT rendering of the class graph.
    pub fn to_dot(&self, files: &[ParsedFile]) -> String {
        let label = |c: &LockClass| format!("{} ({})", c.name, files[c.file].path);
        let mut out =
            String::from("digraph lock_order {\n  rankdir=LR;\n  node [shape=ellipse, fontsize=10];\n");
        for c in &self.classes {
            out.push_str(&format!("  \"{}\";\n", label(c)));
        }
        for (&(a, b), &(_, line)) in &self.edges {
            out.push_str(&format!(
                "  \"{}\" -> \"{}\" [label=\"line {}\"];\n",
                label(&self.classes[a]),
                label(&self.classes[b]),
                line
            ));
        }
        out.push_str("}\n");
        out
    }
}

/// Builds the static lock-order graph over `files` using `graph` for
/// transitive acquisition propagation.
pub fn build(files: &[ParsedFile], graph: &CallGraph) -> LockGraph {
    let mut classes: Vec<LockClass> = Vec::new();
    let mut index: HashMap<(usize, String), usize> = HashMap::new();
    for (fi, file) in files.iter().enumerate() {
        discover_classes(fi, file, &mut classes, &mut index);
    }

    // Per-node event streams, resolved to class ids.
    let events: Vec<Vec<Event>> = (0..graph.nodes.len())
        .map(|id| node_events(files, graph, id, &index))
        .collect();

    // Transitive blocking-acquisition sets: star[n] = classes `n` or any
    // callee may blocking-acquire. Fixpoint iteration handles recursion.
    let mut star: Vec<BTreeSet<usize>> = events
        .iter()
        .map(|evs| {
            evs.iter()
                .filter_map(|e| match e {
                    Event::Acquire { class, try_: false, .. } => Some(*class),
                    _ => None,
                })
                .collect()
        })
        .collect();
    loop {
        let mut changed = false;
        for id in 0..graph.nodes.len() {
            let mut add: BTreeSet<usize> = BTreeSet::new();
            for (_, targets) in &graph.nodes[id].calls {
                for &t in targets {
                    for &c in &star[t] {
                        if !star[id].contains(&c) {
                            add.insert(c);
                        }
                    }
                }
            }
            if !add.is_empty() {
                star[id].extend(add);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Linear simulation per node.
    let mut edges: BTreeMap<(usize, usize), (usize, u32)> = BTreeMap::new();
    for (id, evs) in events.iter().enumerate() {
        let file = graph.nodes[id].file;
        let mut held: Vec<(usize, i64)> = Vec::new();
        let mut depth: i64 = 0;
        for e in evs {
            match e {
                Event::Open => depth += 1,
                Event::Close => {
                    depth -= 1;
                    held.retain(|&(_, d)| d <= depth);
                }
                Event::Acquire { class, try_, line } => {
                    if !try_ {
                        for &(h, _) in &held {
                            if h != *class {
                                edges.entry((h, *class)).or_insert((file, *line));
                            }
                        }
                    }
                    held.push((*class, depth));
                }
                Event::Call { targets, line } => {
                    for &t in targets {
                        for &c in &star[t] {
                            for &(h, _) in &held {
                                if h != c {
                                    edges.entry((h, c)).or_insert((file, *line));
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    LockGraph { classes, edges }
}

/// The check pass: build the graph over the workspace and report every
/// acquisition-order cycle.
pub fn check(ws: &Workspace, out: &mut Vec<Violation>) {
    let lg = build(ws.files, &ws.graph);
    for cyc in lg.cycles() {
        let names: Vec<String> = cyc
            .iter()
            .map(|&c| {
                format!(
                    "{} ({})",
                    lg.classes[c].name, ws.files[lg.classes[c].file].path
                )
            })
            .collect();
        // Anchor the report at the edge closing the cycle.
        let (&a, &b) = (&cyc[cyc.len() - 2], &cyc[cyc.len() - 1]);
        let Some(&(file, line)) = lg.edges.get(&(a, b)) else {
            continue;
        };
        out.push(Violation::new(
            LINT,
            &ws.files[file],
            line,
            format!(
                "static lock-order cycle: {} — a thread interleaving exists that \
                 deadlocks; acquire these locks in one global order",
                names.join(" -> ")
            ),
        ));
    }
}

#[derive(Debug)]
enum Event {
    Open,
    Close,
    Acquire { class: usize, try_: bool, line: u32 },
    Call { targets: Vec<usize>, line: u32 },
}

fn is_lock_type(t: &Tok) -> bool {
    t.kind == TokKind::Ident && (t.text == "Mutex" || t.text == "RwLock")
}

/// Finds lock classes in one file: field/parameter declarations
/// (`name: Mutex<..>`, possibly behind `Arc<..>` or a module path) and
/// constructor sites (`Mutex::new(..)`) walked back to their binding.
fn discover_classes(
    fi: usize,
    file: &ParsedFile,
    classes: &mut Vec<LockClass>,
    index: &mut HashMap<(usize, String), usize>,
) {
    let toks = &file.toks;
    fn class_of(
        fi: usize,
        name: &str,
        classes: &mut Vec<LockClass>,
        index: &mut HashMap<(usize, String), usize>,
    ) -> usize {
        *index.entry((fi, name.to_string())).or_insert_with(|| {
            classes.push(LockClass {
                file: fi,
                name: name.to_string(),
                ctor_lines: Vec::new(),
            });
            classes.len() - 1
        })
    }

    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        // Declaration: `name : [&] [Wrapper <|path ::]* (Mutex|RwLock) <`.
        if toks.get(i + 1).is_some_and(|n| n.is_punct(":")) {
            let mut j = i + 2;
            while toks.get(j).is_some_and(|t| t.is_punct("&") || t.kind == TokKind::Lifetime) {
                j += 1;
            }
            // Skip `Wrapper <` layers and `path ::` segments alike: both
            // are an Ident followed by an opener we step over.
            while toks.get(j).is_some_and(|tj| {
                tj.kind == TokKind::Ident
                    && ((WRAPPERS.contains(&tj.text.as_str())
                        && toks.get(j + 1).is_some_and(|n| n.is_punct("<")))
                        || toks.get(j + 1).is_some_and(|n| n.is_punct("::")))
            }) {
                j += 2;
            }
            if toks.get(j).is_some_and(is_lock_type)
                && toks.get(j + 1).is_some_and(|n| n.is_punct("<"))
            {
                class_of(fi, &t.text, classes, index);
            }
        }
        // Constructor: `(Mutex|RwLock) :: new (` — walk back to the binding.
        if is_lock_type(t)
            && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && toks.get(i + 2).is_some_and(|n| n.is_ident("new"))
            && toks.get(i + 3).is_some_and(|n| n.is_punct("("))
        {
            if let Some(name) = binding_for_ctor(toks, i) {
                let c = class_of(fi, &name, classes, index);
                classes[c].ctor_lines.push(t.line);
            }
        }
    }
}

/// Walks back from a `Mutex::new` token to the name it is bound to:
/// a struct-literal field (`pending: Mutex::new(..)`), a plain `let`
/// or assignment (`let a = Arc::new(Mutex::new(..))`), or an element of
/// a tuple destructure (`let (a, b) = (Mutex::new(..), Mutex::new(..))`).
fn binding_for_ctor(toks: &[Tok], ctor: usize) -> Option<String> {
    let mut k = ctor;
    while k > 0 {
        let p = &toks[k - 1];
        let skip = p.is_punct("(")
            || p.is_punct("::")
            || (p.kind == TokKind::Ident
                && (p.text == "new" || WRAPPERS.contains(&p.text.as_str())));
        if !skip {
            break;
        }
        k -= 1;
    }
    if k == 0 {
        return None;
    }
    let before = &toks[k - 1];
    if before.is_punct(":") && k >= 2 && toks[k - 2].kind == TokKind::Ident {
        return Some(toks[k - 2].text.clone());
    }
    if before.is_punct(",") || before.is_punct("(") {
        // Possibly an element of a tuple RHS: find the `=` before the
        // tuple open paren and match LHS idents positionally.
        return tuple_binding(toks, ctor);
    }
    if before.is_punct("=") {
        let mut n = k - 2;
        if toks.get(n).is_some_and(|t| t.is_ident("mut")) {
            n = n.checked_sub(1)?;
        }
        if toks[n].kind == TokKind::Ident {
            return Some(toks[n].text.clone());
        }
        if toks[n].is_punct(")") {
            return tuple_binding(toks, ctor);
        }
    }
    None
}

/// Resolves `let (x, y) = (.., ..)` destructures: which LHS ident does
/// the expression containing token `at` bind to?
fn tuple_binding(toks: &[Tok], at: usize) -> Option<String> {
    // Walk back to the `=` at paren depth 0 relative to `at`.
    let mut depth = 0i64;
    let mut eq = None;
    let mut k = at;
    while k > 0 {
        k -= 1;
        let t = &toks[k];
        if t.is_punct(")") {
            depth += 1;
        } else if t.is_punct("(") {
            if depth == 0 {
                // Opening paren of the RHS tuple; `=` must precede it.
                if k > 0 && toks[k - 1].is_punct("=") {
                    eq = Some(k - 1);
                }
                break;
            }
            depth -= 1;
        } else if t.is_punct(";") || t.is_punct("{") {
            break;
        }
    }
    let eq = eq?;
    // Count top-level commas between the RHS `(` and `at`.
    let mut elem = 0usize;
    let mut d = 0i64;
    for t in &toks[eq + 2..at] {
        if t.is_punct("(") || t.is_punct("[") {
            d += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            d -= 1;
        } else if t.is_punct(",") && d == 0 {
            elem += 1;
        }
    }
    // LHS: `( x , y )` immediately before the `=`.
    if eq == 0 || !toks[eq - 1].is_punct(")") {
        return None;
    }
    let mut lhs: Vec<String> = Vec::new();
    let mut k = eq - 1;
    let mut d = 0i64;
    while k > 0 {
        k -= 1;
        let t = &toks[k];
        if t.is_punct(")") {
            d += 1;
        } else if t.is_punct("(") {
            if d == 0 {
                break;
            }
            d -= 1;
        } else if t.kind == TokKind::Ident && d == 0 && t.text != "mut" {
            lhs.push(t.text.clone());
        }
    }
    lhs.reverse();
    lhs.get(elem).cloned()
}

/// Builds the event stream for one call-graph node: block opens/closes,
/// resolved lock acquisitions, and call sites — in token order. The
/// alias map (`let a1 = Arc::clone(&a)`) is threaded linearly, so
/// shadowing and forward use behave like the borrow of the real code.
fn node_events(
    files: &[ParsedFile],
    graph: &CallGraph,
    id: usize,
    index: &HashMap<(usize, String), usize>,
) -> Vec<Event> {
    let node = &graph.nodes[id];
    let file = &files[node.file];
    let toks = &file.toks;
    let body = file.fns[node.def].body.clone();
    let mut aliases: HashMap<String, usize> = HashMap::new();
    let resolve = |name: &str, aliases: &HashMap<String, usize>| -> Option<usize> {
        aliases
            .get(name)
            .copied()
            .or_else(|| index.get(&(node.file, name.to_string())).copied())
    };
    let mut calls = node.calls.iter().peekable();
    let mut events = Vec::new();
    for i in body {
        // Interleave resolved call sites at their token position.
        while calls.peek().is_some_and(|(ti, _)| *ti <= i) {
            let (ti, targets) = calls.next().unwrap();
            if *ti == i {
                events.push(Event::Call {
                    targets: targets.clone(),
                    line: toks[*ti].line,
                });
            }
        }
        let t = &toks[i];
        if t.is_punct("{") {
            events.push(Event::Open);
        } else if t.is_punct("}") {
            events.push(Event::Close);
        } else if t.is_ident("let") {
            record_aliases(toks, i, node.file, index, &mut aliases);
        } else if t.kind == TokKind::Ident
            && (BLOCKING_METHODS.contains(&t.text.as_str())
                || TRY_METHODS.contains(&t.text.as_str()))
            && i >= 2
            && toks[i - 1].is_punct(".")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
            && toks[i - 2].kind == TokKind::Ident
        {
            if let Some(class) = resolve(&toks[i - 2].text, &aliases) {
                events.push(Event::Acquire {
                    class,
                    try_: TRY_METHODS.contains(&t.text.as_str()),
                    line: t.line,
                });
            }
        }
    }
    events
}

/// Handles `let X = Arc::clone(&Y)`, `let X = Y.clone()`, and the tuple
/// forms (`let (x1, y1) = (Arc::clone(&x), Arc::clone(&y))`), recording
/// `X -> class(Y)` aliases.
fn record_aliases(
    toks: &[Tok],
    let_at: usize,
    fi: usize,
    index: &HashMap<(usize, String), usize>,
    aliases: &mut HashMap<String, usize>,
) {
    let resolve = |name: &str, aliases: &HashMap<String, usize>| -> Option<usize> {
        aliases
            .get(name)
            .copied()
            .or_else(|| index.get(&(fi, name.to_string())).copied())
    };
    let mut i = let_at + 1;
    if toks.get(i).is_some_and(|t| t.is_ident("mut")) {
        i += 1;
    }
    // Single binding: `let X [: ty] = RHS ;`
    if toks.get(i).is_some_and(|t| t.kind == TokKind::Ident) {
        let name = toks[i].text.clone();
        // Find `=` before `;` at depth 0.
        let mut j = i + 1;
        let mut d = 0i64;
        while let Some(t) = toks.get(j) {
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("<") {
                d += 1;
            } else if t.is_punct(")") || t.is_punct("]") || t.is_punct(">") {
                d -= 1;
            } else if (t.is_punct(";") || t.is_punct("{")) && d <= 0 {
                return;
            } else if t.is_punct("=") && d <= 0 {
                if let Some(src) = clone_source(toks, j + 1) {
                    if let Some(c) = resolve(&src, aliases) {
                        aliases.insert(name, c);
                    }
                }
                return;
            }
            j += 1;
        }
        return;
    }
    // Tuple binding: `let ( x1 , x2 ) = ( RHS1 , RHS2 ) ;`
    if !toks.get(i).is_some_and(|t| t.is_punct("(")) {
        return;
    }
    let mut lhs: Vec<String> = Vec::new();
    let mut j = i + 1;
    while let Some(t) = toks.get(j) {
        if t.is_punct(")") {
            break;
        }
        if t.kind == TokKind::Ident && t.text != "mut" {
            lhs.push(t.text.clone());
        }
        j += 1;
    }
    if !toks.get(j + 1).is_some_and(|t| t.is_punct("=")) || !toks.get(j + 2).is_some_and(|t| t.is_punct("(")) {
        return;
    }
    // Split RHS elements at top-level commas.
    let mut elem_start = j + 3;
    let mut d = 0i64;
    let mut elem = 0usize;
    let mut k = j + 3;
    while let Some(t) = toks.get(k) {
        if t.is_punct("(") || t.is_punct("[") {
            d += 1;
        } else if t.is_punct("]") {
            d -= 1;
        } else if t.is_punct(")") {
            if d == 0 {
                if let (Some(name), Some(src)) = (lhs.get(elem), clone_source(toks, elem_start)) {
                    if let Some(c) = resolve(&src, aliases) {
                        aliases.insert(name.clone(), c);
                    }
                }
                break;
            }
            d -= 1;
        } else if t.is_punct(",") && d == 0 {
            if let (Some(name), Some(src)) = (lhs.get(elem), clone_source(toks, elem_start)) {
                if let Some(c) = resolve(&src, aliases) {
                    aliases.insert(name.clone(), c);
                }
            }
            elem += 1;
            elem_start = k + 1;
        }
        k += 1;
    }
}

/// If the expression starting at `i` is `Arc::clone(&Y)` / `Y.clone()`,
/// returns `Y`.
fn clone_source(toks: &[Tok], i: usize) -> Option<String> {
    // `Arc :: clone ( & Y )`
    if toks.get(i).is_some_and(|t| t.is_ident("Arc"))
        && toks.get(i + 1).is_some_and(|t| t.is_punct("::"))
        && toks.get(i + 2).is_some_and(|t| t.is_ident("clone"))
        && toks.get(i + 3).is_some_and(|t| t.is_punct("("))
        && toks.get(i + 4).is_some_and(|t| t.is_punct("&"))
        && toks.get(i + 5).is_some_and(|t| t.kind == TokKind::Ident)
    {
        return Some(toks[i + 5].text.clone());
    }
    // `Y . clone ( )`
    if toks.get(i).is_some_and(|t| t.kind == TokKind::Ident)
        && toks.get(i + 1).is_some_and(|t| t.is_punct("."))
        && toks.get(i + 2).is_some_and(|t| t.is_ident("clone"))
        && toks.get(i + 3).is_some_and(|t| t.is_punct("("))
    {
        return Some(toks[i].text.clone());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;

    fn lock_graph(srcs: &[(&str, &str)]) -> (Vec<ParsedFile>, LockGraph) {
        let files: Vec<ParsedFile> = srcs
            .iter()
            .map(|(p, s)| parse_file(p, s))
            .collect();
        let graph = CallGraph::build(&files, |_, _| true);
        let lg = build(&files, &graph);
        (files, lg)
    }

    fn named_edges(_files: &[ParsedFile], lg: &LockGraph) -> Vec<(String, String)> {
        lg.edge_pairs()
            .into_iter()
            .map(|(a, b)| (lg.classes[a].name.clone(), lg.classes[b].name.clone()))
            .collect()
    }

    #[test]
    fn nested_acquisition_records_an_edge() {
        let (files, lg) = lock_graph(&[(
            "a.rs",
            "use parking_lot::Mutex;\nfn f() {\n    let a = Mutex::new(0u32);\n    let b = Mutex::new(0u32);\n    let ga = a.lock();\n    let gb = b.lock();\n}\n",
        )]);
        assert_eq!(named_edges(&files, &lg), vec![("a".into(), "b".into())]);
        assert!(lg.cycles().is_empty());
    }

    #[test]
    fn inverted_orders_form_a_cycle() {
        let (files, lg) = lock_graph(&[(
            "a.rs",
            "fn one(a: &Mutex<u32>, b: &Mutex<u32>) {\n    let _x = a.lock();\n    let _y = b.lock();\n}\n\
             fn two(a: &Mutex<u32>, b: &Mutex<u32>) {\n    let _y = b.lock();\n    let _x = a.lock();\n}\n",
        )]);
        let edges = named_edges(&files, &lg);
        assert!(edges.contains(&("a".into(), "b".into())));
        assert!(edges.contains(&("b".into(), "a".into())));
        assert_eq!(lg.cycles().len(), 1);
    }

    #[test]
    fn guards_release_at_block_close() {
        let (files, lg) = lock_graph(&[(
            "a.rs",
            "fn f(a: &Mutex<u32>, b: &Mutex<u32>) {\n    {\n        let _x = a.lock();\n    }\n    let _y = b.lock();\n}\n",
        )]);
        assert!(named_edges(&files, &lg).is_empty());
    }

    #[test]
    fn try_lock_holds_but_adds_no_incoming_edge() {
        let (files, lg) = lock_graph(&[(
            "a.rs",
            "fn f(a: &Mutex<u32>, b: &Mutex<u32>, c: &Mutex<u32>) {\n    let _x = a.try_lock();\n    let _y = b.lock();\n    let _z = c.try_lock();\n}\n",
        )]);
        // a -> b (a held via try when b blocks); nothing into a or c.
        assert_eq!(named_edges(&files, &lg), vec![("a".into(), "b".into())]);
    }

    #[test]
    fn arc_clone_aliases_resolve_to_the_origin_class() {
        let (files, lg) = lock_graph(&[(
            "a.rs",
            "fn f() {\n    let a = Arc::new(Mutex::new(0u32));\n    let b = Arc::new(Mutex::new(0u32));\n    let (a1, b1) = (Arc::clone(&a), Arc::clone(&b));\n    let _x = a1.lock();\n    let _y = b1.lock();\n}\n",
        )]);
        assert_eq!(named_edges(&files, &lg), vec![("a".into(), "b".into())]);
        assert_eq!(lg.classes.iter().filter(|c| !c.ctor_lines.is_empty()).count(), 2);
    }

    #[test]
    fn nesting_propagates_through_calls() {
        let (files, lg) = lock_graph(&[(
            "a.rs",
            "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl S {\n    fn inner(&self) {\n        let _g = self.b.lock();\n    }\n    fn outer(&self) {\n        let _g = self.a.lock();\n        self.inner();\n    }\n}\n",
        )]);
        assert_eq!(named_edges(&files, &lg), vec![("a".into(), "b".into())]);
    }

    #[test]
    fn struct_literal_ctor_sites_attach_to_the_field_class() {
        let (files, lg) = lock_graph(&[(
            "a.rs",
            "struct S { pending: Mutex<u32> }\nimpl S {\n    fn new() -> S {\n        S { pending: Mutex::new(0) }\n    }\n}\n",
        )]);
        let c = lg.classes.iter().find(|c| c.name == "pending").unwrap();
        assert_eq!(c.ctor_lines, vec![4]);
        let _ = files;
    }
}
