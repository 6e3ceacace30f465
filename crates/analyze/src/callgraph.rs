//! Intra-workspace call graph over [`ParsedFile`]s.
//!
//! Resolution is name-based and deliberately over-approximate: a method
//! call `.m(..)` links to *every* workspace function named `m` that
//! takes `self` (preferring the enclosing type when the receiver is
//! literally `self`), `A::b(..)` links to the `b` defined on type `A`,
//! and a bare `f(..)` links to free functions named `f` (preferring the
//! same file). Over-approximation is sound for the reachability passes
//! — an extra edge can only add findings, never hide one — and the
//! false-positive surface is kept small by the workspace's naming
//! discipline. Calls the resolver cannot see (turbofish, function
//! pointers, closures passed across crates) are the accepted blind
//! spot, documented in DESIGN.md §12.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use crate::lexer::TokKind;
use crate::parse::ParsedFile;

/// Identifies one function in the graph: (file path, fn name, decl line).
pub type NodeId = usize;

/// One function node.
#[derive(Debug, Clone)]
pub struct Node {
    /// Index of the owning file in the `files` slice the graph was built from.
    pub file: usize,
    /// Index of the `FnDef` within that file.
    pub def: usize,
    /// Call sites in this function's body: token index of the callee
    /// name and the resolved target nodes (possibly several under
    /// over-approximation).
    pub calls: Vec<(usize, Vec<NodeId>)>,
}

/// The workspace call graph.
#[derive(Debug)]
pub struct CallGraph {
    /// All nodes, in (file, source) order.
    pub nodes: Vec<Node>,
}

/// Operator/desugaring traits whose methods are invoked by syntax the
/// lexer sees as punctuation (`a - b`, `*x`, `a[i]`, drop glue) — a
/// `.sub(..)` call on some unrelated type must not resolve to every
/// `impl Sub`. Operator *invocations* are the documented blind spot of
/// the resolver; keeping these impls out of name resolution removes
/// the false edges without pretending to track the real ones.
const OPERATOR_TRAITS: &[&str] = &[
    "Add", "Sub", "Mul", "Div", "Rem", "Neg", "Not", "BitAnd", "BitOr", "BitXor", "Shl", "Shr",
    "AddAssign", "SubAssign", "MulAssign", "DivAssign", "RemAssign", "BitAndAssign",
    "BitOrAssign", "BitXorAssign", "ShlAssign", "ShrAssign", "Index", "IndexMut", "Deref",
    "DerefMut", "Drop",
];

impl CallGraph {
    /// Builds the graph over `files`, including only functions for which
    /// `include(path, is_test)` returns true (the lint passes exclude
    /// `#[cfg(test)]` regions, `tests/` files, and vendored shims).
    pub fn build(files: &[ParsedFile], include: impl Fn(&str, bool) -> bool) -> CallGraph {
        let mut nodes = Vec::new();
        // (type name, fn name) -> nodes; fn name -> free-fn nodes;
        // fn name -> method nodes (has_self).
        let mut by_type: HashMap<(String, String), Vec<NodeId>> = HashMap::new();
        let mut free_by_name: HashMap<String, Vec<NodeId>> = HashMap::new();
        let mut methods_by_name: HashMap<String, Vec<NodeId>> = HashMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (di, def) in file.fns.iter().enumerate() {
                if !include(&file.path, def.is_test) {
                    continue;
                }
                let id = nodes.len();
                nodes.push(Node {
                    file: fi,
                    def: di,
                    calls: Vec::new(),
                });
                if let Some(ty) = &def.self_type {
                    by_type.entry((ty.clone(), def.name.clone())).or_default().push(id);
                } else {
                    free_by_name.entry(def.name.clone()).or_default().push(id);
                }
                let is_operator_impl = def
                    .trait_name
                    .as_deref()
                    .is_some_and(|t| OPERATOR_TRAITS.contains(&t));
                if def.has_self && !is_operator_impl {
                    methods_by_name.entry(def.name.clone()).or_default().push(id);
                }
            }
        }

        let mut graph = CallGraph { nodes };
        for id in 0..graph.nodes.len() {
            let (fi, di) = (graph.nodes[id].file, graph.nodes[id].def);
            let file = &files[fi];
            let def = &file.fns[di];
            let toks = &file.toks;
            let file_stem = stem(&file.path);
            let mut calls = Vec::new();
            let body = def.body.clone();
            for i in body.clone() {
                let t = &toks[i];
                if t.kind != TokKind::Ident {
                    continue;
                }
                let next = toks.get(i + 1);
                if !next.is_some_and(|n| n.is_punct("(")) {
                    continue;
                }
                let prev = i.checked_sub(1).map(|p| &toks[p]);
                let mut targets: Vec<NodeId> = Vec::new();
                match prev {
                    Some(p) if p.is_punct(".") => {
                        // Method call `recv.m(..)`. Prefer the enclosing
                        // type's own method when the receiver is `self`.
                        let recv_is_self = i
                            .checked_sub(2)
                            .map(|r| toks[r].is_ident("self"))
                            .unwrap_or(false);
                        if recv_is_self {
                            if let Some(ty) = &def.self_type {
                                if let Some(own) = by_type.get(&(ty.clone(), t.text.clone())) {
                                    targets.extend(own.iter().copied());
                                }
                            }
                        }
                        if targets.is_empty() {
                            if let Some(ms) = methods_by_name.get(&t.text) {
                                targets.extend(ms.iter().copied());
                            }
                        }
                    }
                    Some(p) if p.is_punct("::") => {
                        // Path call `A::b(..)` / `Self::b(..)` /
                        // `module::f(..)`.
                        let qual = i.checked_sub(2).map(|q| &toks[q]);
                        let qual_name = match qual {
                            Some(q) if q.kind == TokKind::Ident => {
                                if q.text == "Self" {
                                    def.self_type.clone()
                                } else {
                                    Some(q.text.clone())
                                }
                            }
                            _ => None,
                        };
                        if let Some(q) = &qual_name {
                            if let Some(own) = by_type.get(&(q.clone(), t.text.clone())) {
                                targets.extend(own.iter().copied());
                            }
                            if targets.is_empty() {
                                // `module::free_fn(..)`: prefer free fns
                                // defined in a file named after the module.
                                if let Some(fs) = free_by_name.get(&t.text) {
                                    let matching: Vec<NodeId> = fs
                                        .iter()
                                        .copied()
                                        .filter(|&c| stem(&files[graph.nodes[c].file].path) == *q)
                                        .collect();
                                    if matching.is_empty() {
                                        targets.extend(fs.iter().copied());
                                    } else {
                                        targets.extend(matching);
                                    }
                                }
                            }
                        }
                    }
                    _ => {
                        // Bare call `f(..)` — but not a definition
                        // (`fn f(`) and not a macro (`f!(`, impossible
                        // here since next is `(`; `f!` lexes as `f` `!`).
                        let is_decl = prev.is_some_and(|p| p.is_ident("fn"));
                        if !is_decl {
                            if let Some(fs) = free_by_name.get(&t.text) {
                                let same_file: Vec<NodeId> = fs
                                    .iter()
                                    .copied()
                                    .filter(|&c| graph.nodes[c].file == fi)
                                    .collect();
                                if same_file.is_empty() {
                                    let _ = &file_stem;
                                    targets.extend(fs.iter().copied());
                                } else {
                                    targets.extend(same_file);
                                }
                            }
                        }
                    }
                }
                targets.retain(|&c| c != id);
                if !targets.is_empty() {
                    targets.sort_unstable();
                    targets.dedup();
                    calls.push((i, targets));
                }
            }
            graph.nodes[id].calls = calls;
        }
        graph
    }

    /// Finds the node for `(path suffix, fn name)`, if present. Not
    /// named `find` so calls to `Iterator::find` in analyzed code do
    /// not resolve here and drag this crate into reachability chains.
    pub fn find_fn(&self, files: &[ParsedFile], path_suffix: &str, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| {
            let f = &files[n.file];
            f.path.ends_with(path_suffix) && f.fns[n.def].name == name
        })
    }

    /// All nodes for `(path suffix, fn name)` (overloads across impls).
    pub fn find_all(&self, files: &[ParsedFile], path_suffix: &str, name: &str) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&id| {
                let n = &self.nodes[id];
                let f = &files[n.file];
                f.path.ends_with(path_suffix) && f.fns[n.def].name == name
            })
            .collect()
    }

    /// BFS from `roots`; returns `parent[node] = Some(caller)` for every
    /// reached node (roots map to `None`). Use [`CallGraph::chain`] to
    /// render a path.
    pub fn reach(&self, roots: &[NodeId]) -> HashMap<NodeId, Option<NodeId>> {
        let mut parent: HashMap<NodeId, Option<NodeId>> = HashMap::new();
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        for &r in roots {
            if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(r) {
                e.insert(None);
                queue.push_back(r);
            }
        }
        while let Some(n) = queue.pop_front() {
            let callees: Vec<NodeId> = self.nodes[n]
                .calls
                .iter()
                .flat_map(|(_, ts)| ts.iter().copied())
                .collect();
            for c in callees {
                if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(c) {
                    e.insert(Some(n));
                    queue.push_back(c);
                }
            }
        }
        parent
    }

    /// Renders the call chain root → … → `node` as `Type::name` labels.
    pub fn chain(
        &self,
        files: &[ParsedFile],
        parent: &HashMap<NodeId, Option<NodeId>>,
        node: NodeId,
    ) -> String {
        let mut path = vec![node];
        let mut cur = node;
        while let Some(Some(p)) = parent.get(&cur) {
            path.push(*p);
            cur = *p;
        }
        path.reverse();
        path.iter()
            .map(|&n| self.label(files, n))
            .collect::<Vec<_>>()
            .join(" -> ")
    }

    /// `Type::name` (or bare `name`) label for a node.
    pub fn label(&self, files: &[ParsedFile], id: NodeId) -> String {
        let n = &self.nodes[id];
        let def = &files[n.file].fns[n.def];
        match &def.self_type {
            Some(ty) => format!("{}::{}", ty, def.name),
            None => def.name.clone(),
        }
    }

    /// Emits the call graph in Graphviz DOT format (deduplicated edges,
    /// stable order).
    pub fn to_dot(&self, files: &[ParsedFile]) -> String {
        let mut edges: BTreeSet<(String, String)> = BTreeSet::new();
        let mut seen: BTreeMap<String, ()> = BTreeMap::new();
        for id in 0..self.nodes.len() {
            let from = self.label(files, id);
            seen.insert(from.clone(), ());
            for (_, targets) in &self.nodes[id].calls {
                for &t in targets {
                    edges.insert((from.clone(), self.label(files, t)));
                }
            }
        }
        let mut out = String::from("digraph calls {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n");
        for name in seen.keys() {
            out.push_str(&format!("  \"{name}\";\n"));
        }
        for (a, b) in &edges {
            out.push_str(&format!("  \"{a}\" -> \"{b}\";\n"));
        }
        out.push_str("}\n");
        out
    }
}

fn stem(path: &str) -> String {
    let base = path.rsplit('/').next().unwrap_or(path);
    base.strip_suffix(".rs").unwrap_or(base).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;

    fn graph(srcs: &[(&str, &str)]) -> (Vec<ParsedFile>, CallGraph) {
        let files: Vec<ParsedFile> = srcs
            .iter()
            .map(|(p, s)| parse_file(p, s))
            .collect();
        let g = CallGraph::build(&files, |_, is_test| !is_test);
        (files, g)
    }

    #[test]
    fn bare_calls_prefer_same_file() {
        let (files, g) = graph(&[
            ("a.rs", "fn helper() {}\nfn top() { helper(); }\n"),
            ("b.rs", "fn helper() {}\n"),
        ]);
        let top = g.find_fn(&files, "a.rs", "top").unwrap();
        let a_helper = g.find_fn(&files, "a.rs", "helper").unwrap();
        let callees: Vec<NodeId> = g.nodes[top].calls.iter().flat_map(|(_, t)| t.clone()).collect();
        assert_eq!(callees, vec![a_helper]);
    }

    #[test]
    fn path_calls_resolve_by_type() {
        let (files, g) = graph(&[(
            "a.rs",
            "struct A;\nimpl A {\n    fn go() {}\n}\nstruct B;\nimpl B {\n    fn go() {}\n}\nfn top() { A::go(); }\n",
        )]);
        let top = g.find_fn(&files, "a.rs", "top").unwrap();
        let callees: Vec<String> = g.nodes[top]
            .calls
            .iter()
            .flat_map(|(_, t)| t.iter().map(|&c| g.label(&files, c)))
            .collect();
        assert_eq!(callees, vec!["A::go"]);
    }

    #[test]
    fn self_method_calls_prefer_own_type() {
        let (files, g) = graph(&[(
            "a.rs",
            "struct A;\nimpl A {\n    fn step(&self) {}\n    fn run(&self) { self.step(); }\n}\n\
             struct B;\nimpl B {\n    fn step(&self) {}\n}\n",
        )]);
        let run = g.find_fn(&files, "a.rs", "run").unwrap();
        let callees: Vec<String> = g.nodes[run]
            .calls
            .iter()
            .flat_map(|(_, t)| t.iter().map(|&c| g.label(&files, c)))
            .collect();
        assert_eq!(callees, vec!["A::step"]);
    }

    #[test]
    fn unknown_receiver_links_all_methods() {
        let (files, g) = graph(&[(
            "a.rs",
            "struct A;\nimpl A {\n    fn step(&self) {}\n}\nstruct B;\nimpl B {\n    fn step(&self) {}\n}\n\
             fn top(x: &A) { x.step(); }\n",
        )]);
        let top = g.find_fn(&files, "a.rs", "top").unwrap();
        let callees: Vec<String> = g.nodes[top]
            .calls
            .iter()
            .flat_map(|(_, t)| t.iter().map(|&c| g.label(&files, c)))
            .collect();
        assert_eq!(callees, vec!["A::step", "B::step"]);
    }

    #[test]
    fn operator_trait_impls_are_not_method_candidates() {
        let (files, g) = graph(&[(
            "a.rs",
            "struct Gauge;\nimpl Gauge {\n    fn sub(&self, n: i64) {}\n}\n\
             struct Time;\nimpl std::ops::Sub for Time {\n    type Output = Time;\n    fn sub(self, rhs: Time) -> Time { rhs }\n}\n\
             fn top(g: &Gauge) { g.sub(1); }\n",
        )]);
        let top = g.find_fn(&files, "a.rs", "top").unwrap();
        let callees: Vec<String> = g.nodes[top]
            .calls
            .iter()
            .flat_map(|(_, t)| t.iter().map(|&c| g.label(&files, c)))
            .collect();
        assert_eq!(callees, vec!["Gauge::sub"]);
    }

    #[test]
    fn reachability_transits_and_reports_chain() {
        let (files, g) = graph(&[(
            "a.rs",
            "fn leaf() {}\nfn mid() { leaf(); }\nfn root() { mid(); }\nfn island() {}\n",
        )]);
        let root = g.find_fn(&files, "a.rs", "root").unwrap();
        let leaf = g.find_fn(&files, "a.rs", "leaf").unwrap();
        let island = g.find_fn(&files, "a.rs", "island").unwrap();
        let parent = g.reach(&[root]);
        assert!(parent.contains_key(&leaf));
        assert!(!parent.contains_key(&island));
        assert_eq!(g.chain(&files, &parent, leaf), "root -> mid -> leaf");
    }

    #[test]
    fn test_fns_are_excluded_by_filter() {
        let (files, g) = graph(&[(
            "a.rs",
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { super::lib(); }\n}\n",
        )]);
        assert!(g.find_fn(&files, "a.rs", "t").is_none());
        assert!(g.find_fn(&files, "a.rs", "lib").is_some());
    }

    #[test]
    fn dot_output_lists_nodes_and_edges() {
        let (files, g) = graph(&[("a.rs", "fn leaf() {}\nfn root() { leaf(); }\n")]);
        let dot = g.to_dot(&files);
        assert!(dot.starts_with("digraph calls {"));
        assert!(dot.contains("\"root\" -> \"leaf\";"));
    }
}
