//! Provenance trees and the explanation queries.
//!
//! [`explain_exist`] answers "why does tuple τ exist?" by folding the
//! engine's execution log into the §3.1 graph: EXIST ← APPEAR ←
//! INSERT/DERIVE (← RECEIVE ← SEND for cross-node installs) ← body EXISTs,
//! recursively down to base tuples. It follows the log's per-head chains
//! (`ExecLog::derivations_of`, `ExecLog::shipment_of`), so a tree reads
//! log rows in proportion to its own size, not to the log's.
//!
//! [`explain_absent`] answers "why does no tuple matching this pattern
//! exist?" with negative provenance: NEXIST ← NDERIVE per candidate rule ←
//! the missing precondition (recursively) or the selection predicate that
//! blocked an otherwise-complete join. This is the *diagnosis* flavor —
//! every failing rule is explained. The *repair* flavor, which forks a
//! forest instead (§3.3), lives in `mpr-core`.

use crate::vertex::{Pattern, Vertex};
use mpr_ndlog::eval::{Env, PureFuncs};
use mpr_ndlog::{Program, Rule, Term, Tuple};
use mpr_runtime::codec::{put_str, put_tuple, put_u32, put_u64, put_value, Reader};
use mpr_runtime::engine::match_atom;
use mpr_runtime::{ExecEvent, ExecLog, Time, TupleId, TupleKind};
use mpr_storage::{Recovery, StorageBackend, StorageError};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// A provenance explanation tree. The root is the queried (non-)event;
/// children are its direct causes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProvTree {
    /// This vertex.
    pub vertex: Vertex,
    /// Direct causes.
    pub children: Vec<ProvTree>,
}

impl ProvTree {
    /// Leaf tree.
    pub fn leaf(vertex: Vertex) -> Self {
        ProvTree { vertex, children: Vec::new() }
    }

    /// Number of vertices.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(ProvTree::size).sum::<usize>()
    }

    /// Height (leaf = 1).
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(ProvTree::depth).max().unwrap_or(0)
    }

    /// All leaves.
    pub fn leaves(&self) -> Vec<&Vertex> {
        if self.children.is_empty() {
            vec![&self.vertex]
        } else {
            self.children.iter().flat_map(ProvTree::leaves).collect()
        }
    }

    /// Indented ASCII rendering (one vertex per line).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        for _ in 0..indent {
            out.push_str("  ");
        }
        out.push_str(&self.vertex.label());
        out.push('\n');
        for c in &self.children {
            c.render_into(out, indent + 1);
        }
    }

    /// GraphViz DOT rendering.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph provenance {\n  rankdir=BT;\n");
        let mut next = 0usize;
        self.dot_into(&mut out, &mut next);
        out.push_str("}\n");
        out
    }

    fn dot_into(&self, out: &mut String, next: &mut usize) -> usize {
        let me = *next;
        *next += 1;
        let shape = if self.vertex.is_negative() { "box" } else { "ellipse" };
        let color = if self.vertex.is_negative() { "firebrick" } else { "black" };
        out.push_str(&format!(
            "  n{me} [label=\"{}\", shape={shape}, color={color}];\n",
            self.vertex.label().replace('"', "\\\"")
        ));
        for c in &self.children {
            let cid = c.dot_into(out, next);
            out.push_str(&format!("  n{cid} -> n{me};\n"));
        }
        me
    }
}

/// Options bounding an explanation.
#[derive(Debug, Clone, Copy)]
pub struct ExplainOptions {
    /// Maximum recursion depth (tuple hops).
    pub max_depth: usize,
    /// Maximum total vertices.
    pub max_vertices: usize,
}

impl Default for ExplainOptions {
    fn default() -> Self {
        ExplainOptions { max_depth: 32, max_vertices: 10_000 }
    }
}

/// The *net* derivation set of an execution: every `(rule, head, body)`
/// combination whose DERIVE events strictly outnumber its UNDERIVE events,
/// keyed by tuple **values** rather than instance ids (body tuples sorted).
///
/// This is the provenance-equivalence invariant the differential harness
/// checks: the pipelined and batch strategies may fire a shared body
/// combination a different number of times (support-count multiplicities
/// differ), but because duplicate firings carry identical body sets, every
/// retraction cascade underives them together — so the *net* sets agree.
pub fn derivation_set(log: &ExecLog) -> BTreeSet<(String, Tuple, Vec<Tuple>)> {
    let value_of = |tid: TupleId| log.tuple(tid).clone();
    let mut net: std::collections::BTreeMap<(String, Tuple, Vec<Tuple>), i64> =
        std::collections::BTreeMap::new();
    for ev in log.events() {
        let (rule, head, body, sign) = match ev {
            ExecEvent::Derive { rule, head, body, .. } => (rule, head, body, 1),
            ExecEvent::Underive { rule, head, body, .. } => (rule, head, body, -1),
            _ => continue,
        };
        let mut body_vals: Vec<Tuple> = body.iter().map(|&t| value_of(t)).collect();
        body_vals.sort();
        *net.entry((rule.to_string(), value_of(head), body_vals)).or_insert(0) += sign;
    }
    net.into_iter().filter(|&(_, n)| n > 0).map(|(k, _)| k).collect()
}

/// Explain why `tuple` existed at time `at`. Returns `None` if no matching
/// instance was alive then.
pub fn explain_exist(log: &ExecLog, tuple: &Tuple, at: Time) -> Option<ProvTree> {
    explain_exist_with(log, tuple, at, ExplainOptions::default())
}

/// [`explain_exist`] with explicit bounds.
pub fn explain_exist_with(
    log: &ExecLog,
    tuple: &Tuple,
    at: Time,
    opts: ExplainOptions,
) -> Option<ProvTree> {
    let rec = log.instance_alive_at(tuple, at)?;
    let mut budget = opts.max_vertices;
    Some(exist_tree(log, rec.tid, opts.max_depth, &mut budget))
}

fn exist_tree(log: &ExecLog, tid: TupleId, depth: usize, budget: &mut usize) -> ProvTree {
    let rec = log.record(tid);
    let node = rec.tuple.loc.clone();
    let mut root = ProvTree::leaf(Vertex::Exist {
        from: rec.appear,
        to: rec.disappear,
        node: node.clone(),
        tuple: rec.tuple.clone(),
    });
    if depth == 0 || *budget == 0 {
        return root;
    }
    *budget = budget.saturating_sub(1);
    let mut appear = ProvTree::leaf(Vertex::Appear {
        at: rec.appear,
        node: node.clone(),
        tuple: rec.tuple.clone(),
    });
    match rec.kind {
        TupleKind::Base | TupleKind::Event => {
            appear.children.push(ProvTree::leaf(Vertex::Insert {
                at: rec.appear,
                node,
                tuple: rec.tuple.clone(),
            }));
        }
        TupleKind::Derived => {
            // Cross-node installs interpose SEND → RECEIVE.
            let shipped = log.shipment_of(tid);
            for ev in log.derivations_of(tid) {
                let ExecEvent::Derive { time, rule, body, .. } = ev else {
                    continue;
                };
                let mut derive = ProvTree::leaf(Vertex::Derive {
                    at: time,
                    node: node.clone(),
                    rule: rule.to_string(),
                    tuple: rec.tuple.clone(),
                });
                for &btid in body {
                    if *budget == 0 {
                        break;
                    }
                    derive.children.push(exist_tree(log, btid, depth - 1, budget));
                }
                if let Some((st, from, to)) = shipped {
                    let send = ProvTree {
                        vertex: Vertex::Send {
                            at: st,
                            from: from.clone(),
                            to: to.clone(),
                            tuple: rec.tuple.clone(),
                            positive: true,
                        },
                        children: vec![derive],
                    };
                    let receive = ProvTree {
                        vertex: Vertex::Receive {
                            at: st,
                            from: from.clone(),
                            to: to.clone(),
                            tuple: rec.tuple.clone(),
                            positive: true,
                        },
                        children: vec![send],
                    };
                    appear.children.push(receive);
                } else {
                    appear.children.push(derive);
                }
            }
        }
    }
    root.children.push(appear);
    root
}

/// Explain why no tuple matching `pattern` existed at time `at` under
/// `program`. Always returns a tree (the root is NEXIST over `[0, at]`).
pub fn explain_absent(
    log: &ExecLog,
    program: &Program,
    pattern: &Pattern,
    at: Time,
) -> ProvTree {
    explain_absent_with(log, program, pattern, at, ExplainOptions::default())
}

/// [`explain_absent`] with explicit bounds.
pub fn explain_absent_with(
    log: &ExecLog,
    program: &Program,
    pattern: &Pattern,
    at: Time,
    opts: ExplainOptions,
) -> ProvTree {
    let mut budget = opts.max_vertices;
    absent_tree(log, program, pattern, at, opts.max_depth, &mut budget)
}

fn absent_tree(
    log: &ExecLog,
    program: &Program,
    pattern: &Pattern,
    at: Time,
    depth: usize,
    budget: &mut usize,
) -> ProvTree {
    let mut root = ProvTree::leaf(Vertex::NExist { from: 0, to: at, pattern: pattern.clone() });
    if depth == 0 || *budget == 0 {
        return root;
    }
    *budget = budget.saturating_sub(1);
    let deriving: Vec<&Rule> = program.rules_for_table(&pattern.table);
    if deriving.is_empty() {
        root.children
            .push(ProvTree::leaf(Vertex::NInsert { at, pattern: pattern.clone() }));
        return root;
    }
    for rule in deriving {
        if let Some(nd) = explain_failed_rule(log, program, rule, pattern, at, depth, budget) {
            root.children.push(nd);
        }
    }
    root
}

/// Why did `rule` fail to derive a tuple matching `pattern`?
fn explain_failed_rule(
    log: &ExecLog,
    program: &Program,
    rule: &Rule,
    pattern: &Pattern,
    at: Time,
    depth: usize,
    budget: &mut usize,
) -> Option<ProvTree> {
    // Head feasibility: constants in the head must agree with the pattern.
    let mut seed = Env::new();
    if let (Some(pl), Term::Const(c)) = (&pattern.loc, &rule.head.loc) {
        if pl != c {
            return None;
        }
    }
    if let (Some(pl), Term::Var(v)) = (&pattern.loc, &rule.head.loc) {
        seed.insert(v.clone(), pl.clone());
    }
    for (t, pv) in rule.head.args.iter().zip(pattern.args.iter()) {
        match (t, pv) {
            (Term::Const(c), Some(v)) if c != v => return None,
            (Term::Var(name), Some(v)) => match seed.get(name) {
                Some(bound) if bound != v => return None,
                _ => {
                    seed.insert(name.clone(), v.clone());
                }
            },
            _ => {}
        }
    }
    let mut nd = ProvTree::leaf(Vertex::NDerive {
        at,
        rule: rule.id.clone(),
        pattern: pattern.clone(),
    });
    // Join body atoms left-to-right against tuples alive at `at`.
    let mut envs: Vec<Env> = vec![seed];
    for atom in &rule.body {
        let alive: Vec<Tuple> = log
            .alive_at(&atom.table, at)
            .into_iter()
            .map(|r| r.tuple.clone())
            .collect();
        let mut next: Vec<Env> = Vec::new();
        for env in &envs {
            for t in &alive {
                if let Some(e2) = match_atom(atom, t, env) {
                    next.push(e2);
                }
            }
        }
        if next.is_empty() {
            // Missing precondition: instantiate what we can and recurse.
            let sub = instantiate_pattern(atom, envs.first().unwrap_or(&Env::new()).clone());
            if *budget > 0 {
                nd.children.push(absent_tree(log, program, &sub, at, depth - 1, budget));
            } else {
                nd.children.push(ProvTree::leaf(Vertex::NAppear { at, pattern: sub }));
            }
            return Some(nd);
        }
        envs = next;
    }
    // All atoms matched at least once: a selection (or head-value mismatch)
    // must be to blame. Report the first blocking selection of the first
    // binding for concreteness.
    'envs: for mut env in envs {
        let mut funcs = PureFuncs;
        for a in &rule.assigns {
            match a.expr.eval(&env, &mut funcs) {
                Ok(v) => {
                    env.insert(a.var.clone(), v);
                }
                Err(_) => continue 'envs,
            }
        }
        for sel in &rule.sels {
            match sel.eval(&env, &mut funcs) {
                Ok(true) => {}
                _ => {
                    let vars: BTreeSet<String> = sel.vars();
                    let bindings = vars
                        .iter()
                        .filter_map(|v| env.get(v).map(|x| format!("{v}={x}")))
                        .collect::<Vec<_>>()
                        .join(",");
                    nd.children.push(ProvTree::leaf(Vertex::FailedSelection {
                        at,
                        rule: rule.id.clone(),
                        sid: sel.sid(),
                        bindings,
                    }));
                    continue 'envs;
                }
            }
        }
        // Selections passed — the head simply has different values than the
        // pattern (e.g. assigned constants disagree). Report as a failed
        // "head match" pseudo-selection.
        nd.children.push(ProvTree::leaf(Vertex::FailedSelection {
            at,
            rule: rule.id.clone(),
            sid: format!("head {} matches {}", rule.head, pattern),
            bindings: String::new(),
        }));
    }
    Some(nd)
}

fn instantiate_pattern(atom: &mpr_ndlog::Atom, env: Env) -> Pattern {
    let loc = match &atom.loc {
        Term::Const(c) => Some(c.clone()),
        Term::Var(v) => env.get(v).cloned(),
        Term::Agg(..) => None,
    };
    let args = atom
        .args
        .iter()
        .map(|t| match t {
            Term::Const(c) => Some(c.clone()),
            Term::Var(v) => env.get(v).cloned(),
            Term::Agg(..) => None,
        })
        .collect();
    Pattern { table: atom.table.clone(), loc, args }
}

// ---------------------------------------------------------------------------
// canonical graph snapshots

/// Version byte of the graph snapshot payload format.
pub const GRAPH_SNAPSHOT_VERSION: u8 = 1;

/// A provenance graph in canonical form: explanation trees flattened into a
/// deduplicated vertex set with cause→effect edges, all held in one
/// deterministic order — vertices sorted by their canonical byte encoding,
/// edges and roots sorted numerically in that id space.
///
/// The payoff is [`ProvGraph::to_bytes`]: graphs built from explanations of
/// identical states are byte-identical regardless of the order trees were
/// added or the order the explainer emitted children, so snapshots can be
/// checksummed, diffed, and persisted through any
/// [`mpr_storage::StorageBackend`] ([`ProvGraph::save`] /
/// [`ProvGraph::load`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProvGraph {
    /// Sorted by canonical encoding (strictly increasing ⇒ deduplicated).
    vertices: Vec<Vertex>,
    /// `(cause, effect)` vertex-id pairs, sorted, deduplicated.
    edges: Vec<(u32, u32)>,
    /// Ids of the queried tree roots, sorted, deduplicated.
    roots: Vec<u32>,
}

impl ProvGraph {
    /// Flatten one explanation tree.
    pub fn from_tree(tree: &ProvTree) -> Self {
        Self::from_trees(std::slice::from_ref(tree))
    }

    /// Flatten a forest of explanation trees into one deduplicated graph.
    /// The result is independent of the order of `trees`.
    pub fn from_trees(trees: &[ProvTree]) -> Self {
        // Pass 1: a vertex's id is the rank of its canonical encoding.
        let mut by_enc: BTreeMap<Vec<u8>, Vertex> = BTreeMap::new();
        for t in trees {
            collect_vertices(t, &mut by_enc);
        }
        let ids: BTreeMap<&[u8], u32> =
            by_enc.keys().enumerate().map(|(i, k)| (k.as_slice(), i as u32)).collect();
        // Pass 2: edges and roots, rewritten into id space.
        let mut edges: BTreeSet<(u32, u32)> = BTreeSet::new();
        let mut roots: BTreeSet<u32> = BTreeSet::new();
        for t in trees {
            roots.insert(ids[encode_vertex(&t.vertex).as_slice()]);
            collect_edges(t, &ids, &mut edges);
        }
        ProvGraph {
            vertices: by_enc.values().cloned().collect(),
            edges: edges.into_iter().collect(),
            roots: roots.into_iter().collect(),
        }
    }

    /// Vertices in canonical order; a vertex's index is its id.
    pub fn vertices(&self) -> &[Vertex] {
        &self.vertices
    }

    /// `(cause, effect)` edges in canonical order.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Ids of the tree roots the graph was built from.
    pub fn roots(&self) -> &[u32] {
        &self.roots
    }

    /// Number of distinct vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of distinct edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Is `v` a vertex of the graph?
    pub fn contains(&self, v: &Vertex) -> bool {
        let enc = encode_vertex(v);
        self.vertices
            .binary_search_by(|u| encode_vertex(u).cmp(&enc))
            .is_ok()
    }

    /// Direct causes of vertex `effect`.
    pub fn causes(&self, effect: u32) -> impl Iterator<Item = u32> + '_ {
        self.edges.iter().filter(move |&&(_, e)| e == effect).map(|&(c, _)| c)
    }

    /// Canonical byte serialization. Identical graphs — however they were
    /// built — produce identical bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + self.vertices.len() * 48);
        buf.push(GRAPH_SNAPSHOT_VERSION);
        put_u32(&mut buf, self.vertices.len() as u32);
        for v in &self.vertices {
            buf.extend_from_slice(&encode_vertex(v));
        }
        put_u32(&mut buf, self.edges.len() as u32);
        for &(c, e) in &self.edges {
            put_u32(&mut buf, c);
            put_u32(&mut buf, e);
        }
        put_u32(&mut buf, self.roots.len() as u32);
        for &r in &self.roots {
            put_u32(&mut buf, r);
        }
        buf
    }

    /// Decode a snapshot, verifying canonical form (sorted deduplicated
    /// vertices, sorted in-range edges and roots) so that
    /// `from_bytes(g.to_bytes()) == g` and corrupt or non-canonical input
    /// is rejected with an error, never a panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let mut r = Reader::new(bytes);
        let v = r.u8()?;
        if v != GRAPH_SNAPSHOT_VERSION {
            return Err(format!("unsupported graph snapshot version {v}"));
        }
        let nv = r.u32()? as usize;
        if nv > 1 << 26 {
            return Err(format!("implausible vertex count {nv}"));
        }
        let mut vertices = Vec::with_capacity(nv);
        let mut prev: Option<Vec<u8>> = None;
        for _ in 0..nv {
            let v = read_vertex(&mut r)?;
            let enc = encode_vertex(&v);
            if let Some(p) = &prev {
                if *p >= enc {
                    return Err("vertices not in canonical order".into());
                }
            }
            prev = Some(enc);
            vertices.push(v);
        }
        let ne = r.u32()? as usize;
        if ne > 1 << 26 {
            return Err(format!("implausible edge count {ne}"));
        }
        let mut edges = Vec::with_capacity(ne);
        for _ in 0..ne {
            let c = r.u32()?;
            let e = r.u32()?;
            if c as usize >= nv || e as usize >= nv {
                return Err(format!("edge ({c},{e}) out of range"));
            }
            if let Some(&last) = edges.last() {
                if last >= (c, e) {
                    return Err("edges not in canonical order".into());
                }
            }
            edges.push((c, e));
        }
        let nr = r.u32()? as usize;
        if nr > nv {
            return Err(format!("implausible root count {nr}"));
        }
        let mut roots = Vec::with_capacity(nr);
        for _ in 0..nr {
            let id = r.u32()?;
            if id as usize >= nv {
                return Err(format!("root {id} out of range"));
            }
            if let Some(&last) = roots.last() {
                if last >= id {
                    return Err("roots not in canonical order".into());
                }
            }
            roots.push(id);
        }
        r.finish()?;
        Ok(ProvGraph { vertices, edges, roots })
    }

    /// Persist the graph as the backend's current snapshot (the WAL backend
    /// writes a checksummed snapshot file and rolls to a fresh epoch).
    pub fn save(&self, backend: &mut dyn StorageBackend) -> Result<(), StorageError> {
        backend.install_snapshot(&self.to_bytes())?;
        backend.flush()
    }

    /// Load the graph previously [`saved`](ProvGraph::save) to `backend`,
    /// along with the backend's recovery status. `None` if the backend
    /// holds no snapshot (fresh store).
    pub fn load(
        backend: &mut dyn StorageBackend,
    ) -> Result<Option<(ProvGraph, Recovery)>, StorageError> {
        let rec = backend.recover()?;
        let Some(bytes) = rec.snapshot else {
            return Ok(None);
        };
        let g = ProvGraph::from_bytes(&bytes)
            .map_err(|reason| StorageError::Corrupt { offset: 0, reason })?;
        Ok(Some((g, rec.status)))
    }
}

fn collect_vertices(tree: &ProvTree, out: &mut BTreeMap<Vec<u8>, Vertex>) {
    out.entry(encode_vertex(&tree.vertex)).or_insert_with(|| tree.vertex.clone());
    for c in &tree.children {
        collect_vertices(c, out);
    }
}

fn collect_edges(tree: &ProvTree, ids: &BTreeMap<&[u8], u32>, out: &mut BTreeSet<(u32, u32)>) {
    let me = ids[encode_vertex(&tree.vertex).as_slice()];
    for c in &tree.children {
        let cid = ids[encode_vertex(&c.vertex).as_slice()];
        out.insert((cid, me));
        collect_edges(c, ids, out);
    }
}

// --- vertex codec (little-endian, tagged; canonical: one encoding per value)

fn put_opt_u64(buf: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => buf.push(0),
        Some(x) => {
            buf.push(1);
            put_u64(buf, x);
        }
    }
}

fn put_opt_value(buf: &mut Vec<u8>, v: &Option<mpr_ndlog::Value>) {
    match v {
        None => buf.push(0),
        Some(x) => {
            buf.push(1);
            put_value(buf, x);
        }
    }
}

fn put_pattern(buf: &mut Vec<u8>, p: &Pattern) {
    put_str(buf, &p.table);
    put_opt_value(buf, &p.loc);
    put_u32(buf, p.args.len() as u32);
    for a in &p.args {
        put_opt_value(buf, a);
    }
}

/// Canonical byte encoding of one vertex (self-delimiting).
fn encode_vertex(v: &Vertex) -> Vec<u8> {
    let mut buf = Vec::with_capacity(48);
    match v {
        Vertex::Exist { from, to, node, tuple } => {
            buf.push(0);
            put_u64(&mut buf, *from);
            put_opt_u64(&mut buf, *to);
            put_value(&mut buf, node);
            put_tuple(&mut buf, tuple);
        }
        Vertex::Insert { at, node, tuple } => {
            buf.push(1);
            put_u64(&mut buf, *at);
            put_value(&mut buf, node);
            put_tuple(&mut buf, tuple);
        }
        Vertex::Delete { at, node, tuple } => {
            buf.push(2);
            put_u64(&mut buf, *at);
            put_value(&mut buf, node);
            put_tuple(&mut buf, tuple);
        }
        Vertex::Derive { at, node, rule, tuple } => {
            buf.push(3);
            put_u64(&mut buf, *at);
            put_value(&mut buf, node);
            put_str(&mut buf, rule);
            put_tuple(&mut buf, tuple);
        }
        Vertex::Underive { at, node, rule, tuple } => {
            buf.push(4);
            put_u64(&mut buf, *at);
            put_value(&mut buf, node);
            put_str(&mut buf, rule);
            put_tuple(&mut buf, tuple);
        }
        Vertex::Appear { at, node, tuple } => {
            buf.push(5);
            put_u64(&mut buf, *at);
            put_value(&mut buf, node);
            put_tuple(&mut buf, tuple);
        }
        Vertex::Disappear { at, node, tuple } => {
            buf.push(6);
            put_u64(&mut buf, *at);
            put_value(&mut buf, node);
            put_tuple(&mut buf, tuple);
        }
        Vertex::Send { at, from, to, tuple, positive } => {
            buf.push(7);
            put_u64(&mut buf, *at);
            put_value(&mut buf, from);
            put_value(&mut buf, to);
            put_tuple(&mut buf, tuple);
            buf.push(u8::from(*positive));
        }
        Vertex::Receive { at, from, to, tuple, positive } => {
            buf.push(8);
            put_u64(&mut buf, *at);
            put_value(&mut buf, from);
            put_value(&mut buf, to);
            put_tuple(&mut buf, tuple);
            buf.push(u8::from(*positive));
        }
        Vertex::NExist { from, to, pattern } => {
            buf.push(9);
            put_u64(&mut buf, *from);
            put_u64(&mut buf, *to);
            put_pattern(&mut buf, pattern);
        }
        Vertex::NDerive { at, rule, pattern } => {
            buf.push(10);
            put_u64(&mut buf, *at);
            put_str(&mut buf, rule);
            put_pattern(&mut buf, pattern);
        }
        Vertex::NInsert { at, pattern } => {
            buf.push(11);
            put_u64(&mut buf, *at);
            put_pattern(&mut buf, pattern);
        }
        Vertex::NAppear { at, pattern } => {
            buf.push(12);
            put_u64(&mut buf, *at);
            put_pattern(&mut buf, pattern);
        }
        Vertex::FailedSelection { at, rule, sid, bindings } => {
            buf.push(13);
            put_u64(&mut buf, *at);
            put_str(&mut buf, rule);
            put_str(&mut buf, sid);
            put_str(&mut buf, bindings);
        }
    }
    buf
}

fn read_opt_u64(r: &mut Reader) -> Result<Option<u64>, String> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.u64()?)),
        t => Err(format!("unknown option tag {t}")),
    }
}

fn read_opt_value(r: &mut Reader) -> Result<Option<mpr_ndlog::Value>, String> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.value()?)),
        t => Err(format!("unknown option tag {t}")),
    }
}

fn read_pattern(r: &mut Reader) -> Result<Pattern, String> {
    let table = r.str()?;
    let loc = read_opt_value(r)?;
    let n = r.u32()? as usize;
    if n > 1 << 20 {
        return Err(format!("implausible pattern arity {n}"));
    }
    let mut args = Vec::with_capacity(n);
    for _ in 0..n {
        args.push(read_opt_value(r)?);
    }
    Ok(Pattern { table, loc, args })
}

fn read_vertex(r: &mut Reader) -> Result<Vertex, String> {
    Ok(match r.u8()? {
        0 => Vertex::Exist {
            from: r.u64()?,
            to: read_opt_u64(r)?,
            node: r.value()?,
            tuple: r.tuple()?,
        },
        1 => Vertex::Insert { at: r.u64()?, node: r.value()?, tuple: r.tuple()? },
        2 => Vertex::Delete { at: r.u64()?, node: r.value()?, tuple: r.tuple()? },
        3 => Vertex::Derive { at: r.u64()?, node: r.value()?, rule: r.str()?, tuple: r.tuple()? },
        4 => {
            Vertex::Underive { at: r.u64()?, node: r.value()?, rule: r.str()?, tuple: r.tuple()? }
        }
        5 => Vertex::Appear { at: r.u64()?, node: r.value()?, tuple: r.tuple()? },
        6 => Vertex::Disappear { at: r.u64()?, node: r.value()?, tuple: r.tuple()? },
        7 => Vertex::Send {
            at: r.u64()?,
            from: r.value()?,
            to: r.value()?,
            tuple: r.tuple()?,
            positive: r.u8()? != 0,
        },
        8 => Vertex::Receive {
            at: r.u64()?,
            from: r.value()?,
            to: r.value()?,
            tuple: r.tuple()?,
            positive: r.u8()? != 0,
        },
        9 => Vertex::NExist { from: r.u64()?, to: r.u64()?, pattern: read_pattern(r)? },
        10 => Vertex::NDerive { at: r.u64()?, rule: r.str()?, pattern: read_pattern(r)? },
        11 => Vertex::NInsert { at: r.u64()?, pattern: read_pattern(r)? },
        12 => Vertex::NAppear { at: r.u64()?, pattern: read_pattern(r)? },
        13 => Vertex::FailedSelection {
            at: r.u64()?,
            rule: r.str()?,
            sid: r.str()?,
            bindings: r.str()?,
        },
        t => return Err(format!("unknown vertex tag {t}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpr_ndlog::{parse_program, Value};
    use mpr_runtime::Engine;

    fn v(i: i64) -> Value {
        Value::Int(i)
    }

    fn fig2() -> Program {
        parse_program(
            "fig2",
            r"
            materialize(PacketIn, event, 2, keys()).
            materialize(FlowTable, infinity, 2, keys(0)).
            materialize(WebLoadBalancer, infinity, 2, keys(0)).
            r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), WebLoadBalancer(@C,Hdr,Prt), Swi == 1.
            r5 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 1.
            r7 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 2.
            ",
        )
        .unwrap()
    }

    #[test]
    fn positive_explanation_reaches_base_tuples() {
        let p = fig2();
        let mut e = Engine::new(&p).unwrap();
        e.insert(Tuple::new("WebLoadBalancer", Value::str("C"), vec![v(80), v(7)])).unwrap();
        e.insert(Tuple::new("PacketIn", Value::str("C"), vec![v(1), v(80)])).unwrap();
        let ft = Tuple::new("FlowTable", v(1), vec![v(80), v(7)]);
        assert!(e.contains(&ft));
        let tree = explain_exist(e.log(), &ft, e.now()).expect("tuple exists");
        let rendered = tree.render();
        assert!(rendered.contains("EXIST"), "{rendered}");
        assert!(rendered.contains("DERIVE"), "{rendered}");
        // The flow entry was installed across nodes C→1: SEND/RECEIVE.
        assert!(rendered.contains("SEND"), "{rendered}");
        assert!(rendered.contains("RECEIVE"), "{rendered}");
        // Leaves include the two base insertions.
        let leaves = tree.leaves();
        assert!(leaves.iter().any(|l| matches!(l, Vertex::Insert { tuple, .. } if tuple.table == "PacketIn")));
        assert!(leaves.iter().any(|l| matches!(l, Vertex::Insert { tuple, .. } if tuple.table == "WebLoadBalancer")));
    }

    #[test]
    fn missing_tuple_explained_by_failed_selection() {
        // The Fig. 1 symptom: no flow entry sending HTTP to port 2 on S3.
        let p = fig2();
        let mut e = Engine::new(&p).unwrap();
        e.insert(Tuple::new("PacketIn", Value::str("C"), vec![v(3), v(80)])).unwrap();
        // No FlowTable at switch 3.
        assert!(e.tuples_at(&v(3), "FlowTable").is_empty());
        let pat = Pattern {
            table: "FlowTable".into(),
            loc: Some(v(3)),
            args: vec![Some(v(80)), Some(v(2))],
        };
        let tree = explain_absent(e.log(), &p, &pat, e.now());
        let rendered = tree.render();
        // r7 is the near-miss: its join succeeded but Swi==2 failed (Swi=3).
        assert!(rendered.contains("NDERIVE"), "{rendered}");
        assert!(rendered.contains("Swi == 2"), "{rendered}");
        assert!(rendered.contains("Swi=3"), "{rendered}");
    }

    #[test]
    fn missing_base_tuple_explained_by_ninsert() {
        let p = fig2();
        let mut e = Engine::new(&p).unwrap();
        e.insert(Tuple::new("PacketIn", Value::str("C"), vec![v(1), v(80)])).unwrap();
        // r1 fails because WebLoadBalancer is empty; recursion bottoms out
        // in NINSERT for the missing base tuple.
        let pat = Pattern {
            table: "FlowTable".into(),
            loc: Some(v(1)),
            args: vec![Some(v(80)), None],
        };
        let tree = explain_absent(e.log(), &p, &pat, e.now());
        let rendered = tree.render();
        assert!(rendered.contains("NINSERT"), "{rendered}");
        assert!(rendered.contains("WebLoadBalancer"), "{rendered}");
    }

    #[test]
    fn absent_with_no_deriving_rules() {
        let p = fig2();
        let e = Engine::new(&p).unwrap();
        let pat = Pattern::any("WebLoadBalancer", 2);
        let tree = explain_absent(e.log(), &p, &pat, 0);
        assert!(matches!(tree.children[0].vertex, Vertex::NInsert { .. }));
    }

    #[test]
    fn tree_metrics_and_dot() {
        let p = fig2();
        let mut e = Engine::new(&p).unwrap();
        e.insert(Tuple::new("PacketIn", Value::str("C"), vec![v(2), v(80)])).unwrap();
        let ft = Tuple::new("FlowTable", v(2), vec![v(80), v(2)]);
        let tree = explain_exist(e.log(), &ft, e.now()).unwrap();
        assert!(tree.size() >= 4);
        assert!(tree.depth() >= 3);
        let dot = tree.to_dot();
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("EXIST"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn depth_bound_truncates() {
        let p = fig2();
        let mut e = Engine::new(&p).unwrap();
        e.insert(Tuple::new("WebLoadBalancer", Value::str("C"), vec![v(80), v(7)])).unwrap();
        e.insert(Tuple::new("PacketIn", Value::str("C"), vec![v(1), v(80)])).unwrap();
        let ft = Tuple::new("FlowTable", v(1), vec![v(80), v(7)]);
        let shallow = explain_exist_with(
            e.log(),
            &ft,
            e.now(),
            ExplainOptions { max_depth: 0, max_vertices: 10 },
        )
        .unwrap();
        assert_eq!(shallow.size(), 1);
    }

    // -- canonical graph snapshots

    /// One full run of the Fig. 2 scenario, explained both positively and
    /// negatively.
    fn fig2_explanations() -> Vec<ProvTree> {
        let p = fig2();
        let mut e = Engine::new(&p).unwrap();
        e.insert(Tuple::new("WebLoadBalancer", Value::str("C"), vec![v(80), v(7)])).unwrap();
        e.insert(Tuple::new("PacketIn", Value::str("C"), vec![v(1), v(80)])).unwrap();
        e.insert(Tuple::new("PacketIn", Value::str("C"), vec![v(3), v(80)])).unwrap();
        let ft = Tuple::new("FlowTable", v(1), vec![v(80), v(7)]);
        let exist = explain_exist(e.log(), &ft, e.now()).unwrap();
        let pat = Pattern {
            table: "FlowTable".into(),
            loc: Some(v(3)),
            args: vec![Some(v(80)), Some(v(2))],
        };
        let absent = explain_absent(e.log(), &p, &pat, e.now());
        vec![exist, absent]
    }

    #[test]
    fn graph_snapshot_is_byte_identical_across_runs() {
        // Two completely independent engine runs of the same scenario must
        // serialize their provenance to the same bytes.
        let a = ProvGraph::from_trees(&fig2_explanations()).to_bytes();
        let b = ProvGraph::from_trees(&fig2_explanations()).to_bytes();
        assert_eq!(a, b, "repeated runs must produce byte-identical snapshots");
    }

    #[test]
    fn graph_snapshot_is_insertion_order_independent() {
        let trees = fig2_explanations();
        let fwd = ProvGraph::from_trees(&trees);
        let rev: Vec<ProvTree> = trees.iter().rev().cloned().collect();
        let bwd = ProvGraph::from_trees(&rev);
        assert_eq!(fwd, bwd);
        assert_eq!(fwd.to_bytes(), bwd.to_bytes());
    }

    #[test]
    fn graph_dedups_shared_subtrees() {
        let trees = fig2_explanations();
        let total: usize = trees.iter().map(ProvTree::size).sum();
        let g = ProvGraph::from_trees(&trees);
        assert!(g.vertex_count() <= total);
        assert_eq!(g.roots().len(), 2);
        // Every tree vertex is in the graph; every edge points both ways
        // into the vertex set (checked by from_bytes below too).
        for t in &trees {
            assert!(g.contains(&t.vertex));
        }
        // Adding the same tree twice changes nothing.
        let doubled: Vec<ProvTree> =
            trees.iter().chain(trees.iter()).cloned().collect();
        assert_eq!(ProvGraph::from_trees(&doubled), g);
    }

    #[test]
    fn graph_snapshot_round_trips() {
        let g = ProvGraph::from_trees(&fig2_explanations());
        let bytes = g.to_bytes();
        let g2 = ProvGraph::from_bytes(&bytes).unwrap();
        assert_eq!(g2, g);
        assert_eq!(g2.to_bytes(), bytes);
        assert!(g.edge_count() > 0);
    }

    #[test]
    fn graph_decode_rejects_corruption_without_panicking() {
        let g = ProvGraph::from_trees(&fig2_explanations());
        let bytes = g.to_bytes();
        // Truncations at every prefix length: error, never panic.
        for cut in 0..bytes.len() {
            assert!(ProvGraph::from_bytes(&bytes[..cut]).is_err(), "cut {cut} accepted");
        }
        // A flipped bit either fails to decode or decodes to different
        // bytes — it must never be silently accepted as the same graph.
        for pos in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            if let Ok(g2) = ProvGraph::from_bytes(&bad) {
                assert_ne!(g2.to_bytes(), bytes, "flip at {pos} undetected");
            }
        }
        assert!(ProvGraph::from_bytes(&[]).is_err());
        assert!(ProvGraph::from_bytes(&[99]).is_err(), "bad version accepted");
    }

    #[test]
    fn graph_persists_through_a_storage_backend() {
        use mpr_storage::{MemBackend, WalBackend, WalConfig};

        let g = ProvGraph::from_trees(&fig2_explanations());

        let mut mem = MemBackend::new();
        g.save(&mut mem).unwrap();
        let (g2, status) = ProvGraph::load(&mut mem).unwrap().expect("snapshot saved");
        assert!(status.is_clean());
        assert_eq!(g2, g);

        // And through the WAL backend, across a close/reopen.
        let dir = std::env::temp_dir()
            .join(format!("mpr-provgraph-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut wal = WalBackend::open(WalConfig::new(&dir)).unwrap();
        g.save(&mut wal).unwrap();
        drop(wal);
        let mut wal = WalBackend::open(WalConfig::new(&dir)).unwrap();
        let (g3, status) = ProvGraph::load(&mut wal).unwrap().expect("snapshot on disk");
        assert!(status.is_clean());
        assert_eq!(g3.to_bytes(), g.to_bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn graph_load_on_fresh_backend_is_none() {
        let mut mem = mpr_storage::MemBackend::new();
        assert!(ProvGraph::load(&mut mem).unwrap().is_none());
    }
}
