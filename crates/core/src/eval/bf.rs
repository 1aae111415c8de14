//! Backward/Forward maintenance of a recursive cluster under deletions
//! (Motik, Nenov, Piro and Horrocks, *Incremental Update of Datalog
//! Materialisation: the Backward/Forward Algorithm*, AAAI 2015).
//!
//! A deleted input fact only *might* take the facts it supports with it:
//! on a dense cluster almost every one of them keeps another proof.
//! Instead of over-deleting everything with a derivation through a
//! deleted fact and rederiving the survivors, B/F asks each deletion
//! candidate for a surviving proof first:
//!
//! * **backward** — the candidate's rule instances over `I ∖ D` are
//!   searched depth-first, down to surviving input facts, on an explicit
//!   work stack (proof depth never touches the thread's stack). Every
//!   fact visited joins the checked set `C`. At each fact, instances
//!   whose body is already proved are tried before descending;
//! * **forward** — a fact found proved saturates forward over `C` into
//!   the proved set `P`: a checked head whose whole body is proved is
//!   proved too. Once the search started at a candidate is exhausted,
//!   `C ∖ P` is unfounded — no proof from surviving inputs exists;
//! * only a candidate left unproved enters `D`, and its deletion
//!   propagates to the heads it supports over `I ∖ D`.
//!
//! `I` is the cluster's materialization before the commit. Inputs (base
//! relations and lower strata) are read after it, so a proof may use a
//! same-commit insert; what is deleted anyway is re-derived by the
//! insert-seeded re-entry that follows. Deletion propagation also matches
//! the commit's deleted input rows, so an instance with two deleted atoms
//! is found from either of them.
//!
//! One tuple-at-a-time [`Matcher`] over the compiled subqueries serves all
//! three walks: head-bound (the backward search), and one atom bound over
//! `I ∖ D` (propagation) or over `P` (saturation). Its lookups use
//! per-(relation, bound columns) hash indexes built at most once per
//! refresh. Whole-tuple lookups of a cluster IDB probe its carried full-R
//! index, and the backward search defers even those to the few body facts
//! it visits. A fact is an `(IDB, row id)` pair of the stored relation,
//! resolved through that index's packed keys, so `C`, `P` and `D` are
//! marks on row ids.

use recstep_common::hash::{hash_row, FxHashMap, FxHashSet};
use recstep_common::lang::{eval_all, Expr};
use recstep_common::{Result, Value};
use recstep_datalog::plan::{CompiledStratum, SubQuery};
use recstep_exec::index::PersistentIndex;
use recstep_exec::ExecCtx;
use recstep_storage::{RelId, RelView, RunCatalog};

use super::{rel_id, Batches};

/// A cluster fact: its IDB's position in the cluster and its row id in
/// that IDB's stored relation.
type Fact = (usize, u32);

/// A body fact of a matched instance, or a child under backward search:
/// its IDB, its row id ([`UNRESOLVED`]: a whole-tuple atom the backward
/// search left unprobed, which may not even be in `I`), and where its
/// values start — the instance's flattened row, or a child's value arena.
#[derive(Clone, Copy)]
struct Body {
    slot: usize,
    id: u32,
    at: usize,
}

const UNRESOLVED: u32 = u32::MAX;

/// Fact marks: in `C`, in `P`, in `D`.
const CHECKED: u8 = 1;
const PROVED: u8 = 2;
const DELETED: u8 = 4;

/// What a match may read.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Over {
    /// Deletion propagation: IDB facts in `I ∖ D`; inputs' surviving and
    /// deleted rows.
    Propagate,
    /// The backward search: IDB facts in `I ∖ D`; surviving input rows.
    /// Whole-tuple IDB atoms are not probed: they come out
    /// [`UNRESOLVED`], and the search resolves the few it visits.
    Backward,
    /// Forward saturation: IDB facts in `P`; surviving input rows.
    Proved,
}

/// A relation the cluster's rules read.
struct Source<'a> {
    /// Stored rows: `I` for a cluster IDB, post-commit rows for an input.
    rows: RelView<'a>,
    /// An input's rows the commit deleted: propagation matches them,
    /// proofs never do.
    gone: Option<RelView<'a>>,
    /// A cluster IDB's whole-tuple index. Cluster IDBs are the first
    /// sources, in cluster order, so an IDB's source is its position.
    idb: Option<&'a PersistentIndex>,
}

/// How a step finds its atom's candidate rows.
#[derive(Clone, Copy)]
enum Lookup {
    /// No column bound: every row.
    Scan,
    /// Every column of a cluster IDB bound: its whole-tuple index.
    Full,
    /// An index of [`Matcher::built`].
    Index(usize),
    /// An index not built yet ([`Matcher::ensure`]).
    Pending,
}

/// One body atom's turn in a match.
struct Step {
    atom: usize,
    /// Local columns bound on entry, and their variables.
    key_cols: Vec<usize>,
    key_vars: Vec<usize>,
    /// Local columns this step binds, with their variables.
    binds: Vec<(usize, usize)>,
    lookup: Lookup,
}

/// One rule of the cluster, compiled for tuple-at-a-time matching.
struct Rule<'a> {
    sq: &'a SubQuery,
    /// The head IDB's position in the cluster.
    head: usize,
    /// Per body atom: its source and its first flattened column.
    atoms: Vec<(usize, usize)>,
    /// Variable of each flattened column: join keys unify columns, and
    /// atom-local filters tie repeated variables within an atom.
    var_of: Vec<usize>,
    /// Per head position: the variable a `Col` term binds.
    head_vars: Vec<Option<usize>>,
    /// `plans[0]` binds the head, `plans[1 + p]` binds body atom `p`.
    plans: Vec<Vec<Step>>,
}

/// A per-(relation, bound columns) index: over the stored rows, and over
/// an input's deleted rows.
struct Built {
    rows: PersistentIndex,
    gone: Option<PersistentIndex>,
}

/// Reusable buffers of one match.
#[derive(Default)]
struct Scratch {
    vars: Vec<Value>,
    key: Vec<Value>,
    local: Vec<Value>,
    flat: Vec<Value>,
    head: Vec<Value>,
    facts: Vec<Body>,
}

/// The tuple-at-a-time rule matcher over a cluster's compiled rules.
pub(super) struct Matcher<'a> {
    ctx: &'a ExecCtx,
    sources: Vec<Source<'a>>,
    rules: Vec<Rule<'a>>,
    /// `(source, key columns)` → index of [`Self::built`].
    by_key: FxHashMap<(usize, Vec<usize>), usize>,
    built: Vec<Built>,
    /// Per cluster IDB: the marks of its row ids.
    marks: Vec<Vec<u8>>,
    scratch: Scratch,
    /// Indexes built.
    builds: usize,
}

impl<'a> Matcher<'a> {
    /// A matcher over the rules of `unit` (see `maintenance_units`) whose
    /// heads are IDBs of its recursive stratum: `full[i]` is the synced
    /// whole-tuple index of that stratum's `i`-th IDB, and `gone` the
    /// commit's deleted input rows by relation.
    pub(super) fn new(
        ctx: &'a ExecCtx,
        catalog: &'a RunCatalog<'_>,
        unit: &[&'a CompiledStratum],
        full: &'a [(RelId, PersistentIndex)],
        gone: &'a Batches,
    ) -> Result<Self> {
        let rec = unit[unit.len() - 1];
        let mut m = Matcher {
            ctx,
            sources: Vec::new(),
            rules: Vec::new(),
            by_key: FxHashMap::default(),
            built: Vec::new(),
            marks: Vec::new(),
            scratch: Scratch::default(),
            builds: 0,
        };
        let mut names: Vec<&str> = Vec::new();
        for (idb, (id, index)) in rec.idbs.iter().zip(full) {
            let rows = catalog.rel(*id).view();
            names.push(&idb.rel);
            m.marks.push(vec![0; rows.len()]);
            m.sources.push(Source {
                rows,
                gone: None,
                idb: Some(index),
            });
        }
        let mut seen = Vec::new();
        for idb in unit.iter().flat_map(|s| &s.idbs) {
            let Some(head) = rec.idbs.iter().position(|i| i.rel == idb.rel) else {
                continue;
            };
            for sq in &idb.subqueries {
                if seen.contains(&sq.rule_idx) {
                    continue;
                }
                seen.push(sq.rule_idx);
                let mut atoms = Vec::with_capacity(sq.scans.len());
                let mut offset = 0;
                for scan in &sq.scans {
                    let src = match names.iter().position(|&n| n == scan.rel) {
                        Some(src) => src,
                        None => {
                            names.push(&scan.rel);
                            m.sources.push(Source {
                                rows: catalog.rel(rel_id(catalog, &scan.rel)?).view(),
                                gone: gone.get(&scan.rel).map(|cols| RelView::over(cols)),
                                idb: None,
                            });
                            names.len() - 1
                        }
                    };
                    atoms.push((src, offset));
                    offset += scan.arity;
                }
                m.rules.push(Rule::new(sq, head, atoms, &m.sources));
            }
        }
        Ok(m)
    }

    /// The cluster IDB `slot`'s stored rows.
    fn rows(&self, slot: usize) -> RelView<'a> {
        self.sources[slot].rows
    }

    fn mark(&self, (slot, row): Fact) -> u8 {
        self.marks[slot][row as usize]
    }

    fn set(&mut self, (slot, row): Fact, mark: u8) {
        self.marks[slot][row as usize] |= mark;
    }

    /// The row id of `vals` in cluster IDB `slot`, if it is in `I`.
    fn find(&self, slot: usize, vals: &[Value]) -> Option<u32> {
        let src = &self.sources[slot];
        let index = src.idb.expect("cluster IDBs carry their index");
        probe(index, src.rows, index.key_cols(), vals).next()
    }

    /// Build the indexes plan `plan` of rule `r` looks up, once each.
    fn ensure(&mut self, r: usize, plan: usize) {
        for s in 0..self.rules[r].plans[plan].len() {
            let step = &self.rules[r].plans[plan][s];
            if !matches!(step.lookup, Lookup::Pending) {
                continue;
            }
            let src = self.rules[r].atoms[step.atom].0;
            let key = (src, step.key_cols.clone());
            let i = match self.by_key.get(&key) {
                Some(&i) => i,
                None => {
                    let source = &self.sources[src];
                    let build =
                        |view: RelView<'_>| PersistentIndex::build(self.ctx, view, key.1.clone());
                    self.builds += 1 + usize::from(source.gone.is_some());
                    self.built.push(Built {
                        rows: build(source.rows),
                        gone: source.gone.map(build),
                    });
                    self.by_key.insert(key, self.built.len() - 1);
                    self.built.len() - 1
                }
            };
            self.rules[r].plans[plan][s].lookup = Lookup::Index(i);
        }
    }

    /// Enumerate rule `r`'s instances under plan `plan`, seeded with
    /// `seed` (the head's values for plan 0, body atom `plan - 1`'s
    /// otherwise), reading `over`. `out` receives each instance's head,
    /// flattened row and other IDB facts, and returns whether to go on.
    fn each(&mut self, r: usize, plan: usize, seed: &[Value], over: Over, out: &mut Out<'_, 'a>) {
        self.ensure(r, plan);
        let mut s = std::mem::take(&mut self.scratch);
        let rule = &self.rules[r];
        s.vars.clear();
        s.vars.resize(rule.sq.width, 0);
        s.facts.clear();
        let seeded = if plan == 0 {
            rule.bind_head(seed, &mut s.vars)
        } else {
            let (_, offset) = rule.atoms[plan - 1];
            for (c, &v) in seed.iter().enumerate() {
                s.vars[rule.var_of[offset + c]] = v;
            }
            eval_all(&rule.sq.scans[plan - 1].filters, seed)
        };
        if seeded {
            self.descend(rule, &rule.plans[plan], over, &mut s, out);
        }
        self.scratch = s;
    }

    /// Match `steps[0]` and recurse; at the end, evaluate the residual
    /// and the head. Returns whether to go on. Recursion depth is the
    /// rule's body length.
    fn descend(
        &self,
        rule: &Rule<'a>,
        steps: &[Step],
        over: Over,
        s: &mut Scratch,
        out: &mut Out<'_, 'a>,
    ) -> bool {
        let Some((step, rest)) = steps.split_first() else {
            s.flat.clear();
            s.flat.extend(rule.var_of.iter().map(|&v| s.vars[v]));
            if !eval_all(&rule.sq.residual, &s.flat) {
                return true;
            }
            s.head.clear();
            s.head
                .extend(rule.sq.head_exprs.iter().map(|e| e.eval(&s.flat)));
            return out(self, &s.head, &s.flat, &s.facts);
        };
        let (slot, at) = rule.atoms[step.atom];
        let src = &self.sources[slot];
        let filters = &rule.sq.scans[step.atom].filters;
        // One candidate row `r` of `view` (row id `id` for IDB facts).
        let mut visit = |s: &mut Scratch, view: RelView<'_>, r: usize, id: u32| -> bool {
            if src.idb.is_some() {
                let mark = self.marks[slot][id as usize];
                let ok = match over {
                    Over::Propagate | Over::Backward => mark & DELETED == 0,
                    Over::Proved => mark & PROVED != 0,
                };
                if !ok {
                    return true;
                }
            }
            for &(c, v) in &step.binds {
                s.vars[v] = view.get(r, c);
            }
            if !filters.is_empty() {
                view.copy_row(r, &mut s.local);
                if !eval_all(filters, &s.local) {
                    return true;
                }
            }
            if src.idb.is_some() {
                s.facts.push(Body { slot, id, at });
            }
            let go_on = self.descend(rule, rest, over, s, out);
            if src.idb.is_some() {
                s.facts.pop();
            }
            go_on
        };
        let parts = [Some(src.rows), src.gone.filter(|_| over == Over::Propagate)];
        match step.lookup {
            Lookup::Full if over == Over::Backward => {
                s.local.clear();
                s.local.extend(step.key_vars.iter().map(|&v| s.vars[v]));
                if !eval_all(filters, &s.local) {
                    return true;
                }
                s.facts.push(Body {
                    slot,
                    id: UNRESOLVED,
                    at,
                });
                let go_on = self.descend(rule, rest, over, s, out);
                s.facts.pop();
                return go_on;
            }
            Lookup::Scan => {
                for view in parts.into_iter().flatten() {
                    for r in 0..view.len() {
                        if !visit(s, view, r, r as u32) {
                            return false;
                        }
                    }
                }
            }
            Lookup::Full | Lookup::Index(_) => {
                s.key.clear();
                s.key.extend(step.key_vars.iter().map(|&v| s.vars[v]));
                let key = std::mem::take(&mut s.key);
                let indexes = match step.lookup {
                    Lookup::Index(i) => [Some(&self.built[i].rows), self.built[i].gone.as_ref()],
                    _ => [src.idb, None],
                };
                let go_on = parts.into_iter().zip(indexes).all(|part| match part {
                    (Some(view), Some(index)) => probe(index, view, &step.key_cols, &key)
                        .all(|r| visit(s, view, r as usize, r)),
                    _ => true,
                });
                s.key = key;
                return go_on;
            }
            Lookup::Pending => unreachable!("plans are ensured before matching"),
        }
        true
    }
}

/// A match's consumer: head, flattened row, other IDB facts → go on?
type Out<'o, 'a> = dyn FnMut(&Matcher<'a>, &[Value], &[Value], &[Body]) -> bool + 'o;

/// Rows of `view` whose `cols` equal `key`, through `index` (built on
/// `cols` over `view`).
fn probe<'i>(
    index: &'i PersistentIndex,
    view: RelView<'i>,
    cols: &'i [usize],
    key: &'i [Value],
) -> impl Iterator<Item = u32> + 'i {
    let exact = index.mode().exact();
    // A packed layout covers every stored value: a key it cannot
    // represent matches nothing.
    let hash = index.mode().try_key_of_row(key);
    hash.into_iter()
        .flat_map(move |h| index.table().iter_key(h))
        .filter(move |&r| {
            exact
                || cols
                    .iter()
                    .zip(key)
                    .all(|(&c, &v)| view.get(r as usize, c) == v)
        })
}

impl<'a> Rule<'a> {
    fn new(
        sq: &'a SubQuery,
        head: usize,
        atoms: Vec<(usize, usize)>,
        sources: &[Source<'_>],
    ) -> Self {
        // Union-find over join keys: a variable per column class.
        let mut parent: Vec<usize> = (0..sq.width).collect();
        fn root(parent: &mut [usize], mut c: usize) -> usize {
            while parent[c] != c {
                parent[c] = parent[parent[c]];
                c = parent[c];
            }
            c
        }
        for (j, join) in sq.joins.iter().enumerate() {
            let (_, offset) = atoms[j + 1];
            for (&l, &r) in join.left_keys.iter().zip(&join.right_keys) {
                let (a, b) = (root(&mut parent, l), root(&mut parent, offset + r));
                parent[b] = a;
            }
        }
        let var_of: Vec<usize> = (0..sq.width).map(|c| root(&mut parent, c)).collect();
        let head_vars = sq
            .head_exprs
            .iter()
            .map(|e| match *e {
                Expr::Col(c) => Some(var_of[c]),
                _ => None,
            })
            .collect::<Vec<_>>();
        let mut rule = Rule {
            sq,
            head,
            atoms,
            var_of,
            head_vars,
            plans: Vec::new(),
        };
        let mut bound = vec![false; sq.width];
        for v in rule.head_vars.iter().flatten() {
            bound[*v] = true;
        }
        let head_plan = rule.plan(bound, None, sources);
        rule.plans.push(head_plan);
        for p in 0..rule.atoms.len() {
            let mut bound = vec![false; sq.width];
            let (_, offset) = rule.atoms[p];
            for c in 0..sq.scans[p].arity {
                bound[rule.var_of[offset + c]] = true;
            }
            let plan = rule.plan(bound, Some(p), sources);
            rule.plans.push(plan);
        }
        rule
    }

    /// Order the body atoms (all but `skip`) given the variables `bound`
    /// on entry: most bound columns first — a fully bound atom is a
    /// membership test — then the smaller relation.
    fn plan(&self, mut bound: Vec<bool>, skip: Option<usize>, sources: &[Source<'_>]) -> Vec<Step> {
        let mut left: Vec<usize> = (0..self.atoms.len()).filter(|&a| Some(a) != skip).collect();
        let mut steps = Vec::with_capacity(left.len());
        while !left.is_empty() {
            let score = |a: usize| {
                let (src, offset) = self.atoms[a];
                let arity = self.sq.scans[a].arity;
                let n = (0..arity)
                    .filter(|&c| bound[self.var_of[offset + c]])
                    .count();
                (n == arity, n, std::cmp::Reverse(sources[src].rows.len()))
            };
            let i = (0..left.len())
                .max_by_key(|&i| (score(left[i]), std::cmp::Reverse(i)))
                .expect("atoms left");
            let atom = left.remove(i);
            let (src, offset) = self.atoms[atom];
            let arity = self.sq.scans[atom].arity;
            let (mut key_cols, mut key_vars, mut binds) = (Vec::new(), Vec::new(), Vec::new());
            for c in 0..arity {
                let v = self.var_of[offset + c];
                if bound[v] {
                    key_cols.push(c);
                    key_vars.push(v);
                } else {
                    binds.push((c, v));
                }
            }
            let lookup = if key_cols.is_empty() {
                Lookup::Scan
            } else if key_cols.len() == arity && sources[src].idb.is_some() {
                Lookup::Full
            } else {
                Lookup::Pending
            };
            for &(_, v) in &binds {
                bound[v] = true;
            }
            steps.push(Step {
                atom,
                key_cols,
                key_vars,
                binds,
                lookup,
            });
        }
        steps
    }

    /// Bind the head's `Col` terms to `head`; false when two terms of one
    /// variable disagree. Other terms are checked on the computed head.
    fn bind_head(&self, head: &[Value], vars: &mut [Value]) -> bool {
        for (i, v) in self.head_vars.iter().enumerate() {
            let Some(v) = *v else { continue };
            if self.head_vars[..i].contains(&Some(v)) && vars[v] != head[i] {
                return false;
            }
            vars[v] = head[i];
        }
        true
    }
}

/// One fact under backward search: its children are `children[next..end]`.
/// Its own entries in both arenas start at `start` and `vals`.
struct Frame {
    fact: Fact,
    start: usize,
    next: usize,
    end: usize,
    vals: usize,
}

/// The B/F state of one refresh of one cluster.
pub(super) struct BackwardForward<'a> {
    m: Matcher<'a>,
    /// Per source: the `(rule, body atom)` positions reading it.
    uses: Vec<Vec<(usize, usize)>>,
    /// Deletion candidates.
    pending: Vec<Fact>,
    /// Per cluster IDB: the row ids in `D`.
    deleted: Vec<Vec<u32>>,
    /// Facts in `C ∖ (P ∪ D)` per `(IDB, row hash)`: saturation probes
    /// `I` only for heads that may be among them.
    open: FxHashMap<(usize, u64), u32>,
    /// `(IDB, row hash)` of every fact in `P`: an unresolved body fact is
    /// probed for being proved only on a hit.
    proved: FxHashSet<(usize, u64)>,
}

impl<'a> BackwardForward<'a> {
    pub(super) fn new(m: Matcher<'a>) -> Self {
        let mut uses = vec![Vec::new(); m.sources.len()];
        for (r, rule) in m.rules.iter().enumerate() {
            for (p, &(src, _)) in rule.atoms.iter().enumerate() {
                uses[src].push((r, p));
            }
        }
        let deleted = vec![Vec::new(); m.marks.len()];
        BackwardForward {
            m,
            uses,
            pending: Vec::new(),
            deleted,
            open: FxHashMap::default(),
            proved: FxHashSet::default(),
        }
    }

    /// Run B/F from the commit's deleted input rows; returns `D` per
    /// cluster IDB, as rows, and the number of lookup indexes built.
    pub(super) fn run(mut self) -> (Vec<Vec<Vec<Value>>>, usize) {
        let mut row = Vec::new();
        for src in 0..self.m.sources.len() {
            let Some(gone) = self.m.sources[src].gone else {
                continue;
            };
            for r in 0..gone.len() {
                gone.copy_row(r, &mut row);
                self.propagate(src, &row);
            }
        }
        while let Some(fact) = self.pending.pop() {
            if self.m.mark(fact) & DELETED != 0 {
                continue;
            }
            self.check(fact);
            if self.m.mark(fact) & PROVED == 0 {
                self.m.set(fact, DELETED);
                self.deleted[fact.0].push(fact.1);
                self.m.rows(fact.0).copy_row(fact.1 as usize, &mut row);
                self.close(fact.0, &row);
                self.propagate(fact.0, &row);
            }
        }
        let dead = self
            .deleted
            .iter()
            .enumerate()
            .map(|(slot, ids)| {
                let rows = self.m.rows(slot);
                ids.iter()
                    .map(|&r| {
                        let mut row = Vec::new();
                        rows.copy_row(r as usize, &mut row);
                        row
                    })
                    .collect()
            })
            .collect();
        (dead, self.m.builds)
    }

    /// Queue the heads in `I ∖ D` of every instance with `row` of source
    /// `src` at one of its body atoms.
    fn propagate(&mut self, src: usize, row: &[Value]) {
        let pending = &mut self.pending;
        for &(r, p) in &self.uses[src] {
            let head = self.m.rules[r].head;
            self.m
                .each(r, 1 + p, row, Over::Propagate, &mut |m, vals, _, _| {
                    if let Some(id) = m.find(head, vals) {
                        if m.mark((head, id)) & (PROVED | DELETED) == 0 {
                            pending.push((head, id));
                        }
                    }
                    true
                });
        }
    }

    /// Search `fact`'s proofs backward (see the module docs); on return
    /// it is in `C`, and in `P` iff it has a proof.
    fn check(&mut self, fact: Fact) {
        if self.m.mark(fact) & CHECKED != 0 {
            return;
        }
        let (mut children, mut vals, mut row) = (Vec::new(), Vec::new(), Vec::new());
        let mut stack: Vec<Frame> = Vec::new();
        let mut next = Some(fact);
        loop {
            if let Some(fact) = next.take() {
                self.m.set(fact, CHECKED);
                self.m.rows(fact.0).copy_row(fact.1 as usize, &mut row);
                *self.open.entry((fact.0, hash_row(&row))).or_default() += 1;
                let (start, at) = (children.len(), vals.len());
                if self.explore(fact.0, &row, &mut children, &mut vals) {
                    children.truncate(start);
                    vals.truncate(at);
                    self.prove(fact);
                } else {
                    stack.push(Frame {
                        fact,
                        start,
                        next: start,
                        end: children.len(),
                        vals: at,
                    });
                }
            }
            let Some(top) = stack.last_mut() else {
                return;
            };
            if top.next == top.end || self.m.mark(top.fact) & PROVED != 0 {
                children.truncate(top.start);
                vals.truncate(top.vals);
                stack.pop();
                continue;
            }
            let child = children[top.next];
            top.next += 1;
            let id = match child.id {
                UNRESOLVED => {
                    let arity = self.m.rows(child.slot).arity();
                    self.m.find(child.slot, &vals[child.at..child.at + arity])
                }
                id => Some(id),
            };
            next = id
                .map(|id| (child.slot, id))
                .filter(|&f| self.m.mark(f) & CHECKED == 0);
        }
    }

    /// Enumerate the instances over `I ∖ D` of cluster IDB `slot`'s fact
    /// `fact`: true when one has a proved body; else their body facts
    /// not known to be checked are appended to `children` (unresolved
    /// ones with their values in `vals`).
    fn explore(
        &mut self,
        slot: usize,
        fact: &[Value],
        children: &mut Vec<Body>,
        vals: &mut Vec<Value>,
    ) -> bool {
        let proved_keys = &self.proved;
        let is_proved = |m: &Matcher<'_>, b: &Body, flat: &[Value]| match b.id {
            UNRESOLVED => {
                let tuple = &flat[b.at..b.at + m.rows(b.slot).arity()];
                proved_keys.contains(&(b.slot, hash_row(tuple)))
                    && m.find(b.slot, tuple)
                        .is_some_and(|id| m.mark((b.slot, id)) & PROVED != 0)
            }
            id => m.mark((b.slot, id)) & PROVED != 0,
        };
        let mut proved = false;
        for r in 0..self.m.rules.len() {
            if self.m.rules[r].head != slot {
                continue;
            }
            self.m
                .each(r, 0, fact, Over::Backward, &mut |m, head, flat, body| {
                    if head != fact {
                        return true;
                    }
                    if body.iter().all(|b| is_proved(m, b, flat)) {
                        proved = true;
                        return false;
                    }
                    for b in body {
                        if b.id == UNRESOLVED {
                            let arity = m.rows(b.slot).arity();
                            children.push(Body {
                                slot: b.slot,
                                id: UNRESOLVED,
                                at: vals.len(),
                            });
                            vals.extend_from_slice(&flat[b.at..b.at + arity]);
                        } else if m.mark((b.slot, b.id)) & CHECKED == 0 {
                            children.push(Body {
                                slot: b.slot,
                                id: b.id,
                                at: 0,
                            });
                        }
                    }
                    true
                });
            if proved {
                return true;
            }
        }
        false
    }

    /// Add `fact` to `P` and saturate forward: every checked head of an
    /// instance whose body is proved is proved too.
    fn prove(&mut self, fact: Fact) {
        let mut queue = vec![fact];
        self.m.set(fact, PROVED);
        let mut row = Vec::new();
        while let Some((slot, id)) = queue.pop() {
            self.m.rows(slot).copy_row(id as usize, &mut row);
            self.close(slot, &row);
            self.proved.insert((slot, hash_row(&row)));
            for &(r, p) in &self.uses[slot] {
                let head = self.m.rules[r].head;
                let mut found = Vec::new();
                let open = &self.open;
                self.m
                    .each(r, 1 + p, &row, Over::Proved, &mut |m, vals, _, _| {
                        if !open.contains_key(&(head, hash_row(vals))) {
                            return true;
                        }
                        if let Some(h) = m.find(head, vals) {
                            if m.mark((head, h)) & (CHECKED | PROVED | DELETED) == CHECKED {
                                found.push((head, h));
                            }
                        }
                        true
                    });
                for h in found {
                    if self.m.mark(h) & PROVED == 0 {
                        self.m.set(h, PROVED);
                        queue.push(h);
                    }
                }
            }
        }
    }

    /// `vals`, a fact of cluster IDB `slot`, left `C ∖ (P ∪ D)`.
    fn close(&mut self, slot: usize, vals: &[Value]) {
        let key = (slot, hash_row(vals));
        if let Some(n) = self.open.get_mut(&key) {
            *n -= 1;
            if *n == 0 {
                self.open.remove(&key);
            }
        }
    }
}
