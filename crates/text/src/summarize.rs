//! AlphaSum-style size-constrained table summarization (paper ref \[13\]).
//!
//! Hive's scheduled update reports compress activity tables ("who did
//! what, where") into at most `k` rows by generalizing cell values along
//! per-column **value lattices** (e.g. `session -> track -> conference ->
//! *`), "preserving maximal information while minimizing the footprint"
//! (paper §2.3). Three strategies are provided for experiment E3:
//!
//! * `Greedy` — repeatedly merge the pair of row groups with the least
//!   added information loss (the practical algorithm),
//! * `Exact` — exhaustive partition search (small inputs only; the
//!   quality ceiling),
//! * `RandomMerge` — seeded random merges (the floor).

use hive_rng::Rng;
use std::collections::HashMap;

/// A value hierarchy for one column: every value has a parent chain
/// terminating at the lattice root (displayed as `*`).
#[derive(Clone, Debug)]
pub struct ValueLattice {
    root: String,
    parent: HashMap<String, String>,
}

impl ValueLattice {
    /// Creates a lattice with the given root (conventionally `"*"`).
    pub fn new(root: impl Into<String>) -> Self {
        ValueLattice { root: root.into(), parent: HashMap::new() }
    }

    /// The root value.
    pub fn root(&self) -> &str {
        &self.root
    }

    /// Declares `child`'s parent. Unknown parents implicitly chain to the
    /// root when walked.
    pub fn add_child(&mut self, parent: impl Into<String>, child: impl Into<String>) {
        self.parent.insert(child.into(), parent.into());
    }

    /// The chain `v, parent(v), ..., root`.
    pub fn ancestors(&self, v: &str) -> Vec<String> {
        let mut chain = vec![v.to_string()];
        let mut cur = v.to_string();
        let mut guard = 0;
        while cur != self.root {
            let next = self
                .parent
                .get(&cur)
                .cloned()
                .unwrap_or_else(|| self.root.clone());
            chain.push(next.clone());
            cur = next;
            guard += 1;
            assert!(guard < 10_000, "cycle in value lattice at {v:?}");
        }
        chain
    }

    /// Depth of `v` below the root (root = 0). Allocation-free: the
    /// summarizer calls this in its innermost loop.
    pub fn depth(&self, v: &str) -> usize {
        let mut d = 0;
        let mut cur = v;
        let mut guard = 0;
        while cur != self.root {
            cur = self.parent.get(cur).map(String::as_str).unwrap_or(&self.root);
            d += 1;
            guard += 1;
            assert!(guard < 10_000, "cycle in value lattice at {v:?}");
        }
        d
    }

    /// Ancestor chain as borrowed slices (no cloning).
    fn ancestor_refs<'a>(&'a self, v: &'a str) -> Vec<&'a str> {
        let mut chain = vec![v];
        let mut cur = v;
        let mut guard = 0;
        while cur != self.root {
            cur = self.parent.get(cur).map(String::as_str).unwrap_or(&self.root);
            chain.push(cur);
            guard += 1;
            assert!(guard < 10_000, "cycle in value lattice at {v:?}");
        }
        chain
    }

    /// Least common ancestor of two values.
    pub fn lca(&self, a: &str, b: &str) -> String {
        let aa = self.ancestor_refs(a);
        let bb = self.ancestor_refs(b);
        for x in &aa {
            if bb.contains(x) {
                return (*x).to_string();
            }
        }
        self.root.clone()
    }

    /// Information cost of generalizing `v` up to its ancestor `g`:
    /// lost depth normalized by `v`'s depth (0 = no change, 1 = to root).
    pub fn generalization_cost(&self, v: &str, g: &str) -> f64 {
        let dv = self.depth(v);
        if dv == 0 {
            return 0.0;
        }
        let dg = self.depth(g);
        (dv.saturating_sub(dg)) as f64 / dv as f64
    }
}

/// A categorical table with one value lattice per column.
#[derive(Clone, Debug)]
pub struct Table {
    /// Column names.
    pub columns: Vec<String>,
    /// Per-column value lattices (same arity as `columns`).
    pub lattices: Vec<ValueLattice>,
    /// Data rows (each with `columns.len()` values).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(columns: Vec<String>, lattices: Vec<ValueLattice>) -> Self {
        assert_eq!(columns.len(), lattices.len(), "one lattice per column");
        Table { columns, lattices, rows: Vec::new() }
    }

    /// Appends a row.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(row);
    }
}

/// Summarization strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Greedy cheapest-pair merging (default).
    Greedy,
    /// Exhaustive partition search; panics if the table has more than 10
    /// distinct rows (quality ceiling for experiments).
    Exact,
    /// Seeded random merging (quality floor for experiments).
    RandomMerge(u64),
}

/// Summarization parameters.
#[derive(Clone, Copy, Debug)]
pub struct SummaryConfig {
    /// Maximum rows in the summary.
    pub max_rows: usize,
    /// Strategy to use.
    pub strategy: Strategy,
}

/// A summarized table.
#[derive(Clone, Debug)]
pub struct TableSummary {
    /// Generalized rows with the number of original rows each covers.
    pub rows: Vec<(Vec<String>, usize)>,
    /// Total information loss (sum of per-cell generalization costs).
    pub loss: f64,
    /// `1 - loss / worst_loss`, in `[0, 1]`; 1 means lossless.
    pub retained: f64,
}

/// A column lattice compiled to integer ids: parent/depth arrays over
/// every value reachable from the table's rows. All hot-path operations
/// (LCA, generalization cost) become small integer walks.
struct CompiledColumn {
    ids: HashMap<String, u32>,
    names: Vec<String>,
    parent: Vec<u32>,
    depth: Vec<u32>,
    root: u32,
}

impl CompiledColumn {
    fn compile(lattice: &ValueLattice, values: impl Iterator<Item = String>) -> Self {
        let mut col = CompiledColumn {
            ids: HashMap::new(),
            names: Vec::new(),
            parent: Vec::new(),
            depth: Vec::new(),
            root: 0,
        };
        // Root first so it always has id 0 / depth 0 / parent self.
        col.intern_chain(lattice, lattice.root());
        for v in values {
            col.intern_chain(lattice, &v);
        }
        col
    }

    /// Interns `v` and its whole ancestor chain; returns `v`'s id.
    fn intern_chain(&mut self, lattice: &ValueLattice, v: &str) -> u32 {
        if let Some(&id) = self.ids.get(v) {
            return id;
        }
        let chain = lattice.ancestors(v); // v .. root
        let mut parent_id = None;
        for name in chain.into_iter().rev() {
            let next_id = match self.ids.get(&name) {
                Some(&id) => id,
                None => {
                    let id = self.names.len() as u32;
                    self.ids.insert(name.clone(), id);
                    self.names.push(name);
                    let p = parent_id.unwrap_or(id); // root points at itself
                    self.parent.push(p);
                    let d = if p == id { 0 } else { self.depth[p as usize] + 1 };
                    self.depth.push(d);
                    id
                }
            };
            parent_id = Some(next_id);
        }
        // `chain` always yields at least the root, so this is Some; fall
        // back to the root id 0 rather than panicking.
        parent_id.unwrap_or(0)
    }

    fn lca(&self, mut a: u32, mut b: u32) -> u32 {
        while self.depth[a as usize] > self.depth[b as usize] {
            a = self.parent[a as usize];
        }
        while self.depth[b as usize] > self.depth[a as usize] {
            b = self.parent[b as usize];
        }
        while a != b {
            a = self.parent[a as usize];
            b = self.parent[b as usize];
        }
        a
    }

    /// Cost of generalizing `v` up to its ancestor `g`.
    fn cost(&self, v: u32, g: u32) -> f64 {
        let dv = self.depth[v as usize];
        if dv == 0 {
            return 0.0;
        }
        let dg = self.depth[g as usize];
        dv.saturating_sub(dg) as f64 / dv as f64
    }
}

/// The whole table compiled to integer tuples.
struct Compiled {
    columns: Vec<CompiledColumn>,
    rows: Vec<Vec<u32>>,
}

impl Compiled {
    fn compile(table: &Table) -> Self {
        let columns: Vec<CompiledColumn> = table
            .lattices
            .iter()
            .enumerate()
            .map(|(c, lat)| {
                CompiledColumn::compile(lat, table.rows.iter().map(|r| r[c].clone()))
            })
            .collect();
        let rows: Vec<Vec<u32>> = table
            .rows
            .iter()
            .map(|r| {
                r.iter()
                    .enumerate()
                    .map(|(c, v)| columns[c].ids[v])
                    .collect()
            })
            .collect();
        Compiled { columns, rows }
    }

    fn group_loss(&self, g: &Group) -> f64 {
        g.members
            .iter()
            .map(|&ri| {
                self.columns
                    .iter()
                    .enumerate()
                    .map(|(c, col)| col.cost(self.rows[ri][c], g.tuple[c]))
                    .sum::<f64>()
            })
            .sum()
    }

    /// The additive loss statistics for a member set.
    fn stats_for(&self, members: &[usize]) -> GroupStats {
        let mut n_pos = vec![0u32; self.columns.len()];
        let mut s_inv = vec![0f64; self.columns.len()];
        for &ri in members {
            for (c, col) in self.columns.iter().enumerate() {
                let d = col.depth[self.rows[ri][c] as usize];
                if d > 0 {
                    n_pos[c] += 1;
                    s_inv[c] += 1.0 / d as f64;
                }
            }
        }
        GroupStats { n_pos, s_inv }
    }

    /// Group loss from the cached stats — algebraically equal to
    /// [`Compiled::group_loss`] (the member-by-member recompute), but
    /// O(columns). Float association differs, so [`Compiled::finish`]
    /// reports the exact recompute.
    fn cached_loss(&self, g: &Group) -> f64 {
        self.columns
            .iter()
            .enumerate()
            .map(|(c, col)| {
                g.stats.n_pos[c] as f64
                    - col.depth[g.tuple[c] as usize] as f64 * g.stats.s_inv[c]
            })
            .sum()
    }

    /// Loss the merge of `a` and `b` would have, priced from the cached
    /// stats in O(columns) — no merged group is materialized and no
    /// member list is walked.
    fn merged_loss(&self, a: &Group, b: &Group) -> f64 {
        self.columns
            .iter()
            .enumerate()
            .map(|(c, col)| {
                let t = col.lca(a.tuple[c], b.tuple[c]);
                let n_pos = (a.stats.n_pos[c] + b.stats.n_pos[c]) as f64;
                let s_inv = a.stats.s_inv[c] + b.stats.s_inv[c];
                n_pos - col.depth[t as usize] as f64 * s_inv
            })
            .sum()
    }

    fn merge_groups(&self, a: &Group, b: &Group) -> Group {
        let tuple: Vec<u32> = self
            .columns
            .iter()
            .enumerate()
            .map(|(c, col)| col.lca(a.tuple[c], b.tuple[c]))
            .collect();
        let mut members = a.members.clone();
        members.extend_from_slice(&b.members);
        let stats = GroupStats {
            n_pos: a.stats.n_pos.iter().zip(&b.stats.n_pos).map(|(x, y)| x + y).collect(),
            s_inv: a.stats.s_inv.iter().zip(&b.stats.s_inv).map(|(x, y)| x + y).collect(),
        };
        Group { tuple, members, stats }
    }

    fn initial_groups(&self) -> Vec<Group> {
        let mut by_tuple: HashMap<Vec<u32>, Vec<usize>> = HashMap::new();
        for (i, row) in self.rows.iter().enumerate() {
            by_tuple.entry(row.clone()).or_default().push(i);
        }
        let mut groups: Vec<Group> = by_tuple
            .into_iter()
            .map(|(tuple, members)| {
                let stats = self.stats_for(&members);
                Group { tuple, members, stats }
            })
            .collect();
        groups.sort_by(|a, b| a.tuple.cmp(&b.tuple));
        groups
    }

    fn worst_loss(&self) -> f64 {
        self.rows
            .iter()
            .map(|row| {
                row.iter()
                    .zip(&self.columns)
                    .map(|(&v, col)| col.cost(v, col.root))
                    .sum::<f64>()
            })
            .sum()
    }

    fn finish(&self, groups: Vec<Group>) -> TableSummary {
        let loss: f64 = groups.iter().map(|g| self.group_loss(g)).sum();
        let worst = self.worst_loss();
        let retained = if worst == 0.0 { 1.0 } else { (1.0 - loss / worst).clamp(0.0, 1.0) };
        let mut rows: Vec<(Vec<String>, usize)> = groups
            .into_iter()
            .map(|g| {
                let tuple: Vec<String> = g
                    .tuple
                    .iter()
                    .zip(&self.columns)
                    .map(|(&id, col)| col.names[id as usize].clone())
                    .collect();
                (tuple, g.members.len())
            })
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        TableSummary { rows, loss, retained }
    }
}

/// One group during merging: generalized (interned) tuple + covered rows
/// + cached loss statistics.
#[derive(Clone, Debug)]
struct Group {
    tuple: Vec<u32>,
    members: Vec<usize>,
    stats: GroupStats,
}

/// Per-column marginal-loss statistics for a group, **additive under
/// merge**: `n_pos[c]` counts members whose column-`c` value has
/// positive depth, `s_inv[c]` sums `1/depth` over them. A group's loss
/// under tuple `t` is then `Σ_c (n_pos[c] − depth(t[c]) · s_inv[c])`
/// (each member cell costs `1 − depth(t)/depth(v)`), so candidate
/// merges are priced per column instead of per member — the fix for
/// greedy's superlinear blowup as groups grow.
#[derive(Clone, Debug)]
struct GroupStats {
    n_pos: Vec<u32>,
    s_inv: Vec<f64>,
}

/// Summarizes `table` down to at most `cfg.max_rows` rows. A zero-row
/// budget keeps nothing of a non-empty table: no rows, the worst loss,
/// nothing retained.
pub fn summarize_table(table: &Table, cfg: SummaryConfig) -> TableSummary {
    let compiled = Compiled::compile(table);
    let groups = compiled.initial_groups();
    if groups.len() <= cfg.max_rows {
        return compiled.finish(groups);
    }
    if cfg.max_rows == 0 {
        return TableSummary { rows: Vec::new(), loss: compiled.worst_loss(), retained: 0.0 };
    }
    match cfg.strategy {
        Strategy::Greedy => greedy(&compiled, groups, cfg.max_rows),
        Strategy::Exact => exact(&compiled, groups, cfg.max_rows),
        Strategy::RandomMerge(seed) => random_merge(&compiled, groups, cfg.max_rows, seed),
    }
}

/// Heap entry ordered by ascending added loss (min-heap via reversal).
struct MergeCandidate {
    added: f64,
    a: usize,
    b: usize,
}

impl PartialEq for MergeCandidate {
    fn eq(&self, other: &Self) -> bool {
        self.added == other.added && self.a == other.a && self.b == other.b
    }
}
impl Eq for MergeCandidate {}
impl PartialOrd for MergeCandidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MergeCandidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the cheapest merge.
        other
            .added
            .total_cmp(&self.added)
            .then_with(|| (other.a, other.b).cmp(&(self.a, self.b)))
    }
}

/// Greedy cheapest-pair merging with a lazy-invalidation heap.
///
/// Groups are immutable once created; a merge retires both inputs and
/// appends a new group, so a heap entry is stale exactly when one of its
/// endpoints is retired — no cost revalidation needed. Candidate merges
/// are priced from each group's cached [`GroupStats`] in O(columns),
/// independent of how many rows the groups have absorbed, so total work
/// is O(G^2 log G · C) regardless of group size — previously each pair
/// walked the (growing) member lists, which went superlinear in the row
/// count.
fn greedy(compiled: &Compiled, groups: Vec<Group>, k: usize) -> TableSummary {
    use std::collections::BinaryHeap;
    let mut slots: Vec<Option<Group>> = groups.into_iter().map(Some).collect();
    let mut losses: Vec<f64> = slots
        .iter()
        .flatten()
        .map(|g| compiled.cached_loss(g))
        .collect();
    let mut alive = slots.len();
    let mut heap = BinaryHeap::new();
    let push_pairs = |heap: &mut BinaryHeap<MergeCandidate>,
                      slots: &[Option<Group>],
                      losses: &[f64],
                      idx: usize| {
        let Some(g) = slots[idx].as_ref() else { return };
        for (j, other) in slots.iter().enumerate() {
            if j == idx {
                continue;
            }
            let Some(o) = other.as_ref() else { continue };
            let added = compiled.merged_loss(g, o) - losses[idx] - losses[j];
            let (a, b) = if idx < j { (idx, j) } else { (j, idx) };
            heap.push(MergeCandidate { added, a, b });
        }
    };
    for i in 0..slots.len() {
        let Some(gi) = slots[i].as_ref() else { continue };
        for j in (i + 1)..slots.len() {
            let Some(gj) = slots[j].as_ref() else { continue };
            let added = compiled.merged_loss(gi, gj) - losses[i] - losses[j];
            heap.push(MergeCandidate { added, a: i, b: j });
        }
    }
    while alive > k {
        let Some(cand) = heap.pop() else {
            break; // no mergeable pair left (can't happen while alive > k)
        };
        if slots[cand.a].is_none() || slots[cand.b].is_none() {
            continue; // stale: an endpoint was already merged away
        }
        let (Some(ga), Some(gb)) = (slots[cand.a].take(), slots[cand.b].take()) else {
            continue; // unreachable given the check above
        };
        let merged = compiled.merge_groups(&ga, &gb);
        let new_loss = compiled.cached_loss(&merged);
        slots.push(Some(merged));
        losses.push(new_loss);
        alive -= 1;
        let new_idx = slots.len() - 1;
        push_pairs(&mut heap, &slots, &losses, new_idx);
    }
    compiled.finish(slots.into_iter().flatten().collect())
}

fn random_merge(compiled: &Compiled, mut groups: Vec<Group>, k: usize, seed: u64) -> TableSummary {
    let mut rng = Rng::seed_from_u64(seed);
    while groups.len() > k {
        let i = rng.gen_range(0..groups.len());
        let mut j = rng.gen_range(0..groups.len() - 1);
        if j >= i {
            j += 1;
        }
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        let merged = compiled.merge_groups(&groups[lo], &groups[hi]);
        groups.remove(hi);
        groups.remove(lo);
        groups.push(merged);
    }
    compiled.finish(groups)
}

fn exact(compiled: &Compiled, groups: Vec<Group>, k: usize) -> TableSummary {
    assert!(
        groups.len() <= 10,
        "Exact strategy is exponential; {} distinct rows exceeds the cap of 10",
        groups.len()
    );
    // Enumerate all partitions of `groups` into at most k blocks
    // (restricted growth strings) and keep the cheapest.
    let n = groups.len();
    let mut assignment = vec![0usize; n];
    let mut best: Option<(f64, Vec<usize>)> = None;
    fn partition_loss(
        compiled: &Compiled,
        groups: &[Group],
        assignment: &[usize],
    ) -> (f64, Vec<Group>) {
        let mut merged: HashMap<usize, Group> = HashMap::new();
        for (g, &b) in groups.iter().zip(assignment.iter()) {
            match merged.remove(&b) {
                Some(existing) => {
                    merged.insert(b, compiled.merge_groups(&existing, g));
                }
                None => {
                    merged.insert(b, g.clone());
                }
            }
        }
        // lint:allow(determinism-taint) -- sorted by tuple on the next line
        let mut out: Vec<Group> = merged.into_values().collect();
        out.sort_by(|a, b| a.tuple.cmp(&b.tuple));
        // Loss is summed over the *sorted* groups: f64 addition is
        // order-sensitive, and HashMap value order would make equal
        // partitions disagree in the last ulp.
        let loss = out.iter().map(|g| compiled.group_loss(g)).sum();
        (loss, out)
    }
    #[allow(clippy::too_many_arguments)]
    fn rec(
        idx: usize,
        blocks: usize,
        k: usize,
        n: usize,
        assignment: &mut Vec<usize>,
        best: &mut Option<(f64, Vec<usize>)>,
        compiled: &Compiled,
        groups: &[Group],
    ) {
        if idx == n {
            let (loss, _) = partition_loss(compiled, groups, assignment);
            if best.as_ref().is_none_or(|(b, _)| loss < *b) {
                *best = Some((loss, assignment.clone()));
            }
            return;
        }
        for b in 0..blocks.min(k) {
            assignment[idx] = b;
            rec(idx + 1, blocks, k, n, assignment, best, compiled, groups);
        }
        if blocks < k {
            assignment[idx] = blocks;
            rec(idx + 1, blocks + 1, k, n, assignment, best, compiled, groups);
        }
    }
    rec(0, 0, k, n, &mut assignment, &mut best, compiled, &groups);
    let Some((_, assignment)) = best else {
        // n >= 1 guarantees at least one partition; empty input returns
        // an empty summary.
        return compiled.finish(Vec::new());
    };
    let (_, out) = partition_loss(compiled, &groups, &assignment);
    compiled.finish(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// session -> track -> *; action flat under *.
    fn activity_table() -> Table {
        let mut loc = ValueLattice::new("*");
        loc.add_child("*", "graphs-track");
        loc.add_child("*", "ml-track");
        loc.add_child("graphs-track", "session-g1");
        loc.add_child("graphs-track", "session-g2");
        loc.add_child("ml-track", "session-m1");
        let mut act = ValueLattice::new("*");
        for a in ["checkin", "question", "answer"] {
            act.add_child("*", a);
        }
        let mut t = Table::new(
            vec!["where".into(), "what".into()],
            vec![loc, act],
        );
        t.push_row(vec!["session-g1".into(), "checkin".into()]);
        t.push_row(vec!["session-g2".into(), "checkin".into()]);
        t.push_row(vec!["session-g1".into(), "question".into()]);
        t.push_row(vec!["session-m1".into(), "checkin".into()]);
        t.push_row(vec!["session-m1".into(), "answer".into()]);
        t
    }

    #[test]
    fn lattice_basics() {
        let mut l = ValueLattice::new("*");
        l.add_child("*", "track");
        l.add_child("track", "session");
        assert_eq!(l.ancestors("session"), vec!["session", "track", "*"]);
        assert_eq!(l.depth("session"), 2);
        assert_eq!(l.depth("*"), 0);
        assert_eq!(l.lca("session", "track"), "track");
        assert_eq!(l.lca("session", "session"), "session");
        assert!((l.generalization_cost("session", "track") - 0.5).abs() < 1e-12);
        assert!((l.generalization_cost("session", "*") - 1.0).abs() < 1e-12);
        assert_eq!(l.generalization_cost("*", "*"), 0.0);
    }

    #[test]
    fn unknown_values_chain_to_root() {
        let l = ValueLattice::new("*");
        assert_eq!(l.ancestors("mystery"), vec!["mystery", "*"]);
        assert_eq!(l.depth("mystery"), 1);
    }

    #[test]
    fn no_summary_needed_is_lossless() {
        let t = activity_table();
        let s = summarize_table(
            &t,
            SummaryConfig { max_rows: 10, strategy: Strategy::Greedy },
        );
        assert_eq!(s.rows.len(), 5);
        assert_eq!(s.loss, 0.0);
        assert_eq!(s.retained, 1.0);
    }

    #[test]
    fn greedy_respects_budget_and_generalizes_sensibly() {
        let t = activity_table();
        let s = summarize_table(
            &t,
            SummaryConfig { max_rows: 3, strategy: Strategy::Greedy },
        );
        assert!(s.rows.len() <= 3);
        let total: usize = s.rows.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 5, "every original row is covered exactly once");
        assert!(s.retained > 0.0 && s.retained < 1.0);
        // The two graphs-track check-ins should merge to track level.
        assert!(
            s.rows.iter().any(|(tuple, _)| tuple[0] == "graphs-track"),
            "expected a graphs-track generalization in {:?}",
            s.rows
        );
    }

    #[test]
    fn exact_is_at_least_as_good_as_greedy_and_better_than_random() {
        let t = activity_table();
        let k = 2;
        let exact = summarize_table(&t, SummaryConfig { max_rows: k, strategy: Strategy::Exact });
        let greedy = summarize_table(&t, SummaryConfig { max_rows: k, strategy: Strategy::Greedy });
        assert!(exact.loss <= greedy.loss + 1e-9);
        // Random is a floor on average; check over several seeds.
        let mut worse = 0;
        for seed in 0..10 {
            let rnd = summarize_table(
                &t,
                SummaryConfig { max_rows: k, strategy: Strategy::RandomMerge(seed) },
            );
            if rnd.loss >= exact.loss - 1e-9 {
                worse += 1;
            }
        }
        assert!(worse >= 8, "random should rarely beat exact, worse={worse}");
    }

    #[test]
    fn single_row_budget_generalizes_everything() {
        let t = activity_table();
        let s = summarize_table(
            &t,
            SummaryConfig { max_rows: 1, strategy: Strategy::Greedy },
        );
        assert_eq!(s.rows.len(), 1);
        assert_eq!(s.rows[0].1, 5);
    }

    #[test]
    fn cached_loss_matches_member_recompute_across_merges() {
        let mut t = activity_table();
        // Extra rows so merged groups accumulate members at mixed depths.
        t.push_row(vec!["session-g2".into(), "question".into()]);
        t.push_row(vec!["graphs-track".into(), "answer".into()]);
        t.push_row(vec!["*".into(), "checkin".into()]);
        let compiled = Compiled::compile(&t);
        let mut groups = compiled.initial_groups();
        while groups.len() > 1 {
            for g in &groups {
                let cached = compiled.cached_loss(g);
                let exact = compiled.group_loss(g);
                assert!(
                    (cached - exact).abs() < 1e-9,
                    "cached {cached} != recomputed {exact} for {:?}",
                    g.tuple
                );
            }
            let (a, b) = (groups.remove(0), groups.remove(0));
            let predicted = compiled.merged_loss(&a, &b);
            let merged = compiled.merge_groups(&a, &b);
            assert!((predicted - compiled.group_loss(&merged)).abs() < 1e-9);
            groups.push(merged);
        }
    }

    #[test]
    fn duplicate_rows_group_without_loss() {
        let mut t = activity_table();
        t.push_row(vec!["session-g1".into(), "checkin".into()]);
        let s = summarize_table(
            &t,
            SummaryConfig { max_rows: 5, strategy: Strategy::Greedy },
        );
        assert_eq!(s.rows.len(), 5);
        assert_eq!(s.loss, 0.0);
        assert!(s.rows.iter().any(|(_, c)| *c == 2));
    }
}
