//! Property-based solver tests (ported from proptest to the in-tree
//! `aji-support` check harness): subset-edge propagation equals graph
//! reachability, regardless of the order in which tokens, edges and
//! constraints arrive.

use aji_ast::{FileId, Loc, NodeId};
use aji_pta::scopes::VarId;
use aji_pta::solver::{CellId, CellKind, Constraint, FuncIdx, Solver, Token, TokenData};
use aji_support::check::{property, TestCase};
use aji_support::{prop_assert, prop_assert_eq};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

#[derive(Debug, Clone)]
struct GraphCase {
    n_cells: usize,
    edges: Vec<(usize, usize)>,
    seeds: Vec<(usize, u32)>, // (cell, token line)
}

fn graph_case(tc: &mut TestCase) -> GraphCase {
    let n = tc.int_in(2usize..12);
    let edges = tc.vec_of(0..30, |t| (t.int_in(0..n), t.int_in(0..n)));
    let seeds = tc.vec_of(1..8, |t| (t.int_in(0..n), t.int_in(1u32..6)));
    GraphCase {
        n_cells: n,
        edges,
        seeds,
    }
}

/// Reference reachability: token t seeded at cell c reaches every cell
/// reachable from c through the edge graph.
fn reference(case: &GraphCase) -> HashMap<usize, BTreeSet<u32>> {
    let mut adj: HashMap<usize, Vec<usize>> = HashMap::new();
    for (a, b) in &case.edges {
        adj.entry(*a).or_default().push(*b);
    }
    let mut out: HashMap<usize, BTreeSet<u32>> = HashMap::new();
    for (start, tok) in &case.seeds {
        let mut seen = HashSet::new();
        let mut q = VecDeque::from([*start]);
        while let Some(c) = q.pop_front() {
            if !seen.insert(c) {
                continue;
            }
            out.entry(c).or_default().insert(*tok);
            for nxt in adj.get(&c).into_iter().flatten() {
                q.push_back(*nxt);
            }
        }
    }
    out
}

fn token_lines(s: &Solver, cell: CellId) -> BTreeSet<u32> {
    s.tokens_of(cell)
        .into_iter()
        .map(|t| match s.data(t) {
            TokenData::Obj(l) => l.line,
            _ => 0,
        })
        .collect()
}

#[test]
fn propagation_equals_reachability() {
    property("propagation_equals_reachability")
        .cases(256)
        .run(|tc| {
            let case = graph_case(tc);
            let mut s = Solver::new(vec![]);
            let cells: Vec<CellId> = (0..case.n_cells).map(|_| s.tmp()).collect();
            // Interleave seeding and edges to stress incremental
            // propagation.
            for (i, (a, b)) in case.edges.iter().enumerate() {
                if let Some((c, line)) = case.seeds.get(i % case.seeds.len()) {
                    let t = s.token(TokenData::Obj(Loc::new(FileId(0), *line, 1)));
                    s.add_token(cells[*c], t);
                }
                s.add_edge(cells[*a], cells[*b]);
            }
            for (c, line) in &case.seeds {
                let t = s.token(TokenData::Obj(Loc::new(FileId(0), *line, 1)));
                s.add_token(cells[*c], t);
            }
            s.solve();
            let expected = reference(&case);
            for (i, cell) in cells.iter().enumerate() {
                let got = token_lines(&s, *cell);
                let want = expected.get(&i).cloned().unwrap_or_default();
                prop_assert_eq!(got, want, "cell {} of case {:?}", i, case);
            }
            Ok(())
        });
}

#[test]
fn edge_order_is_irrelevant() {
    property("edge_order_is_irrelevant").cases(256).run(|tc| {
        let case = graph_case(tc);
        // Forward insertion order vs reverse must converge identically.
        let build = |edges: &[(usize, usize)]| {
            let mut s = Solver::new(vec![]);
            let cells: Vec<CellId> = (0..case.n_cells).map(|_| s.tmp()).collect();
            for (c, line) in &case.seeds {
                let t = s.token(TokenData::Obj(Loc::new(FileId(0), *line, 1)));
                s.add_token(cells[*c], t);
            }
            for (a, b) in edges {
                s.add_edge(cells[*a], cells[*b]);
            }
            s.solve();
            cells
                .iter()
                .map(|c| token_lines(&s, *c))
                .collect::<Vec<_>>()
        };
        let fwd = build(&case.edges);
        let mut rev = case.edges.clone();
        rev.reverse();
        let bwd = build(&rev);
        prop_assert_eq!(fwd, bwd, "case {:?}", case);
        Ok(())
    });
}

#[test]
fn store_then_load_is_identity() {
    property("store_then_load_is_identity")
        .cases(256)
        .run(|tc| {
            // Storing tokens into a field and loading it back yields the same
            // set, through an arbitrary chain of aliases.
            let lines: BTreeSet<u32> = tc
                .vec_of(1..6, |t| t.int_in(1u32..50))
                .into_iter()
                .collect();
            let mut s = Solver::new(vec![]);
            let obj_cell = s.tmp();
            let alias = s.tmp();
            let src = s.tmp();
            let dst = s.tmp();
            let obj = s.token(TokenData::Obj(Loc::new(FileId(0), 999, 1)));
            s.add_token(obj_cell, obj);
            s.add_edge(obj_cell, alias);
            let prop_sym = s.interner.intern("p");
            for l in &lines {
                let t = s.token(TokenData::Obj(Loc::new(FileId(0), *l, 1)));
                s.add_token(src, t);
            }
            s.add_constraint(
                obj_cell,
                Constraint::Store {
                    prop: prop_sym,
                    src,
                },
            );
            s.add_constraint(
                alias,
                Constraint::Load {
                    prop: prop_sym,
                    dst,
                },
            );
            s.solve();
            let got = token_lines(&s, dst);
            prop_assert_eq!(got, lines);
            Ok(())
        });
}

#[test]
fn proto_chain_load_sees_ancestors() {
    property("proto_chain_load_sees_ancestors")
        .cases(256)
        .run(|tc| {
            // A chain t0 -> t1 -> ... -> tn; a property stored on the root
            // is visible from the leaf, regardless of when links are
            // added.
            let depth = tc.int_in(1usize..6);
            let line = tc.int_in(1u32..40);
            let mut s = Solver::new(vec![]);
            let tokens: Vec<Token> = (0..=depth)
                .map(|i| s.token(TokenData::Obj(Loc::new(FileId(0), 100 + i as u32, 1))))
                .collect();
            let leaf_cell = s.tmp();
            let out = s.tmp();
            s.add_token(leaf_cell, tokens[0]);
            let m = s.interner.intern("m");
            // Register the read first (forces replay on link addition).
            s.add_constraint(leaf_cell, Constraint::Load { prop: m, dst: out });
            s.solve();
            // Store on the root.
            let v = s.token(TokenData::Obj(Loc::new(FileId(0), line, 1)));
            let root_field = {
                let root = tokens[depth];
                s.cell(aji_pta::solver::CellKind::Field(root, m))
            };
            s.add_token(root_field, v);
            // Now add the chain links bottom-up.
            for i in 0..depth {
                s.add_proto(tokens[i], tokens[i + 1]);
            }
            s.solve();
            let got = token_lines(&s, out);
            prop_assert!(got.contains(&line), "got {:?} (depth {})", got, depth);
            Ok(())
        });
}

/// `Expr` and `Var` cells live in dense id-indexed tables, the other kinds
/// in a hash map. Whatever the id sequence — repeats, gaps, ids far past
/// the current table length — `cell` and `cell_if_exists` must behave
/// exactly like one hashed `CellKind → CellId` map.
#[test]
fn dense_cell_tables_match_a_hashed_reference() {
    property("dense_cell_tables_match_a_hashed_reference")
        .cases(300)
        .run(|tc| {
            let mut s = Solver::new(vec!["index.js".into()]);
            let mut reference: HashMap<CellKind, CellId> = HashMap::new();
            let ops = tc.vec_of(1..60, |t| {
                // Mostly small ids (dense reuse), sometimes a jump far past
                // anything allocated so far.
                let id = if t.ratio(1, 5) {
                    t.int_in(1_000u32..200_000)
                } else {
                    t.int_in(0u32..40)
                };
                let kind = match t.int_in(0u8..3) {
                    0 => CellKind::Expr(NodeId(id)),
                    1 => CellKind::Var(VarId(id)),
                    _ => CellKind::Param(FuncIdx(id), 0),
                };
                (kind, t.bool())
            });
            for (kind, create) in ops {
                if create {
                    let next = CellId(reference.len() as u32);
                    let want = *reference.entry(kind).or_insert(next);
                    prop_assert_eq!(s.cell(kind), want);
                }
                prop_assert_eq!(s.cell_if_exists(kind), reference.get(&kind).copied());
            }
            prop_assert_eq!(s.stats.cells, reference.len());
            // Neighbours of every created id that were never created stay absent.
            for kind in reference.keys() {
                let next = match *kind {
                    CellKind::Expr(n) => CellKind::Expr(NodeId(n.0 + 1)),
                    CellKind::Var(v) => CellKind::Var(VarId(v.0 + 1)),
                    other => other,
                };
                prop_assert_eq!(s.cell_if_exists(next), reference.get(&next).copied());
            }
            Ok(())
        });
}
