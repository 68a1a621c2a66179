//! Property test: freezing a manager and forking clones off the frozen
//! base is invisible to every result. One random operation sequence runs
//! on a manager that is never frozen and on a chain of managers that is
//! frozen and forked at random points; every result must denote the same
//! function in both, handles must stay canonical, and every handle issued
//! before a fork must stay valid in the forked-from manager and in all
//! its descendants.

use simcov_bdd::{Bdd, BddManager, Var};
use simcov_prng::{forall, Gen};

/// Variables in the order. Even levels play "current", odd levels "next"
/// for the rename step, as in an interleaved image computation.
const NVARS: u32 = 6;

/// One step of a random program. Operands index the result pool.
#[derive(Debug, Clone, Copy)]
enum Op {
    Var(u32),
    And(usize, usize),
    Or(usize, usize),
    Xor(usize, usize),
    Ite(usize, usize, usize),
    /// Quantify the variables whose bits are set in the mask.
    Exists(usize, u32),
    AndExists(usize, usize, u32),
    /// `∃ odd . f`, then rename every even level `2j` to `2j + 1`.
    Rename(usize),
    Compose(usize, u32, usize),
    /// Freeze the active manager (the plain one is left alone).
    Freeze,
    /// Clone the active manager and continue in the clone.
    Fork,
}

fn gen_op(g: &mut Gen, pool: usize) -> Op {
    let pick = |g: &mut Gen| g.int_in(0..pool);
    match g.int_in(0..11u8) {
        0 => Op::Var(g.int_in(0..NVARS)),
        1 => Op::And(pick(g), pick(g)),
        2 => Op::Or(pick(g), pick(g)),
        3 => Op::Xor(pick(g), pick(g)),
        4 => Op::Ite(pick(g), pick(g), pick(g)),
        5 => Op::Exists(pick(g), g.int_in(1..1 << NVARS)),
        6 => Op::AndExists(pick(g), pick(g), g.int_in(0..1 << NVARS)),
        7 => Op::Rename(pick(g)),
        8 => Op::Compose(pick(g), g.int_in(0..NVARS), pick(g)),
        9 => Op::Freeze,
        _ => Op::Fork,
    }
}

fn cube(m: &mut BddManager, mask: u32) -> Bdd {
    let vars: Vec<Var> = (0..NVARS).filter(|v| mask >> v & 1 == 1).map(Var).collect();
    m.cube_from_vars(&vars)
}

/// Applies a non-structural `op` to `m` over the pool `r` of that
/// manager's handles.
fn apply(m: &mut BddManager, op: Op, r: &[Bdd]) -> Bdd {
    match op {
        Op::Var(v) => m.var(v),
        Op::And(a, b) => m.and(r[a], r[b]),
        Op::Or(a, b) => m.or(r[a], r[b]),
        Op::Xor(a, b) => m.xor(r[a], r[b]),
        Op::Ite(a, b, c) => m.ite(r[a], r[b], r[c]),
        Op::Exists(a, mask) => {
            let c = cube(m, mask);
            m.exists(r[a], c)
        }
        Op::AndExists(a, b, mask) => {
            let c = cube(m, mask);
            m.and_exists(r[a], r[b], c)
        }
        Op::Rename(a) => {
            let odd = cube(m, 0b10_1010);
            let even_only = m.exists(r[a], odd);
            let map: Vec<(Var, Var)> = (0..NVARS / 2)
                .map(|j| (Var(2 * j), Var(2 * j + 1)))
                .collect();
            m.rename(even_only, &map)
        }
        Op::Compose(a, v, b) => m.compose(r[a], Var(v), r[b]),
        Op::Freeze | Op::Fork => unreachable!("structural op"),
    }
}

/// The function of `f` as a `2^NVARS`-bit truth table.
fn truth_table(m: &BddManager, f: Bdd) -> u64 {
    (0..1u64 << NVARS).fold(0, |tt, a| {
        let asg: Vec<bool> = (0..NVARS).map(|v| a >> v & 1 == 1).collect();
        tt | (m.eval(f, &asg) as u64) << a
    })
}

#[test]
fn freeze_and_fork_are_invisible_to_results() {
    forall("freeze_and_fork_are_invisible_to_results", |g: &mut Gen| {
        let mut plain = BddManager::new(NVARS);
        let mut active = BddManager::new(NVARS);
        // Managers forked from, oldest first. `issued[i]` is the number of
        // pool handles that existed when `retired[i]` was forked from, so
        // exactly those are valid in it.
        let mut retired: Vec<BddManager> = Vec::new();
        let mut issued: Vec<usize> = Vec::new();
        let mut p: Vec<Bdd> = vec![Bdd::FALSE, Bdd::TRUE];
        let mut f: Vec<Bdd> = p.clone();
        let mut tables: Vec<u64> = vec![0, u64::MAX];
        let steps = g.int_in(1..60usize);
        for _ in 0..steps {
            match gen_op(g, p.len()) {
                Op::Freeze => active.freeze(),
                Op::Fork => {
                    let fork = active.clone();
                    retired.push(std::mem::replace(&mut active, fork));
                    issued.push(f.len());
                }
                op => {
                    let pr = apply(&mut plain, op, &p);
                    let fr = apply(&mut active, op, &f);
                    let tt = truth_table(&plain, pr);
                    assert_eq!(truth_table(&active, fr), tt, "{op:?}");
                    assert_eq!(
                        active.sat_count(fr, NVARS),
                        plain.sat_count(pr, NVARS),
                        "{op:?}"
                    );
                    assert_eq!(plain.sat_count(pr, NVARS), tt.count_ones() as u128);
                    let asg: Vec<bool> = (0..NVARS).map(|_| g.bool()).collect();
                    assert_eq!(active.eval(fr, &asg), plain.eval(pr, &asg), "{op:?}");
                    p.push(pr);
                    f.push(fr);
                    tables.push(tt);
                }
            }
        }
        // Canonicity: in each manager, equal handles exactly when equal
        // functions — across freezes and forks too.
        for i in 0..tables.len() {
            for j in 0..tables.len() {
                let same = tables[i] == tables[j];
                assert_eq!(p[i] == p[j], same, "plain handles {i}, {j}");
                assert_eq!(f[i] == f[j], same, "forked handles {i}, {j}");
            }
        }
        // Validity: a handle issued before a fork still denotes its
        // function in the forked-from manager and in every later one.
        for (m, &valid) in retired.iter().zip(&issued) {
            for (h, &tt) in f[..valid].iter().zip(&tables) {
                assert_eq!(truth_table(m, *h), tt);
            }
        }
        for (h, &tt) in f.iter().zip(&tables) {
            assert_eq!(truth_table(&active, *h), tt);
        }
        assert_eq!(active.num_nodes(), plain.num_nodes());
    });
}

/// `∨_i (x_i ∧ y_i)` with every `x` ordered above every `y`: `2^n`-ish
/// nodes, the textbook worst order.
fn disjoint_pairs(m: &mut BddManager, n: u32) -> Bdd {
    let mut acc = Bdd::FALSE;
    for i in 0..n {
        let (x, y) = (m.var(i), m.var(n + i));
        let t = m.and(x, y);
        acc = m.or(acc, t);
    }
    acc
}

#[test]
fn maybe_gc_counts_frozen_nodes() {
    // Past 4 × 65,536 nodes, the first collection is due.
    let n = 18;
    let mut m = BddManager::new(2 * n);
    let f = disjoint_pairs(&mut m, n);
    assert!(m.num_nodes() >= 4 << 16, "{} nodes", m.num_nodes());
    m.freeze();
    let mut fork = m.clone();
    assert_eq!(fork.heap_bytes(), 0, "a fresh fork owns no nodes");
    assert_eq!(fork.num_nodes(), m.num_nodes());
    assert!(fork.maybe_gc(), "the fork's trigger counts the frozen base");
    assert_eq!(fork.runtime_stats().gc_collections, 1);
    assert!(!fork.maybe_gc(), "the floor moved to the current count");
    assert!(m.maybe_gc());
    // The collection dropped caches only: the function is intact.
    let g = disjoint_pairs(&mut fork, n);
    assert_eq!(f, g);
    assert_eq!(fork.heap_bytes(), 0, "rebuilding found every node frozen");
}
