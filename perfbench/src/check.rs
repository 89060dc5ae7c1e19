//! Output checks made apart from the code path under test.
//!
//! Every workload's outputs are compared, untimed, against fronts computed
//! another way: under other variable orders, through modular
//! decomposition, by the enumerating `naive` algorithm (Algorithm 2) or
//! the tree-only `bottom_up` (Algorithm 1). The Pareto-antichain check is
//! written here, not borrowed from the program.

use adt_analysis::{
    bdd_bu, bdd_bu_report, bottom_up, modular_bdd_bu, naive, naive_bitparallel, DefenseFirstOrder,
};
use adt_core::semiring::Ext;
use adt_core::{AugmentedAdt, MinCost, ParetoFront};

pub type CostAdt = AugmentedAdt<MinCost, MinCost>;
pub type Front = ParetoFront<Ext<u64>, Ext<u64>>;

/// Instances with at most this many basic steps are also checked against
/// `naive` on `dag-stream` (2^20 evaluations of the structure function).
pub const NAIVE_MAX_STEPS: usize = 20;

/// FORCE improvement rounds of the cross-check order.
const FORCE_ROUNDS: usize = 8;

/// A min-cost/min-cost front is a Pareto antichain exactly when, sorted by
/// defense cost, both coordinates strictly increase: a cheaper defense
/// that left the attack at least as expensive would dominate.
pub fn antichain(front: &Front) -> Result<(), String> {
    for pair in front.points().windows(2) {
        let ((d0, a0), (d1, a1)) = (&pair[0], &pair[1]);
        if !(d0 < d1 && a0 < a1) {
            return Err(format!("not a Pareto antichain at {pair:?}"));
        }
    }
    Ok(())
}

fn same(what: &str, got: &Front, want: &Front) -> Result<(), String> {
    if got.points() == want.points() {
        Ok(())
    } else {
        Err(format!("front {got} differs from {what} {want}"))
    }
}

/// `dag-stream`: the engine's front must not depend on the variable order
/// or on modular decomposition, must match `naive` on small instances, and
/// must be an antichain.
pub fn dag_front(t: &CostAdt, got: &Front) -> Result<(), String> {
    antichain(got)?;
    let adt = t.adt();
    same(
        "the DFS-order front",
        got,
        &bdd_bu_report(t, &DefenseFirstOrder::dfs(adt)).front,
    )?;
    same(
        "the FORCE-order front",
        got,
        &bdd_bu_report(t, &DefenseFirstOrder::force(adt, FORCE_ROUNDS)).front,
    )?;
    same(
        "the modular front",
        got,
        &modular_bdd_bu(t).map_err(|e| e.to_string())?,
    )?;
    if adt.attack_count() + adt.defense_count() <= NAIVE_MAX_STEPS {
        same(
            "the naive front",
            got,
            &naive_bitparallel(t).map_err(|e| e.to_string())?,
        )?;
    }
    Ok(())
}

/// `whatif-session`: an edit's front must equal a cold `bdd_bu` of the
/// tree the independent edit applier produced, and the reuse split must
/// cover the reachable set exactly.
pub fn edit(
    edited: &CostAdt,
    got: &Front,
    dirty_nodes: usize,
    reused: usize,
    bdd_nodes: usize,
) -> Result<(), String> {
    antichain(got)?;
    same(
        "the cold bdd_bu front",
        got,
        &bdd_bu(edited).map_err(|e| e.to_string())?,
    )?;
    if dirty_nodes + reused != bdd_nodes {
        return Err(format!(
            "dirty_nodes {dirty_nodes} + reused {reused} != bdd_nodes {bdd_nodes}"
        ));
    }
    Ok(())
}

/// The front of Algorithm 1 on trees and of Algorithm 2 on DAGs.
pub fn oracle(t: &CostAdt) -> Result<Front, String> {
    if t.adt().is_tree() {
        bottom_up(t)
    } else {
        naive(t)
    }
    .map_err(|e| e.to_string())
}

/// `served-hot`: a reply's front text must render the oracle's front.
pub fn served_reply(t: &CostAdt, reply: &str) -> Result<(), String> {
    let want = oracle(t)?;
    if reply == want.to_string() {
        Ok(())
    } else {
        Err(format!(
            "reply {reply} differs from the oracle front {want}"
        ))
    }
}

/// `store-restart`: a front must equal `naive`.
pub fn store_front(t: &CostAdt, got: &Front) -> Result<(), String> {
    antichain(got)?;
    same(
        "the naive front",
        got,
        &naive_bitparallel(t).map_err(|e| e.to_string())?,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use adt_analysis::AnalysisEngine;
    use adt_gen::{apply_edit, edit_script, paper_suite, EditScriptConfig, Shape};

    /// The front with its last point's attack cost raised by one.
    fn raised(front: &Front) -> Front {
        let mut points = front.points().to_vec();
        let last = points.last_mut().expect("nonempty front");
        last.1 = match last.1 {
            Ext::Fin(v) => Ext::Fin(v + 1),
            Ext::Inf => Ext::Fin(1),
        };
        ParetoFront::from_canonical_points(points)
    }

    /// The front with its first point repeated: no longer an antichain.
    fn doubled(front: &Front) -> Front {
        let mut points = front.points().to_vec();
        points.insert(0, points[0]);
        ParetoFront::from_canonical_points(points)
    }

    fn dags() -> Vec<CostAdt> {
        paper_suite(6, 30, Shape::Dag, 11)
            .into_iter()
            .map(|i| i.adt)
            .collect()
    }

    #[test]
    fn antichain_rejects_a_dominated_point() {
        let t = &dags()[0];
        let front = bdd_bu(t).unwrap();
        assert!(antichain(&front).is_ok());
        assert!(antichain(&doubled(&front)).is_err());
    }

    #[test]
    fn dag_check_rejects_perturbed_fronts() {
        let mut engine: AnalysisEngine<MinCost, MinCost> = AnalysisEngine::new();
        for t in dags() {
            let order = DefenseFirstOrder::declaration(t.adt());
            let front = engine.bdd_bu_report(&t, &order).front;
            assert_eq!(dag_front(&t, &front), Ok(()));
            assert!(dag_front(&t, &raised(&front)).is_err());
            assert!(dag_front(&t, &doubled(&front)).is_err());
        }
    }

    #[test]
    fn edit_check_rejects_perturbed_fronts_and_bad_splits() {
        let base = dags().swap_remove(3);
        let script = edit_script(&base, &EditScriptConfig::of_len(12), 5);
        let mut engine: AnalysisEngine<MinCost, MinCost> = AnalysisEngine::new();
        let mut session = engine.incremental_session(base.clone());
        let mut toggles = std::collections::HashMap::new();
        let mut tree = base;
        for op in &script {
            tree = apply_edit(&tree, &mut toggles, op).unwrap();
            let r = crate::whatif::apply(&mut session, &mut engine, op).unwrap();
            assert_eq!(
                edit(&tree, &r.front, r.dirty_nodes, r.reused, r.bdd_nodes),
                Ok(())
            );
            assert!(edit(
                &tree,
                &raised(&r.front),
                r.dirty_nodes,
                r.reused,
                r.bdd_nodes
            )
            .is_err());
            assert!(edit(&tree, &r.front, r.dirty_nodes + 1, r.reused, r.bdd_nodes).is_err());
        }
    }

    #[test]
    fn served_check_rejects_perturbed_replies() {
        for shape in [Shape::Tree, Shape::Dag] {
            for i in paper_suite(4, 30, shape, 3) {
                let front = bdd_bu(&i.adt).unwrap();
                assert_eq!(served_reply(&i.adt, &front.to_string()), Ok(()));
                assert!(served_reply(&i.adt, &raised(&front).to_string()).is_err());
            }
        }
    }

    #[test]
    fn store_check_rejects_perturbed_fronts() {
        for t in dags() {
            let front = bdd_bu(&t).unwrap();
            assert_eq!(store_front(&t, &front), Ok(()));
            assert!(store_front(&t, &raised(&front)).is_err());
        }
    }
}
