//! Synthetic program-analysis inputs (paper §6.2).
//!
//! * **Andersen's analysis**: the paper generates seven datasets "ranging
//!   from small size to large size based on the characteristics of a tiny
//!   real dataset", with the number of variables growing from 1 to 7. We
//!   reproduce that recipe: a variable universe with a handful of hub
//!   variables (pointer-heavy globals), and `addressOf`/`assign`/`load`/
//!   `store` edges at fixed per-variable ratios.
//! * **CSPA** (linux / postgresql / httpd stand-ins): `assign` and
//!   `dereference` edges arranged in function-local clusters with sparse
//!   cross-cluster assigns — few fixpoint iterations with large non-linear
//!   intermediates, the regime the paper reports for CSPA.
//! * **CSDA** stand-ins: long def-use chains (`arc`) seeded with
//!   `nullEdge` facts — ~chain-length iterations with tiny deltas, the
//!   regime where per-iteration overhead dominates (the one workload where
//!   the paper's RecStep loses).

use rand::{Rng, SeedableRng};
use recstep_common::Value;

/// Input relations for one Andersen run.
#[derive(Clone, Debug, Default)]
pub struct AndersenInput {
    /// `addressOf(y, x)`: y = &x.
    pub address_of: Vec<(Value, Value)>,
    /// `assign(y, z)`: y = z.
    pub assign: Vec<(Value, Value)>,
    /// `load(y, x)`: y = *x.
    pub load: Vec<(Value, Value)>,
    /// `store(y, x)`: *y = x.
    pub store: Vec<(Value, Value)>,
}

impl AndersenInput {
    /// Total input tuples.
    pub fn len(&self) -> usize {
        self.address_of.len() + self.assign.len() + self.load.len() + self.store.len()
    }

    /// True if no tuples were generated.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Generate an Andersen input over `vars` variables.
///
/// Ratios follow pointer-intensive C code: ~0.4 `addressOf`, ~0.8 `assign`,
/// ~0.25 `load`, ~0.2 `store` per variable; 2% of variables are hubs that
/// attract a fifth of all edge endpoints (globals / frequently-aliased
/// pointers), which is what makes the points-to sets grow.
pub fn andersen(vars: u32, seed: u64) -> AndersenInput {
    let vars = vars.max(4);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let hubs = (vars / 50).max(1);
    let pick = |rng: &mut rand::rngs::StdRng| -> Value {
        if rng.gen_bool(0.2) {
            rng.gen_range(0..hubs) as Value
        } else {
            rng.gen_range(0..vars) as Value
        }
    };
    let pairs = |rng: &mut rand::rngs::StdRng, m: usize| -> Vec<(Value, Value)> {
        (0..m).map(|_| (pick(rng), pick(rng))).collect()
    };
    let v = vars as usize;
    AndersenInput {
        address_of: pairs(&mut rng, v * 2 / 5),
        assign: pairs(&mut rng, v * 4 / 5),
        load: pairs(&mut rng, v / 4),
        store: pairs(&mut rng, v / 5),
    }
}

/// Input relations for one CSPA run.
#[derive(Clone, Debug, Default)]
pub struct CspaInput {
    /// `assign(x, y)`.
    pub assign: Vec<(Value, Value)>,
    /// `dereference(x, y)`.
    pub dereference: Vec<(Value, Value)>,
}

/// Generate a CSPA input: `clusters` function-local variable groups of size
/// `cluster_size`, dense assigns inside a cluster, sparse cross-cluster
/// assigns, plus dereference edges.
pub fn cspa(clusters: u32, cluster_size: u32, seed: u64) -> CspaInput {
    let clusters = clusters.max(1);
    let cluster_size = cluster_size.max(2);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n = clusters as u64 * cluster_size as u64;
    let mut assign = Vec::new();
    let mut dereference = Vec::new();
    for c in 0..clusters as u64 {
        let base = c * cluster_size as u64;
        // Local assign chain with shortcuts: value flow within the function.
        for i in 0..cluster_size as u64 - 1 {
            assign.push(((base + i) as Value, (base + i + 1) as Value));
            if rng.gen_bool(0.3) {
                let j = rng.gen_range(0..cluster_size as u64);
                assign.push(((base + i) as Value, (base + j) as Value));
            }
        }
        // Dereference pairs inside the cluster (pointer / pointee).
        for _ in 0..cluster_size / 3 {
            let a = base + rng.gen_range(0..cluster_size as u64);
            let b = base + rng.gen_range(0..cluster_size as u64);
            dereference.push((a as Value, b as Value));
        }
        // Sparse cross-cluster assigns (calls / globals).
        if clusters > 1 {
            for _ in 0..2 {
                let other = rng.gen_range(0..n);
                assign.push((
                    (base + rng.gen_range(0..cluster_size as u64)) as Value,
                    other as Value,
                ));
            }
        }
    }
    CspaInput {
        assign,
        dereference,
    }
}

/// Input relations for one CSDA run.
#[derive(Clone, Debug, Default)]
pub struct CsdaInput {
    /// Control/data-flow edges `arc(w, y)`.
    pub arc: Vec<(Value, Value)>,
    /// Null-source seeds `nullEdge(x, y)`.
    pub null_edge: Vec<(Value, Value)>,
}

/// Generate a CSDA input: `chains` def-use chains of length `chain_len`,
/// cross-linked sparsely, with one null seed per chain head. Fixpoint depth
/// is ~`chain_len` with small per-iteration deltas.
pub fn csda(chains: u32, chain_len: u32, seed: u64) -> CsdaInput {
    let chains = chains.max(1);
    let chain_len = chain_len.max(2);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut arc = Vec::new();
    let mut null_edge = Vec::new();
    for c in 0..chains as u64 {
        let base = c * chain_len as u64;
        for i in 0..chain_len as u64 - 1 {
            arc.push(((base + i) as Value, (base + i + 1) as Value));
        }
        // Rare skip edges within the chain (branch joins).
        for _ in 0..chain_len / 50 {
            let i = rng.gen_range(0..chain_len as u64 - 1);
            let j = rng.gen_range(i + 1..chain_len as u64);
            arc.push(((base + i) as Value, (base + j) as Value));
        }
        null_edge.push((base as Value, base as Value));
    }
    CsdaInput { arc, null_edge }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn andersen_ratios_and_determinism() {
        let a = andersen(1000, 3);
        assert_eq!(a.address_of.len(), 400);
        assert_eq!(a.assign.len(), 800);
        assert_eq!(a.load.len(), 250);
        assert_eq!(a.store.len(), 200);
        assert_eq!(a.len(), 1650);
        let b = andersen(1000, 3);
        assert_eq!(a.assign, b.assign);
        assert!(a.assign.iter().all(|&(x, y)| x < 1000 && y < 1000));
    }

    #[test]
    fn andersen_hubs_are_hot() {
        let a = andersen(5000, 9);
        let hubs = 5000 / 50;
        let hub_endpoints = a
            .assign
            .iter()
            .flat_map(|&(x, y)| [x, y])
            .filter(|&v| v < hubs as Value)
            .count();
        let total = a.assign.len() * 2;
        // ~20% hub draw plus uniform mass: expect >15% of endpoints on hubs.
        assert!(hub_endpoints as f64 > 0.15 * total as f64);
    }

    #[test]
    fn cspa_clusters_are_local() {
        let input = cspa(10, 8, 5);
        assert!(!input.assign.is_empty());
        assert!(!input.dereference.is_empty());
        // Dereference edges never cross clusters.
        for &(a, b) in &input.dereference {
            assert_eq!(a / 8, b / 8, "deref ({a},{b}) crosses clusters");
        }
    }

    #[test]
    fn csda_chains_have_expected_shape() {
        let input = csda(3, 100, 7);
        assert_eq!(input.null_edge.len(), 3);
        // At least the backbone edges exist.
        assert!(input.arc.len() >= 3 * 99);
        // All skip edges go forward (acyclic chains → bounded iterations).
        for &(a, b) in &input.arc {
            assert!(
                b > a || !((b - a) as u64).is_multiple_of(100),
                "unexpected edge ({a},{b})"
            );
        }
    }
}
