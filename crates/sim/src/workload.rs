//! Random workload (system) generation.
//!
//! A [`WorkloadConfig`] describes the *shape* of a nested-transaction
//! workload — how many top-level transactions, how deep and wide the
//! nesting, how many accesses per leaf transaction, the read/write mix and
//! the object-popularity skew — and [`Workload::generate`] turns it into a
//! concrete [`SystemSpec`] with a seeded RNG. The same seed always yields
//! the same system, so experiments are reproducible.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ntx_model::transaction::TxProgram;
use ntx_model::{StdSemantics, SystemSpec};
use ntx_tree::{AccessKind, TxId, TxTree, TxTreeBuilder};

use crate::zipf::Zipf;

/// The family of object semantics used for every object of a workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SemanticsKind {
    /// Integer registers (read / overwrite).
    Registers,
    /// Counters (read / add).
    Counters,
    /// Bank accounts (balance / deposit / withdraw).
    Accounts,
    /// Integer sets (contains, size / insert, remove).
    Sets,
    /// FIFO queues (length, front / enqueue, dequeue).
    Queues,
}

/// Shape parameters of a generated workload.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Number of top-level transactions (children of `T₀`).
    pub top_level: usize,
    /// Nesting depth below the top level (0 = top-level transactions access
    /// data directly).
    pub depth: u32,
    /// Children per internal transaction at each nesting level.
    pub fanout: usize,
    /// Access leaves per deepest-level transaction.
    pub accesses_per_leaf: usize,
    /// Number of shared objects.
    pub objects: usize,
    /// Probability that an access is a read.
    pub read_fraction: f64,
    /// Zipf skew for object selection (0 = uniform).
    pub zipf_theta: f64,
    /// Object semantics.
    pub semantics: SemanticsKind,
    /// Whether internal transactions run their children sequentially
    /// (`false` = all at once, the concurrency-friendly default).
    pub sequential_children: bool,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            top_level: 3,
            depth: 1,
            fanout: 2,
            accesses_per_leaf: 2,
            objects: 4,
            read_fraction: 0.5,
            zipf_theta: 0.0,
            semantics: SemanticsKind::Registers,
            sequential_children: false,
        }
    }
}

/// A generated workload: the spec plus bookkeeping for experiments.
#[derive(Clone)]
pub struct Workload {
    /// The generated system.
    pub spec: SystemSpec<StdSemantics>,
    /// The seed it was generated from.
    pub seed: u64,
    /// Number of read accesses generated.
    pub reads: usize,
    /// Number of write accesses generated.
    pub writes: usize,
}

impl Workload {
    /// Generate the workload for `config` with the given `seed`.
    pub fn generate(config: &WorkloadConfig, seed: u64) -> Workload {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = TxTreeBuilder::new();
        let objects: Vec<_> = (0..config.objects.max(1))
            .map(|i| b.object(format!("obj{i}")))
            .collect();
        let zipf = Zipf::new(objects.len(), config.zipf_theta);
        let mut reads = 0usize;
        let mut writes = 0usize;

        // Recursive construction without recursion: (parent, level) queue.
        let mut frontier: Vec<(TxId, u32)> = Vec::new();
        for i in 0..config.top_level.max(1) {
            let t = b.internal(TxTree::ROOT, format!("t{i}"));
            frontier.push((t, 0));
        }
        while let Some((t, level)) = frontier.pop() {
            if level < config.depth {
                for i in 0..config.fanout.max(1) {
                    let c = b.internal(t, format!("{}c{i}", level));
                    frontier.push((c, level + 1));
                }
            } else {
                for i in 0..config.accesses_per_leaf.max(1) {
                    let obj = objects[zipf.sample(&mut rng)];
                    let is_read = rng.gen_bool(config.read_fraction.clamp(0.0, 1.0));
                    let (kind, opcode, param) = match (config.semantics, is_read) {
                        (_, true) => (AccessKind::Read, rng.gen_range(0..2u16), 0),
                        (SemanticsKind::Registers, false) => {
                            (AccessKind::Write, 0, rng.gen_range(1..100))
                        }
                        (SemanticsKind::Counters, false) => {
                            (AccessKind::Write, 0, rng.gen_range(-5..6))
                        }
                        (SemanticsKind::Accounts, false) => (
                            AccessKind::Write,
                            rng.gen_range(0..2u16),
                            rng.gen_range(1..20),
                        ),
                        (SemanticsKind::Sets, false) => (
                            AccessKind::Write,
                            rng.gen_range(0..2u16),
                            rng.gen_range(0..6),
                        ),
                        (SemanticsKind::Queues, false) => (
                            AccessKind::Write,
                            rng.gen_range(0..2u16),
                            rng.gen_range(0..50),
                        ),
                    };
                    if is_read {
                        reads += 1;
                    } else {
                        writes += 1;
                    }
                    b.access(t, format!("a{i}"), obj, kind, opcode, param);
                }
            }
        }
        let tree = Arc::new(b.build());
        let semantics: Vec<StdSemantics> = (0..tree.object_count())
            .map(|_| match config.semantics {
                SemanticsKind::Registers => StdSemantics::register(0),
                SemanticsKind::Counters => StdSemantics::counter(0),
                SemanticsKind::Accounts => StdSemantics::account(100),
                SemanticsKind::Sets => StdSemantics::IntSet,
                SemanticsKind::Queues => StdSemantics::Queue,
            })
            .collect();
        let mut spec = SystemSpec::new(tree.clone(), semantics);
        if config.sequential_children {
            for t in tree.all_tx() {
                if !tree.is_access(t) {
                    spec = spec.with_program(t, TxProgram::sequential(tree.children(t).to_vec()));
                }
            }
        }
        Workload {
            spec,
            seed,
            reads,
            writes,
        }
    }

    /// Generate an *all-writes* twin of this workload: same tree shape,
    /// seed and parameters, but every access declared a write (the paper's
    /// exclusive-locking degeneracy, experiment E8). Equivalent to setting
    /// `read_fraction = 0` with the same seed — but this variant keeps the
    /// same operations, merely re-declaring their lock class via
    /// `treat_reads_as_writes`.
    pub fn exclusive_twin(&self) -> Workload {
        let mut w = self.clone();
        w.spec.lock_config.treat_reads_as_writes = true;
        w
    }
}

/// Proptest strategies over workload shapes.
///
/// Property tests (see `tests/workload_props.rs`) draw [`WorkloadConfig`]s
/// from these strategies instead of hand-picking shapes, so invariants are
/// checked across the whole parameter space the experiment suite uses.
/// Failing shapes persist to `proptest-regressions/` and replay first.
pub mod strategies {
    use super::{SemanticsKind, WorkloadConfig};
    use proptest::prelude::*;

    /// Any of the five object-semantics families.
    pub fn semantics_kind() -> impl Strategy<Value = SemanticsKind> {
        (0usize..5).prop_map(|i| match i {
            0 => SemanticsKind::Registers,
            1 => SemanticsKind::Counters,
            2 => SemanticsKind::Accounts,
            3 => SemanticsKind::Sets,
            _ => SemanticsKind::Queues,
        })
    }

    /// Small-but-interesting workload shapes: each field spans the range
    /// the experiment tables actually exercise (up to 4 top-level
    /// transactions, nesting depth 2, fanout 3), so generated systems stay
    /// cheap enough to run and check hundreds of times per property.
    pub fn workload_config() -> impl Strategy<Value = WorkloadConfig> {
        (
            (1usize..5, 0u32..3, 1usize..4, 1usize..4, 1usize..7),
            (0.0f64..1.0, 0.0f64..1.5, semantics_kind(), any::<bool>()),
        )
            .prop_map(
                |(
                    (top_level, depth, fanout, accesses_per_leaf, objects),
                    (read_fraction, zipf_theta, semantics, sequential_children),
                )| WorkloadConfig {
                    top_level,
                    depth,
                    fanout,
                    accesses_per_leaf,
                    objects,
                    read_fraction,
                    zipf_theta,
                    semantics,
                    sequential_children,
                },
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let cfg = WorkloadConfig::default();
        let a = Workload::generate(&cfg, 7);
        let b = Workload::generate(&cfg, 7);
        assert_eq!(a.spec.tree.len(), b.spec.tree.len());
        assert_eq!(a.reads, b.reads);
        assert_eq!(a.writes, b.writes);
        // Same labels and kinds throughout.
        for t in a.spec.tree.all_tx() {
            assert_eq!(a.spec.tree.access(t), b.spec.tree.access(t));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = WorkloadConfig {
            objects: 8,
            ..Default::default()
        };
        let a = Workload::generate(&cfg, 1);
        let b = Workload::generate(&cfg, 2);
        let objs_a: Vec<_> = a
            .spec
            .tree
            .all_tx()
            .filter_map(|t| a.spec.tree.access(t))
            .collect();
        let objs_b: Vec<_> = b
            .spec
            .tree
            .all_tx()
            .filter_map(|t| b.spec.tree.access(t))
            .collect();
        assert_ne!(
            objs_a, objs_b,
            "two seeds produced identical access patterns"
        );
    }

    #[test]
    fn tree_shape_matches_config() {
        let cfg = WorkloadConfig {
            top_level: 2,
            depth: 2,
            fanout: 3,
            accesses_per_leaf: 2,
            ..Default::default()
        };
        let w = Workload::generate(&cfg, 0);
        let tree = &w.spec.tree;
        assert_eq!(tree.children(TxTree::ROOT).len(), 2);
        // 2 top + 2*3 level-1 + 2*9 level-2 internals + 18*2 accesses + root
        assert_eq!(tree.len(), 1 + 2 + 6 + 18 + 36);
        assert_eq!(w.reads + w.writes, 36);
    }

    #[test]
    fn read_fraction_extremes() {
        let all_reads = Workload::generate(
            &WorkloadConfig {
                read_fraction: 1.0,
                ..Default::default()
            },
            3,
        );
        assert_eq!(all_reads.writes, 0);
        let all_writes = Workload::generate(
            &WorkloadConfig {
                read_fraction: 0.0,
                ..Default::default()
            },
            3,
        );
        assert_eq!(all_writes.reads, 0);
    }

    #[test]
    fn zipf_skew_concentrates_accesses() {
        let cfg = WorkloadConfig {
            top_level: 8,
            accesses_per_leaf: 4,
            objects: 8,
            zipf_theta: 1.2,
            ..Default::default()
        };
        let w = Workload::generate(&cfg, 5);
        let mut counts = vec![0usize; w.spec.tree.object_count()];
        for t in w.spec.tree.all_tx() {
            if let Some(info) = w.spec.tree.access(t) {
                counts[info.object.index()] += 1;
            }
        }
        let max = *counts.iter().max().unwrap();
        let total: usize = counts.iter().sum();
        assert!(max * 3 > total, "no hotspot under zipf 1.2: {counts:?}");
    }

    #[test]
    fn exclusive_twin_only_flips_lock_config() {
        let w = Workload::generate(&WorkloadConfig::default(), 9);
        let e = w.exclusive_twin();
        assert!(e.spec.lock_config.treat_reads_as_writes);
        assert!(!w.spec.lock_config.treat_reads_as_writes);
        assert_eq!(w.spec.tree.len(), e.spec.tree.len());
    }

    #[test]
    fn sequential_children_programs() {
        let cfg = WorkloadConfig {
            sequential_children: true,
            ..Default::default()
        };
        let w = Workload::generate(&cfg, 11);
        let t0_children = w.spec.tree.children(TxTree::ROOT);
        let prog = w.spec.program_of(TxTree::ROOT);
        assert_eq!(prog.waves.len(), t0_children.len());
    }
}
