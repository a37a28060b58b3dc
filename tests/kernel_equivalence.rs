//! The vectorized counting kernel is a pure execution strategy: on the
//! Fig. 1 toy network and the Pokec-like / DBLP-like workloads, the
//! kernel-backed miner must return bit-identical `top` and identical
//! `MinerStats::semantic()` to the scalar-loop miner — sequentially and
//! at 1/2/4 worker threads — with `kernel_batches` live exactly when
//! the kernels are on.

use social_ties::core::parallel::{try_mine_parallel_with_opts, ParallelOptions};
use social_ties::core::Dims;
use social_ties::datagen::{dblp_config_scaled, pokec_config_scaled};
use social_ties::{generate, toy_network, GrMiner, MinerConfig, SocialGraph};

fn assert_kernel_is_pure(g: &SocialGraph, cfg: &MinerConfig, label: &str) {
    let kernel_cfg = cfg.clone();
    let scalar_cfg = cfg.clone().without_kernel();
    let dims = Dims::all(g.schema());

    let seq_kernel = GrMiner::new(g, kernel_cfg.clone()).mine();
    let seq_scalar = GrMiner::new(g, scalar_cfg.clone()).mine();
    assert_eq!(
        seq_kernel.top, seq_scalar.top,
        "{label}: sequential kernel/scalar outputs diverged"
    );
    assert_eq!(
        seq_kernel.stats.semantic(),
        seq_scalar.stats.semantic(),
        "{label}: sequential semantic counters diverged"
    );
    assert_eq!(
        seq_scalar.stats.kernel_batches, 0,
        "{label}: scalar mode must not touch the kernels"
    );
    if g.edge_count() >= social_ties::graph::kernel::LANES {
        assert!(
            seq_kernel.stats.kernel_batches > 0,
            "{label}: kernel mode must batch"
        );
    }

    // Parallel matrix. Under the *static* threshold the enumeration is
    // fully deterministic, so outputs and semantic counters must both
    // match; in *dynamic* mode the shared bound makes the work counters
    // timing-dependent, so only outputs are compared — between the
    // kernel and scalar engines, which both pin the static semantics.
    let static_kernel = kernel_cfg.clone().without_dynamic_topk();
    let static_scalar = scalar_cfg.clone().without_dynamic_topk();
    let seq_static = GrMiner::new(g, static_kernel.clone()).mine();
    for threads in [1usize, 2, 4] {
        let opts = ParallelOptions {
            threads,
            split_min: 1,
            ..ParallelOptions::default()
        };
        let par_kernel = try_mine_parallel_with_opts(g, &static_kernel, &dims, opts).unwrap();
        let par_scalar = try_mine_parallel_with_opts(g, &static_scalar, &dims, opts).unwrap();
        assert_eq!(
            par_kernel.top, par_scalar.top,
            "{label}: parallel kernel/scalar outputs diverged (threads {threads})"
        );
        assert_eq!(
            par_kernel.stats.semantic(),
            par_scalar.stats.semantic(),
            "{label}: parallel semantic counters diverged (threads {threads})"
        );
        assert_eq!(
            seq_static.top, par_kernel.top,
            "{label}: parallel kernel run diverged from sequential (threads {threads})"
        );
        assert_eq!(par_scalar.stats.kernel_batches, 0, "{label}");

        if cfg.dynamic_topk {
            let dyn_kernel = try_mine_parallel_with_opts(g, &kernel_cfg, &dims, opts).unwrap();
            let dyn_scalar = try_mine_parallel_with_opts(g, &scalar_cfg, &dims, opts).unwrap();
            assert_eq!(
                dyn_kernel.top, dyn_scalar.top,
                "{label}: dynamic kernel/scalar outputs diverged (threads {threads})"
            );
            assert_eq!(
                dyn_kernel.top, seq_static.top,
                "{label}: dynamic parallel deviated from static semantics (threads {threads})"
            );
        }
    }
}

#[test]
fn toy_network_kernel_equivalence() {
    let g = toy_network();
    for cfg in [
        MinerConfig::nhp(1, 0.5, 10),
        MinerConfig::nhp(1, 0.0, 100).without_dynamic_topk(),
        MinerConfig::conf(1, 0.4, 20),
    ] {
        assert_kernel_is_pure(&g, &cfg, "toy");
    }
}

#[test]
fn pokec_like_kernel_equivalence() {
    let g = generate(&pokec_config_scaled(0.02)).unwrap();
    assert!(g.edge_count() > 0);
    let min_supp = (g.edge_count() as u64 / 1000).max(1);
    assert_kernel_is_pure(&g, &MinerConfig::nhp(min_supp, 0.5, 50), "pokec");
}

#[test]
fn dblp_like_kernel_equivalence() {
    let g = generate(&dblp_config_scaled(0.05)).unwrap();
    assert!(g.edge_count() > 0);
    assert_kernel_is_pure(&g, &MinerConfig::nhp(3, 0.5, 50), "dblp");
}
