//! Probe the toolchain channel for the `simd` feature: `std::simd`
//! (`portable_simd`) is nightly-only, so on stable/beta the feature
//! deliberately no-ops to the SWAR kernels (`grm_graph::kernel` module
//! docs) instead of failing the build. `--features simd` is therefore
//! always safe to pass — CI builds it on stable, and tests the
//! `std::simd` lanes in a best-effort nightly job.

use std::process::Command;

fn main() {
    println!("cargo::rustc-check-cfg=cfg(grm_nightly_simd)");
    println!("cargo::rerun-if-changed=build.rs");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let nightly = Command::new(rustc)
        .arg("--version")
        .output()
        .map(|out| String::from_utf8_lossy(&out.stdout).contains("nightly"))
        .unwrap_or(false);
    if nightly {
        println!("cargo::rustc-cfg=grm_nightly_simd");
    }
}
