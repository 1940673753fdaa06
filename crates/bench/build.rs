//! Records the compiler and flags this crate was built with, so the
//! `BENCH_*.json` files its binaries write can carry them as host facts.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    // Cargo hands build scripts the effective rustflags (from
    // `.cargo/config.toml` or the environment), 0x1f-separated.
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .unwrap_or_default()
        .replace('\x1f', " ");
    println!("cargo:rustc-env=SUBSUB_BENCH_RUSTC={version}");
    println!("cargo:rustc-env=SUBSUB_BENCH_RUSTFLAGS={flags}");
    println!("cargo:rerun-if-changed=build.rs");
}
