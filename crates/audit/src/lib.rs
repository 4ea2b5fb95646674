//! Empty on purpose. The benchmark's frozen `benchmark/Cargo.lock` lists
//! this package as a dependency of `p2p-experiments`, and removing it would
//! make cargo rewrite that lockfile; it goes when the benchmark is unfrozen.
