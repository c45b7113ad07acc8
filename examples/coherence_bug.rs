//! The paper's Figure 2 scenario, end to end: a store whose home cluster
//! is far away, followed by an aliased load scheduled locally. Free
//! scheduling reads stale data; the MDC and DDGT solutions eliminate
//! every violation.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example coherence_bug
//! ```

use distvliw::arch::MachineConfig;
use distvliw::coherence::{find_chains, transform, SchedConstraints};
use distvliw::ir::{AddressStream, DdgBuilder, DepKind, LoopKernel, OpKind, PrefMap, Width};
use distvliw::sched::{Heuristic, ModuloScheduler};
use distvliw::sim::{simulate_kernel, SimOptions};

/// Builds the Figure 2 loop: `store X; load X` every iteration, where
/// variable X lives in cluster 0's cache module.
fn figure2_kernel() -> LoopKernel {
    let mut b = DdgBuilder::new();
    let value = b.op(OpKind::IntAlu, &[]);
    let store = b.store(Width::W4, &[value]);
    let load = b.load(Width::W4);
    let _use = b.op(OpKind::IntAlu, &[load]);
    b.dep(store, load, DepKind::MemFlow, 0);
    // The next iteration's store overwrites what the load just read: a
    // memory-anti dependence at distance 1. DDGT's load–store
    // synchronization hangs off exactly this edge, so omitting it (as an
    // earlier revision of this example did) leaves the replicated store
    // racing the load.
    b.dep(load, store, DepKind::MemAnti, 1);
    let ddg = b.finish();

    let st_mem = ddg.node(store).mem_id().expect("store site");
    let ld_mem = ddg.node(load).mem_id().expect("load site");
    let mut kernel = LoopKernel::new("figure2", ddg, 256);
    for image in [&mut kernel.profile, &mut kernel.exec] {
        // Address 64 maps to cluster 0 under 4-byte word interleaving.
        image.insert(
            st_mem,
            AddressStream::Affine {
                base: 64,
                stride: 0,
            },
        );
        image.insert(
            ld_mem,
            AddressStream::Affine {
                base: 64,
                stride: 0,
            },
        );
    }
    kernel
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let machine = MachineConfig::paper_baseline();
    let kernel = figure2_kernel();
    let store = kernel.ddg.stores().next().expect("one store");
    let load = kernel.ddg.loads().next().expect("one load");

    // --- The bug: pin the store far from home, the load at home. ---
    let mut pathological = SchedConstraints::none();
    pathological.pinned.insert(store, 3);
    pathological.pinned.insert(load, 0);
    let schedule = ModuloScheduler::new(&machine)
        .with_latency_relaxation(false)
        .schedule(
            &kernel.ddg,
            &pathological,
            &PrefMap::new(),
            Heuristic::MinComs,
        )?;
    let stats = simulate_kernel(&machine, &kernel, &schedule, SimOptions);
    println!("Free scheduling (store in cluster 4, load in cluster 1):");
    println!("  {stats}");
    println!(
        "  -> {} stale reads: the store's update travels over a busy",
        stats.coherence_violations
    );
    println!("     memory bus and reaches variable X *after* the load reads it.\n");

    // --- Fix 1: MDC keeps the chain in one cluster. ---
    let chains = find_chains(&kernel.ddg);
    let constraints = SchedConstraints::for_mdc(&chains, &kernel.ddg, None, machine.n_clusters);
    let schedule = ModuloScheduler::new(&machine).schedule(
        &kernel.ddg,
        &constraints,
        &PrefMap::new(),
        Heuristic::MinComs,
    )?;
    let stats = simulate_kernel(&machine, &kernel, &schedule, SimOptions);
    println!("MDC (memory dependent chain colocated):");
    println!("  {stats}\n");
    assert_eq!(stats.coherence_violations, 0);

    // --- Fix 2: DDGT replicates the store; the home instance commits. ---
    let mut ddgt_kernel = kernel.clone();
    let report = transform(&mut ddgt_kernel.ddg, machine.n_clusters);
    let constraints = SchedConstraints::for_ddgt(&report);
    let schedule = ModuloScheduler::new(&machine).schedule(
        &ddgt_kernel.ddg,
        &constraints,
        &PrefMap::new(),
        Heuristic::MinComs,
    )?;
    let stats = simulate_kernel(&machine, &ddgt_kernel, &schedule, SimOptions);
    println!(
        "DDGT (store replicated {} ways, {} SYNC edges, {} fake consumers):",
        machine.n_clusters,
        report.sync_edges,
        report.fake_consumers.len()
    );
    println!("  {stats}");
    assert_eq!(stats.coherence_violations, 0);
    Ok(())
}
