//! The paper's flagship workload end to end: parallel association-rule
//! mining over a PFS file striped across a fleet of NASD drives (§5.2).
//!
//! ```sh
//! cargo run --example parallel_mining
//! ```
//!
//! Builds a 4-drive NASD PFS cluster, generates synthetic sales
//! transactions (standing in for the paper's 300 MB retail file), writes
//! them striped across the drives, then runs the 1-itemset pass with the
//! paper's structure — clients taking 2 MB chunks round-robin, four
//! producer threads and one consumer each — and finally completes the
//! Apriori passes to surface the planted association rules.

#![deny(clippy::allow_attributes_without_reason)]
#![expect(
    clippy::disallowed_methods,
    reason = "prints the pipeline's wall time; no result depends on it"
)]

use nasd::mining::apriori;
use nasd::mining::{parallel::parallel_frequent_items, TransactionGenerator};
use nasd::object::DriveConfig;
use nasd::pfs::PfsCluster;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const DRIVES: usize = 4;
    const STRIPE_UNIT: u64 = 128 * 1024; // request size = stripe unit
    const CHUNK: u64 = 512 * 1024; // scaled-down distribution chunk
    const DATA_BYTES: usize = 8 << 20; // scaled-down dataset

    let cluster = Arc::new(PfsCluster::spawn_with_config(
        DRIVES,
        STRIPE_UNIT,
        DriveConfig::prototype(),
    )?);
    println!(
        "PFS cluster: {} NASD drives, {} KB stripe unit",
        DRIVES,
        STRIPE_UNIT / 1024
    );

    // Generate and load the sales file (records aligned so none straddles
    // a request boundary, as in the paper).
    let data = TransactionGenerator::new(1998).generate_bytes(DATA_BYTES, STRIPE_UNIT as usize);
    let loader = cluster.client(0);
    let file = loader.create("/sales.db", DRIVES)?;
    loader.write_at(&file, 0, &data)?;
    println!(
        "loaded {:.1} MB of transactions into {}",
        data.len() as f64 / 1e6,
        file.path
    );

    // The parallel 1-itemset pass (Figure 9's measured phase).
    for nclients in [1usize, 2, 4] {
        let start = std::time::Instant::now();
        let result = parallel_frequent_items(&cluster, "/sales.db", nclients, CHUNK, STRIPE_UNIT)?;
        let secs = start.elapsed().as_secs_f64();
        println!(
            "{nclients} client(s): {} transactions, {:.1} MB read, {:.1} MB/s (host wall clock)",
            result.transactions,
            result.bytes_read as f64 / 1e6,
            result.bytes_read as f64 / 1e6 / secs
        );
    }

    // Full Apriori on a slice of the data: recover the planted rules.
    // (Support floor of ~4% keeps the candidate space small.)
    let slice = &data[..1 << 20];
    let txns = nasd::mining::TransactionReader::new(slice, STRIPE_UNIT as usize).count() as u64;
    let fs = apriori::mine(slice, STRIPE_UNIT as usize, txns * 4 / 100, 3);
    println!(
        "\nApriori: {} transactions, {} frequent items, {} pairs, {} triples",
        fs.transactions,
        fs.count_at(1),
        fs.count_at(2),
        fs.count_at(3)
    );
    if let Some(support) = fs.support(&[1, 2, 3]) {
        println!(
            "rule recovered: {{milk, eggs}} => {{bread}} (itemset {{1,2,3}}, support {support})"
        );
    }
    Ok(())
}
