//! Quickstart: build a Bonsai tree over a small cloud, run a radius
//! search on compressed leaves, and verify the result matches the
//! uncompressed baseline bit-for-bit in membership.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use kd_bonsai::core::BonsaiTree;
use kd_bonsai::geom::Point3;
use kd_bonsai::kdtree::{KdTree, KdTreeConfig};
use kd_bonsai::sim::SimEngine;

fn main() {
    // A toy "scene": two clusters of points plus scattered noise.
    let mut cloud = Vec::new();
    for i in 0..400 {
        let (cx, cy) = if i % 2 == 0 {
            (10.0, 5.0)
        } else {
            (-6.0, -3.0)
        };
        let a = i as f32 * 0.37;
        cloud.push(Point3::new(
            cx + (a.sin() * 1.3),
            cy + (a.cos() * 1.1),
            1.0 + 0.3 * ((i % 7) as f32 / 7.0),
        ));
    }

    // Build: the k-d tree plus the compressed leaf directory.
    let mut sim = SimEngine::disabled();
    let tree = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
    let stats = tree.compression_stats();
    println!(
        "built tree: {} leaves, compressed {} -> {} bytes ({:.1}% of baseline)",
        stats.leaves,
        stats.baseline_bytes,
        stats.compressed_bytes,
        stats.compression_ratio() * 100.0
    );

    // The baseline tree over the same points keeps f32 leaf rows; the
    // Bonsai tree keeps only the f16 ones, so it is the smaller index.
    let baseline_tree = KdTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
    let per_point = |bytes: u64| bytes as f64 / cloud.len() as f64;
    println!(
        "resident index: {:.1} B/pt compressed vs {:.1} B/pt baseline",
        per_point(tree.resident_bytes()),
        per_point(baseline_tree.resident_bytes())
    );

    // Search compressed vs baseline: identical membership, guaranteed.
    let query = cloud[42];
    let radius = 1.0;
    let mut bonsai: Vec<u32> = tree
        .radius_search_simple(query, radius)
        .iter()
        .map(|n| n.index)
        .collect();
    let mut baseline: Vec<u32> = baseline_tree
        .radius_search_simple(query, radius)
        .iter()
        .map(|n| n.index)
        .collect();
    bonsai.sort_unstable();
    baseline.sort_unstable();
    assert_eq!(
        bonsai, baseline,
        "compressed search must match the baseline"
    );
    println!(
        "radius search at {query} r={radius}: {} neighbours (identical to baseline)",
        bonsai.len()
    );

    // Leaf value similarity — the compression source (paper Section III-A).
    println!(
        "leaves with uniform <sign,exp>: x {:.0}%  y {:.0}%  z {:.0}%",
        stats.uniform_fraction(0) * 100.0,
        stats.uniform_fraction(1) * 100.0,
        stats.uniform_fraction(2) * 100.0
    );

    // Production querying: the batch engine answers many queries in one
    // allocation-free call (add `search_batch_parallel` for threads).
    let engine = kd_bonsai::core::RadiusSearchEngine::bonsai(&tree);
    let mut batch = kd_bonsai::kdtree::QueryBatch::new();
    engine.search_batch(&cloud, radius, &mut batch);
    assert_eq!(batch.results(42).len(), bonsai.len());
    println!(
        "batched: {} queries -> {} neighbours, {} points inspected, {:.2}% fallbacks",
        batch.num_queries(),
        batch.total_matches(),
        batch.stats().points_inspected,
        batch.stats().fallback_ratio() * 100.0
    );
}
