//! The uninstrumented euclidean-cluster extraction — one self-join over
//! leaf pairs — against two oracles: PCL's instrumented per-point BFS
//! (the extraction under an enabled simulator) and a brute-force O(n²)
//! tolerance graph. Clusters must be identical, bit for bit, in every
//! tree mode and for every leaf size, on random scenes, degenerate
//! clouds and drive frames.

use kd_bonsai::cluster::{extract_euclidean_clusters, ClusterParams, FramePipeline, TreeMode};
use kd_bonsai::geom::Point3;
use kd_bonsai::kdtree::KdTreeConfig;
use kd_bonsai::lidar::{DrivingSequence, SequenceConfig};
use kd_bonsai::sim::{CpuConfig, SimEngine};
use proptest::prelude::*;

const MODES: [TreeMode; 3] = [
    TreeMode::Baseline,
    TreeMode::Bonsai,
    TreeMode::SoftwareCodec,
];

/// Connected components of the graph joining every pair with
/// `d²(p, q) ≤ r²` in `f32`, in order of their smallest index with
/// members ascending, size-filtered — by checking all pairs.
fn brute_force(points: &[Point3], tolerance: f32, min: usize, max: usize) -> Vec<Vec<u32>> {
    let n = points.len();
    let r_sq = tolerance * tolerance;
    let mut label: Vec<usize> = (0..n).collect();
    fn root(label: &mut [usize], mut i: usize) -> usize {
        while label[i] != i {
            i = label[i];
        }
        i
    }
    for i in 0..n {
        for j in i + 1..n {
            if points[i].distance_squared(points[j]) <= r_sq {
                let (a, b) = (root(&mut label, i), root(&mut label, j));
                label[a.max(b)] = a.min(b);
            }
        }
    }
    let mut clusters: Vec<Vec<u32>> = Vec::new();
    let mut slot = vec![usize::MAX; n];
    for i in 0..n {
        let r = root(&mut label, i);
        if slot[r] == usize::MAX {
            slot[r] = clusters.len();
            clusters.push(Vec::new());
        }
        clusters[slot[r]].push(i as u32);
    }
    clusters.retain(|c| (min..=max).contains(&c.len()));
    clusters
}

/// The self-join's clusters, checked against the instrumented BFS and
/// the brute-force graph.
fn check(cloud: &[Point3], tolerance: f32, leaf: usize, min: usize, max: usize) {
    let cfg = KdTreeConfig {
        max_leaf_points: leaf,
        ..KdTreeConfig::default()
    };
    let brute = brute_force(cloud, tolerance, min, max);
    for mode in MODES {
        let join = extract_euclidean_clusters(
            &mut SimEngine::disabled(),
            cloud.to_vec(),
            tolerance,
            min,
            max,
            cfg,
            mode,
        );
        let bfs = extract_euclidean_clusters(
            &mut SimEngine::new(&CpuConfig::a72_like()),
            cloud.to_vec(),
            tolerance,
            min,
            max,
            cfg,
            mode,
        );
        let ctx = format!("{mode:?}, leaf {leaf}, r {tolerance}, sizes {min}..={max}");
        assert_eq!(join.clusters, bfs.clusters, "join vs BFS: {ctx}");
        assert_eq!(join.clusters, brute, "join vs brute force: {ctx}");
        assert_eq!(join.build_stats, bfs.build_stats, "{ctx}");
        assert_eq!(join.compressed_bytes, bfs.compressed_bytes, "{ctx}");
    }
}

/// Random multi-blob scenes, plus a chain of points spaced exactly `r`
/// apart along x (so tree dividers fall between exact-`r` pairs) and a
/// run of duplicates.
fn arb_scene() -> impl Strategy<Value = (Vec<Point3>, f32)> {
    let blob = (
        (-20.0f32..20.0, -20.0f32..20.0),
        prop::collection::vec((-1.0f32..1.0, -1.0f32..1.0, 0.0f32..2.0), 1..50),
    )
        .prop_map(|((cx, cy), offsets)| {
            offsets
                .into_iter()
                .map(move |(dx, dy, z)| Point3::new(cx + dx, cy + dy, z))
                .collect::<Vec<_>>()
        });
    (
        prop::collection::vec(blob, 0..5),
        0usize..4,
        0usize..16,
        0usize..12,
        (-30i32..30, -30i32..30),
        0.1f32..1.5,
    )
        .prop_map(|(blobs, r_pick, chain, dups, (x0, y0), r_random)| {
            // Dyadic radii make the chain spacing exact.
            let r = [0.25f32, 0.5, 0.75, r_random][r_pick];
            let mut cloud = blobs.concat();
            for k in 0..chain {
                cloud.push(Point3::new(x0 as f32 + k as f32 * r, y0 as f32, 1.0));
            }
            if let Some(&p) = cloud.first() {
                cloud.extend(std::iter::repeat_n(p, dups));
            }
            (cloud, r)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn self_join_matches_bfs_and_brute_force(
        scene in arb_scene(),
        leaf in 1usize..=16,
        min_size in 1usize..12,
    ) {
        let (cloud, tolerance) = &scene;
        check(cloud, *tolerance, leaf, min_size, 100_000);
    }
}

#[test]
fn self_join_matches_bfs_on_degenerate_clouds() {
    let blob: Vec<Point3> = (0..40)
        .map(|i| {
            Point3::new(
                (i % 7) as f32 * 0.11,
                (i / 7) as f32 * 0.13,
                (i % 3) as f32 * 0.2,
            )
        })
        .collect();
    let mut non_finite = blob.clone();
    for (k, p) in [
        Point3::new(f32::NAN, 0.0, 0.0),
        Point3::new(f32::INFINITY, 0.0, 0.0),
        Point3::new(f32::NEG_INFINITY, 0.1, 0.0),
        Point3::new(0.0, f32::INFINITY, 0.0),
        Point3::new(0.2, 0.2, f32::NAN),
        Point3::new(f32::INFINITY, f32::INFINITY, f32::INFINITY),
    ]
    .into_iter()
    .enumerate()
    {
        non_finite.insert(k * 7, p);
    }
    // Exactly `r = 0.5` apart along x: one chain, cut by dividers.
    let chain: Vec<Point3> = (0..40)
        .map(|k| Point3::new(k as f32 * 0.5, 3.0, 1.0))
        .collect();
    // Pairs one ulp beyond `r` apart (and far from each other): no
    // edge anywhere.
    let step = f32::from_bits(0.5f32.to_bits() + 1);
    let beyond: Vec<Point3> = (0..24)
        .map(|k| Point3::new((k % 2) as f32 * step, (k / 2) as f32 * 3.0, 1.0))
        .collect();
    // Exact-`r` pairs along every axis, far from the origin, where f16
    // rows round the most.
    let far: Vec<Point3> = (0..30)
        .map(|k| {
            let o = Point3::new(3000.0, -2000.0, 40.0);
            let s = (k / 3) as f32 * 0.5;
            match k % 3 {
                0 => o + Point3::new(s, 0.0, 0.0),
                1 => o + Point3::new(0.0, s, 0.0),
                _ => o + Point3::new(0.0, 0.0, s),
            }
        })
        .collect();
    let clouds: Vec<(&str, Vec<Point3>)> = vec![
        ("empty", Vec::new()),
        ("one point", vec![Point3::new(1.0, 2.0, 3.0)]),
        ("100 duplicates", vec![Point3::new(4.0, -1.0, 0.5); 100]),
        ("non-finite", non_finite),
        ("exact-r chain", chain.clone()),
        ("one ulp beyond r", beyond),
        ("exact-r at a map offset", far),
        ("chain plus blob", [chain, blob].concat()),
    ];
    // `r = 2e19` squares to `r² = ∞`: every pair without a NaN is an
    // edge, ±∞ points included (the radius walkers used to prune the
    // far cell whose incremental distance became ∞ − ∞).
    for (name, cloud) in &clouds {
        eprintln!("{name}");
        for tolerance in [0.5, 2e19] {
            for leaf in [1, 2, 5, 15, 16] {
                for (min, max) in [(1, usize::MAX), (2, 30)] {
                    check(cloud, tolerance, leaf, min, max);
                }
            }
        }
    }
}

/// Every frame of the small test drive: the self-join (simulator off)
/// and the instrumented BFS (simulator on) give identical clusters and
/// boxes through the frame pipeline's extraction and post-processing.
#[test]
fn self_join_matches_bfs_on_drive_frames() {
    let seq = DrivingSequence::new(SequenceConfig::small_test());
    let pipeline = FramePipeline::new(ClusterParams::default());
    for k in 0..seq.num_frames() {
        let prepared = pipeline.preprocess(&mut SimEngine::disabled(), &seq.frame(k));
        for mode in [TreeMode::Baseline, TreeMode::Bonsai] {
            let join =
                pipeline.cluster_prepared(&mut SimEngine::disabled(), prepared.clone(), mode);
            let bfs = pipeline.cluster_prepared(
                &mut SimEngine::new(&CpuConfig::a72_like()),
                prepared.clone(),
                mode,
            );
            assert_eq!(
                join.output.clusters, bfs.output.clusters,
                "frame {k} {mode:?}"
            );
            assert_eq!(join.boxes, bfs.boxes, "frame {k} {mode:?}");
            assert!(!join.output.clusters.is_empty(), "frame {k} found nothing");
        }
    }
}

/// The join's work counters on four paper-drive frames, Bonsai mode,
/// pinned exactly: `nodes_visited` (node pairs of the dual walk),
/// `leaf_visits` (leaf pairs found, self pairs included),
/// `points_inspected` ((query, slot) pairs evaluated) and `fallbacks`.
/// The counters depend on no kernel or backend, so a change to the
/// join's work shows here.
#[test]
fn self_join_counters_on_paper_drive_frames() {
    // (frame, [nodes_visited, leaf_visits, points_inspected, fallbacks])
    const PINNED: [(usize, [u64; 4]); 4] = [
        (0, [7034, 2678, 138_402, 492]),
        (1200, [17_666, 6632, 118_305, 332]),
        (2400, [15_442, 5713, 126_886, 335]),
        (3600, [16_606, 5915, 110_927, 304]),
    ];
    let seq = DrivingSequence::new(SequenceConfig::paper_drive());
    let pipeline = FramePipeline::new(ClusterParams::default());
    let got: Vec<(usize, [u64; 4])> = PINNED
        .iter()
        .map(|&(k, _)| {
            let mut sim = SimEngine::disabled();
            let prepared = pipeline.preprocess(&mut sim, &seq.frame(k));
            let s = pipeline
                .cluster_prepared(&mut sim, prepared, TreeMode::Bonsai)
                .output
                .search_stats;
            let counters = [
                s.nodes_visited,
                s.leaf_visits,
                s.points_inspected,
                s.fallbacks,
            ];
            (k, counters)
        })
        .collect();
    assert_eq!(got, PINNED);
}
