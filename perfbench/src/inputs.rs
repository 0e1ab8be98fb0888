//! Seeded inputs: the neuron dataset as envelope boxes, the monitoring
//! read mix and the steering write schedule. Everything here is a pure
//! function of `--seed`, generated before any timing starts.

use simspatial_datagen::{Dataset, NeuronDatasetBuilder, PlasticityModel, QueryWorkload};
use simspatial_geom::{Aabb, Element, Point3, Shape};
use simspatial_index::ShardRouter;
use simspatial_service::Request;

/// Neurons in the dataset; each is one soma plus [`SEGMENTS`] segments.
pub const NEURONS: usize = 1172;
pub const SEGMENTS: usize = 255;
/// Elements per neuron: the size of one steering write.
pub const NEURON_ELEMENTS: usize = SEGMENTS + 1;
/// The library's neuron default is 100 µm for 10⁵ elements; the side grows
/// with the cube root of the element count to keep that density.
pub const UNIVERSE_SIDE: f32 = 144.0;
pub const SHARDS: usize = 4;
/// `SIMSPATIAL_THREADS` for every run: the development host's core count,
/// fixed so that runs on one host compare.
pub const THREADS: usize = 2;

/// Boxes in the per-step monitor batch of `plasticity_step`.
pub const MONITOR_BOXES: usize = 256;
pub const MONITOR_SELECTIVITY: f64 = 1e-4;

/// The read mix of the steering workloads: one round is eight requests.
pub const ROUND: usize = 8;
pub const POOL_ROUNDS: usize = 128;
pub const DASHBOARD_BOXES: usize = 64;
pub const DASHBOARD_SELECTIVITY: f64 = 1e-4;
pub const RANGE_BOXES: usize = 4;
pub const RANGE_SELECTIVITY: f64 = 1e-5;
pub const KNN_PROBES: usize = 4;
/// Per-axis standard deviation of a steering write's displacement, µm.
pub const STEER_SIGMA: f32 = 0.05;
/// Distance, µm, a steered neuron keeps from every shard boundary.
pub const STEER_MARGIN: f32 = 1.0;

pub struct Inputs {
    /// The dataset with every element's geometry replaced by its
    /// envelope: what the service holds after any write.
    pub data: Dataset,
    /// The steering read pool, `POOL_ROUNDS` rounds of the mix.
    pub reads: Vec<Request>,
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let data = neuron_boxes(seed);
        let reads = read_pool(data.universe(), seed);
        Inputs { data, reads }
    }

    pub fn envelopes(&self) -> Vec<Aabb> {
        self.data.elements().iter().map(Element::aabb).collect()
    }
}

fn neuron_boxes(seed: u64) -> Dataset {
    let grown = NeuronDatasetBuilder::new()
        .neurons(NEURONS)
        .segments_per_neuron(SEGMENTS)
        .universe_side(UNIVERSE_SIDE)
        .seed(seed)
        .build();
    let boxes = grown
        .elements()
        .iter()
        .map(|e| Element::new(e.id, Shape::Box(e.aabb())))
        .collect();
    Dataset::new(boxes, grown.universe())
}

/// One round: two 64-box `RangeCount` dashboards, three 4-box `Range`
/// requests and three 4-probe `Knn` requests with k = 4, 8 and 12.
fn read_pool(universe: Aabb, seed: u64) -> Vec<Request> {
    let mut q = QueryWorkload::new(universe, seed ^ 0x5EAD_0001);
    let mut pool = Vec::with_capacity(POOL_ROUNDS * ROUND);
    for _ in 0..POOL_ROUNDS {
        for slot in 0..ROUND {
            pool.push(match slot {
                0 | 5 => {
                    Request::RangeCount(q.range_queries(DASHBOARD_SELECTIVITY, DASHBOARD_BOXES))
                }
                1 | 3 | 6 => Request::Range(q.range_queries(RANGE_SELECTIVITY, RANGE_BOXES)),
                _ => {
                    let k = [4, 8, 12][(slot - 2) / 2 % 3];
                    Request::Knn(
                        q.knn_points(KNN_PROBES)
                            .into_iter()
                            .map(|p| (p, k))
                            .collect(),
                    )
                }
            });
        }
    }
    pool
}

/// The first `count` steering writes. Write `i` moves every element of
/// one neuron (contiguous ids, one spatial cluster) by one small
/// displacement; `state` is advanced so later writes start from the moved
/// boxes. Only neurons that lie inside one shard, with a margin of
/// [`STEER_MARGIN`], are steered, so every write applies to exactly one
/// shard and costs the same.
pub fn steering_writes(state: &mut [Aabb], seed: u64, count: usize) -> Vec<Vec<(u32, Aabb)>> {
    let router = ShardRouter::new(Aabb::union_all(state.iter().copied()), SHARDS);
    let inside: Vec<usize> = (0..NEURONS)
        .filter(|n| {
            let cells = &state[n * NEURON_ELEMENTS..(n + 1) * NEURON_ELEMENTS];
            let envelope = Aabb::union_all(cells.iter().copied()).inflate(STEER_MARGIN);
            router.route(&envelope).len() == 1
        })
        .collect();
    let mut pick = SplitMix(seed ^ 0x57EE_0002);
    let mut step = PlasticityModel::with_sigma(STEER_SIGMA, seed ^ 0x57EE_0003);
    (0..count)
        .map(|_| {
            let neuron = inside[(pick.next() % inside.len() as u64) as usize];
            let d = step.sample();
            let first = neuron * NEURON_ELEMENTS;
            (first..first + NEURON_ELEMENTS)
                .map(|id| {
                    state[id] = state[id].translate(d);
                    (id as u32, state[id])
                })
                .collect()
        })
        .collect()
}

/// The range boxes and kNN probes carried by `reads`.
pub fn queries(reads: &[Request]) -> (Vec<Aabb>, Vec<Point3>) {
    let mut boxes = Vec::new();
    let mut probes = Vec::new();
    for r in reads {
        match r {
            Request::Range(b) | Request::RangeCount(b) => boxes.extend_from_slice(b),
            Request::Knn(p) => probes.extend(p.iter().map(|(p, _)| *p)),
            _ => {}
        }
    }
    (boxes, probes)
}

/// SplitMix64: a tiny, fixed generator for the write schedule.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
