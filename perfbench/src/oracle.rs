//! Brute-force answers over the benchmark's own copy of the envelopes,
//! written here without the library's kernels or indexes, so a reply is
//! checked against an independent computation.

use simspatial_geom::{Aabb, Point3};
use simspatial_service::{Request, Response};

/// Closed-box overlap, the predicate every index applies to envelopes.
fn overlaps(a: &Aabb, q: &Aabb) -> bool {
    a.min.x <= q.max.x
        && a.max.x >= q.min.x
        && a.min.y <= q.max.y
        && a.max.y >= q.min.y
        && a.min.z <= q.max.z
        && a.max.z >= q.min.z
}

pub fn count(envs: &[Aabb], q: &Aabb) -> u64 {
    envs.iter().filter(|a| overlaps(a, q)).count() as u64
}

fn ids(envs: &[Aabb], q: &Aabb) -> Vec<u32> {
    (0..envs.len() as u32)
        .filter(|&i| overlaps(&envs[i as usize], q))
        .collect()
}

/// Euclidean distance from `p` to the nearest point of the box.
fn distance(a: &Aabb, p: &Point3) -> f32 {
    let dx = (a.min.x - p.x).max(0.0).max(p.x - a.max.x);
    let dy = (a.min.y - p.y).max(0.0).max(p.y - a.max.y);
    let dz = (a.min.z - p.z).max(0.0).max(p.z - a.max.z);
    (dx * dx + dy * dy + dz * dz).sqrt()
}

/// The `k` nearest boxes in ascending `(distance, id)` order.
fn knn(envs: &[Aabb], p: &Point3, k: usize) -> Vec<(u32, f32)> {
    let mut all: Vec<(f32, u32)> = envs
        .iter()
        .enumerate()
        .map(|(i, a)| (distance(a, p), i as u32))
        .collect();
    let by = |a: &(f32, u32), b: &(f32, u32)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
    let k = k.min(all.len());
    if k < all.len() {
        all.select_nth_unstable_by(k, by);
        all.truncate(k);
    }
    all.sort_unstable_by(by);
    all.into_iter().map(|(d, i)| (i, d)).collect()
}

/// Checks one reply against the brute-force answer over `envs`.
pub fn check(envs: &[Aabb], request: &Request, response: &Response) -> Result<(), String> {
    match (request, response) {
        (Request::RangeCount(boxes), Response::RangeCount(counts)) => {
            if counts.len() != boxes.len() {
                return Err(format!("{} counts for {} boxes", counts.len(), boxes.len()));
            }
            for (i, (q, &got)) in boxes.iter().zip(counts).enumerate() {
                let want = count(envs, q);
                if got != want {
                    return Err(format!("box {i}: count {got}, brute force {want}"));
                }
            }
            Ok(())
        }
        (Request::Range(boxes), Response::Range(lists)) => {
            if lists.len() != boxes.len() {
                return Err(format!("{} lists for {} boxes", lists.len(), boxes.len()));
            }
            for (i, (q, got)) in boxes.iter().zip(lists).enumerate() {
                let mut got = got.clone();
                got.sort_unstable();
                if got != ids(envs, q) {
                    return Err(format!("box {i}: ids differ from brute force"));
                }
            }
            Ok(())
        }
        (Request::Knn(probes), Response::Knn(lists)) => {
            if lists.len() != probes.len() {
                return Err(format!("{} lists for {} probes", lists.len(), probes.len()));
            }
            for (i, ((p, k), got)) in probes.iter().zip(lists).enumerate() {
                if got.len() != *k {
                    return Err(format!("probe {i}: {} results for k = {k}", got.len()));
                }
                let ordered = got
                    .windows(2)
                    .all(|w| w[0].1 < w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0));
                if !ordered {
                    return Err(format!("probe {i}: not in ascending (distance, id) order"));
                }
                let want = knn(envs, p, *k);
                if *got != want {
                    return Err(format!(
                        "probe {i}: {got:?} differs from brute force {want:?}"
                    ));
                }
            }
            Ok(())
        }
        (Request::Update(moves), Response::Update(n)) if *n == moves.len() as u64 => Ok(()),
        (request, response) => Err(format!(
            "reply {response:?} does not answer a {} request",
            kind(request)
        )),
    }
}

pub fn kind(request: &Request) -> &'static str {
    match request {
        Request::Range(_) => "Range",
        Request::RangeCount(_) => "RangeCount",
        Request::Knn(_) => "Knn",
        Request::Update(_) => "Update",
        Request::Step(_) => "Step",
        Request::StepDelta(_) => "StepDelta",
        Request::Insert(_) => "Insert",
        Request::Remove(_) => "Remove",
    }
}
