//! Walking routes and visit timetables.

use crate::poi::PoiMap;
use srtd_runtime::json::{Json, ToJson};
use srtd_runtime::rng::Rng;

/// One POI visit on a walk: the task performed and when the walker arrived.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Visit {
    /// Task/POI index.
    pub task: usize,
    /// Arrival timestamp in seconds from campaign start.
    pub arrival: f64,
}

/// A walking trace: an ordered sequence of POI visits with arrival times.
///
/// # Examples
///
/// ```
/// use srtd_runtime::rng::SeedableRng;
/// use srtd_sensing::{mobility::Walk, PoiMap};
///
/// let map = PoiMap::campus(10, 1);
/// let mut rng = srtd_runtime::rng::StdRng::seed_from_u64(2);
/// let walk = Walk::plan_in_order(&map, &[3, 7, 1], 0.0, 1.3, &mut rng);
/// assert_eq!(walk.visits().len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Walk {
    visits: Vec<Visit>,
}

impl Walk {
    /// Mean dwell time at a POI while performing the measurement (s).
    pub const DWELL_MEAN_S: f64 = 45.0;
    /// Spread of the dwell time (s).
    pub const DWELL_STD_S: f64 = 12.0;

    /// Plans a walk visiting `tasks` exactly in the order given
    /// (duplicates after the first occurrence are dropped).
    ///
    /// Legitimate volunteers string POIs together "according to their own
    /// preference" (§V-A), so their visit orders differ even when their
    /// task sets coincide — the variation AG-TR uses to tell two fully
    /// active users apart.
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is empty, contains an out-of-range id, or
    /// `speed_mps` is not positive.
    pub fn plan_in_order<R: Rng + ?Sized>(
        map: &PoiMap,
        tasks: &[usize],
        start_time: f64,
        speed_mps: f64,
        rng: &mut R,
    ) -> Self {
        assert!(!tasks.is_empty(), "a walk must visit at least one POI");
        assert!(
            tasks.iter().all(|&t| t < map.len()),
            "task id out of range for the POI map"
        );
        assert!(speed_mps > 0.0, "walking speed must be positive");
        let mut seen = vec![false; map.len()];
        let mut t = start_time;
        let mut visits: Vec<Visit> = Vec::with_capacity(tasks.len());
        for &task in tasks {
            if seen[task] {
                continue;
            }
            seen[task] = true;
            if let Some(prev) = visits.last() {
                t += dwell(rng) + map.distance(prev.task, task) / speed_mps;
            }
            visits.push(Visit { task, arrival: t });
        }
        Self { visits }
    }

    /// The visits in travel order.
    pub fn visits(&self) -> &[Visit] {
        &self.visits
    }

    /// Total duration from first arrival to last arrival (s).
    pub fn duration(&self) -> f64 {
        match (self.visits.first(), self.visits.last()) {
            (Some(a), Some(b)) => b.arrival - a.arrival,
            _ => 0.0,
        }
    }
}

fn dwell<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    rng.normal(Walk::DWELL_MEAN_S, Walk::DWELL_STD_S)
        .clamp(10.0, 120.0)
}

impl ToJson for Visit {
    fn to_json(&self) -> Json {
        Json::obj([
            ("task", self.task.to_json()),
            ("arrival", self.arrival.to_json()),
        ])
    }
}

impl ToJson for Walk {
    fn to_json(&self) -> Json {
        Json::obj([("visits", self.visits.to_json())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srtd_runtime::rng::SeedableRng;
    use srtd_runtime::rng::StdRng;

    #[test]
    fn visits_all_requested_tasks_once() {
        let map = PoiMap::campus(10, 1);
        let mut rng = StdRng::seed_from_u64(1);
        let walk = Walk::plan_in_order(&map, &[2, 5, 8, 5], 100.0, 1.4, &mut rng);
        let mut tasks: Vec<usize> = walk.visits().iter().map(|v| v.task).collect();
        tasks.sort_unstable();
        assert_eq!(tasks, vec![2, 5, 8]);
    }

    #[test]
    fn timestamps_strictly_increase() {
        let map = PoiMap::campus(10, 2);
        let mut rng = StdRng::seed_from_u64(2);
        let walk = Walk::plan_in_order(&map, &[0, 9, 4, 7, 2], 0.0, 1.2, &mut rng);
        for w in walk.visits().windows(2) {
            assert!(w[1].arrival > w[0].arrival);
        }
    }

    #[test]
    fn starts_at_start_time_and_first_task() {
        let map = PoiMap::campus(5, 3);
        let mut rng = StdRng::seed_from_u64(3);
        let walk = Walk::plan_in_order(&map, &[3, 1], 250.0, 1.0, &mut rng);
        assert_eq!(walk.visits()[0].task, 3);
        assert_eq!(walk.visits()[0].arrival, 250.0);
    }

    #[test]
    fn walking_takes_realistic_time() {
        let map = PoiMap::campus(10, 4);
        let mut rng = StdRng::seed_from_u64(4);
        let walk = Walk::plan_in_order(&map, &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9], 0.0, 1.4, &mut rng);
        // 10 POIs over a 400×300 m campus: minutes, not hours or seconds.
        assert!(walk.duration() > 300.0, "{}", walk.duration());
        assert!(walk.duration() < 7200.0, "{}", walk.duration());
    }

    #[test]
    #[should_panic(expected = "at least one POI")]
    fn empty_task_list_panics() {
        let map = PoiMap::campus(3, 5);
        let mut rng = StdRng::seed_from_u64(5);
        Walk::plan_in_order(&map, &[], 0.0, 1.0, &mut rng);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_task_panics() {
        let map = PoiMap::campus(3, 6);
        let mut rng = StdRng::seed_from_u64(6);
        Walk::plan_in_order(&map, &[5], 0.0, 1.0, &mut rng);
    }
}
