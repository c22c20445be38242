//! Deterministic waypoint mobility.
//!
//! A mobile station walks a piecewise-linear path through its
//! waypoints at constant speed and stops at the last one. Position is
//! a pure function of elapsed time — no randomness — so mobile runs
//! inherit the engine's bit-exact reproducibility.

use airtime_sim::SimDuration;

use crate::geom::Point;

/// A constant-speed walk through a sequence of waypoints.
#[derive(Clone, PartialEq, Debug)]
pub struct WaypointPath {
    /// The path's corners, in visit order. The first is the starting
    /// position.
    pub waypoints: Vec<Point>,
    /// Walking speed, feet per second. The paper's roaming discussion
    /// assumes pedestrian motion (~3–5 ft/s).
    pub speed_fps: f64,
}

impl WaypointPath {
    /// A path through `waypoints` at `speed_fps`. The path must be
    /// non-empty and the speed positive and finite; the topology's
    /// validator checks both (`TopologyConfig::validate`).
    pub fn new(waypoints: Vec<Point>, speed_fps: f64) -> Self {
        WaypointPath {
            waypoints,
            speed_fps,
        }
    }

    /// Position after walking for `elapsed`, clamped to the final
    /// waypoint once the path is exhausted.
    pub fn position(&self, elapsed: SimDuration) -> Point {
        let mut remaining_ft = self.speed_fps * elapsed.as_secs_f64();
        let mut here = self.waypoints[0];
        for &next in &self.waypoints[1..] {
            let leg = here.distance_ft(next);
            if leg <= 0.0 {
                here = next;
                continue;
            }
            if remaining_ft < leg {
                return here.lerp(next, remaining_ft / leg);
            }
            remaining_ft -= leg;
            here = next;
        }
        here
    }

    /// Total path length, feet.
    pub fn length_ft(&self) -> f64 {
        self.waypoints
            .windows(2)
            .map(|w| w[0].distance_ft(w[1]))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path() -> WaypointPath {
        WaypointPath::new(
            vec![
                Point::new(0.0, 0.0),
                Point::new(100.0, 0.0),
                Point::new(100.0, 50.0),
            ],
            5.0,
        )
    }

    #[test]
    fn position_walks_segments_at_constant_speed() {
        let p = path();
        assert_eq!(p.position(SimDuration::ZERO), Point::new(0.0, 0.0));
        assert_eq!(
            p.position(SimDuration::from_secs(10)),
            Point::new(50.0, 0.0)
        );
        // 100 ft along = 20 s; 5 s more covers 25 ft of the second leg.
        assert_eq!(
            p.position(SimDuration::from_secs(25)),
            Point::new(100.0, 25.0)
        );
    }

    #[test]
    fn position_clamps_at_the_final_waypoint() {
        let p = path();
        assert_eq!(
            p.position(SimDuration::from_secs(3_600)),
            Point::new(100.0, 50.0)
        );
        assert_eq!(p.length_ft(), 150.0);
    }

    #[test]
    fn zero_length_legs_are_skipped() {
        let p = WaypointPath::new(
            vec![
                Point::new(1.0, 1.0),
                Point::new(1.0, 1.0),
                Point::new(4.0, 5.0),
            ],
            1.0,
        );
        assert_eq!(p.position(SimDuration::from_secs(5)), Point::new(4.0, 5.0));
    }
}
